// Content-addressed persistent store of completed Monte-Carlo points.
//
// Every PointSummary a campaign computes is appended under its 64-bit
// point key (campaign/spec.hpp) and flushed immediately, so a campaign
// killed mid-sweep loses at most the point in flight. A re-run looks
// every point up before computing it; by the determinism contract of the
// parallel Monte-Carlo engine (src/mc/parallel.hpp) a stored summary is
// bit-identical to what a recomputation would produce, which is what
// makes a warm re-run's CSV output byte-identical to a cold run's.
//
// On-disk format (same trick as the CDF cache, src/fi/core_model.cpp):
//
//   header:  8-byte magic "SFIPTS\x01\n", u32 format version
//   record:  u64 key, u32 payload size, payload bytes, u64 payload FNV-1a
//
// The payload is the raw little-endian serialization of one PointSummary
// (save_point_summary below). Loading stops at the first truncated or
// hash-mismatched record and discards everything from there on; the next
// insert truncates the file back to the last good record before
// appending, so one torn write (the expected result of a kill) never
// poisons the store. A wrong magic/version reads as an empty store and
// the file is rewritten on first insert.
//
// Concurrency: one store file, one writing process at a time. Records
// are appended in O_APPEND mode and each is flushed in a single write,
// so concurrent writers will not overwrite each other's records — but
// their records may interleave mid-record in pathological cases, and
// neither process sees the other's entries (each loaded the file at
// open). Torn bytes are caught by the per-record hash and dropped on the
// next load; for guaranteed-lossless sharing, run campaigns against a
// shared store sequentially.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/montecarlo.hpp"
#include "obs/ledger.hpp"

namespace sfi::campaign {

/// One recovery anomaly observed while opening a store file. These used
/// to happen silently; they now surface as ledger "store_warning" events
/// (both trace modes — corruption is the documented exception to the
/// logical byte-stability contract) or, without a ledger, as one stderr
/// line each.
struct StoreDiagnostic {
    enum class Kind : std::uint8_t {
        ForeignFile,  ///< wrong magic/version: read as empty, rewritten later
        CorruptTail,  ///< truncated record at EOF (torn write): tail dropped
        BitRot,       ///< payload hash mismatch: record + tail dropped
    };
    Kind kind = Kind::CorruptTail;
    std::uint64_t dropped_bytes = 0;   ///< bytes discarded from the file
    std::size_t records_loaded = 0;    ///< intact records before the damage
};

/// Stable short name ("foreign-file", "corrupt-tail", "bit-rot").
const char* store_diagnostic_name(StoreDiagnostic::Kind kind);

/// Raw binary serialization of one PointSummary. Doubles are written as
/// their object representation, so load(save(x)) == x bit for bit
/// (including the RunningStats accumulators).
void save_point_summary(std::ostream& os, const PointSummary& summary);
PointSummary load_point_summary(std::istream& is);

class PointStore {
public:
    /// In-memory store only (nothing persists).
    PointStore() = default;

    /// Opens (or creates on first insert) the store at `path`, loading
    /// every intact record. Corrupt or truncated trailing data is
    /// dropped; `recovered_bytes()` reports how much and `diagnostics()`
    /// says why. Each anomaly is emitted as a "store_warning" event on
    /// `ledger` when one is attached, else as a line on stderr.
    explicit PointStore(std::string path, obs::Ledger* ledger = nullptr);

    PointStore(const PointStore&) = delete;
    PointStore& operator=(const PointStore&) = delete;

    const std::string& path() const { return path_; }
    std::size_t size() const { return entries_.size(); }

    /// The summary stored under `key`, if any.
    std::optional<PointSummary> lookup(std::uint64_t key) const;

    /// Records `summary` under `key` and (for persistent stores) appends
    /// + flushes it so the entry survives a kill. Re-inserting an
    /// existing key is a no-op: by construction equal keys map to
    /// identical summaries.
    void insert(std::uint64_t key, const PointSummary& summary);

    /// Bytes of corrupt/truncated trailing data discarded while opening.
    std::uint64_t recovered_bytes() const { return recovered_bytes_; }

    /// Recovery anomalies observed while opening (empty for a healthy
    /// file). At most one per open with the current recovery strategy —
    /// loading stops at the first bad record.
    const std::vector<StoreDiagnostic>& diagnostics() const {
        return diagnostics_;
    }

private:
    void read_records();
    void report_diagnostics() const;
    void append_record(std::uint64_t key, const PointSummary& summary);

    std::string path_;
    std::unordered_map<std::uint64_t, PointSummary> entries_;
    std::ofstream out_;                ///< opened lazily on first insert
    bool header_ok_ = false;           ///< file exists with a valid header
    std::uint64_t valid_bytes_ = 0;    ///< good prefix length of the file
    std::uint64_t recovered_bytes_ = 0;
    std::vector<StoreDiagnostic> diagnostics_;
    obs::Ledger* ledger_ = nullptr;    ///< warning sink (may be null)
};

}  // namespace sfi::campaign
