// Structured run ledger: a JSONL event stream recording what a campaign
// did — spans, instants, counters — cheap enough to leave attached and
// deterministic enough to diff in CI.
//
// File format. Line 1 is a *volatile* header object
//
//   {"schema":"sfi-ledger","version":1,"mode":"logical","created_unix_s":N}
//
// which carries wall-clock provenance in both modes and is therefore
// excluded from byte comparisons (strip it with `tail -n +2`). Every
// subsequent line is one event:
//
//   {"seq":1,"ts":0,"tid":0,"ph":"B","name":"point","args":{...}}
//
// `ph` follows the Chrome trace-event vocabulary: "B"/"E" span begin/end,
// "i" instant, "X" pre-timed complete span (adds "dur"), "C" counter.
// `ts`/`dur` are microseconds since the ledger was opened. `tid` 0 is the
// dispatch thread; worker lanes are 1..N.
//
// Determinism contract. In Logical mode the ledger records only the
// *stable narrative* — events whose presence and payload are pure
// functions of the campaign spec: campaign/panel/point spans, bisection
// probes, stopping classifications, and non-"run." counters. Timestamps
// are zeroed, worker spans are dropped, and store hits/misses, batch
// spans, half-width trajectories and fast-path activations are omitted,
// because a warm rerun answers points from the store without recomputing
// them. The result is byte-identical across thread counts and warm/cold
// reruns (modulo the header line) for any healthy store; store-corruption
// warnings are emitted in both modes and are the documented exception.
// Wall mode records everything with real timestamps for humans and the
// Chrome exporter, including the instrumentation spans that say where
// the dispatch thread's time went (characterize / calibrate / dta_class /
// cdf_build / cdf_cache_{load,save}, decode, trial_run, forensic_trials).
// Those stay out of logical ledgers because a warm CDF cache and a cold
// one must read alike; emitters guard them with wall_ledger().
//
// Threading. All emission happens on the dispatch thread. Workers never
// touch the Ledger directly: per-thread buffers (e.g. the per-worker
// activity accumulators in mc/parallel) are drained by the dispatch
// thread at batch barriers via worker_span(), in worker-index order.
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace sfi::obs {

enum class TraceMode : std::uint8_t {
    Logical,  ///< byte-stable spec narrative; timestamps zeroed
    Wall,     ///< full event stream with wall-clock timestamps
};

const char* trace_mode_name(TraceMode mode);
/// Parses "logical"/"wall"; nullopt on anything else.
std::optional<TraceMode> parse_trace_mode(std::string_view text);

/// One key/value argument of an event, pre-rendered to deterministic JSON
/// (doubles via format_double, the same shortest-round-trip form the CSV
/// writer uses).
struct Field {
    Field(std::string_view key, std::string_view value);
    Field(std::string_view key, const char* value);
    Field(std::string_view key, double value);
    Field(std::string_view key, bool value);
    Field(std::string_view key, std::uint64_t value);
    Field(std::string_view key, std::int64_t value);
    Field(std::string_view key, int value)
        : Field(key, static_cast<std::int64_t>(value)) {}
    Field(std::string_view key, unsigned value)
        : Field(key, static_cast<std::uint64_t>(value)) {}

    std::string key;
    std::string json;  ///< rendered value, quotes included for strings
};

class Ledger {
public:
    /// Opens `path` for writing (truncating) and emits the header line;
    /// throws std::runtime_error when the file cannot be created.
    Ledger(const std::string& path, TraceMode mode);

    /// Writes to a caller-owned stream (tests); emits the header line.
    Ledger(std::ostream& os, TraceMode mode);

    ~Ledger();
    Ledger(const Ledger&) = delete;
    Ledger& operator=(const Ledger&) = delete;

    TraceMode mode() const { return mode_; }
    /// True in Logical mode — callers gate volatile events on this.
    bool logical() const { return mode_ == TraceMode::Logical; }

    /// Span begin/end on the dispatch lane (tid 0).
    void begin(std::string_view name, std::initializer_list<Field> args = {});
    void end(std::string_view name, std::initializer_list<Field> args = {});

    /// Point event on the dispatch lane.
    void instant(std::string_view name, std::initializer_list<Field> args = {});

    /// Pre-timed complete span on a worker lane (tid >= 1). Dropped in
    /// logical mode. Dispatch thread only: workers buffer their activity
    /// and the dispatch thread drains it at batch barriers.
    void worker_span(std::uint64_t tid, std::string_view name, double ts_us,
                     double dur_us, std::initializer_list<Field> args = {});

    /// Emits one "C" event per counter. Logical mode skips volatile
    /// ("run."-prefixed) names so the output stays byte-stable.
    void emit_metrics(const MetricsRegistry& metrics);

    /// Microseconds since the ledger was opened; always 0 in logical mode
    /// so event payloads stay byte-stable.
    double now_us() const;

    /// Flushes the stream; throws std::runtime_error naming the ledger
    /// once the stream has failed (a full disk, a closed pipe), so a lost
    /// trace is never silent. The destructor flushes without throwing.
    void flush();
    std::uint64_t events_written() const { return seq_; }

private:
    void emit(char ph, std::uint64_t tid, std::string_view name, double ts_us,
              double dur_us, bool has_dur, std::initializer_list<Field> args);
    void write_header();
    std::ostream& out() { return owned_ ? *owned_ : *external_; }

    TraceMode mode_;
    std::string name_;  ///< the file path, or "<stream>"; for diagnostics
    std::unique_ptr<std::ofstream> owned_;
    std::ostream* external_ = nullptr;
    std::uint64_t seq_ = 0;
    std::int64_t epoch_ns_ = 0;  // steady_clock epoch for now_us()
};

/// `ledger` when it records wall-clock spans, else null: the guard of the
/// wall-only instrumentation spans (see the determinism contract above).
inline Ledger* wall_ledger(Ledger* ledger) {
    return ledger != nullptr && !ledger->logical() ? ledger : nullptr;
}

/// Parsed event (reader side, used by sfi_trace and the exporter).
struct LedgerEvent {
    std::uint64_t seq = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;  // "X" events only
    std::uint64_t tid = 0;
    char ph = 'i';
    std::string name;
    /// Argument key -> raw JSON value slice, in emission order.
    std::vector<std::pair<std::string, std::string>> args;

    bool has_arg(std::string_view key) const;
    /// Unquoted string value; "" when absent or not a string.
    std::string arg_string(std::string_view key) const;
    /// Numeric value; `fallback` when absent or not a number.
    double arg_double(std::string_view key, double fallback = 0.0) const;
    std::uint64_t arg_uint(std::string_view key,
                           std::uint64_t fallback = 0) const;
    /// Boolean value; `fallback` when absent or not a JSON boolean.
    bool arg_bool(std::string_view key, bool fallback = false) const;
};

struct LedgerFile {
    std::string header_line;
    TraceMode mode = TraceMode::Wall;
    int version = 0;
    std::vector<LedgerEvent> events;
};

/// Parses a ledger stream; throws std::runtime_error on malformed input.
LedgerFile read_ledger(std::istream& is);
/// Opens and parses `path`; throws std::runtime_error on I/O or parse errors.
LedgerFile read_ledger_file(const std::string& path);

}  // namespace sfi::obs
