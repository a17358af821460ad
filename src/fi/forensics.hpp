// Fault forensics: per-injection provenance and per-trial outcome
// taxonomy (opt-in; docs/ARCHITECTURE.md, "Fault forensics").
//
// The aggregate metrics (PointSummary, FiStats) say how MANY violations a
// point injects; this layer says WHERE each one landed and what became of
// it. A ForensicProbe attached to a FaultModel records every apply_fault
// as one compact FaultRecord — kernel cycle, PC, opcode/ExClass, endpoint
// bit, policy, pre/post bit value, FI-window id, detector fate — and a
// trial-end classifier (MonteCarloRunner::classify_trial) assigns each
// trial an OutcomeClass by diffing final architectural state against the
// golden run. The ForensicSink folds each point's trials into one
// ForensicPointInfo and into the vulnerability tallies (per-ExClass /
// per-bit / per-PC injection->SDC derating, detection-latency histogram)
// and writes them as a binary record stream plus JSON/CSV tables;
// read_forensic_points parses the per-point table back.
//
// Guarantees:
//  * Zero overhead off. No probe attached (the default) means the hot
//    paths pay one null-pointer test per ALU op at most; PointSummary,
//    store fingerprints and every existing CSV/JSON artifact are
//    byte-identical with forensics disabled.
//  * Determinism on. A probed trial consumes exactly the RNG stream of an
//    unprobed one (model B's batched bulk-mask apply falls back to the
//    provably identical per-endpoint walk, which draws nothing), records
//    are appended in simulation order, and the drain happens in
//    trial-index order — so serial and parallel record streams are
//    bitwise identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu.hpp"
#include "fi/models.hpp"

namespace sfi {

/// Architectural fate of one Monte-Carlo trial. Precedence (first match):
/// Hang, SDC, Detected, LatentCorrupt, Masked — so the tallies reconcile
/// exactly with the aggregate counters: hang = trials - finished_count,
/// sdc = finished_count - correct_count, masked + latent + detected =
/// correct_count.
enum class OutcomeClass : std::uint8_t {
    Masked,         ///< finished, correct, architectural state == golden
    LatentCorrupt,  ///< finished, correct output, but arch state differs
    SDC,            ///< finished with a wrong output (silent data corruption)
    Hang,           ///< did not finish (watchdog or fatal stop)
    Detected,       ///< finished correct with >= 1 razor detection
    kCount
};

constexpr std::size_t kOutcomeClassCount =
    static_cast<std::size_t>(OutcomeClass::kCount);

/// Stable identifier ("masked", "latent_corrupt", "sdc", "hang",
/// "detected") used in every artifact.
const char* outcome_class_name(OutcomeClass cls);

/// Detector fate of a record (FaultRecord::razor — the field keeps its
/// original name for stream compatibility; values 3/4 extend the
/// vocabulary for the constant-weight-code detector without disturbing
/// the pinned Razor encodings). Each detector stamps its own pair.
inline constexpr std::uint8_t kRazorNone = 0;      ///< no detection stage
inline constexpr std::uint8_t kRazorDetected = 1;  ///< detected & replayed
inline constexpr std::uint8_t kRazorEscaped = 2;   ///< escaped detection
inline constexpr std::uint8_t kCwcDetected = 3;    ///< CWC weight violation caught
inline constexpr std::uint8_t kCwcEscaped = 4;     ///< balanced flip escaped CWC

/// One injected endpoint violation. Serialized little-endian in exactly
/// this field order (kFaultRecordBytes, no padding bytes written); the
/// binary stream is what CI byte-compares across thread counts.
struct FaultRecord {
    std::uint32_t trial = 0;     ///< absolute Monte-Carlo trial index
    std::uint32_t point_id = 0;  ///< ForensicSink point registry id
    std::uint64_t cycle = 0;     ///< absolute cycle of the EX computation
    std::uint32_t pc = 0;        ///< PC of the corrupted instruction
    std::uint16_t window = 0;    ///< FI-window ordinal (1 = first kernel entry)
    std::uint8_t op = 0;         ///< static_cast<uint8_t>(Op)
    std::uint8_t cls = 0;        ///< static_cast<uint8_t>(ExClass)
    std::uint8_t endpoint = 0;   ///< ALU endpoint bit position (0..31)
    std::uint8_t policy = 0;     ///< static_cast<uint8_t>(FaultPolicy)
    std::uint8_t pre_bit = 0;    ///< endpoint bit before the fault
    std::uint8_t post_bit = 0;   ///< endpoint bit latched after the fault
    std::uint8_t razor = 0;      ///< detector fate: kRazorNone .. kCwcEscaped

    bool operator==(const FaultRecord&) const = default;
};

inline constexpr std::size_t kFaultRecordBytes = 30;
/// records.bin starts with this 8-byte magic, then u32 record size, then
/// u32 record count, then the records.
inline constexpr char kForensicMagic[9] = "SFIFRNS1";

/// Serializes `records` (header + payload) to `os`.
void write_fault_records(std::ostream& os,
                         const std::vector<FaultRecord>& records);

/// Parses a stream written by write_fault_records; throws
/// std::runtime_error on a bad magic, record size or truncation. The
/// header's record count is not trusted for allocation: the records grow
/// with the bytes that actually arrive.
std::vector<FaultRecord> read_fault_records(std::istream& is);

/// One trial re-run under a ForensicProbe, as
/// MonteCarloRunner::run_forensics returns it: the ordinary outcome plus
/// the per-injection provenance records and the trial's outcome class.
/// Forensics never feeds PointSummary — the plain trial path stays the
/// single source of the paper's metrics, and this struct is strictly
/// additive observation on top of it.
struct TrialForensics {
    TrialOutcome outcome;
    OutcomeClass cls = OutcomeClass::Masked;
    /// Detector verdicts this trial, as the probe counted them (Razor or
    /// CWC; the names predate CWC). The one detection count: drivers
    /// price detections from these (DetectorCost, fi/mitigation.hpp).
    std::uint32_t razor_detected = 0;
    std::uint32_t razor_escaped = 0;
    std::vector<FaultRecord> records;  ///< injection order; trial stamped
    std::vector<std::uint32_t> detection_latencies;  ///< cycles, per detection
};

/// Per-trial record collector, attached to a FaultModel via
/// set_forensic_probe for the duration of one forensic trial. The model
/// base class drives it: begin_op from on_ex_result (stashes the event
/// context and the record watermark of the current op), record_injection
/// from apply_fault, mark_detector from DetectionModel's verdict. Its
/// detected()/escaped() are the only detection counts (the decorator
/// keeps none). trial/point_id are stamped after the run by the caller.
class ForensicProbe {
public:
    void start_trial() {
        records_.clear();
        latencies_.clear();
        detected_ = escaped_ = 0;
        ev_ = nullptr;
        op_watermark_ = 0;
        first_injection_cycle_ = 0;
        saw_injection_ = false;
    }

    /// One ALU op is being offered to the model. Re-entry with the same
    /// event (a detector driving its inner model) is harmless: the
    /// watermark still brackets the records of this op.
    void begin_op(const ExEvent& ev) {
        ev_ = &ev;
        op_watermark_ = records_.size();
    }

    /// One endpoint violation was injected into the current op.
    void record_injection(std::uint32_t endpoint, bool pre_bit, bool post_bit,
                          FaultPolicy policy) {
        if (ev_ == nullptr) return;  // apply_fault outside an op (tests)
        FaultRecord rec;
        rec.cycle = ev_->cycle;
        rec.pc = ev_->pc;
        rec.window = static_cast<std::uint16_t>(ev_->window);
        rec.op = static_cast<std::uint8_t>(ev_->op);
        rec.cls = static_cast<std::uint8_t>(ev_->cls);
        rec.endpoint = static_cast<std::uint8_t>(endpoint);
        rec.policy = static_cast<std::uint8_t>(policy);
        rec.pre_bit = pre_bit ? 1 : 0;
        rec.post_bit = post_bit ? 1 : 0;
        if (!saw_injection_) {
            saw_injection_ = true;
            first_injection_cycle_ = ev_->cycle;
        }
        records_.push_back(rec);
    }

    /// A detector's verdict for the current op: stamps the detector's
    /// fate (`fate_detected` or `fate_escaped`) onto every record the op
    /// produced and, on detection, logs the latency from the trial's
    /// first injection to this detection (cycles, >= 0). Both detectors
    /// count alike, so classify_trial and the taxonomy checks treat them
    /// uniformly.
    void mark_detector(bool detected, std::uint8_t fate_detected,
                       std::uint8_t fate_escaped) {
        const std::uint8_t fate = detected ? fate_detected : fate_escaped;
        for (std::size_t i = op_watermark_; i < records_.size(); ++i)
            records_[i].razor = fate;
        if (detected) {
            ++detected_;
            if (ev_ != nullptr)
                latencies_.push_back(static_cast<std::uint32_t>(
                    ev_->cycle - first_injection_cycle_));
        } else {
            ++escaped_;
        }
    }

    std::uint32_t detected() const { return detected_; }
    std::uint32_t escaped() const { return escaped_; }
    const std::vector<FaultRecord>& records() const { return records_; }
    std::vector<FaultRecord> take_records() { return std::move(records_); }
    std::vector<std::uint32_t> take_latencies() {
        return std::move(latencies_);
    }

private:
    std::vector<FaultRecord> records_;
    std::vector<std::uint32_t> latencies_;  ///< one per detection, cycles
    std::uint32_t detected_ = 0;
    std::uint32_t escaped_ = 0;
    const ExEvent* ev_ = nullptr;  ///< valid for the duration of one op
    std::size_t op_watermark_ = 0;
    std::uint64_t first_injection_cycle_ = 0;
    bool saw_injection_ = false;
};

/// One point's forensic tallies plus the metadata that names it in the
/// artifacts: the one per-point forensic record. ForensicSink::add_point
/// returns it, CampaignRunner hands it back in PanelResult::forensics,
/// and read_forensic_points parses it from forensics_points.csv. The
/// detector counters cover both detectors, so "razor_detected" /
/// "razor_escaped" read as "detector detected/escaped" under CWC.
struct ForensicPointInfo {
    std::uint32_t point_id = 0;
    std::string panel;
    std::string model;
    std::string kernel;
    double freq_mhz = 0.0;
    double vdd = 0.0;
    double sigma_mv = 0.0;
    std::uint64_t trials_sampled = 0;
    std::uint64_t finished = 0;
    std::uint64_t correct = 0;
    std::array<std::uint64_t, kOutcomeClassCount> outcomes{};
    std::uint64_t injections = 0;
    std::uint64_t razor_detected = 0;
    std::uint64_t razor_escaped = 0;

    bool operator==(const ForensicPointInfo&) const = default;
};

/// Detection-latency histogram bucketing: bucket 0 holds latency 0,
/// bucket i >= 1 holds [2^(i-1), 2^i) cycles; the last bucket absorbs
/// the tail.
inline constexpr std::size_t kLatencyBuckets = 33;
std::size_t latency_bucket(std::uint32_t latency_cycles);

/// Accumulates forensic points and emits the artifacts. Feed points with
/// add_point in point order, each with its trials in trial-index order —
/// the record stream is written exactly in feed order, which is what
/// makes serial == parallel byte-identical when the caller drains
/// parallel results by trial index.
class ForensicSink {
public:
    /// Registers one point, folds its forensically re-run trials into the
    /// point's record and the vulnerability tallies, and appends their
    /// records (stamped with the point's id; `trial` must already be
    /// stamped by the runner). Returns the point's record; the reference
    /// holds until the next add_point.
    const ForensicPointInfo& add_point(std::string panel, std::string model,
                                       std::string kernel,
                                       const OperatingPoint& point,
                                       std::vector<TrialForensics> trials);

    const std::vector<FaultRecord>& records() const { return records_; }
    const std::vector<ForensicPointInfo>& points() const { return points_; }
    std::uint64_t trials_recorded() const { return trials_recorded_; }

    /// Serializes the record stream (write_fault_records).
    void write_records(std::ostream& os) const;

    /// Writes every artifact into `dir` (created if missing): records.bin,
    /// forensics.json, forensics_points.csv and the derating and latency
    /// CSV tables. Throws std::runtime_error on I/O failure.
    void write_artifacts(const std::string& dir) const;

private:
    struct KeyTally {
        std::uint64_t injections = 0;
        std::uint64_t trials = 0;
        std::uint64_t sdc_trials = 0;
    };

    std::vector<FaultRecord> records_;
    std::vector<ForensicPointInfo> points_;
    std::uint64_t trials_recorded_ = 0;
    std::map<std::uint8_t, KeyTally> by_class_;
    std::map<std::uint8_t, KeyTally> by_bit_;
    std::map<std::uint32_t, KeyTally> by_pc_;
    /// (ExClass, detector family ordinal 0 none / 1 razor / 2 cwc).
    std::map<std::pair<std::uint8_t, std::uint8_t>, KeyTally>
        by_class_detector_;
    std::array<std::uint64_t, kLatencyBuckets> latency_hist_{};
    std::uint64_t detections_ = 0;
};

/// Reads forensics_points.csv back into per-point records, in file order
/// (sfi_trace sums them per panel). Columns are found by name; a column
/// the header lacks reads as empty / 0 in every row. Tolerant, never
/// throwing:
///   * a missing or unreadable file, an empty file, or a header without
///     a "panel" column yields no rows;
///   * a row is dropped, never patched, when it has fewer cells than the
///     header, or when a count cell is not wholly an unsigned decimal
///     (empty, signed, partly numeric like "3x", or out of range) or a
///     coordinate cell is not wholly a number.
/// Cells are split with csv_escape's quoting (quoted separators,
/// doubled quotes).
std::vector<ForensicPointInfo> read_forensic_points(
    const std::string& csv_path);

}  // namespace sfi
