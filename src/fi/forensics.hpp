// Fault forensics: per-injection provenance and per-trial outcome
// taxonomy (opt-in; docs/ARCHITECTURE.md, "Fault forensics").
//
// The aggregate metrics (PointSummary, FiStats) say how MANY violations a
// point injects; this layer says WHERE each one landed and what became of
// it. A ForensicProbe attached to a FaultModel records every apply_fault
// as one compact FaultRecord — kernel cycle, PC, opcode/ExClass, endpoint
// bit, policy, pre/post bit value, FI-window id, razor fate — and a
// trial-end classifier (MonteCarloRunner::classify_trial) assigns each
// trial an OutcomeClass by diffing final architectural state against the
// golden run. The ForensicSink accumulates records and tallies across
// points and emits the VulnerabilityReport artifacts (per-ExClass /
// per-bit / per-PC injection->SDC derating, razor detection-latency
// histogram) as a binary record stream plus JSON/CSV tables.
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
/// the pinned Razor encodings).
inline constexpr std::uint8_t kRazorNone = 0;      ///< no detection stage
inline constexpr std::uint8_t kRazorDetected = 1;  ///< detected & replayed
inline constexpr std::uint8_t kRazorEscaped = 2;   ///< escaped detection
inline constexpr std::uint8_t kCwcDetected = 3;    ///< CWC weight violation caught
inline constexpr std::uint8_t kCwcEscaped = 4;     ///< balanced flip escaped CWC

/// Detector family a fate byte belongs to ("none", "razor", "cwc").
const char* detector_family_name(std::uint8_t fate);

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
    std::uint8_t razor = 0;      ///< kRazorNone / kRazorDetected / kRazorEscaped

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
/// std::runtime_error on a bad magic, record size or truncation.
std::vector<FaultRecord> read_fault_records(std::istream& is);

/// Per-trial record collector, attached to a FaultModel via
/// set_forensic_probe for the duration of one forensic trial. The model
/// base class drives it: begin_op from on_ex_result (stashes the event
/// context and the record watermark of the current op), record_injection
/// from apply_fault, mark_razor / mark_cwc from a detection decorator's
/// verdict. Its detected()/escaped() are the only detection counts (the
/// decorators keep none). trial/point_id are stamped after the run by
/// the caller.
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
    /// event (razor driving its inner model) is harmless: the watermark
    /// still brackets the records of this op.
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

    /// Razor verdict for the current op: stamps the fate onto every record
    /// the op produced and, on detection, logs the latency from the
    /// trial's first injection to this detection (cycles, >= 0).
    void mark_razor(bool detected) {
        mark_detector(detected, kRazorDetected, kRazorEscaped);
    }

    /// CWC verdict for the current op — same stamping and counters as
    /// mark_razor, different fate vocabulary, so classify_trial and the
    /// taxonomy checks treat both detector families uniformly.
    void mark_cwc(bool detected) {
        mark_detector(detected, kCwcDetected, kCwcEscaped);
    }

    std::uint32_t detected() const { return detected_; }
    std::uint32_t escaped() const { return escaped_; }
    const std::vector<FaultRecord>& records() const { return records_; }
    std::vector<FaultRecord> take_records() { return std::move(records_); }
    std::vector<std::uint32_t> take_latencies() {
        return std::move(latencies_);
    }

private:
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

    std::vector<FaultRecord> records_;
    std::vector<std::uint32_t> latencies_;  ///< one per detection, cycles
    std::uint32_t detected_ = 0;
    std::uint32_t escaped_ = 0;
    const ExEvent* ev_ = nullptr;  ///< valid for the duration of one op
    std::size_t op_watermark_ = 0;
    std::uint64_t first_injection_cycle_ = 0;
    bool saw_injection_ = false;
};

/// Per-point forensic tallies plus the metadata that names the point in
/// the artifacts.
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
};

/// Detection-latency histogram bucketing: bucket 0 holds latency 0,
/// bucket i >= 1 holds [2^(i-1), 2^i) cycles; the last bucket absorbs
/// the tail.
inline constexpr std::size_t kLatencyBuckets = 33;
std::size_t latency_bucket(std::uint32_t latency_cycles);

/// Aggregated vulnerability evidence over every recorded trial.
struct VulnerabilityReport {
    /// One derating row: of the trials with >= 1 injection at this key,
    /// how many ended as SDC.
    struct DeratingRow {
        std::string key;
        std::uint64_t injections = 0;  ///< records attributed to the key
        std::uint64_t trials = 0;      ///< trials with >= 1 such injection
        std::uint64_t sdc_trials = 0;  ///< of those, classified SDC
        double sdc_derating() const {
            return trials ? static_cast<double>(sdc_trials) /
                                static_cast<double>(trials)
                          : 0.0;
        }
    };

    /// One derating row split by detector family: the by_class table
    /// refined by which detection stage (none / razor / cwc) saw the
    /// injections — the per-class derating split the mitigation
    /// comparison campaign reads.
    struct DetectorDeratingRow {
        std::string ex_class;
        std::string detector;  ///< detector_family_name of the fate bytes
        std::uint64_t injections = 0;
        std::uint64_t trials = 0;
        std::uint64_t sdc_trials = 0;
        double sdc_derating() const {
            return trials ? static_cast<double>(sdc_trials) /
                                static_cast<double>(trials)
                          : 0.0;
        }
    };

    std::vector<DeratingRow> by_class;  ///< ExClass order
    std::vector<DeratingRow> by_bit;    ///< endpoint bit order
    std::vector<DeratingRow> by_pc;     ///< hotspots, injections descending
    std::vector<DetectorDeratingRow> by_class_detector;  ///< (class, family)
    std::array<std::uint64_t, kLatencyBuckets> detection_latency_hist{};
    std::uint64_t detections = 0;
};

/// Accumulates forensic trials across operating points and emits the
/// artifacts. Feed points with begin_point / add_trial strictly in
/// (point, trial-index) order — the record stream is written exactly in
/// feed order, which is what makes serial == parallel byte-identical
/// when the caller drains parallel results by trial index.
class ForensicSink {
public:
    /// Registers a point and returns its id (stamped into the records).
    std::uint32_t begin_point(std::string panel, std::string model,
                              std::string kernel, const OperatingPoint& point);

    /// Appends one forensically re-run trial of the current point.
    /// `records` are stamped with `point_id` here; `trial` must already be
    /// stamped by the runner.
    void add_trial(std::uint32_t point_id, OutcomeClass cls, bool finished,
                   bool correct, std::uint32_t razor_detected,
                   std::uint32_t razor_escaped,
                   std::vector<FaultRecord> records,
                   const std::vector<std::uint32_t>& detection_latencies);

    const std::vector<FaultRecord>& records() const { return records_; }
    const std::vector<ForensicPointInfo>& points() const { return points_; }
    std::uint64_t trials_recorded() const { return trials_recorded_; }
    bool empty() const { return points_.empty(); }

    /// Builds the aggregated report from the incremental tallies.
    VulnerabilityReport report() const;

    /// Serializes the record stream (write_fault_records).
    void write_records(std::ostream& os) const;

    /// Writes every artifact into `dir` (created if missing): records.bin,
    /// forensics.json, forensics_points.csv and the report CSV tables.
    /// Throws std::runtime_error on I/O failure.
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

/// Per-panel outcome tallies parsed back from forensics_points.csv — the
/// reader half used by sfi_trace when a forensic artifact sits next to a
/// run ledger. Tolerant: returns an empty map when the file is missing or
/// malformed rather than throwing.
struct ForensicPanelTally {
    std::uint64_t trials = 0;
    std::array<std::uint64_t, kOutcomeClassCount> outcomes{};
};

std::map<std::string, ForensicPanelTally> read_forensic_panel_tallies(
    const std::string& csv_path);

/// One forensics_points.csv row parsed back in file order — the join key
/// bench_cwc_compare uses to pair per-point detector counters with the
/// in-memory campaign sweeps (panel + point order). The detector counters
/// cover both families: a CWC stage feeds the same probe counters Razor
/// does, so "razor_detected"/"razor_escaped" read as "detector
/// detected/escaped" under a CWC panel.
struct ForensicPointRow {
    std::string panel;
    std::string model;
    std::string kernel;
    std::uint32_t point_id = 0;
    double freq_mhz = 0.0;
    double vdd = 0.0;
    double sigma_mv = 0.0;
    std::uint64_t trials = 0;
    std::uint64_t finished = 0;
    std::uint64_t correct = 0;
    std::uint64_t injections = 0;
    std::uint64_t razor_detected = 0;
    std::uint64_t razor_escaped = 0;
};

/// Reads forensics_points.csv rows in file order. Tolerant like
/// read_forensic_panel_tallies: a missing/malformed file returns an
/// empty vector rather than throwing.
std::vector<ForensicPointRow> read_forensic_points(
    const std::string& csv_path);

}  // namespace sfi
