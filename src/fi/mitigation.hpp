// Error detection on top of any fault model — the mitigation approach the
// paper positions itself against ([1] Ernst et al., Razor; [2] Bowman et
// al., resilient core), plus constant-weight-code checking (fi/cwc.hpp).
// The paper's statistical FI makes this analysis possible: detection
// hardware turns timing errors into stall cycles instead of data
// corruption, so the interesting question becomes where the
// throughput-optimal overscaling point lies.
//
// DetectionModel decorates an inner fault model with one of two
// detectors. Every corrupted EX result is detected with the detector's
// probability and recovered (correct result; the detector's DetectorCost
// charges its penalty cycles); undetected corruptions escape to the
// application exactly as without mitigation.
//   * Razor: a flat `detection_coverage`, replayed through the pipeline.
//   * CWC: the exact code-domain probability of the corruption at hand
//     (cwc_detect_probability), recomputed at the checker.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "fi/cwc.hpp"
#include "fi/models.hpp"

namespace sfi {

struct RazorConfig {
    double detection_coverage = 1.0;    ///< P(detect | corrupted result)
    unsigned replay_penalty_cycles = 11;  ///< pipeline replay cost per detection
};

/// Knobs of the CWC detection stage.
struct CwcConfig {
    unsigned block_bits = 8;  ///< k; must divide 32 (CwcCode::for_block_bits)
    /// Pipeline stall per detection — the corrupted result is recomputed
    /// at a relaxed (checker) path, not replayed through the pipeline, so
    /// this is a fraction of Razor's 11-cycle replay.
    unsigned recovery_penalty_cycles = 2;
};

/// The price of a detection stage — the one cost definition every
/// mitigation driver reads (bench_ext_razor per trial, bench_cwc_compare
/// per point; docs/MITIGATIONS.md, "Cost"). A checker in series with EX
/// derates the clock for good, each detection stalls the pipeline for
/// `penalty_cycles`, and the detection hardware adds static power. The
/// default prices a bare model: free.
struct DetectorCost {
    double latency_frac = 0.0;    ///< static clock derating: f / (1 + frac)
    double energy_frac = 0.0;     ///< static power overhead: P · (1 + frac)
    unsigned penalty_cycles = 0;  ///< stall per detection (replay, recovery)

    /// Throughput at clock `f_mhz` of a run of `kernel_cycles` with
    /// `detections` detections (a per-trial mean may be fractional):
    /// (f / (1 + latency_frac)) · K / (K + detections · penalty_cycles),
    /// in this evaluation order (CSVs print it at full precision). An
    /// empty run with no stalls runs at the derated clock.
    double effective_mhz(double f_mhz, std::uint64_t kernel_cycles,
                         double detections) const;
    /// Power of the protected core given the bare core's.
    double power_uw(double bare_uw) const {
        return bare_uw * (1.0 + energy_frac);
    }
};

/// Razor's price: `replay_penalty_cycles` per detection, no clock
/// derating, and the shadow latches' and control's switching energy —
/// Ernst et al. report ~3 % total power for Razor I.
DetectorCost razor_cost(const RazorConfig& config);

/// CWC's price, derived from the code geometry of `config.block_bits`:
/// the encode/decode logic in series with the EX stage derates the clock
/// by one percent per check bit, 0.01 · (n − k); the widened n-bit
/// datapath costs 0.5 · (n − k) / k switching energy per protected k-bit
/// block; each detection stalls for `recovery_penalty_cycles`. Throws
/// std::invalid_argument on a block width CwcCode::for_block_bits
/// rejects.
DetectorCost cwc_cost(const CwcConfig& config);

/// A detection stage, spelled by its config: Razor replay or CWC weight
/// checking. Either config converts implicitly.
using Detector = std::variant<RazorConfig, CwcConfig>;

/// The detector's price: razor_cost or cwc_cost.
DetectorCost detector_cost(const Detector& detector);

/// The detector's name: "razor", or "cwc<k>" for k-bit CWC blocks.
/// DetectionModel names itself "<detector>(<inner model>)".
std::string detector_name(const Detector& detector);

/// The detection decorator. It wraps an inner FaultModel, turns some
/// corruptions into detections, and keeps one contract for both
/// detectors (tests/fi/test_mitigation_contract.cpp): deep clone, reseed
/// of the inner model on a salted stream, forwarded sampling mode,
/// clean-op credit and forensic probe, the inner model's reachability,
/// and one verdict draw per corruption stamped on the probe with the
/// detector's fate pair (ForensicProbe::mark_detector). The probe is the
/// only detection count; what detections cost is detector_cost's
/// business. The two detectors differ only in the verdict probability,
/// the inner-stream salt, the fate pair, the name and the cost.
class DetectionModel final : public FaultModel {
public:
    /// Throws std::invalid_argument on a null inner model, a Razor
    /// coverage outside [0, 1] or a CWC block width CwcCode rejects.
    DetectionModel(std::unique_ptr<FaultModel> inner, const Detector& detector);

    std::string name() const override {
        return family_ + "(" + inner_->name() + ")";
    }
    ModelFeatures features() const override { return inner_->features(); }
    /// Deep copy: clones the inner fault model, so a clone continues
    /// exactly where the original stands.
    std::unique_ptr<FaultModel> clone() const override;

    const FaultModel& inner() const { return *inner_; }

    /// Reseeds the verdict-draw stream and the inner fault model, the
    /// latter on a stream salted per detector, so razor(C) and cwc8(C)
    /// decorating the same inner model draw independently.
    void reseed(std::uint64_t seed) override;

    /// The sampling mode only matters to the inner model's draw stream,
    /// but is forwarded so both agree (and name() reports the variant).
    void set_sampling_mode(FaultSamplingMode mode) override {
        FaultModel::set_sampling_mode(mode);
        inner_->set_sampling_mode(mode);
    }

    /// Detection only reacts to inner injections, so reachability is the
    /// inner model's (arms the zero-fault trial fast path).
    bool can_inject() const override { return inner_->can_inject(); }

    /// Clean ALU ops count toward this model's and the inner model's
    /// statistics, exactly as corrupt() would have driven them.
    void count_clean_ops(std::uint64_t n) override {
        FaultModel::count_clean_ops(n);
        inner_->count_clean_ops(n);
    }

    /// The probe observes the inner model's injections (corrupt() drives
    /// it through on_ex_result), and this decorator stamps its verdict
    /// onto those records — so it is shared with the inner model.
    void set_forensic_probe(ForensicProbe* probe) override {
        FaultModel::set_forensic_probe(probe);
        inner_->set_forensic_probe(probe);
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;

private:
    DetectionModel(const DetectionModel& other);

    std::unique_ptr<FaultModel> inner_;
    std::string family_;           ///< detector_name
    double coverage_ = 0.0;        ///< Razor: the flat P(detect)
    std::optional<CwcCode> code_;  ///< CWC: P(detect) from the code
};

}  // namespace sfi
