// Razor-style error detection & replay on top of any fault model — the
// mitigation approach the paper positions itself against ([1] Ernst et
// al., Razor; [2] Bowman et al., resilient core). The paper's statistical
// FI makes this analysis possible: detection hardware turns timing errors
// into replay cycles instead of data corruption, so the interesting
// question becomes where the throughput-optimal overscaling point lies.
//
// ErrorDetectionModel decorates an inner fault model: every corrupted EX
// result is detected with probability `detection_coverage` and replayed
// (correct result; razor_cost charges `replay_penalty_cycles`); undetected
// corruptions escape to the application exactly as without mitigation.
#pragma once

#include <memory>

#include "fi/models.hpp"

namespace sfi {

struct RazorConfig {
    double detection_coverage = 1.0;    ///< P(detect | corrupted result)
    unsigned replay_penalty_cycles = 11;  ///< pipeline replay cost per detection
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

/// Razor-style detection decorator. It wraps an inner FaultModel, turns
/// some corruptions into detections, and keeps the contract every
/// detector shares (tests/fi/test_mitigation_contract.cpp): deep clone,
/// reseed of the inner model on a salted stream, forwarded sampling mode,
/// clean-op credit and forensic probe, the inner model's reachability,
/// and one verdict draw per corruption stamped on the probe
/// (ForensicProbe::mark_razor). The probe is the only detection count;
/// what detections cost is razor_cost's business.
class ErrorDetectionModel final : public FaultModel {
public:
    ErrorDetectionModel(std::unique_ptr<FaultModel> inner, RazorConfig config);

    std::string name() const override { return "razor(" + inner_->name() + ")"; }
    ModelFeatures features() const override { return inner_->features(); }
    /// Deep copy: clones the inner fault model, so a clone continues
    /// exactly where the original stands.
    std::unique_ptr<FaultModel> clone() const override;

    const FaultModel& inner() const { return *inner_; }
    const RazorConfig& config() const { return config_; }

    /// Reseeds both the detection draw stream and the inner fault model.
    void reseed(std::uint64_t seed) override {
        FaultModel::reseed(seed);
        inner_->reseed(seed ^ 0x52415a4fULL);  // distinct inner stream
    }

    /// The sampling mode only matters to the inner model's draw stream,
    /// but is forwarded so both agree (and name() reports the variant).
    void set_sampling_mode(FaultSamplingMode mode) override {
        FaultModel::set_sampling_mode(mode);
        inner_->set_sampling_mode(mode);
    }

    /// Detection only reacts to inner injections, so reachability is the
    /// inner model's (arms the zero-fault trial fast path for razor runs).
    bool can_inject() const override { return inner_->can_inject(); }

    /// Clean ALU ops count toward this model's and the inner model's
    /// statistics, exactly as corrupt() would have driven them.
    void count_clean_ops(std::uint64_t n) override {
        FaultModel::count_clean_ops(n);
        inner_->count_clean_ops(n);
    }

    /// The probe observes the inner model's injections (corrupt() drives
    /// it through on_ex_result), and this decorator stamps the razor
    /// verdict onto those records — so it is shared with the inner model.
    void set_forensic_probe(ForensicProbe* probe) override {
        FaultModel::set_forensic_probe(probe);
        inner_->set_forensic_probe(probe);
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;

private:
    ErrorDetectionModel(const ErrorDetectionModel& other);

    std::unique_ptr<FaultModel> inner_;
    RazorConfig config_;
};

}  // namespace sfi
