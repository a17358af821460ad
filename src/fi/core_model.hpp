// CharacterizedCore: one-stop assembly of the whole characterization
// flow — build the ALU netlist, annotate timing, calibrate to the paper's
// block targets, run STA, run the DTA characterization kernel and build
// the CDF store. This is what examples and benches instantiate.
//
// DTA is the only expensive step (seconds); pass `cdf_cache_path` to
// reuse a previous characterization. The cache is invalidated when the
// configuration fingerprint changes.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "circuits/alu.hpp"
#include "fi/cdf.hpp"
#include "fi/models.hpp"
#include "fi/sampling_batch.hpp"
#include "timing/calibration.hpp"
#include "timing/dta.hpp"
#include "timing/sta.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

namespace obs {
class Ledger;
}

struct CoreModelConfig {
    AluConfig alu;
    TimingLibConfig lib;
    CalibrationTargets calibration;
    DtaConfig dta;
    /// Optional binary cache for the (deterministic) DTA result.
    std::string cdf_cache_path;
    /// Draw-stream mode stamped onto models built by the factories.
    /// Batched keeps the fingerprint unsalted; Quantized is the
    /// alias-sampled "B-q" variant and gets its own fingerprint so stored
    /// results never collide.
    FaultSamplingMode fault_sampling = FaultSamplingMode::Batched;
};

/// FNV-1a hash of every CoreModelConfig knob that affects the
/// characterization result (the cache path is deliberately excluded),
/// plus a salt for the Quantized sampling variant.
/// This is the invalidation key of the CDF cache and one ingredient of
/// the campaign point-store keys (src/campaign/): two configs with equal
/// fingerprints characterize to identical cores.
std::uint64_t core_config_fingerprint(const CoreModelConfig& config);

class CharacterizedCore {
public:
    /// A wall-mode `ledger` gets a "characterize" span {cached} around
    /// the constructor body, with child spans "calibrate" (calibration +
    /// STA), "cdf_cache_load" (when the cache file exists) and, when the
    /// cache misses, the ten "dta_class" spans, "cdf_build" and
    /// "cdf_cache_save". Logical ledgers get nothing: a warm and a cold
    /// cache must read alike there. A cache miss characterizes each
    /// class on `threads` workers (run_dta_class; 0 = one per hardware
    /// thread). The thread count never changes the result, so it is not
    /// part of the fingerprint.
    explicit CharacterizedCore(CoreModelConfig config = {},
                               obs::Ledger* ledger = nullptr,
                               std::size_t threads = 1);

    const Alu& alu() const { return alu_; }
    const TimingLib& lib() const { return lib_; }
    const InstanceTiming& timing() const { return timing_; }
    const StaResult& sta() const { return sta_; }
    const std::shared_ptr<const TimingErrorCdfs>& cdfs() const { return cdfs_; }
    const CoreModelConfig& config() const { return config_; }
    /// core_config_fingerprint(config()).
    std::uint64_t fingerprint() const { return core_config_fingerprint(config_); }

    /// Design STA frequency limit (MHz) at a supply voltage — the "STA"
    /// marker of the paper's figures (707 MHz at 0.7 V by calibration).
    double sta_fmax_mhz(double vdd) const;

    /// Instruction-conditioned dynamic frequency limit: the highest f at
    /// which `cls` has zero error probability without noise, at `vdd`.
    double dynamic_fmax_mhz(ExClass cls, double vdd) const;

    // Fault-model factories (models keep references into this core; the
    // core must outlive them).
    std::unique_ptr<ModelA> make_model_a(double flip_probability) const;
    std::unique_ptr<ModelB> make_model_b() const;
    std::unique_ptr<ModelC> make_model_c() const;

private:
    CoreModelConfig config_;
    Alu alu_;
    TimingLib lib_;
    InstanceTiming timing_;
    StaResult sta_;
    std::shared_ptr<const TimingErrorCdfs> cdfs_;
};

}  // namespace sfi
