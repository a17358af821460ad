// Reference walk (test oracle) for fault model C: the plainest reading of
// the paper's per-op procedure (Fig. 3) over the same CDF store, noise
// model and noise-window table as sfi::ModelC (src/fi/models.hpp).
//
// One scalar VddNoise draw per op (reference_noise.hpp) picks the capture
// window; then every endpoint of the op's class, most critical first,
// evaluates TimingErrorCdfs::violation_prob at that window and flips a
// Bernoulli coin — no count memo, no prefetched draws, no hoisted views.
// ModelC in Batched mode must be bit-identical to it in everything
// observable (tests/fi/test_model_c_oracle.cpp): latched values, FiStats,
// forensic records and the final Rng state. Speed is a non-goal.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fi/cdf.hpp"
#include "fi/models.hpp"
#include "testing/reference_noise.hpp"
#include "timing/vdd_model.hpp"

namespace sfi::testing {

class ReferenceModelC final : public FaultModel {
public:
    ReferenceModelC(std::shared_ptr<const TimingErrorCdfs> cdfs,
                    const VddDelayFit& fit);

    std::string name() const override { return "C (reference walk)"; }
    ModelFeatures features() const override;
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<ReferenceModelC>(*this);
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;

private:
    std::shared_ptr<const TimingErrorCdfs> cdfs_;
    const VddDelayFit* fit_;
    std::vector<double> noise_window_table_;
    double base_window_ps_ = 0.0;
    VddNoise vdd_noise_;
};

}  // namespace sfi::testing
