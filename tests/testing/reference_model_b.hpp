// Reference walk (test oracle) for fault models B and B+: one scalar
// VddNoise draw per op picks a row of the same noise-window table as
// sfi::ModelB (src/fi/models.hpp); then every endpoint whose STA window
// exceeds that capture window, most critical first, is injected. No
// violation-count table, no cumulative masks, no safe-row pretest.
// ModelB in Batched mode must be bit-identical to it in everything
// observable (tests/fi/test_sampling_batch.cpp, tests/mc/
// test_sampling_modes.cpp): latched values, FiStats and the Rng stream.
// Speed is a non-goal.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fi/models.hpp"
#include "testing/reference_noise.hpp"
#include "timing/sta.hpp"
#include "timing/vdd_model.hpp"

namespace sfi::testing {

class ReferenceModelB final : public FaultModel {
public:
    ReferenceModelB(StaResult sta, const VddDelayFit& fit);

    std::string name() const override { return "B (reference walk)"; }
    ModelFeatures features() const override;
    std::unique_ptr<FaultModel> clone() const override {
        return std::make_unique<ReferenceModelB>(*this);
    }

protected:
    std::uint32_t corrupt(const ExEvent& ev, std::uint32_t correct) override;
    void operating_point_changed() override;

private:
    StaResult sta_;
    const VddDelayFit* fit_;
    std::vector<double> window_ps_;     // per endpoint: delay + setup @ Vref
    std::vector<std::uint32_t> order_;  // endpoints by decreasing window
    double max_window_ps_ = 0.0;
    std::vector<double> noise_window_table_;
    double base_window_ps_ = 0.0;
    double noise_clip_v_ = 0.0;
    VddNoise vdd_noise_;
};

}  // namespace sfi::testing
