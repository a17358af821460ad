#include "testing/reference_model_c.hpp"

#include <stdexcept>
#include <utility>

namespace sfi::testing {

ReferenceModelC::ReferenceModelC(std::shared_ptr<const TimingErrorCdfs> cdfs,
                                 const VddDelayFit& fit)
    : cdfs_(std::move(cdfs)), fit_(&fit) {
    if (!cdfs_) throw std::invalid_argument("ReferenceModelC: null CDF store");
    operating_point_changed();
}

ModelFeatures ReferenceModelC::features() const {
    return {"probabilistic period violation (using CDFs)", "DTA", true, true,
            "yes", true};
}

void ReferenceModelC::operating_point_changed() {
    base_window_ps_ = point_.period_ps() / fit_->factor(point_.vdd);
    noise_window_table_ = point_.noise.sigma_mv > 0.0
                              ? build_noise_window_table(point_, *fit_)
                              : std::vector<double>{};
    vdd_noise_ = VddNoise(point_.noise);
}

std::uint32_t ReferenceModelC::corrupt(const ExEvent& ev,
                                       std::uint32_t correct) {
    // Step 1: the capture window at Vref for this cycle's noise draw.
    double window = base_window_ps_;
    if (!noise_window_table_.empty()) {
        const double clip_v =
            point_.noise.clip_sigmas * point_.noise.sigma_mv * 1e-3;
        const double noise_v = vdd_noise_.draw(rng_);
        window = noise_window_table_[noise_table_index(
            clip_v, noise_v, noise_window_table_.size())];
    }
    // Steps 2+3: each endpoint's CDF at that window, one Bernoulli trial
    // per endpoint that can violate it.
    if (cdfs_->class_max_window_ps(ev.cls) <= window) return correct;
    std::uint32_t result = correct;
    for (const std::uint32_t endpoint : cdfs_->endpoints_by_criticality(ev.cls)) {
        if (cdfs_->endpoint_max_window_ps(ev.cls, endpoint) <= window) break;
        const double p = cdfs_->violation_prob(ev.cls, endpoint, window);
        if (p > 0.0 && rng_.chance(p))
            result = apply_fault(result, endpoint, ev.prev_result);
    }
    return result;
}

}  // namespace sfi::testing
