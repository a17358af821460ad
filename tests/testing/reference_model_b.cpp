#include "testing/reference_model_b.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace sfi::testing {

ReferenceModelB::ReferenceModelB(StaResult sta, const VddDelayFit& fit)
    : sta_(std::move(sta)), fit_(&fit) {
    window_ps_.resize(sta_.endpoint_ps.size());
    for (std::size_t e = 0; e < window_ps_.size(); ++e)
        window_ps_[e] = sta_.endpoint_ps[e] + sta_.setup_ps;
    order_.resize(window_ps_.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::sort(order_.begin(), order_.end(),
              [&](std::uint32_t lhs, std::uint32_t rhs) {
                  return window_ps_[lhs] > window_ps_[rhs];
              });
    max_window_ps_ =
        window_ps_.empty() ? 0.0
                           : *std::max_element(window_ps_.begin(), window_ps_.end());
    operating_point_changed();
}

ModelFeatures ReferenceModelB::features() const {
    if (point_.noise.sigma_mv > 0.0)
        return {"modulated period violation", "STA", true, true, "partially", false};
    return {"fixed period violation", "STA", true, false, "partially", false};
}

void ReferenceModelB::operating_point_changed() {
    base_window_ps_ = point_.period_ps() / fit_->factor(point_.vdd);
    noise_window_table_ = point_.noise.sigma_mv > 0.0
                              ? build_noise_window_table(point_, *fit_)
                              : std::vector<double>{};
    noise_clip_v_ = point_.noise.clip_sigmas * point_.noise.sigma_mv * 1e-3;
    vdd_noise_ = VddNoise(point_.noise);
}

std::uint32_t ReferenceModelB::corrupt(const ExEvent& ev,
                                       std::uint32_t correct) {
    // One noise draw, table lookup and per-endpoint walk per op.
    double window = base_window_ps_;
    if (!noise_window_table_.empty()) {
        const double n = vdd_noise_.draw(rng_);
        window = noise_window_table_[noise_table_index(
            noise_clip_v_, n, noise_window_table_.size())];
    }
    if (max_window_ps_ <= window) return correct;  // whole stage safe
    std::uint32_t result = correct;
    for (const std::uint32_t endpoint : order_) {
        if (window_ps_[endpoint] <= window) break;  // sorted: rest are safe
        result = apply_fault(result, endpoint, ev.prev_result);
    }
    return result;
}

}  // namespace sfi::testing
