#include "testing/reference_noise.hpp"

namespace sfi::testing {

std::size_t noise_table_index(double clip_v, double noise_v,
                              std::size_t entries) {
    if (clip_v <= 0.0) return entries / 2;
    const double t = (noise_v + clip_v) / (2.0 * clip_v);
    const auto idx = static_cast<std::ptrdiff_t>(
        t * static_cast<double>(entries - 1) + 0.5);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(entries) - 1));
}

}  // namespace sfi::testing
