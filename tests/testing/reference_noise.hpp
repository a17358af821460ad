// Reference supply-noise draw (test oracle): one clipped-Gaussian value
// per call and its round-half-up map onto a noise-window table row — the
// plainest reading of the paper's per-cycle noise (§3.3, Fig. 3).
//
// Models B+ and C draw the same way, one value per op, but as the value's
// polar half (Rng::polar_half), whose factor and row they compute only
// when the op can violate at the draw's row (src/fi/sampling_batch.hpp,
// SafeRowPretest). Both must hand out exactly the rows, and leave the
// Rng exactly where, successive VddNoise::draw + noise_table_index calls
// would (tests/fi/test_sampling_batch.cpp,
// tests/fi/test_model_c_oracle.cpp).
// The reference walks of models B and C (reference_model_b.hpp,
// reference_model_c.hpp) sample through these two functions.
#pragma once

#include <algorithm>
#include <cstddef>

#include "fi/noise.hpp"
#include "util/rng.hpp"

namespace sfi::testing {

class VddNoise {
public:
    explicit VddNoise(NoiseConfig config = {}) : config_(config) {}

    /// Draws one per-cycle noise value in volts.
    double draw(Rng& rng) const {
        if (config_.sigma_mv <= 0.0) return 0.0;
        const double clip = config_.clip_sigmas * config_.sigma_mv;
        const double n = std::clamp(rng.normal(0.0, config_.sigma_mv), -clip, clip);
        return n * 1e-3;  // mV -> V
    }

private:
    NoiseConfig config_;
};

/// Maps a concrete noise draw (volts) to a row of the table
/// build_noise_window_table(point, fit, entries) builds, where `clip_v`
/// is the point's clip level in volts.
std::size_t noise_table_index(double clip_v, double noise_v,
                              std::size_t entries);

}  // namespace sfi::testing
