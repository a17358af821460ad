// Reference supply-noise draw (test oracle): one clipped-Gaussian value
// per call and its round-half-up map onto a noise-window table row — the
// plainest reading of the paper's per-cycle noise (§3.3, Fig. 3).
//
// The fault models never draw this way. They prefetch blocks of normals
// and convert them to rows in one pass (src/fi/sampling_batch.hpp); that
// path must hand out exactly the rows, and leave the Rng exactly where,
// successive VddNoise::draw + noise_table_index calls would
// (tests/fi/test_sampling_batch.cpp). The reference walks of models B
// and C (reference_model_b.hpp, reference_model_c.hpp) sample through
// these two functions.
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
