// Supply-voltage noise model (paper §3.3): zero-mean Gaussian with
// standard deviation sigma, clipped at +/- clip_sigmas * sigma to avoid
// physically unrealistic tail spikes. One independent value per cycle.
// The models draw it in blocks and map each value straight to a row of
// their noise-window table (fi/sampling_batch.hpp); the one-value-at-a-
// time draw they must reproduce lives with the test oracles
// (tests/testing/reference_noise.hpp).
#pragma once

namespace sfi {

struct NoiseConfig {
    double sigma_mv = 0.0;     ///< standard deviation in millivolts
    double clip_sigmas = 2.0;  ///< saturation point (paper: 2 sigma)

    bool operator==(const NoiseConfig&) const = default;
};

}  // namespace sfi
