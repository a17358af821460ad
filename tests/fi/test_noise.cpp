// The reference supply-noise draw (tests/testing/reference_noise.hpp):
// the clipped Gaussian of paper §3.3 that the models' batched sampling
// must reproduce draw for draw.
#include "testing/reference_noise.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace sfi {
namespace {

using testing::VddNoise;

TEST(VddNoise, ZeroSigmaIsSilent) {
    VddNoise noise;
    Rng rng(1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(noise.draw(rng), 0.0);
}

TEST(VddNoise, ClippedAtTwoSigma) {
    const VddNoise noise({.sigma_mv = 10.0, .clip_sigmas = 2.0});
    Rng rng(2);
    for (int i = 0; i < 100000; ++i) {
        const double n = noise.draw(rng);
        EXPECT_LE(std::abs(n), 0.020 + 1e-15);
    }
}

TEST(VddNoise, ClipIsActuallyReached) {
    const VddNoise noise({.sigma_mv = 10.0, .clip_sigmas = 2.0});
    Rng rng(3);
    int at_clip = 0;
    for (int i = 0; i < 100000; ++i)
        if (std::abs(noise.draw(rng)) >= 0.020 - 1e-12) ++at_clip;
    // P(|N| > 2 sigma) ~ 4.6 %: the clip must absorb a visible mass.
    EXPECT_GT(at_clip, 3000);
    EXPECT_LT(at_clip, 7000);
}

TEST(VddNoise, MomentsMatchClippedGaussian) {
    const VddNoise noise({.sigma_mv = 25.0, .clip_sigmas = 2.0});
    Rng rng(4);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) stats.add(noise.draw(rng));
    EXPECT_NEAR(stats.mean(), 0.0, 2e-4);
    // Clipping at 2 sigma shrinks the standard deviation slightly
    // (~0.95 sigma for a standard normal).
    EXPECT_NEAR(stats.stddev(), 0.95 * 0.025, 0.002);
}

TEST(VddNoise, WiderClipAllowsLargerExcursions) {
    const VddNoise clipped({.sigma_mv = 10.0, .clip_sigmas = 2.0});
    const VddNoise open({.sigma_mv = 10.0, .clip_sigmas = 4.0});
    Rng rng_a(5), rng_b(5);
    double max_clipped = 0.0, max_open = 0.0;
    for (int i = 0; i < 100000; ++i) {
        max_clipped = std::max(max_clipped, std::abs(clipped.draw(rng_a)));
        max_open = std::max(max_open, std::abs(open.draw(rng_b)));
    }
    EXPECT_GT(max_open, max_clipped);
}

}  // namespace
}  // namespace sfi
