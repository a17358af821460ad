// The on-demand noise draw of models B+ and C (fi/sampling_batch.hpp):
//
//  * Rng::polar_half() times Rng::polar_factor reproduces normal() and
//    normal(0, sigma) draw for draw (pinned by golden values), and
//    Rng::operator== still means "the same stream from here on", polar
//    spare included;
//  * SafeRowPretest answers "at or above the first safe row" only when
//    the exact row is: halves aimed at the row's edge (v = 0, so
//    x^2 = s) with s a few ulps either side of the s whose draw lands on
//    the edge and of relative steps 2^-24 .. 2^-44 from it (the limit
//    s_limit sits among them, its rounding margin is 2^-32), plus random
//    halves, over many (first safe row, sigma, clip) triples. The exact
//    row is noise_draw_to_index of the very draw the models compute
//    (NoiseModulatedModel::noise_row);
//  * the sign test serves only edges at or below 0 mV, the magnitude
//    test only edges below it, and the always/never corners hold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fi/sampling_batch.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

// ---------------------------------------------------------------------------
// Rng: polar halves
// ---------------------------------------------------------------------------

TEST(PolarHalf, TimesItsFactorReproducesNormal) {
    for (const std::uint64_t seed : {1ULL, 77ULL, 2016ULL}) {
        Rng halves(seed), normals(seed);
        for (int i = 0; i < 101; ++i) {
            const Rng::PolarHalf half = halves.polar_half();
            ASSERT_GT(half.s, 0.0);
            ASSERT_LT(half.s, 1.0);
            ASSERT_LE(half.x * half.x, half.s);
            ASSERT_EQ(half.x * Rng::polar_factor(half.s), normals.normal())
                << "seed " << seed << " draw " << i;
        }
        // 101 halves leave a spare pending on both sides.
        EXPECT_TRUE(halves == normals) << "seed " << seed;
    }
}

TEST(PolarHalf, TimesItsFactorReproducesAScaledNormal) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{6},
                                std::size_t{33}}) {
        Rng halves(5), normals(5);
        for (std::size_t i = 0; i < n; ++i) {
            const Rng::PolarHalf half = halves.polar_half();
            ASSERT_EQ(0.0 + 10.0 * (half.x * Rng::polar_factor(half.s)),
                      normals.normal(0.0, 10.0))
                << "n=" << n << " draw " << i;
        }
        EXPECT_TRUE(halves == normals) << "n=" << n;
    }
}

TEST(PolarHalf, GoldenNormalsAtAFixedSeed) {
    // The stream every stored experiment was drawn from: a change that
    // moved polar_half, polar_factor and normal() in lockstep would pass
    // the differential tests above but not these.
    const double golden[8] = {0x1.26f99d0fa90acp-1,  0x1.b5ded05a2c53ep-1,
                              0x1.6157c6d623008p-1,  0x1.501e4cc4102f4p+0,
                              0x1.b48243b7a7837p-5,  0x1.43040776cd8dp+0,
                              0x1.28d70b42bf06ap+0,  -0x1.65d7c7973b49ap-3};
    Rng rng(2016);
    for (const double expected : golden) ASSERT_EQ(rng.normal(), expected);
    const double golden_scaled[5] = {
        0x1.70b80453934d7p+2, 0x1.11ab42385bb47p+3, 0x1.b9adb88babc0ap+2,
        0x1.a425dff5143b1p+3, 0x1.10d16a52c8b22p-1};
    Rng scaled_rng(2016);
    for (const double expected : golden_scaled)
        ASSERT_EQ(scaled_rng.normal(0.0, 10.0), expected);
}

TEST(PolarHalf, EqualityMeansTheSameStreamSpareIncluded) {
    Rng by_normal(7), by_half(7), by_pair(7);
    by_normal.normal();
    by_half.polar_half();
    // Both hold the same words and the same pending spare.
    EXPECT_TRUE(by_normal == by_half);
    by_pair.normal();
    by_pair.normal();
    // Same words, but by_pair has consumed its spare.
    EXPECT_FALSE(by_normal == by_pair);
    const Rng::PolarHalf spare = by_half.polar_half();
    EXPECT_EQ(spare.x * Rng::polar_factor(spare.s), by_normal.normal());
    EXPECT_TRUE(by_normal == by_pair);
    EXPECT_TRUE(by_half == by_pair);
    // A stale spare is not state: a reseed forgets a pending one.
    by_half.polar_half();
    by_half.reseed(7);
    EXPECT_TRUE(by_half == Rng(7));
}

// ---------------------------------------------------------------------------
// SafeRowPretest
// ---------------------------------------------------------------------------

struct Noise {
    double sigma_mv;
    double clip_mv;
    double clip_v;
    std::size_t entries;

    // The models' own expressions for the clip levels.
    Noise(double sigma, double clip_sigmas, std::size_t table_entries)
        : sigma_mv(sigma),
          clip_mv(clip_sigmas * sigma),
          clip_v(clip_sigmas * sigma * 1e-3),
          entries(table_entries) {}

    std::string name() const {
        return "sigma=" + std::to_string(sigma_mv) +
               " clip_mv=" + std::to_string(clip_mv) +
               " entries=" + std::to_string(entries);
    }

    std::size_t row_of_draw(double draw) const {
        return noise_draw_to_index(draw, clip_mv, clip_v, entries);
    }

    /// The exact row of the draw a half stands for, computed as model C
    /// computes it.
    std::size_t row(const Rng::PolarHalf& half) const {
        return row_of_draw(0.0 + sigma_mv *
                                     (half.x * Rng::polar_factor(half.s)));
    }

    /// The smallest draw whose row is at least `row`: bisected from the
    /// nominal bin boundary (-clip + (row - 1/2) * step).
    double edge(std::size_t row) const {
        const double step = 2.0 * clip_mv / static_cast<double>(entries - 1);
        const double nominal =
            -clip_mv + (static_cast<double>(row) - 0.5) * step;
        double below = nominal - 1e-6 * clip_mv;
        double at = nominal + 1e-6 * clip_mv;
        EXPECT_LT(row_of_draw(below), row) << name();
        EXPECT_GE(row_of_draw(at), row) << name();
        while (std::nextafter(below, at) != at) {
            const double mid = below + (at - below) / 2.0;
            (row_of_draw(mid) >= row ? at : below) = mid;
        }
        return at;
    }
};

/// The half of a pair with v = 0: x = u and s = u * u + 0 * 0, exactly as
/// Rng::polar_half computes s — the largest |x| a given s allows.
Rng::PolarHalf aimed_half(double u) {
    const double v = 0.0;
    return {u, u * u + v * v};
}

/// Asserts that the pretest passes only halves whose exact row is safe;
/// returns how many of `halves` it passed.
std::size_t check_sound(const SafeRowPretest& pretest, const Noise& noise,
                        std::size_t first_safe_row,
                        const std::vector<Rng::PolarHalf>& halves,
                        const std::string& where) {
    std::size_t passed = 0;
    for (const Rng::PolarHalf& half : halves) {
        if (!(half.s > 0.0 && half.s < 1.0)) continue;  // not a polar half
        if (!pretest.passes(half)) continue;
        ++passed;
        EXPECT_GE(noise.row(half), first_safe_row)
            << where << ": the pretest passed x=" << std::hexfloat << half.x
            << " s=" << half.s << std::defaultfloat << " on an unsafe row";
    }
    return passed;
}

/// Halves with v = 0 whose s sits a few ulps, and a few relative steps
/// of the rounding margin (2^-24 .. 2^-44), either side of `s_target`,
/// with x of both signs.
std::vector<Rng::PolarHalf> halves_around(double s_target) {
    std::vector<double> targets = {s_target};
    for (int j = 24; j <= 44; ++j) {
        targets.push_back(s_target * (1.0 + std::ldexp(1.0, -j)));
        targets.push_back(s_target * (1.0 - std::ldexp(1.0, -j)));
    }
    std::vector<Rng::PolarHalf> halves;
    for (const double target : targets) {
        double u = -std::sqrt(target);
        for (int k = 0; k < 12; ++k) u = std::nextafter(u, 0.0);
        for (int k = 0; k < 24; ++k) {
            halves.push_back(aimed_half(u));
            halves.push_back(aimed_half(-u));
            u = std::nextafter(u, -1.0);
        }
    }
    return halves;
}

/// The sign test alone: x = +0 with the smallest s a polar pair can have
/// (u = 2^-52, v = 0), which only an always-passing pretest's magnitude
/// test accepts.
bool sign_test_passes(const SafeRowPretest& pretest) {
    return pretest.passes({0.0, 0x1p-104});
}

/// Halves with a small positive draw: x tiny, s large.
std::vector<Rng::PolarHalf> small_positive_halves() {
    std::vector<Rng::PolarHalf> halves;
    for (const double v : {0.3, 0.6, 0.9}) {
        for (double u = 1e-6; u < 0.05; u *= 1.7) {
            halves.push_back({u, u * u + v * v});
            halves.push_back({0.0, 0.0 * 0.0 + v * v});
        }
    }
    return halves;
}

std::vector<Rng::PolarHalf> random_halves(std::uint64_t seed, std::size_t n) {
    Rng rng(seed);
    std::vector<Rng::PolarHalf> halves(n);
    for (Rng::PolarHalf& half : halves) half = rng.polar_half();
    return halves;
}

TEST(SafeRowPretest, NeverPassesAnUnsafeRowNearTheEdge) {
    std::uint64_t seed = 100;
    std::size_t magnitude_cases = 0;
    for (const std::size_t entries : {std::size_t{1025}, std::size_t{33}}) {
        const std::size_t mid = entries / 2;
        for (const double sigma : {0.5, 3.0, 10.0, 25.0, 37.3}) {
            for (const double clip_sigmas : {1.0, 2.0, 3.5}) {
                const Noise noise(sigma, clip_sigmas, entries);
                for (const std::size_t first_safe_row :
                     {std::size_t{1}, std::size_t{2}, entries / 8, mid - 1,
                      mid, mid + 1, mid + entries / 8, entries - 2,
                      entries - 1}) {
                    const std::string where =
                        noise.name() + " first_safe_row=" +
                        std::to_string(first_safe_row);
                    const SafeRowPretest pretest(first_safe_row, sigma,
                                                 noise.clip_mv, noise.clip_v,
                                                 entries);
                    const double edge = noise.edge(first_safe_row);
                    EXPECT_EQ(sign_test_passes(pretest), edge <= 0.0)
                        << where;

                    std::vector<Rng::PolarHalf> halves =
                        random_halves(seed++, 4000);
                    const std::vector<Rng::PolarHalf> small =
                        small_positive_halves();
                    halves.insert(halves.end(), small.begin(), small.end());
                    if (edge < 0.0) {
                        // The s whose v = 0 draw lands on the edge: the
                        // pretest's limit sits just above it, within the
                        // probed steps.
                        const double ratio = edge / sigma;
                        const double s_edge = std::exp(-0.5 * ratio * ratio);
                        const std::vector<Rng::PolarHalf> aimed =
                            halves_around(s_edge);
                        halves.insert(halves.end(), aimed.begin(),
                                      aimed.end());
                        ++magnitude_cases;
                        // 2^-28 above it the magnitude test decides.
                        EXPECT_TRUE(pretest.passes(aimed_half(-std::sqrt(
                            s_edge * (1.0 + std::ldexp(1.0, -28))))))
                            << where;
                    } else {
                        // No s passes a negative x.
                        EXPECT_FALSE(pretest.passes({-1e-300, 1.0 - 0x1p-53}))
                            << where;
                    }
                    const std::size_t passed = check_sound(
                        pretest, noise, first_safe_row, halves, where);
                    if (edge < 0.0) {
                        EXPECT_GT(passed, 0u) << where;
                    }
                }
            }
        }
    }
    EXPECT_GT(magnitude_cases, 100u);
}

TEST(SafeRowPretest, SignTestOnlyServesEdgesAtOrBelowZero) {
    const Noise noise(10.0, 2.0, 1025);
    // Row 512 holds the zero draw (t = 1/2 exactly): its edge is below
    // 0 mV, row 513's above.
    ASSERT_EQ(noise.row_of_draw(0.0), 512u);
    const Rng::PolarHalf tiny_positive{1e-9, 0.5};
    const Rng::PolarHalf tiny_negative{-1e-9, 0.5};
    const SafeRowPretest at_zero(512, 10.0, noise.clip_mv, noise.clip_v,
                                 1025);
    EXPECT_TRUE(sign_test_passes(at_zero));
    EXPECT_TRUE(at_zero.passes(tiny_positive));
    EXPECT_FALSE(at_zero.passes(tiny_negative));
    const SafeRowPretest above_zero(513, 10.0, noise.clip_mv, noise.clip_v,
                                    1025);
    EXPECT_FALSE(sign_test_passes(above_zero));
    EXPECT_FALSE(above_zero.passes(tiny_positive));
    EXPECT_LT(noise.row(tiny_positive), 513u);
}

TEST(SafeRowPretest, CornersAlwaysAndNever) {
    const Noise noise(10.0, 2.0, 1025);
    const std::vector<Rng::PolarHalf> halves = random_halves(9, 2000);
    const SafeRowPretest always(0, 10.0, noise.clip_mv, noise.clip_v, 1025);
    const SafeRowPretest never(1025, 10.0, noise.clip_mv, noise.clip_v, 1025);
    const SafeRowPretest unset;
    const SafeRowPretest noise_free(0, 0.0, 0.0, 0.0, 1025);
    for (const Rng::PolarHalf& half : halves) {
        EXPECT_TRUE(always.passes(half));
        EXPECT_FALSE(never.passes(half));
        EXPECT_FALSE(unset.passes(half));
        EXPECT_FALSE(noise_free.passes(half));
    }
    // A degenerate clip maps every draw to the middle row.
    const SafeRowPretest degenerate_safe(512, 10.0, 0.0, 0.0, 1025);
    const SafeRowPretest degenerate_unsafe(513, 10.0, 0.0, 0.0, 1025);
    for (const Rng::PolarHalf& half : halves) {
        EXPECT_TRUE(degenerate_safe.passes(half));
        EXPECT_FALSE(degenerate_unsafe.passes(half));
    }
}

}  // namespace
}  // namespace sfi
