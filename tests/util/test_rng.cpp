#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace sfi {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
    Rng rng(7);
    const std::uint64_t first = rng();
    rng();
    rng.reseed(7);
    EXPECT_EQ(rng(), first);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 7.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 7.0);
    }
}

TEST(Rng, UniformMeanIsCentered) {
    Rng rng(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BoundedStaysInRange) {
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedZeroReturnsZero) {
    Rng rng(9);
    EXPECT_EQ(rng.bounded(0), 0u);
}

TEST(Rng, BoundedCoversAllResidues) {
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMomentsMatch) {
    Rng rng(21);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sum2 += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaledMoments) {
    Rng rng(22);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyTracksProbability) {
    Rng rng(4);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.chance(0.3)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependent) {
    Rng base(42);
    Rng a = base.fork(1);
    Rng b = base.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
    Rng base(42);
    Rng a = base.fork(7);
    Rng b = base.fork(7);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, U32UsesFullRange) {
    Rng rng(88);
    bool high = false, low = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t v = rng.u32();
        high |= v > 0xC0000000u;
        low |= v < 0x40000000u;
    }
    EXPECT_TRUE(high);
    EXPECT_TRUE(low);
}

}  // namespace
}  // namespace sfi
