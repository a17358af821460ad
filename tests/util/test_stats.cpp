#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sfi {
namespace {

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
    RunningStats s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 5.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(WilsonInterval, ContainsPointEstimate) {
    for (const std::uint64_t k : {0u, 1u, 25u, 50u, 99u, 100u}) {
        const Interval ci = wilson_interval(k, 100);
        const double p = k / 100.0;
        EXPECT_LE(ci.lo, p + 1e-12);
        EXPECT_GE(ci.hi, p - 1e-12);
        EXPECT_GE(ci.lo, 0.0);
        EXPECT_LE(ci.hi, 1.0);
    }
}

TEST(WilsonInterval, NarrowsWithTrials) {
    const Interval small = wilson_interval(5, 10);
    const Interval large = wilson_interval(500, 1000);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(WilsonInterval, KnownValue) {
    // p = 0.5, n = 100, z = 1.96: the 95 % Wilson interval is ~[0.404, 0.596].
    const Interval ci = wilson_interval(50, 100);
    EXPECT_NEAR(ci.lo, 0.404, 0.002);
    EXPECT_NEAR(ci.hi, 0.596, 0.002);
}

TEST(WilsonInterval, ExtremeCountsStayProper) {
    const Interval zero = wilson_interval(0, 20);
    EXPECT_DOUBLE_EQ(zero.lo, 0.0);
    EXPECT_GT(zero.hi, 0.0);   // zero successes still leaves uncertainty
    const Interval all = wilson_interval(20, 20);
    EXPECT_LT(all.lo, 1.0);
    EXPECT_DOUBLE_EQ(all.hi, 1.0);
    EXPECT_EQ(wilson_interval(0, 0).hi, 1.0);  // no data: vacuous interval
}

TEST(WilsonInterval, RejectsImpossibleCounts) {
    EXPECT_THROW(wilson_interval(5, 4), std::invalid_argument);
}

}  // namespace
}  // namespace sfi
