#include "mc/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "mc/report.hpp"
#include "testing/frequency_sweep.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::frequency_sweep;
using testing::shared_core;

TEST(Linspace, EndpointsAndSpacing) {
    const auto v = linspace(1.0, 3.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 1.0);
    EXPECT_DOUBLE_EQ(v.back(), 3.0);
    EXPECT_DOUBLE_EQ(v[1], 1.5);
}

TEST(Linspace, SinglePoint) {
    const auto v = linspace(2.0, 9.0, 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(Linspace, ZeroThrows) {
    EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Linspace, DescendingWhenHiBelowLo) {
    const auto v = linspace(3.0, 1.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 3.0);
    EXPECT_DOUBLE_EQ(v[1], 2.5);
    EXPECT_DOUBLE_EQ(v.back(), 1.0);
}

TEST(Linspace, TwoPointsAreTheEndpoints) {
    const auto v = linspace(-1.0, 1.0, 2);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_DOUBLE_EQ(v[0], -1.0);
    EXPECT_DOUBLE_EQ(v[1], 1.0);
}

TEST(Arange, InclusiveUpperBound) {
    const auto v = arange(650.0, 652.0, 0.5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.back(), 652.0);
}

TEST(Arange, BadStepThrows) {
    EXPECT_THROW(arange(0.0, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(arange(0.0, 1.0, -1.0), std::invalid_argument);
}

TEST(Arange, EmptyWhenHiBelowLo) {
    EXPECT_TRUE(arange(1.0, 0.0, 0.5).empty());
    EXPECT_TRUE(arange(700.0, 650.0, 1.0).empty());
}

TEST(Arange, SinglePointWhenHiEqualsLo) {
    const auto v = arange(5.0, 5.0, 1.0);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_DOUBLE_EQ(v[0], 5.0);
}

TEST(Arange, NonRepresentableStepKeepsInclusiveEndpoint) {
    // 0.1 is not exact in binary; 0.1 * 3 lands just above 0.3 but must
    // still count as "hi inclusive".
    const auto v = arange(0.0, 0.3, 0.1);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_NEAR(v.back(), 0.3, 1e-12);
}

TEST(Arange, LongRangeDoesNotDriftPastTheEndpoint) {
    // Regression: the historical `v += step` loop accumulated ~n·eps of
    // error, which on ranges this long exceeded the 1e-9 inclusion
    // tolerance and dropped the final value.
    const auto v = arange(0.0, 1000.0, 0.1);
    ASSERT_EQ(v.size(), 10001u);
    EXPECT_NEAR(v.back(), 1000.0, 1e-6);
    EXPECT_NEAR(v[5000], 500.0, 1e-9);
}

TEST(FrequencySweep, CoversRequestedPointsInOrder) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    McConfig config;
    config.trials = 5;
    MonteCarloRunner runner(*bench, *model, config);
    OperatingPoint base;
    base.vdd = 0.7;
    base.noise.sigma_mv = 10.0;
    std::size_t callbacks = 0;
    const auto sweep =
        frequency_sweep(runner, base, {500.0, 700.0, 900.0},
                        [&](const PointSummary&) { ++callbacks; });
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(callbacks, 3u);
    EXPECT_DOUBLE_EQ(sweep[0].point.freq_mhz, 500.0);
    EXPECT_DOUBLE_EQ(sweep[2].point.freq_mhz, 900.0);
    // Monotone degradation across the transition.
    EXPECT_GE(sweep[0].correct_frac(), sweep[2].correct_frac());
}

TEST(VoltageSweep, LowerSupplyDegrades) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    McConfig config;
    config.trials = 5;
    MonteCarloRunner runner(*bench, *model, config);
    OperatingPoint base;
    base.freq_mhz = 707.0;
    const auto sweep = voltage_sweep(runner, base, {0.64, 0.70});
    ASSERT_EQ(sweep.size(), 2u);
    EXPECT_LE(sweep[0].correct_frac(), sweep[1].correct_frac());
    EXPECT_DOUBLE_EQ(sweep[0].point.vdd, 0.64);
}

TEST(FindPoff, FirstImperfectPoint) {
    std::vector<PointSummary> sweep(3);
    for (int i = 0; i < 3; ++i) {
        sweep[i].point.freq_mhz = 700.0 + i * 10.0;
        sweep[i].trials = 100;
        sweep[i].correct_count = 100;
    }
    EXPECT_FALSE(find_poff_mhz(sweep).has_value());
    sweep[2].correct_count = 99;
    EXPECT_DOUBLE_EQ(find_poff_mhz(sweep).value(), 720.0);
    sweep[1].correct_count = 0;
    EXPECT_DOUBLE_EQ(find_poff_mhz(sweep).value(), 710.0);
}

TEST(FindPoff, UnsortedSweepReturnsLowestFailingFrequency) {
    // Regression: the first-hit scan depended on the caller passing an
    // ascending sweep; out-of-order input silently returned whichever
    // failing point came first.
    std::vector<PointSummary> sweep(4);
    const double freqs[] = {740.0, 700.0, 720.0, 710.0};
    for (int i = 0; i < 4; ++i) {
        sweep[i].point.freq_mhz = freqs[i];
        sweep[i].trials = 50;
        sweep[i].correct_count = 50;
    }
    sweep[0].correct_count = 0;   // 740 fails
    sweep[2].correct_count = 49;  // 720 fails
    EXPECT_DOUBLE_EQ(find_poff_mhz(sweep).value(), 720.0);
    sweep[1].correct_count = 10;  // 700 fails too
    EXPECT_DOUBLE_EQ(find_poff_mhz(sweep).value(), 700.0);
}

TEST(FindPoff, NonMonotoneSweepStillReportsTheLowestFailure) {
    // Monte-Carlo noise can make a mid-sweep point fail while a higher
    // frequency passes; PoFF is defined as the lowest failing frequency.
    std::vector<PointSummary> sweep(3);
    for (int i = 0; i < 3; ++i) {
        sweep[i].point.freq_mhz = 700.0 + i * 10.0;
        sweep[i].trials = 20;
        sweep[i].correct_count = 20;
    }
    sweep[1].correct_count = 19;
    EXPECT_DOUBLE_EQ(find_poff_mhz(sweep).value(), 710.0);
}

TEST(PoffGain, SignedPercent) {
    EXPECT_NEAR(poff_gain_percent(787.0, 707.0), 11.3, 0.05);
    EXPECT_LT(poff_gain_percent(650.0, 707.0), 0.0);
    EXPECT_DOUBLE_EQ(poff_gain_percent(707.0, 707.0), 0.0);
}

TEST(PoffGain, NegativeGainWhenNoisePushesPoffBelowSta) {
    // Fig. 1(b/c): supply noise moves the PoFF below the STA limit, so
    // the "gain" of frequency overscaling is negative. The extracted
    // PoFF and the gain computation must compose for that case exactly
    // like for the positive-gain one.
    std::vector<PointSummary> sweep(4);
    const double sta_mhz = 707.0;
    for (int i = 0; i < 4; ++i) {
        sweep[i].point.freq_mhz = 580.0 + i * 10.0;  // all below STA
        sweep[i].trials = 80;
        sweep[i].correct_count = 80;
    }
    sweep[2].correct_count = 79;  // first failure at 600 MHz
    sweep[3].correct_count = 0;
    const auto poff = find_poff_mhz(sweep);
    ASSERT_TRUE(poff.has_value());
    EXPECT_DOUBLE_EQ(*poff, 600.0);
    const double gain = poff_gain_percent(*poff, sta_mhz);
    EXPECT_LT(gain, 0.0);
    EXPECT_NEAR(gain, 100.0 * (600.0 - 707.0) / 707.0, 1e-12);
}

TEST(PoffGain, AllPointsFailingSweepReportsTheLowestFrequency) {
    // Deep overscaling (or a broken bracket guess): every swept point
    // fails. PoFF degenerates to the lowest swept frequency and the gain
    // is strongly negative — not an error, and not nullopt.
    std::vector<PointSummary> sweep(3);
    for (int i = 0; i < 3; ++i) {
        sweep[i].point.freq_mhz = 750.0 - i * 25.0;  // descending order
        sweep[i].trials = 10;
        sweep[i].correct_count = 0;
    }
    const auto poff = find_poff_mhz(sweep);
    ASSERT_TRUE(poff.has_value());
    EXPECT_DOUBLE_EQ(*poff, 700.0);
    EXPECT_LT(poff_gain_percent(*poff, 707.0), 0.0);

    // The same sweep with zero-trial points: vacuous points (trials ==
    // correct_count == 0) do not count as failures.
    std::vector<PointSummary> empty_points(2);
    empty_points[0].point.freq_mhz = 100.0;
    empty_points[1].point.freq_mhz = 200.0;
    EXPECT_FALSE(find_poff_mhz(empty_points).has_value());
}

TEST(Report, PrintSweepContainsMetrics) {
    PointSummary s;
    s.point.freq_mhz = 750.0;
    s.trials = 10;
    s.finished_count = 8;
    s.correct_count = 5;
    s.fi_rate = 1.25;
    s.mean_error = 3.5;
    s.error_stats.add(3.5);
    std::ostringstream os;
    print_sweep(os, "panel", {s}, "err");
    const std::string out = os.str();
    EXPECT_NE(out.find("panel"), std::string::npos);
    EXPECT_NE(out.find("750.0"), std::string::npos);
    EXPECT_NE(out.find("80.0%"), std::string::npos);
    EXPECT_NE(out.find("50.0%"), std::string::npos);
}

TEST(Report, CsvWritesOneRowPerPoint) {
    PointSummary s;
    s.point.freq_mhz = 700.0;
    s.trials = 4;
    const std::string path = std::string(::testing::TempDir()) + "sweep.csv";
    write_sweep_csv(path, {s, s, s});
    std::ifstream is(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) ++lines;
    EXPECT_EQ(lines, 4u);  // header + 3 rows
    std::remove(path.c_str());
}

TEST(Report, EmptyPathIsNoop) {
    EXPECT_NO_THROW(write_sweep_csv("", {}));
}

}  // namespace
}  // namespace sfi
