#include "mc/montecarlo.hpp"

#include <gtest/gtest.h>

#include "testing/serial_point.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::shared_core;

OperatingPoint point(double f, double vdd = 0.7, double sigma = 0.0) {
    OperatingPoint p;
    p.freq_mhz = f;
    p.vdd = vdd;
    p.noise.sigma_mv = sigma;
    return p;
}

McConfig fast_config(std::size_t trials = 10) {
    McConfig config;
    config.trials = trials;
    config.seed = 99;
    return config;
}

TEST(MonteCarloRunner, GoldenRunEstablishedAtConstruction) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    EXPECT_TRUE(runner.golden_run().finished());
    EXPECT_GT(runner.golden_run().kernel_cycles, 10000u);
    EXPECT_EQ(runner.golden_output(), bench->golden_output());
}

TEST(MonteCarloRunner, SafeFrequencyGivesAllCorrect) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    const PointSummary s = runner.run_point(point(400.0));
    EXPECT_EQ(s.finished_count, s.trials);
    EXPECT_EQ(s.correct_count, s.trials);
    EXPECT_EQ(s.fi_rate, 0.0);
    EXPECT_EQ(s.mean_error, 0.0);
    EXPECT_DOUBLE_EQ(s.finished_frac(), 1.0);
    EXPECT_DOUBLE_EQ(s.correct_frac(), 1.0);
}

TEST(MonteCarloRunner, ExtremeFrequencyKillsEverything) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    const PointSummary s = runner.run_point(point(1500.0));
    EXPECT_EQ(s.correct_count, 0u);
    EXPECT_GT(s.fi_rate, 1.0);
}

TEST(MonteCarloRunner, TrialsAreReproducibleByIndex) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    testing::SerialTrials serial(runner, *model);
    const OperatingPoint p = point(750.0, 0.7, 10.0);
    const TrialOutcome a = serial.run(p, 3);
    const TrialOutcome b = serial.run(p, 3);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.fi.injections, b.fi.injections);
    EXPECT_EQ(a.cycles, b.cycles);
    if (a.finished) {
        EXPECT_DOUBLE_EQ(a.output_error, b.output_error);
    }
}

TEST(MonteCarloRunner, DifferentTrialsDiffer) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    testing::SerialTrials serial(runner, *model);
    const OperatingPoint p = point(760.0, 0.7, 10.0);
    std::set<std::uint64_t> injection_counts;
    for (std::uint64_t t = 0; t < 8; ++t)
        injection_counts.insert(serial.run(p, t).fi.injections);
    EXPECT_GT(injection_counts.size(), 1u);
}

TEST(MonteCarloRunner, TransitionRegionMixesOutcomes) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config(30));
    // Scan upward from the compare/add dynamic limit until outcomes mix:
    // somewhere in the transition region some runs finish and some fail.
    model->set_operating_point(point(700.0, 0.7, 10.0));
    const double f0 =
        std::min(model->first_fault_frequency_mhz(ExClass::Cmp),
                 model->first_fault_frequency_mhz(ExClass::Add));
    bool found_mixed = false;
    for (double f = f0 * 1.0; f < f0 * 1.35; f += f0 * 0.05) {
        const PointSummary s = runner.run_point(point(f, 0.7, 10.0));
        EXPECT_EQ(s.error_stats.count(), s.finished_count);
        if (s.finished_count > 0 && s.correct_count < s.trials) {
            EXPECT_GT(s.fi_rate, 0.0);
            found_mixed = true;
            break;
        }
    }
    EXPECT_TRUE(found_mixed);
}

TEST(MonteCarloRunner, CorrectImpliesZeroErrorMetric) {
    const auto bench = make_benchmark(BenchmarkId::KMeans);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config(20));
    testing::SerialTrials serial(runner, *model);
    const OperatingPoint p = point(740.0, 0.7, 10.0);
    for (std::uint64_t t = 0; t < 20; ++t) {
        const TrialOutcome outcome = serial.run(p, t);
        if (outcome.correct) {
            EXPECT_DOUBLE_EQ(outcome.output_error, 0.0);
        }
    }
}

TEST(MonteCarloRunner, WatchdogBoundsRunawayTrials) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    McConfig config = fast_config(20);
    config.watchdog_factor = 4.0;
    MonteCarloRunner runner(*bench, *model, config);
    testing::SerialTrials serial(runner, *model);
    const std::uint64_t golden_cycles = runner.golden_run().cycles;
    for (std::uint64_t t = 0; t < 20; ++t) {
        const TrialOutcome outcome = serial.run(point(900.0, 0.7, 10.0), t);
        EXPECT_LE(outcome.cycles, golden_cycles * 4 + golden_cycles);
    }
}

TEST(MonteCarloRunner, ModelAIsFrequencyBlind) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_a(1e-6);
    MonteCarloRunner runner(*bench, *model, fast_config(5));
    const PointSummary slow = runner.run_point(point(100.0));
    const PointSummary fast = runner.run_point(point(1200.0));
    // Same seeds, same Bernoulli stream, same injections: the fixed-
    // probability model cannot see the operating point (its key flaw).
    EXPECT_DOUBLE_EQ(slow.fi_rate, fast.fi_rate);
}

TEST(MonteCarloRunner, ConfidenceIntervalsBracketFractions) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config(20));
    const PointSummary s = runner.run_point(point(400.0));
    const Interval fin = s.finished_ci();
    EXPECT_LE(fin.lo, s.finished_frac());
    EXPECT_GE(fin.hi, s.finished_frac());
    EXPECT_LT(fin.lo, 1.0);  // 20 trials cannot prove certainty
    EXPECT_DOUBLE_EQ(fin.hi, 1.0);
}

TEST(PointSummaryWilson, CiValuesAtZeroHalfAndAllSuccesses) {
    // The three canonical operating regimes of a sweep point — never
    // correct, coin-flip, always correct — against the closed-form
    // Wilson interval the sampling engine steers by.
    const std::size_t n = 100;
    PointSummary s;
    s.trials = n;

    s.finished_count = 0;
    s.correct_count = 0;
    Interval ci = s.correct_ci();
    EXPECT_DOUBLE_EQ(ci.lo, 0.0);
    EXPECT_NEAR(ci.hi, 0.037, 0.001);  // z^2 / (n + z^2) at z = 1.96
    EXPECT_DOUBLE_EQ(s.finished_ci().lo, 0.0);

    s.correct_count = n / 2;
    ci = s.correct_ci();
    EXPECT_NEAR(ci.lo, 0.404, 0.002);  // the textbook p = 0.5, n = 100 case
    EXPECT_NEAR(ci.hi, 0.596, 0.002);
    EXPECT_NEAR(0.5 * (ci.lo + ci.hi), 0.5, 1e-12);  // symmetric at p = 1/2

    s.correct_count = n;
    ci = s.correct_ci();
    EXPECT_NEAR(ci.lo, 1.0 - 0.037, 0.001);
    EXPECT_DOUBLE_EQ(ci.hi, 1.0);

    // 0 and N successes give mirror-image intervals.
    const Interval none = wilson_interval(0, n);
    const Interval all = wilson_interval(n, n);
    EXPECT_NEAR(none.hi, 1.0 - all.lo, 1e-12);

    // Degenerate summary (no trials yet): the vacuous [0, 1] interval.
    PointSummary empty;
    EXPECT_DOUBLE_EQ(empty.correct_ci().lo, 0.0);
    EXPECT_DOUBLE_EQ(empty.correct_ci().hi, 1.0);
}

TEST(MonteCarloRunner, ModelBHardThreshold) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_b();
    MonteCarloRunner runner(*bench, *model, fast_config(5));
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    const PointSummary below = runner.run_point(point(fsta - 2.0));
    const PointSummary above = runner.run_point(point(fsta + 3.0));
    EXPECT_EQ(below.correct_count, below.trials);
    EXPECT_EQ(above.correct_count, 0u);  // Fig. 1(a): collapse at the limit
    EXPECT_GT(above.fi_rate, 100.0);     // immediate high FI rate
}

}  // namespace
}  // namespace sfi
