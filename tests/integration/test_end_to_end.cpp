// End-to-end reproduction checks: small-budget versions of the paper's
// headline observations, exercising the full stack (netlist -> timing ->
// DTA -> CDFs -> fault models -> ISS -> benchmarks -> Monte Carlo).
#include <gtest/gtest.h>

#include "mc/sweep.hpp"
#include "power/power_model.hpp"
#include "testing/frequency_sweep.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::frequency_sweep;
using testing::shared_core;

OperatingPoint op(double f, double vdd = 0.7, double sigma = 0.0) {
    OperatingPoint p;
    p.freq_mhz = f;
    p.vdd = vdd;
    p.noise.sigma_mv = sigma;
    return p;
}

McConfig mc(std::size_t trials) {
    McConfig config;
    config.trials = trials;
    config.seed = 2024;
    return config;
}

TEST(EndToEnd, ModelBCollapsesAtStaLimitModelCHasTransition) {
    // Fig. 1(a) vs Fig. 5: model B drops from 100 % to 0 % within a hair
    // of the STA limit; model C exhibits a usable transition region.
    const auto bench = make_benchmark(BenchmarkId::Median);
    const double fsta = shared_core().sta_fmax_mhz(0.7);

    auto model_b = shared_core().make_model_b();
    MonteCarloRunner runner_b(*bench, *model_b, mc(5));
    EXPECT_EQ(runner_b.run_point(op(fsta - 2)).correct_frac(), 1.0);
    EXPECT_EQ(runner_b.run_point(op(fsta + 3)).finished_frac(), 0.0);

    auto model_c = shared_core().make_model_c();
    MonteCarloRunner runner_c(*bench, *model_c, mc(10));
    EXPECT_EQ(runner_c.run_point(op(fsta + 3)).correct_frac(), 1.0)
        << "model C must survive just above the STA limit (dynamic slack)";
}

TEST(EndToEnd, MedianPoffGainOverStaWithoutNoise) {
    // Fig. 5(a): the PoFF sits visibly above the STA limit at sigma = 0.
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(8));
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    const auto sweep =
        frequency_sweep(runner, op(0, 0.7, 0.0),
                        linspace(fsta * 1.0, fsta * 1.25, 8));
    const auto poff = find_poff_mhz(sweep);
    ASSERT_TRUE(poff.has_value());
    EXPECT_GT(poff_gain_percent(*poff, fsta), 2.0);
    EXPECT_LE(poff_gain_percent(*poff, fsta), 30.0);
}

TEST(EndToEnd, NoiseShiftsTransitionDown) {
    // Fig. 5(a-c): more supply noise moves every metric to lower f.
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(10));
    const double f = shared_core().sta_fmax_mhz(0.7) * 1.01;
    const double clean = runner.run_point(op(f, 0.7, 0.0)).correct_frac();
    const double noisy = runner.run_point(op(f, 0.7, 25.0)).correct_frac();
    EXPECT_GT(clean, noisy);
}

TEST(EndToEnd, HigherVddShiftsTransitionUp) {
    // Fig. 5(a) vs 5(d): at 0.8 V the same frequency is safe again.
    // k-means makes multiplier corruption visible at small overscaling
    // (corrupted squared distances flip cluster assignments).
    const auto bench = make_benchmark(BenchmarkId::KMeans);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(8));
    model->set_operating_point(op(700.0, 0.7, 0.0));
    const double f = model->first_fault_frequency_mhz(ExClass::Mul) * 1.05;
    const PointSummary low = runner.run_point(op(f, 0.7, 0.0));
    const PointSummary high = runner.run_point(op(f, 0.8, 0.0));
    EXPECT_LT(low.correct_frac(), 1.0);
    EXPECT_GT(low.fi_rate, 0.0);
    EXPECT_EQ(high.correct_frac(), 1.0);
    EXPECT_EQ(high.fi_rate, 0.0);
}

TEST(EndToEnd, KmeansFiRateWellBelowMatmul) {
    // Fig. 6(c): k-means sees almost an order of magnitude fewer FIs than
    // matmul at the same operating point (fewer critical multiplies).
    auto model_a = shared_core().make_model_c();
    auto model_b = shared_core().make_model_c();
    const auto matmul = make_benchmark(BenchmarkId::MatMult8);
    const auto kmeans = make_benchmark(BenchmarkId::KMeans);
    MonteCarloRunner runner_m(*matmul, *model_a, mc(8));
    MonteCarloRunner runner_k(*kmeans, *model_b, mc(8));
    const OperatingPoint p = op(740.0, 0.7, 10.0);
    const double rate_m = runner_m.run_point(p).fi_rate;
    const double rate_k = runner_k.run_point(p).fi_rate;
    ASSERT_GT(rate_m, 0.0);
    EXPECT_LT(rate_k, rate_m / 3.0);
}

TEST(EndToEnd, MedianSurvivesWhereMulHeavyKernelsFail) {
    // Instruction awareness at application level: just above the
    // multiplier's dynamic limit (all remaining slack is in the adder),
    // the sort-only median still runs correctly while the mul-dependent
    // k-means already loses cluster assignments.
    auto model_a = shared_core().make_model_c();
    auto model_b = shared_core().make_model_c();
    const auto median = make_benchmark(BenchmarkId::Median);
    const auto kmeans = make_benchmark(BenchmarkId::KMeans);
    MonteCarloRunner runner_med(*median, *model_a, mc(8));
    MonteCarloRunner runner_km(*kmeans, *model_b, mc(8));
    model_a->set_operating_point(op(700.0, 0.7, 0.0));
    const double f_mul = model_a->first_fault_frequency_mhz(ExClass::Mul);
    // A frequency above the multiplier's dynamic limit but safely below
    // the adder/compare/shift limits both kernels otherwise depend on.
    const double f_other_safe =
        std::min({model_a->first_fault_frequency_mhz(ExClass::Add),
                  model_a->first_fault_frequency_mhz(ExClass::Cmp),
                  model_a->first_fault_frequency_mhz(ExClass::Or),
                  model_a->first_fault_frequency_mhz(ExClass::Sll),
                  model_a->first_fault_frequency_mhz(ExClass::Srl)});
    const double f = std::min(f_mul * 1.06, 0.995 * f_other_safe);
    ASSERT_GT(f, f_mul * 1.02);
    const OperatingPoint p = op(f, 0.7, 0.0);
    EXPECT_EQ(runner_med.run_point(p).correct_frac(), 1.0);
    EXPECT_LT(runner_km.run_point(p).correct_frac(), 0.7);
}

TEST(EndToEnd, ErrorVsPowerTradeoffShape) {
    // Fig. 7: error-free at nominal voltage, graceful error growth as the
    // supply (and therefore power) is reduced at fixed 707 MHz.
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(8));
    const PowerModel power;
    const double fnom = shared_core().sta_fmax_mhz(0.7);
    const auto sweep = voltage_sweep(runner, op(fnom, 0.7, 0.0),
                                     {0.63, 0.66, 0.685, 0.70});
    EXPECT_EQ(sweep.back().correct_frac(), 1.0);  // nominal: error-free
    // Power decreases toward lower voltage...
    EXPECT_LT(power.normalized_power(0.63, 0.7),
              power.normalized_power(0.70, 0.7));
    // ...and quality degrades monotonically (allowing MC jitter).
    EXPECT_LE(sweep[0].correct_frac(), sweep[2].correct_frac());
    EXPECT_LT(sweep[0].correct_frac(), 1.0);
}

TEST(EndToEnd, FiRateGrowsMonotonicallyThroughTransition) {
    const auto bench = make_benchmark(BenchmarkId::MatMult8);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(8));
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    const auto sweep = frequency_sweep(
        runner, op(0, 0.7, 10.0), linspace(fsta * 0.95, fsta * 1.2, 6));
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_GE(sweep[i].fi_rate, sweep[i - 1].fi_rate * 0.8) << i;
    EXPECT_GT(sweep.back().fi_rate, sweep.front().fi_rate);
}

TEST(EndToEnd, WrongBranchingCanHangOrCrashPrograms) {
    // The "did not finish" outcomes must actually occur via watchdog /
    // memory faults / self loops, not only via wrong outputs.
    const auto bench = make_benchmark(BenchmarkId::Dijkstra);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, mc(1));
    std::size_t not_finished = 0;
    for (std::uint64_t t = 0; t < 12; ++t) {
        const TrialOutcome outcome =
            runner.run_trial(op(850.0, 0.7, 10.0), t);
        if (!outcome.finished) {
            ++not_finished;
            EXPECT_NE(outcome.stop, StopReason::Halted);
        }
    }
    EXPECT_GT(not_finished, 0u);
}

}  // namespace
}  // namespace sfi
