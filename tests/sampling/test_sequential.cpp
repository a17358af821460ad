// Sequential stopping rules: the fixed-N path is byte-identical to the
// serial trial loop, TargetCi stops at the floor on decided points and at the
// ceiling when the target is unreachable, TwoStage's screen fires on
// unanimous points, the whole procedure is thread-count independent, and
// policy fingerprints separate what must never collide in a point store.
#include "sampling/sequential.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "campaign/point_store.hpp"
#include "testing/serial_point.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using sampling::SamplingPolicy;
using testing::shared_core;

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

OperatingPoint safe_point() {
    OperatingPoint p;
    p.freq_mhz = 500.0;  // far below f_STA(0.7 V) ~ 707 MHz: always correct
    p.vdd = 0.7;
    p.noise.sigma_mv = 10.0;
    return p;
}

std::string bytes_of(const PointSummary& summary) {
    std::ostringstream os;
    campaign::save_point_summary(os, summary);
    return os.str();
}

MonteCarloRunner make_runner(const Benchmark& bench, FaultModel& model,
                             std::size_t trials, std::size_t threads) {
    McConfig config;
    config.trials = trials;
    config.seed = 5;
    config.threads = threads;
    return MonteCarloRunner(bench, model, config);
}

TEST(SequentialSampling, FixedNIsByteIdenticalToTheSerialLoop) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 17, 2);

    SamplingPolicy policy = SamplingPolicy::fixed_n();
    policy.batch_size = 5;
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.batches, 4u);  // ceil(17 / 5)
    EXPECT_EQ(bytes_of(result.summary),
              bytes_of(testing::serial_point(runner, *model, safe_point())));
}

TEST(SequentialSampling, TargetCiStopsAtFloorOnDecidedPoint) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    // Unanimous outcomes at 10 trials give a Wilson half-width of ~0.14,
    // so a 0.15 target stops at the floor after one batch.
    SamplingPolicy policy = SamplingPolicy::target_ci(0.15, 100, 10);
    policy.min_trials = 10;
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.batches, 1u);
    EXPECT_EQ(result.summary.trials, 10u);
    EXPECT_EQ(result.summary.correct_count, 10u);  // the point IS safe
    EXPECT_LE(sampling::max_half_width(result.summary, policy.z),
              policy.ci_half_width);
}

TEST(SequentialSampling, TargetCiRespectsTheCeiling) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    // A 0.005 half-width needs thousands of trials at any fraction; the
    // ceiling must cut the loop, flagged as not converged.
    const SamplingPolicy policy = SamplingPolicy::target_ci(0.005, 40, 10);
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.summary.trials, 40u);
    EXPECT_EQ(result.batches, 4u);
}

TEST(SequentialSampling, HandBuiltFloorAboveCeilingStillTerminatesAtCeiling) {
    // Regression: only the factories clamped min_trials to max_trials.
    // A hand-built policy with min_trials > max_trials made the stopping
    // rule unreachable — the run burned the ceiling and came back
    // non-converged even on a trivially decided point. The engine must
    // normalize the floor itself.
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    SamplingPolicy policy;
    policy.kind = SamplingPolicy::Kind::TargetCi;
    policy.ci_half_width = 0.15;  // satisfiable at 10 unanimous trials
    policy.batch_size = 10;
    policy.min_trials = 50;  // inconsistent on purpose
    policy.max_trials = 10;
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.summary.trials, 10u);
    EXPECT_EQ(result.summary.correct_count, 10u);
}

TEST(SequentialSampling, StopClassificationMatchesTheEngine) {
    // classify_stop must re-derive, from a final summary alone, the same
    // StopRule the engine recorded while running — that equivalence is
    // what lets the campaign runner classify store-served (warm) points
    // without replaying them.
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    const auto check = [&](const SamplingPolicy& policy,
                           sampling::StopRule expected) {
        const auto result =
            sampling::run_point_sequential(runner, safe_point(), policy);
        EXPECT_EQ(result.stop, expected);
        EXPECT_EQ(sampling::classify_stop(result.summary, policy), expected);
    };

    check(SamplingPolicy::fixed_n(), sampling::StopRule::Fixed);
    // Decided safe point, satisfiable target: converges (at the floor).
    SamplingPolicy ci = SamplingPolicy::target_ci(0.15, 100, 10);
    ci.min_trials = 10;
    check(ci, sampling::StopRule::CiMet);
    // Unreachable target: the ceiling cuts the loop.
    check(SamplingPolicy::target_ci(0.005, 40, 10),
          sampling::StopRule::MaxTrials);
    // Unanimous screen decides the point at the screen trial count (25
    // trials: unanimous Wilson half-range ~0.13 < the 0.15 threshold).
    check(SamplingPolicy::two_stage(25, 0.15, 0.005, 40),
          sampling::StopRule::Screen);
}

TEST(SequentialSampling, StopRuleNamesAreStable) {
    EXPECT_STREQ(sampling::stop_rule_name(sampling::StopRule::Fixed),
                 "fixed");
    EXPECT_STREQ(sampling::stop_rule_name(sampling::StopRule::CiMet),
                 "ci-met");
    EXPECT_STREQ(sampling::stop_rule_name(sampling::StopRule::MaxTrials),
                 "max-trials");
    EXPECT_STREQ(sampling::stop_rule_name(sampling::StopRule::Screen),
                 "screen");
}

TEST(SequentialSampling, FactoriesClampTheFloorToTheCeiling) {
    SamplingPolicy ci = SamplingPolicy::target_ci(0.05, 10);
    EXPECT_LE(ci.min_trials, ci.max_trials);
    EXPECT_EQ(ci.min_trials, 10u);
    SamplingPolicy two = SamplingPolicy::two_stage(25, 0.15, 0.05, 10);
    EXPECT_LE(two.min_trials, two.max_trials);
}

TEST(SequentialSampling, AdaptiveRunIsThreadCountIndependent) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    OperatingPoint cliff;
    cliff.freq_mhz = 780.0;  // inside model C's cliff: outcomes are mixed
    cliff.vdd = 0.7;
    cliff.noise.sigma_mv = 10.0;

    const SamplingPolicy policy = SamplingPolicy::target_ci(0.08, 60, 10);
    for (const std::size_t threads : {std::size_t{1}, max_threads()}) {
        auto model = shared_core().make_model_c();
        MonteCarloRunner runner = make_runner(*bench, *model, 100, threads);
        const auto result =
            sampling::run_point_sequential(runner, cliff, policy);
        const PointSummary oracle =
            testing::serial_point(runner, *model, cliff, result.summary.trials);
        ASSERT_GT(oracle.correct_count, 0u);
        ASSERT_LT(oracle.correct_count, oracle.trials);
        EXPECT_EQ(bytes_of(result.summary), bytes_of(oracle))
            << "adaptive batches diverged from the serial loop at threads="
            << threads;
    }
}

TEST(SequentialSampling, TwoStageScreenDecidesUnanimousPoints) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    const SamplingPolicy policy =
        SamplingPolicy::two_stage(/*screen_trials=*/25,
                                  /*screen_threshold=*/0.15,
                                  /*ci_half_width=*/0.05,
                                  /*max_trials=*/200);
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.summary.trials, 25u);  // stopped at the screen
    EXPECT_EQ(result.batches, 1u);
}

TEST(SequentialSampling, TwoStageRefinesWhenTheScreenCannotDecide) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner = make_runner(*bench, *model, 100, 2);

    // A threshold below the unanimous-screen half-range can never fire
    // (the header documents the bound), so the refine stage must run.
    const SamplingPolicy policy =
        SamplingPolicy::two_stage(25, 0.001, 0.06, 200);
    const auto result =
        sampling::run_point_sequential(runner, safe_point(), policy);
    EXPECT_GT(result.summary.trials, 25u);
    EXPECT_GT(result.batches, 1u);
}

TEST(SamplingPolicy, FingerprintSeparatesWhatMustNotCollide) {
    EXPECT_EQ(SamplingPolicy::fixed_n().fingerprint(), 0u);

    const SamplingPolicy ci_a = SamplingPolicy::target_ci(0.05, 1000);
    const SamplingPolicy ci_b = SamplingPolicy::target_ci(0.10, 1000);
    const SamplingPolicy ci_c = SamplingPolicy::target_ci(0.05, 500);
    EXPECT_NE(ci_a.fingerprint(), 0u);
    EXPECT_NE(ci_a.fingerprint(), ci_b.fingerprint());
    EXPECT_NE(ci_a.fingerprint(), ci_c.fingerprint());
    EXPECT_EQ(ci_a.fingerprint(),
              SamplingPolicy::target_ci(0.05, 1000).fingerprint());

    SamplingPolicy two = SamplingPolicy::two_stage(25, 0.15, 0.05, 1000);
    two.batch_size = ci_a.batch_size;
    two.min_trials = ci_a.min_trials;
    EXPECT_NE(two.fingerprint(), ci_a.fingerprint());
}

TEST(SamplingPolicy, ParseSamplingKind) {
    EXPECT_EQ(sampling::parse_sampling_kind("fixed"),
              SamplingPolicy::Kind::FixedN);
    EXPECT_EQ(sampling::parse_sampling_kind("ci"),
              SamplingPolicy::Kind::TargetCi);
    EXPECT_EQ(sampling::parse_sampling_kind("two-stage"),
              SamplingPolicy::Kind::TwoStage);
    EXPECT_EQ(sampling::parse_sampling_kind("adaptive"), std::nullopt);
    EXPECT_EQ(sampling::parse_sampling_kind(""), std::nullopt);
}

TEST(SamplingPolicy, MaxHalfWidthMatchesWilson) {
    PointSummary summary;
    summary.trials = 100;
    summary.finished_count = 100;
    summary.correct_count = 50;
    const Interval correct = wilson_interval(50, 100);
    EXPECT_DOUBLE_EQ(sampling::max_half_width(summary),
                     0.5 * (correct.hi - correct.lo));
    // No data: the vacuous [0, 1] interval reports half-width 0.5.
    EXPECT_DOUBLE_EQ(sampling::max_half_width(PointSummary{}), 0.5);
}

}  // namespace
}  // namespace sfi
