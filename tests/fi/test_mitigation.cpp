#include "fi/mitigation.hpp"

#include <gtest/gtest.h>

#include "mc/montecarlo.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::shared_core;

OperatingPoint overscaled_point() {
    OperatingPoint p;
    p.vdd = 0.7;
    p.noise.sigma_mv = 0.0;
    auto probe = shared_core().make_model_c();
    p.freq_mhz = probe->first_fault_frequency_mhz(ExClass::Mul) * 1.15;
    return p;
}

ExEvent mul_event(std::uint32_t a, std::uint32_t b) {
    ExEvent ev;
    ev.cls = ExClass::Mul;
    ev.operand_a = a;
    ev.operand_b = b;
    return ev;
}

TEST(ErrorDetection, FullCoverageAlwaysReturnsCorrect) {
    ErrorDetectionModel model(shared_core().make_model_c(), {1.0, 11});
    model.set_operating_point(overscaled_point());
    model.reseed(1);
    for (int i = 0; i < 20000; ++i) {
        model.on_cycle(true);
        const std::uint32_t correct = 0x1234u * i;
        EXPECT_EQ(model.on_ex_result(mul_event(i, 3 * i), correct), correct);
    }
    EXPECT_GT(model.detected(), 0u);
    EXPECT_EQ(model.escaped(), 0u);
    EXPECT_EQ(model.stats().injections, model.detected());
}

TEST(ErrorDetection, ZeroCoverageEscapesEverything) {
    ErrorDetectionModel model(shared_core().make_model_c(), {0.0, 11});
    model.set_operating_point(overscaled_point());
    model.reseed(2);
    std::uint64_t corruptions = 0;
    for (int i = 0; i < 20000; ++i) {
        model.on_cycle(true);
        const std::uint32_t correct = 7u * i;
        if (model.on_ex_result(mul_event(i, i), correct) != correct)
            ++corruptions;
    }
    EXPECT_GT(corruptions, 0u);
    EXPECT_EQ(model.detected(), 0u);
    EXPECT_EQ(model.escaped(), corruptions);
}

TEST(ErrorDetection, PartialCoverageSplitsProportionally) {
    ErrorDetectionModel model(shared_core().make_model_c(), {0.75, 11});
    model.set_operating_point(overscaled_point());
    model.reseed(3);
    for (int i = 0; i < 60000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(0x9e3779b9u * i, i), 5u * i);
    }
    const double total =
        static_cast<double>(model.detected() + model.escaped());
    ASSERT_GT(total, 100.0);
    EXPECT_NEAR(static_cast<double>(model.detected()) / total, 0.75, 0.06);
}

TEST(ErrorDetection, ReplayCyclesAndEffectiveThroughput) {
    ErrorDetectionModel model(shared_core().make_model_c(), {1.0, 10});
    model.set_operating_point(overscaled_point());
    model.reseed(4);
    for (int i = 0; i < 10000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(i, 11u * i), 0);
    }
    EXPECT_EQ(model.replay_cycles(), model.detected() * 10);
    const double eff = model.effective_mhz(800.0, 100000);
    EXPECT_LT(eff, 800.0);
    EXPECT_NEAR(eff,
                800.0 * 100000.0 /
                    (100000.0 + static_cast<double>(model.replay_cycles())),
                1e-9);
}

TEST(ErrorDetection, SafeFrequencyHasNoOverhead) {
    ErrorDetectionModel model(shared_core().make_model_c(), {1.0, 11});
    OperatingPoint p;
    p.freq_mhz = 400.0;
    p.vdd = 0.7;
    model.set_operating_point(p);
    model.reseed(5);
    for (int i = 0; i < 5000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(i, i), 9u);
    }
    EXPECT_EQ(model.detected(), 0u);
    EXPECT_DOUBLE_EQ(model.effective_mhz(400.0, 5000), 400.0);
}

TEST(ErrorDetection, FullCoverageKeepsApplicationCorrect) {
    const auto bench = make_benchmark(BenchmarkId::KMeans);
    auto model = std::make_unique<ErrorDetectionModel>(
        shared_core().make_model_c(), RazorConfig{1.0, 11});
    McConfig mc;
    mc.trials = 10;
    MonteCarloRunner runner(*bench, *model, mc);
    const PointSummary s = runner.run_point(overscaled_point());
    EXPECT_EQ(s.correct_frac(), 1.0);  // every error replayed
    EXPECT_GT(s.fi_rate, 0.0);         // errors did occur
}

TEST(ErrorDetection, RejectsBadConfig) {
    EXPECT_THROW(ErrorDetectionModel(nullptr, {1.0, 11}), std::invalid_argument);
    EXPECT_THROW(ErrorDetectionModel(shared_core().make_model_c(), {1.5, 11}),
                 std::invalid_argument);
}

TEST(ErrorDetection, ReseedIsReproducible) {
    ErrorDetectionModel model(shared_core().make_model_c(), {0.5, 11});
    model.set_operating_point(overscaled_point());
    auto run = [&] {
        model.reseed(77);
        model.reset_stats();
        model.reset_mitigation_stats();
        for (int i = 0; i < 5000; ++i) {
            model.on_cycle(true);
            model.on_ex_result(mul_event(i, 13u * i), 3u * i);
        }
        return std::pair(model.detected(), model.escaped());
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sfi
