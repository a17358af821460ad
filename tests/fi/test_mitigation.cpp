#include "fi/mitigation.hpp"

#include <gtest/gtest.h>

#include "fi/forensics.hpp"
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

// Every test counts verdicts through an attached probe, the one
// detection count the engine and the drivers read.

TEST(ErrorDetection, FullCoverageAlwaysReturnsCorrect) {
    DetectionModel model(shared_core().make_model_c(), RazorConfig{1.0, 11});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
    model.set_operating_point(overscaled_point());
    model.reseed(1);
    for (int i = 0; i < 20000; ++i) {
        model.on_cycle(true);
        const std::uint32_t correct = 0x1234u * i;
        EXPECT_EQ(model.on_ex_result(mul_event(i, 3 * i), correct), correct);
    }
    EXPECT_GT(probe.detected(), 0u);
    EXPECT_EQ(probe.escaped(), 0u);
    EXPECT_EQ(model.stats().injections, probe.detected());
}

TEST(ErrorDetection, ZeroCoverageEscapesEverything) {
    DetectionModel model(shared_core().make_model_c(), RazorConfig{0.0, 11});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
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
    EXPECT_EQ(probe.detected(), 0u);
    EXPECT_EQ(probe.escaped(), corruptions);
}

TEST(ErrorDetection, PartialCoverageSplitsProportionally) {
    DetectionModel model(shared_core().make_model_c(), RazorConfig{0.75, 11});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
    model.set_operating_point(overscaled_point());
    model.reseed(3);
    for (int i = 0; i < 60000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(0x9e3779b9u * i, i), 5u * i);
    }
    const double total =
        static_cast<double>(probe.detected() + probe.escaped());
    ASSERT_GT(total, 100.0);
    EXPECT_NEAR(static_cast<double>(probe.detected()) / total, 0.75, 0.06);
}

TEST(RazorCost, ReplayCyclesDilateTheRunAndLatchesCostEnergy) {
    const DetectorCost cost = razor_cost(RazorConfig{1.0, 10});
    EXPECT_EQ(cost.penalty_cycles, 10u);
    EXPECT_EQ(cost.latency_frac, 0.0);  // the shadow latch is off the path
    EXPECT_DOUBLE_EQ(cost.energy_frac, 0.03);
    EXPECT_DOUBLE_EQ(cost.power_uw(1000.0), 1030.0);

    DetectionModel model(shared_core().make_model_c(), RazorConfig{1.0, 10});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
    model.set_operating_point(overscaled_point());
    model.reseed(4);
    for (int i = 0; i < 10000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(i, 11u * i), 0);
    }
    ASSERT_GT(probe.detected(), 0u);
    const double d = static_cast<double>(probe.detected());
    const double eff = cost.effective_mhz(800.0, 100000, d);
    EXPECT_LT(eff, 800.0);
    EXPECT_NEAR(eff, 800.0 * 100000.0 / (100000.0 + d * 10.0), 1e-9);
}

TEST(RazorCost, SafeFrequencyHasNoOverhead) {
    DetectionModel model(shared_core().make_model_c(), RazorConfig{1.0, 11});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
    OperatingPoint p;
    p.freq_mhz = 400.0;
    p.vdd = 0.7;
    model.set_operating_point(p);
    model.reseed(5);
    for (int i = 0; i < 5000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(i, i), 9u);
    }
    EXPECT_EQ(probe.detected(), 0u);
    EXPECT_DOUBLE_EQ(razor_cost(RazorConfig{1.0, 11})
                         .effective_mhz(400.0, 5000, probe.detected()),
                     400.0);
}

// The price of a bare model is nothing, and an empty run with no stall
// runs at the derated clock.
TEST(DetectorCost, BareModelIsFreeAndEmptyRunsRunAtTheDeratedClock) {
    const DetectorCost bare;
    EXPECT_EQ(bare.effective_mhz(750.0, 120000, 0.0), 750.0);
    EXPECT_EQ(bare.power_uw(1234.5), 1234.5);
    DetectorCost derated;
    derated.latency_frac = 0.25;
    derated.penalty_cycles = 4;
    EXPECT_DOUBLE_EQ(derated.effective_mhz(1000.0, 0, 0.0), 800.0);
    EXPECT_EQ(derated.effective_mhz(1000.0, 0, 3.0), 0.0);
}

TEST(ErrorDetection, FullCoverageKeepsApplicationCorrect) {
    const auto bench = make_benchmark(BenchmarkId::KMeans);
    auto model = std::make_unique<DetectionModel>(
        shared_core().make_model_c(), RazorConfig{1.0, 11});
    McConfig mc;
    mc.trials = 10;
    MonteCarloRunner runner(*bench, *model, mc);
    const PointSummary s = runner.run_point(overscaled_point());
    EXPECT_EQ(s.correct_frac(), 1.0);  // every error replayed
    EXPECT_GT(s.fi_rate, 0.0);         // errors did occur
}

TEST(ErrorDetection, RejectsBadConfig) {
    EXPECT_THROW(DetectionModel(nullptr, RazorConfig{1.0, 11}),
                 std::invalid_argument);
    EXPECT_THROW(
        DetectionModel(shared_core().make_model_c(), RazorConfig{1.5, 11}),
        std::invalid_argument);
}

TEST(ErrorDetection, ReseedIsReproducible) {
    DetectionModel model(shared_core().make_model_c(), RazorConfig{0.5, 11});
    ForensicProbe probe;
    model.set_forensic_probe(&probe);
    model.set_operating_point(overscaled_point());
    auto run = [&] {
        model.reseed(77);
        model.reset_stats();
        probe.start_trial();
        for (int i = 0; i < 5000; ++i) {
            model.on_cycle(true);
            model.on_ex_result(mul_event(i, 13u * i), 3u * i);
        }
        return std::pair(probe.detected(), probe.escaped());
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sfi
