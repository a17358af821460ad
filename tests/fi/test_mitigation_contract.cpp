// Shared behavioral contract for every DetectionModel decorator.
//
// Razor (fi/mitigation.hpp) and CWC (fi/cwc.hpp) differ in physics —
// timing-speculation replay vs. constant-weight-code checking — but they
// must be interchangeable to the Monte-Carlo engine, the campaign runner
// and the forensics layer. This suite runs the same assertions against
// both; a new mitigation family joins by adding one factory line to the
// instantiation at the bottom (see CONTRIBUTING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "fi/cwc.hpp"
#include "fi/forensics.hpp"
#include "fi/mitigation.hpp"
#include "mc/montecarlo.hpp"
#include "testing/serial_point.hpp"
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

// A point where model C faults on the classes the Median benchmark
// actually executes (compares and adds; it has no Mul on the hot path).
OperatingPoint benchmark_active_point() {
    OperatingPoint p;
    p.vdd = 0.7;
    p.noise.sigma_mv = 10.0;
    auto probe = shared_core().make_model_c();
    probe->set_operating_point(p);
    p.freq_mhz = 1.2 * std::min(probe->first_fault_frequency_mhz(ExClass::Cmp),
                                probe->first_fault_frequency_mhz(ExClass::Add));
    return p;
}

struct MitigationCase {
    const char* name;
    std::unique_ptr<DetectionModel> (*make)();
    std::uint8_t fate_detected;  ///< FaultRecord fate this family stamps
    std::uint8_t fate_escaped;
};

// Partial Razor coverage so both verdicts occur, mirroring CWC's
// intrinsic escape rate.
std::unique_ptr<DetectionModel> make_razor() {
    return std::make_unique<ErrorDetectionModel>(shared_core().make_model_c(),
                                                 RazorConfig{0.75, 11});
}

std::unique_ptr<DetectionModel> make_cwc() {
    return std::make_unique<CwcDetectionModel>(shared_core().make_model_c(),
                                               CwcConfig{});
}

class MitigationContract : public ::testing::TestWithParam<MitigationCase> {};

TEST_P(MitigationContract, CloneIsAMidStreamFork) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    model->reseed(11);
    for (int i = 0; i < 8000; ++i) {
        model->on_cycle(true);
        model->on_ex_result(mul_event(0x9e3779b9u * i, i), 0x77u * i);
    }
    auto fork_base = model->clone();
    auto* fork = dynamic_cast<DetectionModel*>(fork_base.get());
    ASSERT_NE(fork, nullptr);
    EXPECT_EQ(fork->detected(), model->detected());
    EXPECT_EQ(fork->escaped(), model->escaped());
    // From here the two must stay bit-identical on the same op stream.
    for (int i = 8000; i < 16000; ++i) {
        model->on_cycle(true);
        fork->on_cycle(true);
        const ExEvent ev = mul_event(0x9e3779b9u * i, i);
        const ExEvent ev2 = ev;
        ASSERT_EQ(model->on_ex_result(ev, 0x77u * i),
                  fork->on_ex_result(ev2, 0x77u * i))
            << GetParam().name << " diverged at op " << i;
    }
    EXPECT_EQ(fork->detected(), model->detected());
    EXPECT_EQ(fork->escaped(), model->escaped());
    EXPECT_GT(model->detected(), 0u);
}

TEST_P(MitigationContract, ReseedIsReproducibleAndSeedSensitive) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    auto run = [&](std::uint64_t seed) {
        model->reseed(seed);
        model->reset_stats();
        model->reset_mitigation_stats();
        std::uint64_t checksum = 0;
        for (int i = 0; i < 6000; ++i) {
            model->on_cycle(true);
            const std::uint32_t out =
                model->on_ex_result(mul_event(i, 13u * i), 3u * i);
            checksum = checksum * 0x100000001b3ull + out;
        }
        return std::tuple(model->detected(), model->escaped(), checksum);
    };
    const auto first = run(7);
    EXPECT_EQ(first, run(7));
    EXPECT_NE(first, run(8));
}

TEST_P(MitigationContract, CountersCarryThroughCloneAndKeepCounting) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    model->reseed(21);
    for (int i = 0; i < 12000; ++i) {
        model->on_cycle(true);
        model->on_ex_result(mul_event(5u * i, i), 9u * i);
    }
    const auto before = std::pair(model->detected(), model->escaped());
    ASSERT_GT(before.first + before.second, 0u);
    auto fork_base = model->clone();
    auto* fork = dynamic_cast<DetectionModel*>(fork_base.get());
    ASSERT_NE(fork, nullptr);
    for (int i = 12000; i < 24000; ++i) {
        fork->on_cycle(true);
        fork->on_ex_result(mul_event(5u * i, i), 9u * i);
    }
    // The fork advanced past the carried-over totals; the original kept
    // the snapshot it had at clone time.
    EXPECT_GT(fork->detected() + fork->escaped(),
              before.first + before.second);
    EXPECT_EQ(std::pair(model->detected(), model->escaped()), before);
    fork->reset_mitigation_stats();
    EXPECT_EQ(fork->detected(), 0u);
    EXPECT_EQ(fork->escaped(), 0u);
}

TEST_P(MitigationContract, EffectiveThroughputNeverExceedsTheClock) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    model->reseed(31);
    const double idle = model->effective_mhz(800.0, 100000);
    EXPECT_GT(idle, 0.0);
    EXPECT_LE(idle, 800.0);
    for (int i = 0; i < 20000; ++i) {
        model->on_cycle(true);
        model->on_ex_result(mul_event(3u * i, i), 0);
    }
    ASSERT_GT(model->detected(), 0u);
    EXPECT_LT(model->effective_mhz(800.0, 100000), idle);
}

TEST_P(MitigationContract, ForensicProbeStampsTheFamilyFateVocabulary) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = GetParam().make();
    McConfig mc;
    mc.trials = 8;
    MonteCarloRunner runner(*bench, *model, mc);
    const OperatingPoint point = benchmark_active_point();
    std::uint64_t marked = 0, detected = 0, escaped = 0;
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
        const TrialForensics tf = runner.run_trial_forensic(point, trial);
        for (const FaultRecord& rec : tf.records) {
            if (rec.razor == kRazorNone) continue;
            ++marked;
            EXPECT_TRUE(rec.razor == GetParam().fate_detected ||
                        rec.razor == GetParam().fate_escaped)
                << GetParam().name << " stamped foreign fate "
                << static_cast<int>(rec.razor);
        }
        detected += tf.razor_detected;
        escaped += tf.razor_escaped;
        // Every detection logged a latency sample.
        EXPECT_EQ(tf.detection_latencies.size(), tf.razor_detected);
    }
    EXPECT_GT(marked, 0u) << "no injection was ever marked by "
                          << GetParam().name;
    EXPECT_GT(detected + escaped, 0u);
}

TEST_P(MitigationContract, SerialAndParallelPointsAreBitIdentical) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const OperatingPoint point = benchmark_active_point();
    PointSummary serial;
    for (const unsigned threads : {1u, 2u, 8u}) {
        auto model = GetParam().make();
        McConfig mc;
        mc.trials = 12;
        mc.threads = threads;
        MonteCarloRunner runner(*bench, *model, mc);
        if (threads == 1) serial = testing::serial_point(runner, point);
        const PointSummary s = runner.run_point(point);
        EXPECT_EQ(s.trials, serial.trials) << threads << " threads";
        EXPECT_EQ(s.finished_count, serial.finished_count)
            << threads << " threads";
        EXPECT_EQ(s.correct_count, serial.correct_count)
            << threads << " threads";
        EXPECT_EQ(s.fi_rate, serial.fi_rate) << threads << " threads";
        EXPECT_EQ(s.mean_error, serial.mean_error) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Detectors, MitigationContract,
    ::testing::Values(
        MitigationCase{"razor", &make_razor, kRazorDetected, kRazorEscaped},
        MitigationCase{"cwc", &make_cwc, kCwcDetected, kCwcEscaped}),
    [](const ::testing::TestParamInfo<MitigationCase>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace sfi
