// Shared behavioral contract for every detector of DetectionModel.
//
// Razor and CWC (fi/mitigation.hpp, fi/cwc.hpp) differ in physics —
// timing-speculation replay vs. constant-weight-code checking — but they
// must be interchangeable to the Monte-Carlo engine, the campaign runner
// and the forensics layer, and each must come with its price
// (DetectorCost). Detections are counted the one way the engine and the
// drivers count them: by a ForensicProbe attached to the model. This
// suite runs the same assertions against both; a new detector joins by
// adding one line to the instantiation at the bottom (see
// CONTRIBUTING.md).
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
    std::unique_ptr<FaultModel> (*make)();
    DetectorCost (*cost)();
    std::uint8_t fate_detected;  ///< FaultRecord fate this family stamps
    std::uint8_t fate_escaped;
};

// Partial Razor coverage so both verdicts occur, mirroring CWC's
// intrinsic escape rate.
constexpr RazorConfig kRazor{0.75, 11};

std::unique_ptr<FaultModel> make_razor() {
    return std::make_unique<DetectionModel>(shared_core().make_model_c(),
                                            kRazor);
}

std::unique_ptr<FaultModel> make_cwc() {
    return std::make_unique<DetectionModel>(shared_core().make_model_c(),
                                            CwcConfig{});
}

DetectorCost price_razor() { return razor_cost(kRazor); }
DetectorCost price_cwc() { return cwc_cost(CwcConfig{}); }

/// Feeds ops [from, to) of the synthetic mul stream through `model`.
void drive(FaultModel& model, int from, int to) {
    for (int i = from; i < to; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(0x9e3779b9u * i, i), 0x77u * i);
    }
}

class MitigationContract : public ::testing::TestWithParam<MitigationCase> {};

TEST_P(MitigationContract, CloneIsAMidStreamFork) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    model->reseed(11);
    drive(*model, 0, 8000);
    auto fork = model->clone();
    // From here the two must stay bit-identical on the same op stream,
    // verdict for verdict.
    ForensicProbe model_probe;
    ForensicProbe fork_probe;
    model->set_forensic_probe(&model_probe);
    fork->set_forensic_probe(&fork_probe);
    for (int i = 8000; i < 16000; ++i) {
        model->on_cycle(true);
        fork->on_cycle(true);
        const ExEvent ev = mul_event(0x9e3779b9u * i, i);
        const ExEvent ev2 = ev;
        ASSERT_EQ(model->on_ex_result(ev, 0x77u * i),
                  fork->on_ex_result(ev2, 0x77u * i))
            << GetParam().name << " diverged at op " << i;
    }
    EXPECT_GT(model_probe.detected(), 0u);
    EXPECT_EQ(fork_probe.detected(), model_probe.detected());
    EXPECT_EQ(fork_probe.escaped(), model_probe.escaped());
    EXPECT_EQ(fork_probe.records(), model_probe.records());
}

TEST_P(MitigationContract, ReseedIsReproducibleAndSeedSensitive) {
    auto model = GetParam().make();
    model->set_operating_point(overscaled_point());
    ForensicProbe probe;
    model->set_forensic_probe(&probe);
    auto run = [&](std::uint64_t seed) {
        model->reseed(seed);
        model->reset_stats();
        probe.start_trial();
        std::uint64_t checksum = 0;
        for (int i = 0; i < 6000; ++i) {
            model->on_cycle(true);
            const std::uint32_t out =
                model->on_ex_result(mul_event(i, 13u * i), 3u * i);
            checksum = checksum * 0x100000001b3ull + out;
        }
        return std::tuple(probe.detected(), probe.escaped(), checksum);
    };
    const auto first = run(7);
    EXPECT_EQ(first, run(7));
    EXPECT_NE(first, run(8));
}

TEST_P(MitigationContract, DetectionsNeverRaiseThroughputOrLowerPower) {
    const DetectorCost cost = GetParam().cost();
    const double idle = cost.effective_mhz(800.0, 100000, 0.0);
    EXPECT_GT(idle, 0.0);
    EXPECT_LE(idle, 800.0);
    EXPECT_GE(cost.power_uw(1000.0), 1000.0);
    EXPECT_GT(cost.penalty_cycles, 0u);

    auto model = GetParam().make();
    ForensicProbe probe;
    model->set_forensic_probe(&probe);
    model->set_operating_point(overscaled_point());
    model->reseed(31);
    for (int i = 0; i < 20000; ++i) {
        model->on_cycle(true);
        model->on_ex_result(mul_event(3u * i, i), 0);
    }
    ASSERT_GT(probe.detected(), 0u);
    EXPECT_LT(cost.effective_mhz(800.0, 100000, probe.detected()), idle);
}

TEST_P(MitigationContract, ForensicProbeStampsTheFamilyFateVocabulary) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = GetParam().make();
    McConfig mc;
    mc.trials = 8;
    MonteCarloRunner runner(*bench, *model, mc);
    const OperatingPoint point = benchmark_active_point();
    std::uint64_t marked = 0, detected = 0, escaped = 0;
    for (const TrialForensics& tf : runner.run_forensics(point, 8)) {
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
    EXPECT_GT(detected, 0u);
    EXPECT_GT(escaped, 0u);
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
        if (threads == 1) serial = testing::serial_point(runner, *model, point);
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
        MitigationCase{"razor", &make_razor, &price_razor, kRazorDetected,
                       kRazorEscaped},
        MitigationCase{"cwc", &make_cwc, &price_cwc, kCwcDetected,
                       kCwcEscaped}),
    [](const ::testing::TestParamInfo<MitigationCase>& info) {
        return std::string(info.param.name);
    });

}  // namespace
}  // namespace sfi
