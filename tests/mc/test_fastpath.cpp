// The zero-fault trial fast path and the PR 5 hot-path optimizations must
// be invisible in the numbers: a provably injection-free trial returns
// the golden outcome without simulating, and everything a caller can
// observe (TrialOutcome fields, PointSummary bits, model stats, CSV rows)
// equals the full simulation exactly. These tests run both paths
// (McConfig::zero_fault_fast_path on/off) and compare bit for bit, and
// pin the can_inject() predicates the fast path is gated on.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark.hpp"
#include "campaign/figures.hpp"
#include "campaign/runner.hpp"
#include "fi/mitigation.hpp"
#include "mc/montecarlo.hpp"
#include "mc/report.hpp"
#include "mc/sweep.hpp"
#include "testing/serial_point.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

const CharacterizedCore& core() { return testing::shared_core(); }

OperatingPoint point_at(double freq_mhz, double sigma_mv = 0.0) {
    OperatingPoint point;
    point.freq_mhz = freq_mhz;
    point.vdd = 0.7;
    point.noise.sigma_mv = sigma_mv;
    return point;
}

// Exact == everywhere: the claim is bit-identity, same as
// tests/mc/test_parallel.cpp.
void expect_outcomes_equal(const TrialOutcome& a, const TrialOutcome& b) {
    EXPECT_EQ(a.stop, b.stop);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.output_error, b.output_error);
    EXPECT_EQ(a.fi.fi_cycles, b.fi.fi_cycles);
    EXPECT_EQ(a.fi.alu_ops, b.fi.alu_ops);
    EXPECT_EQ(a.fi.injections, b.fi.injections);
    EXPECT_EQ(a.fi.corrupted_ops, b.fi.corrupted_ops);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
}

void expect_summaries_identical(const PointSummary& a, const PointSummary& b) {
    EXPECT_EQ(a.point.freq_mhz, b.point.freq_mhz);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.finished_count, b.finished_count);
    EXPECT_EQ(a.correct_count, b.correct_count);
    EXPECT_EQ(a.fi_rate, b.fi_rate);
    EXPECT_EQ(a.mean_error, b.mean_error);
    EXPECT_EQ(a.error_stats.count(), b.error_stats.count());
    EXPECT_EQ(a.error_stats.mean(), b.error_stats.mean());
    EXPECT_EQ(a.error_stats.variance(), b.error_stats.variance());
    EXPECT_EQ(a.fi_rate_stats.count(), b.fi_rate_stats.count());
    EXPECT_EQ(a.fi_rate_stats.mean(), b.fi_rate_stats.mean());
    EXPECT_EQ(a.fi_rate_stats.variance(), b.fi_rate_stats.variance());
}

// ---------------------------------------------------------------------------
// can_inject() predicates
// ---------------------------------------------------------------------------

TEST(CanInject, ModelAFollowsProbability) {
    EXPECT_FALSE(core().make_model_a(0.0)->can_inject());
    EXPECT_TRUE(core().make_model_a(1e-6)->can_inject());
}

TEST(CanInject, ModelBFlipsAtFirstFaultFrequency) {
    auto model = core().make_model_b();
    model->set_operating_point(point_at(500.0));
    const double f0 = model->first_fault_frequency_mhz();
    model->set_operating_point(point_at(f0 * 0.999));
    EXPECT_FALSE(model->can_inject());
    model->set_operating_point(point_at(f0 * 1.001));
    EXPECT_TRUE(model->can_inject());
}

TEST(CanInject, ModelBPlusNoiseWidensTheReach) {
    auto model = core().make_model_b();
    model->set_operating_point(point_at(500.0));
    const double f0 = model->first_fault_frequency_mhz();
    // Below the no-noise threshold but inside the noise-widened window.
    auto noisy = core().make_model_b();
    noisy->set_operating_point(point_at(f0 * 0.97, /*sigma_mv=*/25.0));
    EXPECT_TRUE(noisy->can_inject());
    model->set_operating_point(point_at(f0 * 0.97));
    EXPECT_FALSE(model->can_inject());
}

TEST(CanInject, ModelCUsesWorstClassWindow) {
    auto model = core().make_model_c();
    // Worst class max window at Vref bounds the reach without noise.
    const double worst_ps = core().cdfs()->max_window_ps();
    const double factor = core().lib().fit().factor(0.7);
    const double f0 = 1.0e6 / (worst_ps * factor);
    model->set_operating_point(point_at(f0 * 0.99));
    EXPECT_FALSE(model->can_inject());
    model->set_operating_point(point_at(f0 * 1.01));
    EXPECT_TRUE(model->can_inject());
}

TEST(CanInject, RazorDecoratorDelegatesToInner) {
    auto inner = core().make_model_b();
    inner->set_operating_point(point_at(500.0));
    const double f0 = inner->first_fault_frequency_mhz();
    ErrorDetectionModel razor(std::move(inner), RazorConfig{});
    razor.set_operating_point(point_at(f0 * 0.999));
    EXPECT_FALSE(razor.can_inject());
    razor.set_operating_point(point_at(f0 * 1.001));
    EXPECT_TRUE(razor.can_inject());
}

// ---------------------------------------------------------------------------
// Fast path == full simulation, bit for bit
// ---------------------------------------------------------------------------

// Sub-threshold model B: the fast path triggers for every trial. The
// outcomes and the aggregated summary must equal the full simulation's.
TEST(FastPath, TrialOutcomesMatchFullSimulation) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model_fast = core().make_model_b();
    auto model_sim = core().make_model_b();

    McConfig fast_config;
    fast_config.trials = 20;
    fast_config.seed = 11;
    McConfig sim_config = fast_config;
    sim_config.zero_fault_fast_path = false;

    MonteCarloRunner fast(*bench, *model_fast, fast_config);
    MonteCarloRunner sim(*bench, *model_sim, sim_config);

    model_sim->set_operating_point(point_at(500.0));
    const double f0 = model_sim->first_fault_frequency_mhz();
    const OperatingPoint below = point_at(f0 * 0.95);

    testing::SerialTrials fast_serial(fast, *model_fast);
    testing::SerialTrials sim_serial(sim, *model_sim);
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        const TrialOutcome a = fast_serial.run(below, trial);
        const TrialOutcome b = sim_serial.run(below, trial);
        expect_outcomes_equal(a, b);
        // The model's own statistics stay faithful on the fast path.
        EXPECT_EQ(model_fast->stats().alu_ops, model_sim->stats().alu_ops);
        EXPECT_EQ(model_fast->stats().fi_cycles, model_sim->stats().fi_cycles);
        EXPECT_EQ(model_fast->stats().injections, 0u);
    }

    expect_summaries_identical(fast.run_point(below), sim.run_point(below));
}

// A frequency sweep crossing the threshold: sub-threshold points take the
// fast path, super-threshold points simulate — the whole sweep must be
// bit-identical to the fast-path-disabled run, serial and parallel.
TEST(FastPath, FrequencySweepIdenticalAcrossPathAndThreads) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto probe = core().make_model_b();
    probe->set_operating_point(point_at(500.0));
    const double f0 = probe->first_fault_frequency_mhz();

    const std::vector<double> freqs = {f0 * 0.9, f0 * 0.99, f0 * 1.001,
                                       f0 * 1.02};
    std::vector<PointSummary> reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const bool fast_path : {false, true}) {
            auto model = core().make_model_b();
            McConfig config;
            config.trials = 16;
            config.seed = 3;
            config.threads = threads;
            config.zero_fault_fast_path = fast_path;
            MonteCarloRunner runner(*bench, *model, config);
            std::vector<PointSummary> sweep;
            for (const double f : freqs)
                sweep.push_back(runner.run_point(point_at(f, 10.0)));
            if (reference.empty()) {
                reference = sweep;
                continue;
            }
            ASSERT_EQ(sweep.size(), reference.size());
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                SCOPED_TRACE(::testing::Message()
                             << "threads=" << threads
                             << " fast_path=" << fast_path << " point " << i);
                expect_summaries_identical(sweep[i], reference[i]);
            }
        }
    }
}

// Watchdog guard: with watchdog_factor < 1 even the clean run is cut
// short, so the fast path must NOT fire (outcomes must match the full
// simulation, which watchdogs).
TEST(FastPath, RespectsSubUnityWatchdogFactor) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model_fast = core().make_model_b();
    auto model_sim = core().make_model_b();
    McConfig fast_config;
    fast_config.trials = 4;
    fast_config.watchdog_factor = 0.5;  // kills even the golden run
    McConfig sim_config = fast_config;
    sim_config.zero_fault_fast_path = false;
    MonteCarloRunner fast(*bench, *model_fast, fast_config);
    MonteCarloRunner sim(*bench, *model_sim, sim_config);

    model_sim->set_operating_point(point_at(500.0));
    const double f0 = model_sim->first_fault_frequency_mhz();
    const OperatingPoint below = point_at(f0 * 0.9);
    const TrialOutcome a =
        testing::SerialTrials(fast, *model_fast).run(below, 0);
    const TrialOutcome b = testing::SerialTrials(sim, *model_sim).run(below, 0);
    EXPECT_EQ(a.stop, StopReason::Watchdog);
    expect_outcomes_equal(a, b);
}

// ---------------------------------------------------------------------------
// Golden CSV check: the optimized kernel reproduces the fig1 campaign
// byte for byte against the fast-path-disabled (pure simulation) path.
// ---------------------------------------------------------------------------

TEST(FastPath, Fig1SweepCsvBytesIdenticalToSimulationPath) {
    const auto bench = make_benchmark(BenchmarkId::Median);

    auto run_csv = [&](bool fast_path, const std::string& name) {
        auto model = core().make_model_b();
        McConfig config;
        config.trials = 12;
        config.seed = 5;
        config.threads = 2;
        config.zero_fault_fast_path = fast_path;
        MonteCarloRunner runner(*bench, *model, config);
        model->set_operating_point(point_at(500.0, 10.0));
        const double f0 = model->first_fault_frequency_mhz();
        std::vector<PointSummary> sweep;
        for (const double f : linspace(f0 - 4.0, f0 + 4.0, 9))
            sweep.push_back(runner.run_point(point_at(f, 10.0)));
        const std::string path = ::testing::TempDir() + name;
        write_sweep_csv(path, sweep);
        std::ifstream is(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << is.rdbuf();
        return bytes.str();
    };

    const std::string optimized = run_csv(true, "sfi_fastpath_opt.csv");
    const std::string simulated = run_csv(false, "sfi_fastpath_sim.csv");
    EXPECT_FALSE(optimized.empty());
    EXPECT_EQ(optimized, simulated);
}

}  // namespace
}  // namespace sfi
