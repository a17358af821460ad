// Trial-level equivalence suite for the parallel Monte-Carlo engine:
//
//  * parallel run_point / frequency_sweep are bit-identical to the serial
//    path for models A, B, B+, C and the Razor decorator at 1, 2 and 8
//    worker threads (override the widest count with SFI_TEST_THREADS);
//  * FaultModel::clone() fidelity — a clone reproduces the original's
//    corrupt() stream, both after reseed() and mid-stream;
//  * FiStats/RunningStats aggregation is a pure function of the
//    trial-indexed outcome array (execution order cannot leak in);
//  * trial independence — interleaved, shuffled run_trial calls reproduce
//    the same-index serial outcomes (no hidden shared state in
//    Cpu/Memory/model survives a trial).
#include "mc/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fi/mitigation.hpp"
#include "testing/frequency_sweep.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::frequency_sweep;
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

/// Widest thread count exercised by the equivalence tests. The CI TSan
/// job (and `ctest -j`) caps it through the SFI_TEST_THREADS environment
/// knob; the default of 8 deliberately oversubscribes small machines —
/// determinism must not depend on the schedule.
std::size_t wide_thread_count() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const long value = std::atol(env);
        if (value > 0) return static_cast<std::size_t>(value);
    }
    return 8;
}

void expect_stats_identical(const RunningStats& a, const RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());  // exact ==: the claim is bit-identity
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

void expect_summaries_identical(const PointSummary& a, const PointSummary& b) {
    EXPECT_EQ(a.point.freq_mhz, b.point.freq_mhz);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.finished_count, b.finished_count);
    EXPECT_EQ(a.correct_count, b.correct_count);
    EXPECT_EQ(a.fi_rate, b.fi_rate);
    EXPECT_EQ(a.mean_error, b.mean_error);
    expect_stats_identical(a.error_stats, b.error_stats);
    expect_stats_identical(a.fi_rate_stats, b.fi_rate_stats);
}

void expect_outcomes_identical(const TrialOutcome& a, const TrialOutcome& b) {
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

/// One named model variant pinned to an operating point with injection
/// activity (transition region where the model has one).
struct ModelCase {
    std::string label;
    std::unique_ptr<FaultModel> model;
    OperatingPoint at;
};

/// Frequency with guaranteed model-C injection activity on the median
/// kernel (whose EX mix is adds/compares, not the critical mul path):
/// `scale` × the instruction-conditioned first-fault frequency at σ=10 mV.
double model_c_active_mhz(double scale = 1.2) {
    auto model = shared_core().make_model_c();
    model->set_operating_point(point(700.0, 0.7, 10.0));
    return scale * std::min(model->first_fault_frequency_mhz(ExClass::Cmp),
                            model->first_fault_frequency_mhz(ExClass::Add));
}

std::vector<ModelCase> model_cases() {
    const CharacterizedCore& core = shared_core();
    const double fsta = core.sta_fmax_mhz(0.7);
    const double fc = model_c_active_mhz();
    std::vector<ModelCase> cases;
    cases.push_back({"A", core.make_model_a(1e-3), point(fsta)});
    cases.push_back({"B", core.make_model_b(), point(fsta + 2.0)});
    cases.push_back({"B+", core.make_model_b(), point(fsta - 10.0, 0.7, 10.0)});
    cases.push_back({"C", core.make_model_c(), point(fc, 0.7, 10.0)});
    RazorConfig razor;
    razor.detection_coverage = 0.7;  // both detect and escape paths draw
    cases.push_back({"razor(C)",
                     std::make_unique<ErrorDetectionModel>(core.make_model_c(),
                                                           razor),
                     point(fc, 0.7, 10.0)});
    return cases;
}

// ---------------------------------------------------------------------------
// Tentpole (a): parallel run_point / frequency_sweep == serial, bitwise.
// ---------------------------------------------------------------------------

TEST(ParallelEquivalence, RunPointBitIdenticalAcrossModelsAndThreadCounts) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    for (ModelCase& c : model_cases()) {
        SCOPED_TRACE("model " + c.label);
        MonteCarloRunner serial(*bench, *c.model, fast_config());
        const PointSummary reference = serial.run_point(c.at);
        // The point must actually exercise the model for the comparison to
        // mean anything (model A's p and the thresholds guarantee it).
        EXPECT_GT(reference.fi_rate_stats.max(), 0.0);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, wide_thread_count()}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            McConfig config = fast_config();
            config.threads = threads;
            MonteCarloRunner parallel(*bench, *c.model, config);
            expect_summaries_identical(reference, parallel.run_point(c.at));
        }
    }
}

TEST(ParallelEquivalence, EngineOutcomesMatchSerialPerTrialIndex) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config(12));
    const OperatingPoint p = point(model_c_active_mhz(1.05), 0.7, 10.0);
    std::vector<TrialOutcome> reference;
    for (std::uint64_t trial = 0; trial < 12; ++trial)
        reference.push_back(runner.run_trial(p, trial));
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, wide_thread_count()}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const auto outcomes = run_trials_parallel(runner, p, threads);
        ASSERT_EQ(outcomes.size(), reference.size());
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            SCOPED_TRACE("trial " + std::to_string(i));
            expect_outcomes_identical(reference[i], outcomes[i]);
        }
    }
}

TEST(ParallelEquivalence, FrequencySweepBitIdenticalToSerial) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const double f0 = model_c_active_mhz(1.0);
    // Spans fault-free, transition and collapsed points.
    const std::vector<double> freqs = {f0 * 0.95, f0 * 1.05, f0 * 1.2};
    OperatingPoint base = point(f0, 0.7, 10.0);

    auto serial_model = shared_core().make_model_c();
    MonteCarloRunner serial(*bench, *serial_model, fast_config(8));
    const auto reference = frequency_sweep(serial, base, freqs);

    auto parallel_model = shared_core().make_model_c();
    McConfig config = fast_config(8);
    config.threads = wide_thread_count();
    MonteCarloRunner parallel(*bench, *parallel_model, config);
    const auto sweep = frequency_sweep(parallel, base, freqs);

    ASSERT_EQ(sweep.size(), reference.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expect_summaries_identical(reference[i], sweep[i]);
    }
}

// ---------------------------------------------------------------------------
// Tentpole (b): FaultModel::clone() fidelity.
// ---------------------------------------------------------------------------

/// Advances one model through a synthetic EX-stage workload (used to move
/// an RNG stream off its freshly seeded state).
void drive(FaultModel& m, std::uint64_t salt, int steps) {
    Rng feed(salt);
    const ExClass classes[] = {ExClass::Add, ExClass::Mul, ExClass::Cmp,
                               ExClass::Xor};
    std::uint32_t prev = 0;
    for (int i = 0; i < steps; ++i) {
        m.on_cycle(true);
        ExEvent ev;
        ev.cls = classes[feed.bounded(4)];
        ev.operand_a = feed.u32();
        ev.operand_b = feed.u32();
        ev.prev_result = prev;
        ev.cycle = static_cast<std::uint64_t>(i);
        prev = m.on_ex_result(ev, feed.u32());
    }
}

/// Feeds both models the same synthetic EX-stage workload and asserts the
/// corrupt() streams (returned results and statistics) never diverge.
/// Each model's events carry its own previous latched result, exactly as
/// the ISS would present them.
void drive_and_compare(FaultModel& a, FaultModel& b, std::uint64_t salt,
                       int steps = 2000) {
    Rng feed(salt);
    const ExClass classes[] = {ExClass::Add, ExClass::Mul, ExClass::Cmp,
                               ExClass::Xor};
    std::uint32_t prev_a = 0;
    std::uint32_t prev_b = 0;
    for (int i = 0; i < steps; ++i) {
        a.on_cycle(true);
        b.on_cycle(true);
        ExEvent ev;
        ev.cls = classes[feed.bounded(4)];
        ev.operand_a = feed.u32();
        ev.operand_b = feed.u32();
        ev.cycle = static_cast<std::uint64_t>(i);
        ExEvent ev_b = ev;
        ev.prev_result = prev_a;
        ev_b.prev_result = prev_b;
        const std::uint32_t correct = feed.u32();
        prev_a = a.on_ex_result(ev, correct);
        prev_b = b.on_ex_result(ev_b, correct);
        ASSERT_EQ(prev_a, prev_b) << "corrupt stream diverged at step " << i;
    }
    EXPECT_EQ(a.stats().fi_cycles, b.stats().fi_cycles);
    EXPECT_EQ(a.stats().alu_ops, b.stats().alu_ops);
    EXPECT_EQ(a.stats().injections, b.stats().injections);
    EXPECT_EQ(a.stats().corrupted_ops, b.stats().corrupted_ops);
}

TEST(CloneFidelity, ReseededCloneReproducesCorruptStream) {
    for (ModelCase& c : model_cases()) {
        SCOPED_TRACE("model " + c.label);
        c.model->set_operating_point(c.at);
        c.model->reseed(123);
        // Move the original's RNG off its freshly seeded state first, so
        // the test would catch a clone that shares instead of copies.
        drive(*c.model, 1, 50);
        const auto clone = c.model->clone();
        c.model->reseed(77);
        clone->reseed(77);
        c.model->reset_stats();
        clone->reset_stats();
        drive_and_compare(*c.model, *clone, 5);
        EXPECT_GT(c.model->stats().injections, 0u)
            << "workload never hit the model: the comparison was vacuous";
    }
}

TEST(CloneFidelity, MidStreamCloneContinuesIdentically) {
    for (ModelCase& c : model_cases()) {
        SCOPED_TRACE("model " + c.label);
        c.model->set_operating_point(c.at);
        c.model->reseed(2024);
        drive(*c.model, 9, 300);  // advance the stream mid-way
        const auto clone = c.model->clone();
        // No reseed: the clone must carry the exact mid-stream RNG state
        // and statistics.
        EXPECT_EQ(clone->stats().injections, c.model->stats().injections);
        drive_and_compare(*c.model, *clone, 11, 700);
    }
}

TEST(CloneFidelity, CloneIsIndependentOfOriginal) {
    auto model = shared_core().make_model_c();
    model->set_operating_point(
        point(shared_core().sta_fmax_mhz(0.7) * 1.1, 0.7, 10.0));
    model->reseed(5);
    const auto clone = model->clone();
    // Driving the original must not advance the clone's stream.
    drive(*model, 3, 400);
    const std::uint64_t original_injections = model->stats().injections;
    EXPECT_GT(original_injections, 0u);
    EXPECT_EQ(clone->stats().injections, 0u);
    // After an identical reseed both still agree: nothing was shared.
    model->reseed(5);
    model->reset_stats();
    drive_and_compare(*model, *clone, 3, 400);
}

TEST(CloneFidelity, RazorClonePreservesMitigationCounters) {
    RazorConfig razor;
    razor.detection_coverage = 0.7;
    ErrorDetectionModel model(shared_core().make_model_c(), razor);
    model.set_operating_point(
        point(shared_core().sta_fmax_mhz(0.7) * 1.1, 0.7, 10.0));
    model.reseed(31);
    drive(model, 17, 500);
    ASSERT_GT(model.detected() + model.escaped(), 0u);
    const auto clone = model.clone();
    const auto* razor_clone = dynamic_cast<ErrorDetectionModel*>(clone.get());
    ASSERT_NE(razor_clone, nullptr);
    EXPECT_EQ(razor_clone->detected(), model.detected());
    EXPECT_EQ(razor_clone->escaped(), model.escaped());
    EXPECT_EQ(razor_clone->name(), model.name());
}

// ---------------------------------------------------------------------------
// Tentpole (c): aggregation is trial-order deterministic.
// ---------------------------------------------------------------------------

std::vector<TrialOutcome> synthetic_outcomes(std::size_t n,
                                             std::uint64_t seed) {
    Rng rng(seed);
    std::vector<TrialOutcome> outcomes(n);
    for (TrialOutcome& outcome : outcomes) {
        outcome.finished = rng.chance(0.7);
        outcome.correct = outcome.finished && rng.chance(0.6);
        outcome.output_error = outcome.finished ? rng.uniform(0.0, 12.0) : 0.0;
        outcome.fi.fi_cycles = 1000 + rng.bounded(5000);
        outcome.fi.injections = rng.bounded(400);
        outcome.fi.alu_ops = 500 + rng.bounded(1000);
        outcome.fi.corrupted_ops = rng.bounded(100);
        outcome.cycles = 10000 + rng.bounded(80000);
        outcome.kernel_cycles = outcome.fi.fi_cycles;
    }
    return outcomes;
}

TEST(Aggregation, SummarizeIsPureFunctionOfIndexedOutcomes) {
    const OperatingPoint p = point(725.0);
    const auto outcomes = synthetic_outcomes(64, 7);
    const PointSummary once = summarize_trials(p, outcomes);
    const PointSummary twice = summarize_trials(p, outcomes);
    expect_summaries_identical(once, twice);

    // Fill a second array in a scrambled *completion* order — as parallel
    // workers do — and aggregate: indexing by trial makes the result
    // independent of when each outcome landed.
    std::vector<std::size_t> completion(outcomes.size());
    std::iota(completion.begin(), completion.end(), 0u);
    Rng rng(13);
    for (std::size_t i = completion.size(); i > 1; --i)
        std::swap(completion[i - 1], completion[rng.bounded(i)]);
    std::vector<TrialOutcome> scrambled_fill(outcomes.size());
    for (const std::size_t index : completion)
        scrambled_fill[index] = outcomes[index];
    expect_summaries_identical(once, summarize_trials(p, scrambled_fill));

    // Sanity against hand tallies.
    std::size_t finished = 0, correct = 0;
    for (const TrialOutcome& outcome : outcomes) {
        finished += outcome.finished;
        correct += outcome.correct;
    }
    EXPECT_EQ(once.trials, outcomes.size());
    EXPECT_EQ(once.finished_count, finished);
    EXPECT_EQ(once.correct_count, correct);
    EXPECT_EQ(once.error_stats.count(), finished);
    EXPECT_EQ(once.fi_rate_stats.count(), outcomes.size());
}

// ---------------------------------------------------------------------------
// Trial independence: no hidden shared state survives a trial.
// ---------------------------------------------------------------------------

TEST(TrialIndependence, ShuffledInterleavedTrialsMatchSerialOutcomes) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    constexpr std::size_t kTrials = 12;
    MonteCarloRunner runner(*bench, *model, fast_config(kTrials));
    const double f0 = model_c_active_mhz(1.0);
    const OperatingPoint main_point = point(f0 * 1.04, 0.7, 10.0);
    const OperatingPoint perturb_point = point(f0 * 1.12, 0.7, 25.0);

    std::vector<TrialOutcome> baseline;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial)
        baseline.push_back(runner.run_trial(main_point, trial));

    // Re-run in shuffled order, interleaved with trials at a different
    // operating point: any state leaking through Cpu, Memory or the model
    // (stats, RNG, derived tables) would change some outcome.
    std::vector<std::uint64_t> order(kTrials);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(3);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.bounded(i)]);
    for (const std::uint64_t trial : order) {
        (void)runner.run_trial(perturb_point, trial ^ 1);  // dirty the state
        SCOPED_TRACE("trial " + std::to_string(trial));
        expect_outcomes_identical(baseline[trial],
                                  runner.run_trial(main_point, trial));
    }
}

TEST(TrialIndependence, FreshTrialContextMatchesRunnerOutcomes) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, fast_config());
    const OperatingPoint p = point(model_c_active_mhz(1.1), 0.7, 10.0);
    TrialContext context(runner.benchmark(), runner.model());
    for (const std::uint64_t trial : {0, 3, 7}) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const TrialOutcome expected = runner.run_trial(p, trial);
        expect_outcomes_identical(
            expected,
            runner.run_trial_with(context.cpu, *context.model, p, trial));
    }
}

// ---------------------------------------------------------------------------
// The pool itself.
// ---------------------------------------------------------------------------

TEST(TrialPool, CoversEveryTrialExactlyOnce) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{5}}) {
        for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                        std::size_t{16}}) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " chunk " +
                         std::to_string(chunk));
            constexpr std::size_t kTrials = 101;
            // Distinct trials land in distinct slots, so plain ints are
            // race-free; any double visit would show up as a 2.
            std::vector<int> visits(kTrials, 0);
            for_each_trial(kTrials, threads, chunk,
                           [&](std::size_t, std::uint64_t trial) {
                               ++visits[trial];
                           });
            for (std::size_t i = 0; i < kTrials; ++i)
                ASSERT_EQ(visits[i], 1) << "trial " << i;
        }
    }
}

TEST(TrialPool, WorkerIndicesStayInRange) {
    constexpr std::size_t kThreads = 4;
    std::vector<int> seen(kThreads, 0);
    std::mutex mutex;
    for_each_trial(64, kThreads, 2, [&](std::size_t worker, std::uint64_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        ASSERT_LT(worker, kThreads);
        ++seen[worker];
    });
    int total = 0;
    for (const int count : seen) total += count;
    EXPECT_EQ(total, 64);
}

TEST(TrialPool, PropagatesWorkerExceptions) {
    EXPECT_THROW(
        for_each_trial(100, 4, 1,
                       [](std::size_t, std::uint64_t trial) {
                           if (trial == 37)
                               throw std::runtime_error("trial exploded");
                       }),
        std::runtime_error);
}

TEST(TrialPool, ZeroTrialsIsANoop) {
    bool called = false;
    for_each_trial(0, 4, 1,
                   [&](std::size_t, std::uint64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(TrialPool, ResolveThreadCount) {
    EXPECT_GE(resolve_thread_count(0), 1u);
    EXPECT_EQ(resolve_thread_count(1), 1u);
    EXPECT_EQ(resolve_thread_count(6), 6u);
}

}  // namespace
}  // namespace sfi
