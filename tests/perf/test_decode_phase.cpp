// Phase::Decode accounting contract: micro-op lowering is charged on the
// dispatching thread only, with deterministic
// call/item counters — a pure function of the configuration (context
// count x program words), never of worker scheduling. Guarantees the
// BENCH_core.json decode column is comparable across runs and machines.
#include <gtest/gtest.h>

#include <memory>

#include "apps/benchmark.hpp"
#include "fi/models.hpp"
#include "mc/montecarlo.hpp"
#include "perf/perf.hpp"

namespace sfi {
namespace {

std::uint64_t program_words(const Benchmark& benchmark) {
    std::uint64_t words = 0;
    for (const auto& section : benchmark.program().sections)
        if (section.addr % 4 == 0) words += section.bytes.size() / 4;
    return words;
}

McConfig make_config(std::size_t threads) {
    McConfig config;
    config.trials = 8;
    config.seed = 1;
    config.threads = threads;
    return config;
}

perf::PhaseStats decode_stats_of_run(std::size_t threads,
                                     double flip_probability = 1e-3) {
    const auto benchmark = make_median(42, 33);
    ModelA model(flip_probability);
    McConfig config = make_config(threads);
    // A clean prototype is used to observe the no-relowering steady
    // state; the fast path would skip its ISS runs entirely, so force
    // real (provably injection-free) simulations instead.
    if (flip_probability == 0.0) config.zero_fault_fast_path = false;
    MonteCarloRunner runner(*benchmark, model, config);
    perf::PhaseProfile profile;
    runner.set_perf_profile(&profile);
    runner.run_point(OperatingPoint{});
    return profile.stats(perf::Phase::Decode);
}

// Parallel run_point: every worker context is primed up front on the
// dispatch thread — one Decode record whose item count is exactly
// contexts x program words (workers never decode lazily, so scheduling
// cannot perturb the counters).
TEST(DecodePhase, ParallelPrimingChargesContextsTimesWords) {
    const auto benchmark = make_median(42, 33);
    const std::uint64_t words = program_words(*benchmark);
    ASSERT_GT(words, 0u);

    const perf::PhaseStats stats = decode_stats_of_run(8);
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_EQ(stats.items, 8 * words);
}

// Serial run_point executes on the runner's own Cpu, which the
// constructor primed before the golden run: clean steady-state trials
// must never re-lower a single word. (Injecting runs MAY re-lower —
// corrupted address arithmetic can store into the code image — which is
// why this uses a provably clean model with the fast path disabled.)
TEST(DecodePhase, SerialCleanRunsOnPrimedCpuNeverRelower) {
    const perf::PhaseStats stats = decode_stats_of_run(1, 0.0);
    EXPECT_EQ(stats.calls, 0u);
    EXPECT_EQ(stats.items, 0u);
}

// The counters are reproducible: identical configurations on fresh
// runner/profile pairs yield identical calls and items at 1 and 8
// threads alike.
TEST(DecodePhase, CountersAreAPureFunctionOfTheConfiguration) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const perf::PhaseStats a = decode_stats_of_run(threads);
        const perf::PhaseStats b = decode_stats_of_run(threads);
        EXPECT_EQ(a.calls, b.calls) << threads << " threads";
        EXPECT_EQ(a.items, b.items) << threads << " threads";
    }
}

}  // namespace
}  // namespace sfi
