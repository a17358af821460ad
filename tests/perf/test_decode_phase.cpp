// Decode accounting contract, read from the run ledger: micro-op lowering
// is recorded on the dispatching thread only, with deterministic counts —
// a pure function of the configuration (context count x program words),
// never of worker scheduling. Parallel priming is one "decode" span; the
// words the runner's own Cpu lowers lazily ride on the "trial_run" span.
// Guarantees BENCH_core.json's decode row is comparable across runs and
// machines.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "apps/benchmark.hpp"
#include "fi/models.hpp"
#include "mc/montecarlo.hpp"
#include "obs/ledger.hpp"
#include "perf/report.hpp"

namespace sfi {
namespace {

std::uint64_t program_words(const Benchmark& benchmark) {
    std::uint64_t words = 0;
    for (const auto& section : benchmark.program().sections)
        if (section.addr % 4 == 0) words += section.bytes.size() / 4;
    return words;
}

/// What one run_point wrote to a wall-mode ledger about decoding.
struct DecodeCounts {
    std::uint64_t decode_calls = 0;
    std::uint64_t decode_items = 0;  ///< words primed
    std::uint64_t trial_runs = 0;
    std::uint64_t lazy_lowered = 0;  ///< summed over trial_run spans
};

DecodeCounts decode_counts_of_run(std::size_t threads,
                                  double flip_probability = 1e-3) {
    const auto benchmark = make_median(42, 33);
    ModelA model(flip_probability);
    McConfig config;
    config.trials = 8;
    config.seed = 1;
    config.threads = threads;
    // A clean prototype is used to observe the no-relowering steady
    // state; the fast path would skip its ISS runs entirely, so force
    // real (provably injection-free) simulations instead.
    if (flip_probability == 0.0) config.zero_fault_fast_path = false;
    MonteCarloRunner runner(*benchmark, model, config);

    std::stringstream text;
    obs::Ledger ledger(text, obs::TraceMode::Wall);
    runner.set_ledger(&ledger);
    runner.run_point(OperatingPoint{});
    ledger.flush();

    const obs::LedgerFile file = obs::read_ledger(text);
    DecodeCounts counts;
    for (const perf::PhaseRow& row : perf::phase_rows(file))
        if (row.phase == "decode") {
            counts.decode_calls = row.calls;
            counts.decode_items = row.items;
        }
    for (const obs::LedgerEvent& ev : file.events)
        if (ev.ph == 'E' && ev.name == "trial_run") {
            ++counts.trial_runs;
            counts.lazy_lowered += ev.arg_uint("lazy_lowered");
        }
    return counts;
}

// Parallel run_point: every worker context is primed up front on the
// dispatch thread — one decode span whose item count is exactly
// contexts x program words (workers never decode lazily, so scheduling
// cannot perturb the counts).
TEST(DecodePhase, ParallelPrimingChargesContextsTimesWords) {
    const auto benchmark = make_median(42, 33);
    const std::uint64_t words = program_words(*benchmark);
    ASSERT_GT(words, 0u);

    const DecodeCounts counts = decode_counts_of_run(8);
    EXPECT_EQ(counts.decode_calls, 1u);
    EXPECT_EQ(counts.decode_items, 8 * words);
    EXPECT_EQ(counts.trial_runs, 1u);
}

// Serial run_point executes on the runner's own Cpu, which the
// constructor primed before the golden run: clean steady-state trials
// must never re-lower a single word. (Injecting runs MAY re-lower —
// corrupted address arithmetic can store into the code image — which is
// why this uses a provably clean model with the fast path disabled.)
TEST(DecodePhase, SerialCleanRunsOnPrimedCpuNeverRelower) {
    const DecodeCounts counts = decode_counts_of_run(1, 0.0);
    EXPECT_EQ(counts.decode_calls, 0u);
    EXPECT_EQ(counts.decode_items, 0u);
    ASSERT_EQ(counts.trial_runs, 1u);
    EXPECT_EQ(counts.lazy_lowered, 0u);
}

// The counts are reproducible: identical configurations on fresh
// runner/ledger pairs record identical calls and items at 1 and 8
// threads alike.
TEST(DecodePhase, CountersAreAPureFunctionOfTheConfiguration) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        const DecodeCounts a = decode_counts_of_run(threads);
        const DecodeCounts b = decode_counts_of_run(threads);
        EXPECT_EQ(a.decode_calls, b.decode_calls) << threads << " threads";
        EXPECT_EQ(a.decode_items, b.decode_items) << threads << " threads";
        EXPECT_EQ(a.lazy_lowered, b.lazy_lowered) << threads << " threads";
    }
}

}  // namespace
}  // namespace sfi
