// Decode accounting contract, read from the run ledger: micro-op lowering
// is recorded on the dispatching thread only, with deterministic counts —
// a pure function of the configuration (context count x program words),
// never of worker scheduling. The runner primes its worker contexts in
// one "decode" span at its first block, at every thread count, and reuses
// them for every later block. Guarantees BENCH_core.json's decode row is
// comparable across runs and machines. (That a primed Cpu never re-lowers
// on clean runs is pinned at the Cpu level, tests/cpu/test_decode_cache.cpp.)
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

/// What `points` consecutive run_point calls wrote to a wall-mode ledger
/// about decoding.
struct DecodeCounts {
    std::uint64_t decode_calls = 0;
    std::uint64_t decode_items = 0;  ///< words primed
    std::uint64_t trial_runs = 0;
};

DecodeCounts decode_counts_of_run(std::size_t threads, int points = 1) {
    const auto benchmark = make_median(42, 33);
    ModelA model(1e-3);
    McConfig config;
    config.trials = 8;
    config.seed = 1;
    config.threads = threads;
    MonteCarloRunner runner(*benchmark, model, config);

    std::stringstream text;
    obs::Ledger ledger(text, obs::TraceMode::Wall);
    runner.set_ledger(&ledger);
    for (int i = 0; i < points; ++i) runner.run_point(OperatingPoint{});
    ledger.flush();

    const obs::LedgerFile file = obs::read_ledger(text);
    DecodeCounts counts;
    for (const perf::PhaseRow& row : perf::phase_rows(file)) {
        if (row.phase == "decode") {
            counts.decode_calls = row.calls;
            counts.decode_items = row.items;
        }
        if (row.phase == "trial_run") counts.trial_runs = row.calls;
    }
    return counts;
}

// Every worker context is primed up front on the dispatch thread — one
// decode span whose item count is exactly contexts x program words
// (workers never decode lazily, so scheduling cannot perturb the counts),
// at one thread as at eight.
TEST(DecodePhase, PrimingChargesContextsTimesWordsAtEveryThreadCount) {
    const auto benchmark = make_median(42, 33);
    const std::uint64_t words = program_words(*benchmark);
    ASSERT_GT(words, 0u);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const DecodeCounts counts = decode_counts_of_run(threads);
        EXPECT_EQ(counts.decode_calls, 1u);
        EXPECT_EQ(counts.decode_items, threads * words);
        EXPECT_EQ(counts.trial_runs, 1u);
    }
}

// The contexts are built once, at the runner's first block: later points
// reuse them and decode nothing.
TEST(DecodePhase, ContextsArePrimedOnceAcrossPoints) {
    const auto benchmark = make_median(42, 33);
    const DecodeCounts counts = decode_counts_of_run(2, 3);
    EXPECT_EQ(counts.decode_calls, 1u);
    EXPECT_EQ(counts.decode_items, 2 * program_words(*benchmark));
    EXPECT_EQ(counts.trial_runs, 3u);
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
    }
}

}  // namespace
}  // namespace sfi
