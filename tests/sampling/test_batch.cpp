// MonteCarloRunner::run_batch's determinism contract, against the serial
// trial loop (tests/testing/serial_point.hpp):
//  * a point run in batches of any size is BYTE-identical to the serial
//    loop and to run_point at 1, 2 and 8 worker threads;
//  * after k batches the accumulated summary equals the serial loop over
//    the same trial prefix, bit for bit (resumability);
//  * empty batches and zero-trial points change nothing.
#include "mc/montecarlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

#include "campaign/point_store.hpp"
#include "testing/serial_point.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::serial_point;
using testing::shared_core;

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

/// Inside model C's cliff on the shared test core: some trials hang, some
/// finish wrong, a few finish correct, so every trial index counts.
OperatingPoint cliff_point() {
    OperatingPoint p;
    p.freq_mhz = 780.0;
    p.vdd = 0.7;
    p.noise.sigma_mv = 10.0;
    return p;
}

/// The store's raw serialization doubles as the byte-equality oracle:
/// load(save(x)) == x bit for bit, including the RunningStats state.
std::string bytes_of(const PointSummary& summary) {
    std::ostringstream os;
    campaign::save_point_summary(os, summary);
    return os.str();
}

McConfig config_for(std::size_t trials, std::size_t threads) {
    McConfig config;
    config.trials = trials;
    config.seed = 77;
    config.threads = threads;
    return config;
}

TEST(RunBatch, AnyBatchSizeIsByteIdenticalToTheSerialLoopAtAnyThreads) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::size_t trials = 24;

    auto serial_model = shared_core().make_model_c();
    MonteCarloRunner serial(*bench, *serial_model, config_for(trials, 1));
    const PointSummary oracle =
        serial_point(serial, *serial_model, cliff_point());
    // Mixed outcomes, or the comparison could not tell trials apart.
    ASSERT_GT(oracle.finished_count, oracle.correct_count);
    ASSERT_GT(oracle.correct_count, 0u);
    ASSERT_LT(oracle.finished_count, trials);
    const std::string reference = bytes_of(oracle);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      max_threads()}) {
        auto model = shared_core().make_model_c();
        MonteCarloRunner runner(*bench, *model, config_for(trials, threads));
        // One runner for every batch size: its contexts are reused.
        for (const std::size_t batch :
             {std::size_t{1}, std::size_t{5}, std::size_t{24},
              std::size_t{100}}) {
            PointSummary summary;
            summary.point = cliff_point();
            while (summary.trials < trials)
                runner.run_batch(summary, cliff_point(),
                                 std::min(batch, trials - summary.trials));
            EXPECT_EQ(bytes_of(summary), reference)
                << "threads=" << threads << " batch=" << batch;
        }
        EXPECT_EQ(bytes_of(runner.run_point(cliff_point())), reference)
            << "run_point at threads=" << threads;
    }
}

TEST(RunBatch, EveryBatchPrefixEqualsASerialPrefixRun) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::size_t batch = 7;
    const std::size_t batches = 3;

    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model,
                            config_for(batch * batches, max_threads()));

    PointSummary summary;
    summary.point = cliff_point();
    for (std::size_t k = 1; k <= batches; ++k) {
        runner.run_batch(summary, cliff_point(), batch);
        ASSERT_EQ(summary.trials, k * batch);
        EXPECT_EQ(bytes_of(summary),
                  bytes_of(serial_point(runner, *model, cliff_point(),
                                        k * batch)))
            << "after " << k << " batches";
    }
}

TEST(RunBatch, EmptyBatchAndZeroTrialPointMatchTheSerialLoop) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, config_for(0, 2));
    PointSummary summary;
    summary.point = cliff_point();
    runner.run_batch(summary, cliff_point(), 0);
    const std::string reference =
        bytes_of(serial_point(runner, *model, cliff_point()));
    EXPECT_EQ(bytes_of(summary), reference);
    EXPECT_EQ(bytes_of(runner.run_point(cliff_point())), reference);
}

}  // namespace
}  // namespace sfi
