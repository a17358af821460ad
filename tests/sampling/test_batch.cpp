// The batched executor's determinism contract (ISSUE 4 acceptance):
//  * a fixed-N policy executed through BatchedExecutor::run_fixed is
//    BYTE-identical to the seed MonteCarloRunner::run_point path at 1, 2
//    and 8 worker threads, for every batch size;
//  * after k batches the accumulated summary equals a serial run of the
//    same trial prefix, bit for bit (resumability).
#include "sampling/batch.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/point_store.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::shared_core;

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

OperatingPoint cliff_point() {
    OperatingPoint p;
    p.freq_mhz = 745.0;  // above f_STA(0.7 V) ~ 707 MHz: mixed outcomes
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

TEST(BatchedExecutor, FixedNByteIdenticalToRunPointAtAnyThreadsAndBatch) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::size_t trials = 24;

    auto serial_model = shared_core().make_model_c();
    MonteCarloRunner serial(*bench, *serial_model, config_for(trials, 1));
    const std::string reference = bytes_of(serial.run_point(cliff_point()));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      max_threads()}) {
        auto model = shared_core().make_model_c();
        MonteCarloRunner runner(*bench, *model, config_for(trials, threads));
        for (const std::size_t batch :
             {std::size_t{1}, std::size_t{5}, std::size_t{24},
              std::size_t{100}}) {
            sampling::BatchedExecutor executor(runner, threads);
            EXPECT_EQ(bytes_of(executor.run_fixed(cliff_point(), trials, batch)),
                      reference)
                << "threads=" << threads << " batch=" << batch;
        }
    }
}

TEST(BatchedExecutor, EveryBatchPrefixEqualsASerialPrefixRun) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::size_t batch = 7;
    const std::size_t batches = 3;

    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model,
                            config_for(batch * batches, max_threads()));
    sampling::BatchedExecutor executor(runner, max_threads());

    PointSummary summary;
    summary.point = cliff_point();
    for (std::size_t k = 1; k <= batches; ++k) {
        executor.run_batch(summary, cliff_point(), batch);
        ASSERT_EQ(summary.trials, k * batch);

        auto prefix_model = shared_core().make_model_c();
        MonteCarloRunner prefix_runner(*bench, *prefix_model,
                                       config_for(k * batch, 1));
        EXPECT_EQ(bytes_of(summary),
                  bytes_of(prefix_runner.run_point(cliff_point())))
            << "after " << k << " batches";
    }
}

TEST(BatchedExecutor, ZeroTrialFixedRunMatchesRunPoint) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_c();
    MonteCarloRunner runner(*bench, *model, config_for(0, 2));
    sampling::BatchedExecutor executor(runner, 2);
    EXPECT_EQ(bytes_of(executor.run_fixed(cliff_point(), 0, 8)),
              bytes_of(runner.run_point(cliff_point())));
}

}  // namespace
}  // namespace sfi
