// The parallel-for shared by the Monte-Carlo trial engine and DTA
// characterization: every index runs exactly once, worker indices stay in
// range, one worker runs the indices in order, and a worker's exception
// reaches the caller.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace sfi {
namespace {

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

TEST(TrialPool, OneWorkerRunsTheIndicesInOrder) {
    std::vector<std::uint64_t> order;
    for_each_trial(7, 1, 3, [&](std::size_t worker, std::uint64_t trial) {
        EXPECT_EQ(worker, 0u);
        order.push_back(trial);
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
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
