// Serial trial loop (test oracle): run_trial over trials [0, count) on
// the runner's own Cpu and the caller's model, in index order, then
// summarize_trials. This is the loop MonteCarloRunner::run_point used to
// run at one thread; the block engine (run_point, run_batch,
// run_forensics on the runner's worker contexts) must reproduce it bit
// for bit at every thread count (tests/mc/test_parallel.cpp,
// tests/sampling/test_batch.cpp and the suites that compare against it).
// Speed is a non-goal.
#pragma once

#include <cstddef>

#include "mc/montecarlo.hpp"

namespace sfi::testing {

/// The serial loop over runner.config().trials trials.
PointSummary serial_point(MonteCarloRunner& runner,
                          const OperatingPoint& point);

/// The serial loop over the first `count` trials (a trial prefix).
PointSummary serial_point(MonteCarloRunner& runner, const OperatingPoint& point,
                          std::size_t count);

}  // namespace sfi::testing
