// Serial trials (test oracle): a Memory and Cpu owned by the test drive
// the runner's trial computation (run_trial_with, or run_trial_forensic
// under a probe) on the caller's model, one trial at a time, in call
// order. serial_point folds trials [0, count) of that loop with
// summarize_trials — the loop MonteCarloRunner::run_point used to run at
// one thread. The block engine (run_point, run_batch, run_forensics on
// the runner's worker contexts) must reproduce it bit for bit at every
// thread count (tests/mc/test_parallel.cpp, tests/sampling/test_batch.cpp
// and the suites that compare against it). Speed is a non-goal.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fi/forensics.hpp"
#include "mc/montecarlo.hpp"

namespace sfi::testing {

class SerialTrials {
public:
    /// `model` is driven directly (not cloned); it must outlive this.
    SerialTrials(const MonteCarloRunner& runner, FaultModel& model);

    /// Trial `trial` at `point` (runner.run_trial_with).
    TrialOutcome run(const OperatingPoint& point, std::uint64_t trial);
    /// The same trial under this helper's probe
    /// (runner.run_trial_forensic).
    TrialForensics run_forensic(const OperatingPoint& point,
                                std::uint64_t trial);

private:
    const MonteCarloRunner& runner_;
    FaultModel& model_;
    Memory memory_;
    Cpu cpu_;
    ForensicProbe probe_;
};

/// The serial loop over runner.config().trials trials on `model`.
PointSummary serial_point(const MonteCarloRunner& runner, FaultModel& model,
                          const OperatingPoint& point);

/// The serial loop over the first `count` trials (a trial prefix).
PointSummary serial_point(const MonteCarloRunner& runner, FaultModel& model,
                          const OperatingPoint& point, std::size_t count);

}  // namespace sfi::testing
