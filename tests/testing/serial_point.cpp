#include "testing/serial_point.hpp"

#include <vector>

namespace sfi::testing {

SerialTrials::SerialTrials(const MonteCarloRunner& runner, FaultModel& model)
    : runner_(runner), model_(model), cpu_(memory_) {
    cpu_.prime_decode(runner.benchmark().program());
}

TrialOutcome SerialTrials::run(const OperatingPoint& point,
                               std::uint64_t trial) {
    return runner_.run_trial_with(cpu_, model_, point, trial);
}

TrialForensics SerialTrials::run_forensic(const OperatingPoint& point,
                                          std::uint64_t trial) {
    return runner_.run_trial_forensic(cpu_, model_, point, trial, probe_);
}

PointSummary serial_point(const MonteCarloRunner& runner, FaultModel& model,
                          const OperatingPoint& point) {
    return serial_point(runner, model, point, runner.config().trials);
}

PointSummary serial_point(const MonteCarloRunner& runner, FaultModel& model,
                          const OperatingPoint& point, std::size_t count) {
    SerialTrials serial(runner, model);
    std::vector<TrialOutcome> outcomes;
    outcomes.reserve(count);
    for (std::size_t trial = 0; trial < count; ++trial)
        outcomes.push_back(serial.run(point, trial));
    return summarize_trials(point, outcomes);
}

}  // namespace sfi::testing
