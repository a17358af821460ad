#include "testing/serial_point.hpp"

#include <vector>

namespace sfi::testing {

PointSummary serial_point(MonteCarloRunner& runner,
                          const OperatingPoint& point) {
    return serial_point(runner, point, runner.config().trials);
}

PointSummary serial_point(MonteCarloRunner& runner, const OperatingPoint& point,
                          std::size_t count) {
    std::vector<TrialOutcome> outcomes;
    outcomes.reserve(count);
    for (std::size_t trial = 0; trial < count; ++trial)
        outcomes.push_back(runner.run_trial(point, trial));
    return summarize_trials(point, outcomes);
}

}  // namespace sfi::testing
