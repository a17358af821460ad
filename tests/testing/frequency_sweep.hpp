// Frequency sweep at fixed voltage and noise (test tool): one
// MonteCarloRunner::run_point per frequency, in the given order. The
// campaign engine (src/campaign/) resolves its own grids and runs its own
// points; the suites use this loop as the hand-rolled reference their
// campaign, parallel and adaptive results are compared with.
#pragma once

#include <vector>

#include "mc/montecarlo.hpp"
#include "mc/sweep.hpp"

namespace sfi::testing {

/// Runs one Monte-Carlo point per frequency, voltage/noise from `base`.
std::vector<PointSummary> frequency_sweep(MonteCarloRunner& runner,
                                          OperatingPoint base,
                                          const std::vector<double>& freqs_mhz,
                                          const SweepProgress& progress = {});

}  // namespace sfi::testing
