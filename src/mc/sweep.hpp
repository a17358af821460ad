// Grid helpers, the voltage sweep at fixed frequency (Fig. 7), and
// point-of-first-failure (PoFF) extraction. Campaign frequency sweeps run
// through the campaign engine (src/campaign/runner.hpp).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "mc/montecarlo.hpp"

namespace sfi {

/// `n` evenly spaced values from lo to hi inclusive (n >= 2), or {lo} for
/// n == 1. hi < lo yields a decreasing sequence.
std::vector<double> linspace(double lo, double hi, std::size_t n);
/// Values lo, lo+step, ... up to hi inclusive (within 1e-9 tolerance);
/// empty when hi < lo. Each value is computed as lo + i*step, so long
/// ranges cannot drift past (or short of) the inclusive endpoint the way
/// repeated accumulation does.
std::vector<double> arange(double lo, double hi, double step);

/// Optional per-point progress callback (e.g. console dots).
using SweepProgress = std::function<void(const PointSummary&)>;

/// Runs one point per supply voltage at fixed frequency (Fig. 7 x-axis),
/// in the given order (so progress callbacks stay deterministic); each
/// point's trials fan out across the runner's McConfig::threads workers
/// via run_point (src/mc/parallel.hpp).
std::vector<PointSummary> voltage_sweep(MonteCarloRunner& runner,
                                        OperatingPoint base,
                                        const std::vector<double>& vdds,
                                        const SweepProgress& progress = {});

/// Point of first failure: the lowest frequency among the sweep's points
/// at which not every trial finished with a 100 % correct result (paper
/// §4.2). The sweep may be passed in any order — the minimum failing
/// frequency is selected, not the first in iteration order.
/// std::nullopt if no point fails.
std::optional<double> find_poff_mhz(const std::vector<PointSummary>& sweep);

/// Frequency gain of the PoFF over the STA limit, in percent (can be
/// negative when noise pushes failures below the STA limit).
double poff_gain_percent(double poff_mhz, double sta_mhz);

}  // namespace sfi
