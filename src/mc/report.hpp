// Console / CSV reporting of sweep results in the shape of the paper's
// figure panels: one row per frequency (or voltage) with the four
// application metrics.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "mc/montecarlo.hpp"

namespace sfi {

/// Prints a figure-panel-style table: frequency (or, with `vdd_axis`,
/// supply voltage), finished %, correct %, FI/kCycle, output error.
/// `error_label` names the benchmark metric.
void print_sweep(std::ostream& os, const std::string& title,
                 const std::vector<PointSummary>& sweep,
                 const std::string& error_label, bool vdd_axis = false);

/// Same series as CSV (columns: freq_mhz, vdd, sigma_mv, finished, correct,
/// fi_per_kcycle, mean_error, trials). mean_error averages output error
/// over *finished* trials only, so a point where nothing finished emits an
/// empty cell (matching the table's "n/a") rather than a meaningless 0.
/// Empty path = skip. Missing parent directories are created; open or
/// write failures throw std::runtime_error instead of silently dropping
/// the figure data.
void write_sweep_csv(const std::string& path,
                     const std::vector<PointSummary>& sweep);

}  // namespace sfi
