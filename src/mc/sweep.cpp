#include "mc/sweep.hpp"

#include <cmath>
#include <stdexcept>

namespace sfi {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
    if (n == 0) throw std::invalid_argument("linspace: n must be positive");
    if (n == 1) return {lo};
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = lo + (hi - lo) * static_cast<double>(i) /
                          static_cast<double>(n - 1);
    return out;
}

std::vector<double> arange(double lo, double hi, double step) {
    if (step <= 0.0) throw std::invalid_argument("arange: step must be positive");
    if (hi < lo - 1e-9) return {};
    // Index form instead of `v += step`: accumulation drifts by ~n·eps and
    // drops (or duplicates) the inclusive endpoint on long ranges.
    const auto count =
        static_cast<std::size_t>(std::floor((hi - lo + 1e-9) / step)) + 1;
    std::vector<double> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = lo + static_cast<double>(i) * step;
    return out;
}

std::vector<PointSummary> voltage_sweep(MonteCarloRunner& runner,
                                        OperatingPoint base,
                                        const std::vector<double>& vdds,
                                        const SweepProgress& progress) {
    std::vector<PointSummary> out;
    out.reserve(vdds.size());
    for (const double v : vdds) {
        OperatingPoint point = base;
        point.vdd = v;
        out.push_back(runner.run_point(point));
        if (progress) progress(out.back());
    }
    return out;
}

std::optional<double> find_poff_mhz(const std::vector<PointSummary>& sweep) {
    // Scan for the minimum failing frequency instead of the first failing
    // point: the historical first-hit scan silently returned the wrong
    // frequency when the caller's sweep was not in ascending order.
    std::optional<double> poff;
    for (const PointSummary& point : sweep)
        if (point.correct_count != point.trials &&
            (!poff || point.point.freq_mhz < *poff))
            poff = point.point.freq_mhz;
    return poff;
}

double poff_gain_percent(double poff_mhz, double sta_mhz) {
    return 100.0 * (poff_mhz - sta_mhz) / sta_mhz;
}

}  // namespace sfi
