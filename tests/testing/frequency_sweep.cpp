#include "testing/frequency_sweep.hpp"

namespace sfi::testing {

std::vector<PointSummary> frequency_sweep(MonteCarloRunner& runner,
                                          OperatingPoint base,
                                          const std::vector<double>& freqs_mhz,
                                          const SweepProgress& progress) {
    std::vector<PointSummary> out;
    out.reserve(freqs_mhz.size());
    for (const double f : freqs_mhz) {
        OperatingPoint point = base;
        point.freq_mhz = f;
        out.push_back(runner.run_point(point));
        if (progress) progress(out.back());
    }
    return out;
}

}  // namespace sfi::testing
