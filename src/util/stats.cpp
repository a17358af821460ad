#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace sfi {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::reset() { *this = RunningStats{}; }

void RunningStats::save(std::ostream& os) const {
    const std::uint64_t n = n_;
    os.write(reinterpret_cast<const char*>(&n), sizeof n);
    for (const double v : {mean_, m2_, min_, max_})
        os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

RunningStats RunningStats::load(std::istream& is) {
    RunningStats stats;
    std::uint64_t n = 0;
    is.read(reinterpret_cast<char*>(&n), sizeof n);
    stats.n_ = static_cast<std::size_t>(n);
    for (double* v : {&stats.mean_, &stats.m2_, &stats.min_, &stats.max_})
        is.read(reinterpret_cast<char*>(v), sizeof *v);
    if (!is) throw std::runtime_error("RunningStats::load: truncated stream");
    return stats;
}

double RunningStats::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) {
    if (trials == 0) return {0.0, 1.0};
    if (successes > trials)
        throw std::invalid_argument("wilson_interval: successes > trials");
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace sfi
