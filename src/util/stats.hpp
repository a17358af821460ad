// Small statistics helpers used by the Monte-Carlo harness: streaming
// mean/variance and the Wilson interval of a binomial proportion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace sfi {

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x);
    void reset();

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance (0 for fewer than two samples).
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

    /// Binary persistence of the exact accumulator state (count + raw
    /// mean/M2/min/max doubles). A loaded instance is bit-identical to
    /// the saved one — the campaign point store relies on this so a warm
    /// re-run reproduces cold-run output byte for byte.
    void save(std::ostream& os) const;
    static RunningStats load(std::istream& is);

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Wilson score interval for a binomial proportion: the uncertainty of
/// Monte-Carlo "finished" / "correct" fractions at small trial counts.
/// `z` is the normal quantile (1.96 = 95 % confidence).
struct Interval {
    double lo = 0.0;
    double hi = 0.0;
};
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z = 1.96);

}  // namespace sfi
