#include "fi/sampling_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace sfi {

std::optional<FaultSamplingMode> parse_fault_sampling_mode(
    const std::string& name) {
    if (name == "batched") return FaultSamplingMode::Batched;
    if (name == "quantized") return FaultSamplingMode::Quantized;
    return std::nullopt;
}

namespace {

// Doubles in increasing order as unsigned keys (-0.0 just below +0.0),
// so a bisection over keys walks every double between two bounds.
std::uint64_t double_key(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

double key_double(std::uint64_t key) {
    return std::bit_cast<double>((key >> 63) != 0
                                     ? key & ~(std::uint64_t{1} << 63)
                                     : ~key);
}

}  // namespace

SafeRowPretest::SafeRowPretest(std::size_t first_safe_row, double sigma_mv,
                               double clip_mv, double clip_v,
                               std::size_t entries) {
    if (!(sigma_mv > 0.0)) return;  // both tests below need sigma > 0
    const auto safe = [&](double draw) {
        return noise_draw_to_index(draw, clip_mv, clip_v, entries) >=
               first_safe_row;
    };
    constexpr double kMax = std::numeric_limits<double>::max();
    if (safe(-kMax)) {  // every row is safe, and every s > 0
        s_limit_ = 0.0;
        sign_passes_ = true;
        return;
    }
    if (!safe(kMax)) return;  // no row is safe
    // The index never decreases as the draw grows, so the safe draws are
    // the doubles from one edge up: bisect for the smallest.
    std::uint64_t unsafe_key = double_key(-kMax);
    std::uint64_t safe_key = double_key(kMax);
    while (safe_key - unsafe_key > 1) {
        const std::uint64_t mid = unsafe_key + (safe_key - unsafe_key) / 2;
        (safe(key_double(mid)) ? safe_key : unsafe_key) = mid;
    }
    const double edge = key_double(safe_key);
    sign_passes_ = edge <= 0.0;
    if (edge >= 0.0) return;
    // The magnitude test, rounded toward computing the row. Write
    // e = 2^-53. The draw the model computes is d = fl(sigma * fl(x * f))
    // with f = fl(sqrt(fl(-2 fl(ln s) / s))) (the 0.0 + is exact), and
    // s = fl(fl(u^2) + fl(v^2)) >= (1 - e)^2 x^2. Allowing ln 4 ulps of
    // error, every rounding together leaves |d| < sigma sqrt(-2 ln s)
    // (1 + 10 e) < sigma sqrt(-2 ln s) (1 + 2^-48). So d > edge whenever
    // s > L = exp(-a_max^2 / 2), a_max = -edge / (sigma (1 + 2^-48)).
    //  * a below rounds -edge / sigma and shrinks it by 2^-32: a < a_max
    //    despite its two roundings, so g = exp(-a^2 / 2) > L. Capping a
    //    at 30 only shrinks it further and keeps g a normal double.
    //  * exp's argument (at most 450 in size) is off by at most 450 e
    //    and exp itself by at most one ulp, so fl(exp(-0.5 a a)) >=
    //    g (1 - 454 e); the factor 1 + 2^-32 (rounded) lifts s_limit
    //    above g.
    // Hence s >= s_limit > g > L, |d| < -edge and the row is safe.
    const double a = std::min(-edge / sigma_mv * (1.0 - 0x1p-32), 30.0);
    s_limit_ = std::exp(-0.5 * a * a) * (1.0 + 0x1p-32);
}

std::vector<double> noise_index_masses(double sigma_mv, double clip_mv,
                                       std::size_t entries) {
    std::vector<double> mass;
    if (sigma_mv <= 0.0 || entries < 2) return mass;
    mass.assign(entries, 0.0);
    if (clip_mv <= 0.0) {
        // The reference's degenerate case: every draw maps to the middle
        // entry.
        mass[entries / 2] = 1.0;
        return mass;
    }

    // Exact bin masses of the clamped draw under round-half-up binning: index i collects t in [(i-0.5)/(E-1), (i+0.5)/(E-1)),
    // i.e. noise below (2t-1)*clip in mV; the boundary bins additionally
    // absorb the clamp mass beyond +/-clip. Masses depend only on
    // clip_mv/sigma_mv, so the table survives frequency/voltage sweeps.
    const std::size_t n = entries;
    const auto cdf = [&](double x_mv) {
        return 0.5 * std::erfc(-(x_mv / sigma_mv) / std::sqrt(2.0));
    };
    double below = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const double upper_t =
            (static_cast<double>(i) + 0.5) / static_cast<double>(n - 1);
        const double upper = cdf((2.0 * upper_t - 1.0) * clip_mv);
        mass[i] = upper - below;
        below = upper;
    }
    mass[n - 1] = 1.0 - below;
    return mass;
}

AliasTable build_alias_from_masses(const std::vector<double>& mass) {
    AliasTable table;
    const std::size_t n = mass.size();
    if (n == 0) return table;

    // Vose's alias construction; thresholds quantized to Q0.64.
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
        scaled[i] = mass[i] * static_cast<double>(n);
    }
    table.threshold.assign(n, ~std::uint64_t{0});
    table.alias.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        table.alias[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    for (std::size_t i = 0; i < n; ++i) {
        (scaled[i] < 1.0 ? small : large)
            .push_back(static_cast<std::uint32_t>(i));
    }
    const auto to_q64 = [](double q) -> std::uint64_t {
        if (q >= 1.0) return ~std::uint64_t{0};
        if (q <= 0.0) return 0;
        return static_cast<std::uint64_t>(q * 0x1.0p64);
    };
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        table.threshold[s] = to_q64(scaled[s]);
        table.alias[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Leftovers (numerical dust on either stack) are full bins: keep the
    // all-ones threshold and the self alias they already have.
    return table;
}

}  // namespace sfi
