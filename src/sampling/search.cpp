#include "sampling/search.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/ledger.hpp"

namespace sfi::sampling {

namespace {

bool probe_fails(const PointSummary& summary) {
    return summary.correct_count != summary.trials;
}

}  // namespace

PoffSearchResult find_poff_bisection(const ProbeFn& probe,
                                     const OperatingPoint& base,
                                     const PoffSearchConfig& config) {
    if (!(config.hi_mhz > config.lo_mhz) || !(config.lo_mhz > 0.0))
        throw std::invalid_argument(
            "find_poff_bisection: bracket must satisfy 0 < lo < hi");
    if (!(config.tol_mhz > 0.0))
        throw std::invalid_argument(
            "find_poff_bisection: tol_mhz must be positive");

    PoffSearchResult result;
    // Wilson upper bound on p_fail after an all-pass probe of n trials;
    // tracked for the probe that ends up defining lo.
    double lo_pass_risk = 0.0;

    const auto run_probe = [&](double freq) {
        OperatingPoint point = base;
        point.freq_mhz = freq;
        PointSummary summary = probe(point);
        ++result.probes;
        result.trials_spent += summary.trials;
        const bool failing = probe_fails(summary);
        const double risk =
            failing ? 0.0
                    : 1.0 - wilson_interval(summary.correct_count,
                                            summary.trials, config.z)
                                .lo;
        if (config.ledger != nullptr)
            config.ledger->instant("probe", {{"freq_mhz", freq},
                                             {"trials", summary.trials},
                                             {"failing", failing}});
        result.sweep.push_back(std::move(summary));
        return std::pair<bool, double>(failing, risk);
    };
    const auto is_cancelled = [&] {
        if (config.cancelled && config.cancelled()) {
            result.cancelled = true;
            return true;
        }
        return false;
    };

    double lo = config.lo_mhz;
    double hi = config.hi_mhz;
    const double width = hi - lo;

    // Establish the bracket: lo must pass, hi must fail. Edges that
    // disagree slide outward by the initial width — a bad initial guess
    // costs O(max_expand) probes, not a failed search.
    bool have_lo = false, have_hi = false;
    for (std::size_t i = 0; i <= config.max_expand && !have_lo; ++i) {
        if (is_cancelled()) return result;
        const auto [failing, risk] = run_probe(lo);
        if (!failing) {
            have_lo = true;
            lo_pass_risk = risk;
        } else {
            // Even this frequency fails: the PoFF is at or below it.
            hi = lo;
            have_hi = true;
            const double next = lo - width;
            if (next <= 0.0) break;
            lo = next;
        }
    }
    for (std::size_t i = 0; i <= config.max_expand && have_lo && !have_hi;
         ++i) {
        if (is_cancelled()) return result;
        const auto [failing, risk] = run_probe(hi);
        if (failing) {
            have_hi = true;
        } else {
            // Still passing: the PoFF is above; remember the new floor.
            lo = hi;
            lo_pass_risk = risk;
            hi += width;
        }
    }
    if (!have_lo || !have_hi) {
        // No crossing inside the expanded range. Report the range that
        // was actually PROBED (lo/hi were already slid one width past
        // the last probe when a loop exhausted its expansion budget),
        // with bracketed = false; every probe is in `sweep`.
        std::sort(result.sweep.begin(), result.sweep.end(),
                  [](const PointSummary& a, const PointSummary& b) {
                      return a.point.freq_mhz < b.point.freq_mhz;
                  });
        result.lo_mhz = result.sweep.front().point.freq_mhz;
        result.hi_mhz = result.sweep.back().point.freq_mhz;
        // No passing probe means the PoFF is certainly at or below every
        // frequency tried — not a 0.0 ("no risk") residual.
        result.pass_risk = have_lo ? lo_pass_risk : 1.0;
        return result;
    }

    // Bisection: halve [lo, hi] until it is tighter than tol.
    while (hi - lo > config.tol_mhz) {
        if (is_cancelled()) break;
        const double mid = 0.5 * (lo + hi);
        const auto [failing, risk] = run_probe(mid);
        if (failing) {
            hi = mid;
        } else {
            lo = mid;
            lo_pass_risk = risk;
        }
    }

    result.bracketed = true;
    result.lo_mhz = lo;
    result.hi_mhz = hi;
    result.pass_risk = lo_pass_risk;
    std::sort(result.sweep.begin(), result.sweep.end(),
              [](const PointSummary& a, const PointSummary& b) {
                  return a.point.freq_mhz < b.point.freq_mhz;
              });
    return result;
}

PoffSearchResult find_poff_bisection(MonteCarloRunner& runner,
                                     const OperatingPoint& base,
                                     const PoffSearchConfig& config,
                                     const SamplingPolicy& policy) {
    // Quote pass_risk at the policy's confidence, not the default z —
    // a policy running at z = 3 expects its residual risk bound at the
    // same level its stopping rule used.
    PoffSearchConfig cfg = config;
    cfg.z = policy.z;
    return find_poff_bisection(
        [&](const OperatingPoint& point) {
            return run_point_sequential(runner, point, policy).summary;
        },
        base, cfg);
}

}  // namespace sfi::sampling
