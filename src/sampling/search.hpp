// Adaptive point-of-first-failure extraction: bracketing + bisection
// over clock frequency, with a sequential sampling decision at every
// probe. Replaces a dense FirstFaultWindow grid when the campaign only
// needs the PoFF crossing (paper §4.2) — O(log(range/tol)) probes
// instead of O(range/step) grid points, and each probe spends only what
// its stopping rule demands.
//
// Validity: bisection assumes the failure behavior is monotone in
// frequency — below the PoFF every trial is correct, above it failures
// only get more likely. That is the physics of the timing cliff (longer
// capture window at lower frequency, §4.2); it does NOT hold for sweeps
// along axes where the error rate is non-monotone, which is why the
// search is frequency-only. A probe that observes >= 1 wrong trial is a
// certain "failing" classification; a probe that observes none can still
// sit above the true PoFF with probability (1 - p_fail)^trials — the
// residual captured by PoffSearchResult::pass_risk.
//
// Determinism: the probe sequence is a pure function of the bracket and
// the probe verdicts, which are themselves deterministic (seeded trials,
// integer counts) — so a re-run probes the same frequencies, and
// store-backed probes (campaign/runner.cpp) resume with 100 % hits.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sampling/sequential.hpp"

namespace sfi::sampling {

struct PoffSearchConfig {
    /// Initial bracket. lo is expected to pass (all trials correct) and
    /// hi to fail; edges that disagree are expanded outward by the
    /// bracket width, at most `max_expand` times per side.
    double lo_mhz = 0.0;
    double hi_mhz = 0.0;
    /// Stop bisecting once hi - lo <= tol_mhz.
    double tol_mhz = 2.0;
    std::size_t max_expand = 4;
    /// z-score used for the pass_risk Wilson bound at passing probes.
    /// The policy overload copies SamplingPolicy::z here so the residual
    /// risk is quoted at the same confidence the stopping rule used.
    double z = 1.96;
    /// Checked before every probe; true stops the search cleanly with
    /// the bracket found so far (campaign cancellation hook).
    std::function<bool()> cancelled;
    /// Optional run ledger: every probe emits a "probe" instant with its
    /// frequency and verdict. Probes are part of the *stable* narrative —
    /// the probe sequence is a pure function of the spec and a warm rerun
    /// replays it through store hits — so the events appear in both
    /// logical and wall modes.
    obs::Ledger* ledger = nullptr;
};

struct PoffSearchResult {
    /// True when a passing lo and a failing hi were established (the
    /// interval below is meaningful).
    bool bracketed = false;
    /// Bracketed: highest probed frequency whose trials were all correct
    /// / lowest probed frequency with a failure — the PoFF lies in
    /// (lo, hi], and `hi` is the search's PoFF estimate (like
    /// find_poff_mhz, the lowest frequency at which a failure was
    /// observed). Not bracketed: the lowest / highest frequencies that
    /// were actually probed — the range the search covered without
    /// finding a crossing.
    double lo_mhz = 0.0;
    double hi_mhz = 0.0;
    /// Wilson upper bound (at PoffSearchConfig::z) on the per-trial
    /// failure probability
    /// still compatible with the all-correct observation at the final
    /// passing edge — the residual risk that the true PoFF sits at or
    /// below lo. 1.0 when no probe ever passed (the PoFF certainly is).
    double pass_risk = 0.0;
    bool cancelled = false;
    std::size_t probes = 0;
    std::uint64_t trials_spent = 0;
    /// Every probe's summary, in ascending frequency order — drop-in for
    /// the sweep CSV writers and find_poff_mhz.
    std::vector<PointSummary> sweep;

    double poff_mhz() const { return hi_mhz; }
    double interval_width_mhz() const { return hi_mhz - lo_mhz; }
};

/// Produces the PointSummary of one probe frequency. The campaign layer
/// routes this through the point store; the plain overload below runs a
/// sequential-sampling probe directly.
using ProbeFn = std::function<PointSummary(const OperatingPoint&)>;

/// Core search over an arbitrary probe function. `base` supplies the
/// non-frequency coordinates. A probe "fails" when any of its trials is
/// not correct (the find_poff_mhz criterion).
PoffSearchResult find_poff_bisection(const ProbeFn& probe,
                                     const OperatingPoint& base,
                                     const PoffSearchConfig& config);

/// Convenience overload: probes via run_point_sequential on `runner`
/// under `policy` (fixed-N probes use runner.config().trials).
PoffSearchResult find_poff_bisection(MonteCarloRunner& runner,
                                     const OperatingPoint& base,
                                     const PoffSearchConfig& config,
                                     const SamplingPolicy& policy);

}  // namespace sfi::sampling
