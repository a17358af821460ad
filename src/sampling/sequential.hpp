// Sequential stopping rules on top of MonteCarloRunner::run_batch: run
// trial batches until the Wilson confidence intervals on the point's
// finished/correct fractions are tight enough (or a trial ceiling hits),
// instead of spending the paper's flat "at least 100 simulations"
// (PAPER §2.3) on points that are trivially decided.
//
// A SamplingPolicy is part of a point's identity: the campaign layer
// mixes its fingerprint into the point-store key (campaign/spec.cpp) so
// adaptive summaries and fixed-N summaries never collide in the store.
// FixedN is the identity policy — its fingerprint contribution is empty
// so fixed-N keys (and therefore every pre-adaptive store) stay valid.
//
// Determinism: for a given (runner seed, policy) the whole procedure is
// a pure function — batch b always covers the same absolute trial
// indices, the partial summaries are bit-identical at any thread count
// (MonteCarloRunner::run_batch), and the stopping decision only reads integer
// counts out of them. Re-running an adaptive point reproduces the same
// trials-spent and the same summary, byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "mc/montecarlo.hpp"
#include "util/stats.hpp"

namespace sfi::sampling {

/// How many trials to spend on one operating point.
struct SamplingPolicy {
    enum class Kind : std::uint8_t {
        FixedN,    ///< the seed behavior: exactly the configured trials
        TargetCi,  ///< batches until both Wilson half-widths <= ci_half_width
        TwoStage   ///< screen with few trials, stop if decided, else refine
                   ///< like TargetCi
    };

    Kind kind = Kind::FixedN;
    /// Trials per batch (fixed-N runs its trials in batches of this size
    /// too — any value gives identical bytes).
    std::size_t batch_size = 25;
    /// Adaptive floor: never stop before this many trials, however tight
    /// the interval looks (tiny samples make Wilson intervals lie).
    std::size_t min_trials = 25;
    /// Adaptive ceiling: stop here even if the target was not reached
    /// (the cliff region would otherwise absorb unbounded trials).
    std::size_t max_trials = 1000;
    /// Target half-width of the Wilson intervals on finished_frac and
    /// correct_frac (TargetCi, and TwoStage's refine stage).
    double ci_half_width = 0.05;
    /// Normal quantile of the intervals (1.96 = 95 %).
    double z = 1.96;
    /// TwoStage: trials of the screening stage.
    std::size_t screen_trials = 25;
    /// TwoStage: the screen declares a point decided when the Wilson
    /// interval of each fraction lies entirely in [0, screen_threshold]
    /// or [1 - screen_threshold, 1] — deep in the never-finishes or
    /// always-correct regime, where more trials would not change the
    /// figure. Must be at least the Wilson half-range of a unanimous
    /// screen (z^2 / (screen_trials + z^2), ~0.13 for 25 trials at 95 %)
    /// or the screen can never fire and TwoStage degrades to TargetCi.
    double screen_threshold = 0.15;

    static SamplingPolicy fixed_n();
    static SamplingPolicy target_ci(double ci_half_width,
                                    std::size_t max_trials,
                                    std::size_t batch_size = 25);
    static SamplingPolicy two_stage(std::size_t screen_trials,
                                    double screen_threshold,
                                    double ci_half_width,
                                    std::size_t max_trials);

    bool adaptive() const { return kind != Kind::FixedN; }

    /// Content hash of every knob that can change how many trials a
    /// point receives. FixedN returns 0 — the sentinel the point-key
    /// code uses to leave fixed-N keys exactly as they were before the
    /// sampling engine existed.
    std::uint64_t fingerprint() const;
};

/// Maps a --sampling flag value ("fixed", "ci", "two-stage") to a policy
/// kind; nullopt for anything else.
std::optional<SamplingPolicy::Kind> parse_sampling_kind(
    const std::string& name);

/// The larger of the Wilson half-widths on the summary's finished and
/// correct fractions — the quantity the TargetCi rule drives down.
double max_half_width(const PointSummary& summary, double z = 1.96);

/// Why a point's trial budget stopped where it did.
enum class StopRule : std::uint8_t {
    Fixed,      ///< fixed-N policy: the configured trial count, no rule
    CiMet,      ///< both Wilson half-widths reached the target
    MaxTrials,  ///< the max_trials ceiling cut the refinement off
    Screen,     ///< the TwoStage screen declared the point decided
};
inline constexpr std::size_t kStopRuleCount = 4;

/// Stable short name ("fixed", "ci-met", "max-trials", "screen") — the
/// vocabulary of the campaign manifest and the run ledger.
const char* stop_rule_name(StopRule rule);

/// Re-derives the stopping classification from a *final* summary and the
/// policy that produced it — a pure function, so a summary served from
/// the point store classifies exactly like the run that computed it
/// (tests/campaign/test_obs_campaign.cpp pins the agreement with the
/// engine's own decisions). Only meaningful for summaries that actually
/// came out of run_point_sequential under `policy`.
StopRule classify_stop(const PointSummary& summary,
                       const SamplingPolicy& policy);

struct SequentialResult {
    PointSummary summary;
    std::size_t batches = 0;
    /// True when the stopping rule was satisfied (CI target met or
    /// screen decided); false when the max_trials ceiling cut it off.
    bool converged = false;
    /// The engine's own stopping classification (classify_stop agrees).
    StopRule stop = StopRule::Fixed;
};

/// Runs `point` under `policy` on `runner`'s trial engine:
///  * FixedN: runner.config().trials trials in batches of batch_size —
///    byte-identical to MonteCarloRunner::run_point (the equivalence
///    suite's contract);
///  * TargetCi / TwoStage: batches until the rule above says stop.
SequentialResult run_point_sequential(MonteCarloRunner& runner,
                                      const OperatingPoint& point,
                                      const SamplingPolicy& policy);

}  // namespace sfi::sampling
