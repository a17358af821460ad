#include "sampling/sequential.hpp"

#include <algorithm>

#include "util/fingerprint.hpp"

namespace sfi::sampling {

SamplingPolicy SamplingPolicy::fixed_n() { return {}; }

SamplingPolicy SamplingPolicy::target_ci(double ci_half_width,
                                         std::size_t max_trials,
                                         std::size_t batch_size) {
    SamplingPolicy policy;
    policy.kind = Kind::TargetCi;
    policy.ci_half_width = ci_half_width;
    policy.max_trials = max_trials;
    policy.batch_size = batch_size;
    policy.min_trials = std::min(policy.min_trials, max_trials);
    return policy;
}

SamplingPolicy SamplingPolicy::two_stage(std::size_t screen_trials,
                                         double screen_threshold,
                                         double ci_half_width,
                                         std::size_t max_trials) {
    SamplingPolicy policy;
    policy.kind = Kind::TwoStage;
    policy.screen_trials = screen_trials;
    policy.screen_threshold = screen_threshold;
    policy.ci_half_width = ci_half_width;
    policy.max_trials = max_trials;
    policy.min_trials = std::min(policy.min_trials, max_trials);
    return policy;
}

std::uint64_t SamplingPolicy::fingerprint() const {
    if (kind == Kind::FixedN) return 0;  // identity: fixed-N keys unchanged
    // Bumped when the meaning of a policy knob (and therefore of a stored
    // adaptive summary) changes.
    constexpr std::uint64_t kPolicyVersion = 1;
    Fingerprint fp;
    fp.mix(kPolicyVersion);
    fp.mix(kind);
    fp.mix(batch_size);
    fp.mix(min_trials);
    fp.mix(max_trials);
    fp.mix(ci_half_width);
    fp.mix(z);
    if (kind == Kind::TwoStage) {
        fp.mix(screen_trials);
        fp.mix(screen_threshold);
    }
    return fp.value();
}

std::optional<SamplingPolicy::Kind> parse_sampling_kind(
    const std::string& name) {
    if (name == "fixed") return SamplingPolicy::Kind::FixedN;
    if (name == "ci") return SamplingPolicy::Kind::TargetCi;
    if (name == "two-stage") return SamplingPolicy::Kind::TwoStage;
    return std::nullopt;
}

double max_half_width(const PointSummary& summary, double z) {
    const auto half = [&](std::uint64_t successes) {
        const Interval ci = wilson_interval(successes, summary.trials, z);
        return 0.5 * (ci.hi - ci.lo);
    };
    return std::max(half(summary.finished_count), half(summary.correct_count));
}

namespace {

/// TwoStage screen verdict: every fraction's interval pinned to one end.
bool screen_decided(const PointSummary& summary, const SamplingPolicy& policy) {
    const auto decided = [&](std::uint64_t successes) {
        const Interval ci =
            wilson_interval(successes, summary.trials, policy.z);
        return ci.hi <= policy.screen_threshold ||
               ci.lo >= 1.0 - policy.screen_threshold;
    };
    return decided(summary.finished_count) && decided(summary.correct_count);
}

}  // namespace

const char* stop_rule_name(StopRule rule) {
    switch (rule) {
        case StopRule::Fixed: return "fixed";
        case StopRule::CiMet: return "ci-met";
        case StopRule::MaxTrials: return "max-trials";
        case StopRule::Screen: return "screen";
    }
    return "unknown";
}

StopRule classify_stop(const PointSummary& summary,
                       const SamplingPolicy& policy) {
    if (!policy.adaptive()) return StopRule::Fixed;
    // Mirror run_point_sequential's normalization and decision order: the
    // screen is checked only at exactly the screen trial count, and the
    // refine loop tests convergence *before* the ceiling, so a point that
    // converges right at max_trials classifies as CiMet there too.
    const std::size_t ceiling = std::max<std::size_t>(policy.max_trials, 1);
    const std::size_t floor_trials = std::min(policy.min_trials, ceiling);
    if (policy.kind == SamplingPolicy::Kind::TwoStage) {
        const std::size_t screen =
            std::min(std::max<std::size_t>(policy.screen_trials, 1), ceiling);
        if (summary.trials == screen && screen_decided(summary, policy))
            return StopRule::Screen;
    }
    if (summary.trials >= floor_trials &&
        max_half_width(summary, policy.z) <= policy.ci_half_width)
        return StopRule::CiMet;
    return StopRule::MaxTrials;
}

SequentialResult run_point_sequential(BatchedExecutor& executor,
                                      const OperatingPoint& point,
                                      const SamplingPolicy& policy,
                                      std::size_t fixed_trials) {
    SequentialResult result;
    result.summary.point = point;

    if (!policy.adaptive()) {
        result.summary =
            executor.run_fixed(point, fixed_trials, policy.batch_size);
        result.batches = policy.batch_size
                             ? (fixed_trials + policy.batch_size - 1) /
                                   policy.batch_size
                             : (fixed_trials ? 1 : 0);
        result.converged = true;
        result.stop = StopRule::Fixed;
        return result;
    }

    // Stopping-trajectory telemetry is wall-mode only: which batches ran
    // (and their half-width snapshots) is volatile — a warm rerun serves
    // the point from the store without batching at all.
    obs::Ledger* const ledger = obs::wall_ledger(executor.runner().ledger());
    const auto record_stop = [&](const char* decision) {
        if (ledger != nullptr)
            ledger->instant(
                "stopping",
                {{"trials", result.summary.trials},
                 {"half_width", max_half_width(result.summary, policy.z)},
                 {"decision", decision}});
    };

    const std::size_t batch = std::max<std::size_t>(policy.batch_size, 1);
    const std::size_t ceiling = std::max<std::size_t>(policy.max_trials, 1);
    // Normalize here, not only in the factories: a policy built by hand
    // (or parsed from flags) with min_trials > max_trials must still
    // terminate at the ceiling instead of looping on an unreachable floor.
    const std::size_t floor_trials = std::min(policy.min_trials, ceiling);

    if (policy.kind == SamplingPolicy::Kind::TwoStage) {
        // Stage 1: the screen. One cheap look; if the point is pinned to
        // an end of both scales it is decided and the refine loop below
        // never runs.
        const std::size_t screen =
            std::min(std::max<std::size_t>(policy.screen_trials, 1), ceiling);
        executor.run_batch(result.summary, point, screen);
        ++result.batches;
        if (screen_decided(result.summary, policy)) {
            result.converged = true;
            result.stop = StopRule::Screen;
            record_stop("screen");
            return result;
        }
    }

    // TargetCi loop (also TwoStage's refine stage): batch until both
    // Wilson half-widths are at or below the target, with floor/ceiling.
    for (;;) {
        const std::size_t done = result.summary.trials;
        if (done >= floor_trials &&
            max_half_width(result.summary, policy.z) <= policy.ci_half_width) {
            result.converged = true;
            result.stop = StopRule::CiMet;
            record_stop("ci-met");
            return result;
        }
        if (done >= ceiling) {  // ceiling hit, not converged
            result.stop = StopRule::MaxTrials;
            record_stop("max-trials");
            return result;
        }
        record_stop("continue");
        executor.run_batch(result.summary, point,
                           std::min(batch, ceiling - done));
        ++result.batches;
    }
}

SequentialResult run_point_sequential(const MonteCarloRunner& runner,
                                      const OperatingPoint& point,
                                      const SamplingPolicy& policy,
                                      std::size_t threads) {
    BatchedExecutor executor(runner, threads);
    return run_point_sequential(executor, point, policy,
                                runner.config().trials);
}

}  // namespace sfi::sampling
