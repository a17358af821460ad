// Resumable batched trial execution — the bottom layer of the adaptive
// sampling engine (ROADMAP: spend trials only where the statistics still
// need them). A BatchedExecutor runs the trials of one operating point in
// fixed-size, trial-indexed batches so a caller can look at the partial
// PointSummary between batches and decide whether to keep going
// (src/sampling/sequential.hpp) — without ever breaking the PR 2
// determinism contract.
//
// Determinism contract (verified by tests/sampling/test_batch.cpp):
// after k batches the accumulated PointSummary is bit-identical to what a
// serial MonteCarloRunner::run_point over the same trial prefix would
// produce, at any thread count and any batch size. Two ingredients make
// that hold:
//  * trial indices are absolute — batch b covers trials
//    [b*batch, b*batch + n) and trial i always draws from the (seed, i)
//    RNG stream, so batch boundaries cannot shift any trial's content;
//  * each batch's outcomes are folded into the summary in trial-index
//    order via accumulate_trials (src/mc/montecarlo.hpp), i.e. the exact
//    floating-point accumulation sequence of the one-shot path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mc/parallel.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace sfi::sampling {

/// Runs trial batches for one MonteCarloRunner, reusing one set of
/// per-worker TrialContexts across all batches (and points) so adaptive
/// sweeps do not pay a model clone per batch.
class BatchedExecutor {
public:
    /// `threads` has McConfig::threads semantics (0 = one worker per
    /// hardware thread, 1 = serial); the summaries are bit-identical at
    /// any value.
    BatchedExecutor(const MonteCarloRunner& runner, std::size_t threads);

    /// Runs the `count` trials following summary.trials at `point` and
    /// folds them into `summary` in trial-index order. The summary after
    /// the call equals a serial run of trials [0, summary.trials + count)
    /// bit for bit (given it did before the call — start from a
    /// default-constructed summary with `point` set, or use run_fixed).
    void run_batch(PointSummary& summary, const OperatingPoint& point,
                   std::size_t count);

    /// Exactly `trials` trials at `point` in batches of `batch_size`
    /// (the last batch is short): byte-identical to
    /// MonteCarloRunner::run_point with config.trials = trials.
    PointSummary run_fixed(const OperatingPoint& point, std::size_t trials,
                           std::size_t batch_size);

    /// Forensic re-run of trials [0, count) at `point` over the executor's
    /// contexts (run_forensic_block). Purely observational: the returned
    /// TrialForensics never feed a PointSummary, and each trial outcome is
    /// bit-identical to what run_batch produced for the same index. The
    /// record stream (results in index order) is bitwise identical at any
    /// thread count.
    std::vector<TrialForensics> run_forensics(const OperatingPoint& point,
                                              std::size_t count);

    const MonteCarloRunner& runner() const { return *runner_; }

    /// Attaches observability sinks (either may be null). Wall-mode
    /// ledgers get a "batch" span per run_batch call, per-worker "trials"
    /// lanes (via run_trial_block) and a "fast_path" instant on points the
    /// zero-fault fast path serves; logical-mode ledgers get nothing here
    /// — batch structure is volatile (a warm rerun has no batches at
    /// all). The registry counts "run.batches" / "run.fastpath_points",
    /// volatile by the "run." naming convention.
    void set_observer(obs::Ledger* ledger, obs::MetricsRegistry* metrics) {
        ledger_ = ledger;
        metrics_ = metrics;
    }
    obs::Ledger* ledger() const { return ledger_; }
    obs::MetricsRegistry* metrics() const { return metrics_; }

private:
    const MonteCarloRunner* runner_;
    std::vector<std::unique_ptr<TrialContext>> contexts_;
    obs::Ledger* ledger_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace sfi::sampling
