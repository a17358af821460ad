#include "sampling/batch.hpp"

namespace sfi::sampling {

BatchedExecutor::BatchedExecutor(const MonteCarloRunner& runner,
                                 std::size_t threads)
    : runner_(&runner), contexts_(make_trial_contexts(runner, threads)) {}

void BatchedExecutor::run_batch(PointSummary& summary,
                                const OperatingPoint& point,
                                std::size_t count) {
    if (count == 0) return;
    obs::Ledger* const wall = obs::wall_ledger(runner_->ledger());
    const bool first_batch = summary.trials == 0;
    if (wall)
        wall->begin("batch",
                    {{"first_trial", summary.trials}, {"count", count}});
    const std::vector<TrialOutcome> outcomes =
        run_trial_block(*runner_, point, summary.trials, count, contexts_,
                        wall);
    accumulate_trials(summary, outcomes);
    if (metrics_ != nullptr) metrics_->add("run.batches");
    if ((wall || metrics_ != nullptr) && first_batch && !contexts_.empty() &&
        runner_->fast_path_active(*contexts_.front()->model, point)) {
        if (metrics_ != nullptr) metrics_->add("run.fastpath_points");
        if (wall)
            wall->instant("fast_path", {{"freq_mhz", point.freq_mhz}});
    }
    if (wall) wall->end("batch", {{"trials", summary.trials}});
}

std::vector<TrialForensics> BatchedExecutor::run_forensics(
    const OperatingPoint& point, std::size_t count) {
    return run_forensic_block(*runner_, point, 0, count, contexts_);
}

PointSummary BatchedExecutor::run_fixed(const OperatingPoint& point,
                                        std::size_t trials,
                                        std::size_t batch_size) {
    if (batch_size == 0) batch_size = trials ? trials : 1;
    PointSummary summary;
    summary.point = point;
    while (summary.trials < trials)
        run_batch(summary, point,
                  std::min(batch_size, trials - summary.trials));
    return summary;
}

}  // namespace sfi::sampling
