#include "mc/parallel.hpp"

#include <algorithm>

#include "obs/ledger.hpp"

namespace sfi {

TrialContext::TrialContext(const Benchmark& benchmark,
                           const FaultModel& prototype)
    : model(prototype.clone()), cpu(memory) {
    // Warm the benchmark's lazy program cache on the constructing thread;
    // MonteCarloRunner's golden run normally did this already, but a
    // context must not be the first to touch it from a worker.
    (void)benchmark.program();
}

std::vector<std::unique_ptr<TrialContext>> make_trial_contexts(
    const MonteCarloRunner& runner, std::size_t threads) {
    threads = std::max<std::size_t>(resolve_thread_count(threads), 1);
    std::vector<std::unique_ptr<TrialContext>> contexts;
    contexts.reserve(threads);
    // Micro-op priming happens here, on the dispatching thread: every
    // context lowers the full program once, so worker trials never decode
    // lazily. That keeps the "decode" span's item count a pure function
    // of the context count (the self-scheduling pool gives no guarantee
    // that every worker even executes a trial).
    obs::Ledger* const wall = obs::wall_ledger(runner.ledger());
    if (wall) wall->begin("decode");
    std::uint64_t lowered = 0;
    for (std::size_t index = 0; index < threads; ++index) {
        auto context = std::make_unique<TrialContext>(runner.benchmark(),
                                                      runner.model());
        lowered += context->cpu.prime_decode(runner.benchmark().program());
        contexts.push_back(std::move(context));
    }
    if (wall) wall->end("decode", {{"items", lowered}});
    return contexts;
}

namespace {
/// Stamps `point` on the models of the first `threads` contexts from the
/// dispatching thread. Per-point derived state (noise tables, model C's
/// count memo) is then allocated here, once, instead of on the workers,
/// whose own set_operating_point in run_trial_with becomes a memoized
/// no-op.
void apply_point(const std::vector<std::unique_ptr<TrialContext>>& contexts,
                 std::size_t threads, const OperatingPoint& point) {
    for (std::size_t worker = 0; worker < std::min(threads, contexts.size());
         ++worker)
        contexts[worker]->model->set_operating_point(point);
}
}  // namespace

std::vector<TrialOutcome> run_trial_block(
    const MonteCarloRunner& runner, const OperatingPoint& point,
    std::uint64_t first_trial, std::size_t count,
    const std::vector<std::unique_ptr<TrialContext>>& contexts,
    obs::Ledger* ledger) {
    const std::size_t threads =
        std::clamp<std::size_t>(contexts.size(), 1,
                                std::max<std::size_t>(count, 1));
    apply_point(contexts, threads, point);

    // Small chunks keep workers balanced across the clean-run/watchdog-run
    // cost spread; 8 grabs per worker amortizes the counter traffic.
    const std::size_t chunk = std::max<std::size_t>(count / (threads * 8), 1);

    // Per-worker activity buffers: each is written by exactly one worker
    // (cache-line padded against false sharing) and read by the dispatch
    // thread only after the join below — the ledger itself is never
    // touched from a worker. Ledger::now_us() is const over immutable
    // state, so concurrent reads are safe.
    const bool record = obs::wall_ledger(ledger) != nullptr;
    struct alignas(64) WorkerActivity {
        double first_us = 0.0;
        double last_us = 0.0;
        std::uint64_t trials = 0;
    };
    std::vector<WorkerActivity> activity(record ? contexts.size() : 0);

    std::vector<TrialOutcome> outcomes(count);
    for_each_trial(count, threads, chunk,
                   [&](std::size_t worker, std::uint64_t offset) {
                       if (record && activity[worker].trials == 0)
                           activity[worker].first_us = ledger->now_us();
                       TrialContext& context = *contexts[worker];
                       outcomes[offset] = runner.run_trial_with(
                           context.cpu, *context.model, point,
                           first_trial + offset);
                       if (record) {
                           activity[worker].last_us = ledger->now_us();
                           ++activity[worker].trials;
                       }
                   });
    if (record) {
        for (std::size_t worker = 0; worker < activity.size(); ++worker) {
            const WorkerActivity& a = activity[worker];
            if (a.trials == 0) continue;
            ledger->worker_span(
                worker + 1, "trials", a.first_us,
                std::max(0.0, a.last_us - a.first_us),
                {{"trials", a.trials}, {"first_trial", first_trial}});
        }
    }
    return outcomes;
}

std::vector<TrialForensics> run_forensic_block(
    const MonteCarloRunner& runner, const OperatingPoint& point,
    std::uint64_t first_trial, std::size_t count,
    const std::vector<std::unique_ptr<TrialContext>>& contexts) {
    const std::size_t threads =
        std::clamp<std::size_t>(contexts.size(), 1,
                                std::max<std::size_t>(count, 1));
    apply_point(contexts, threads, point);
    const std::size_t chunk = std::max<std::size_t>(count / (threads * 8), 1);

    // One probe per worker, reused across its trials (start_trial clears
    // it); run_trial_forensic moves the records out before the next grab.
    std::vector<ForensicProbe> probes(contexts.size());

    std::vector<TrialForensics> results(count);
    for_each_trial(count, threads, chunk,
                   [&](std::size_t worker, std::uint64_t offset) {
                       TrialContext& context = *contexts[worker];
                       results[offset] = runner.run_trial_forensic(
                           context.cpu, *context.model, point,
                           first_trial + offset, probes[worker]);
                   });
    return results;
}

std::vector<TrialOutcome> run_trials_parallel(const MonteCarloRunner& runner,
                                              const OperatingPoint& point,
                                              std::size_t threads) {
    const std::size_t trials = runner.config().trials;
    threads = std::clamp<std::size_t>(resolve_thread_count(threads), 1,
                                      std::max<std::size_t>(trials, 1));
    return run_trial_block(runner, point, 0, trials,
                           make_trial_contexts(runner, threads));
}

}  // namespace sfi
