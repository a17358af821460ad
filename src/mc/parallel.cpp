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

}  // namespace sfi
