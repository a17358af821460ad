// Worker contexts of the Monte-Carlo trial engine. MonteCarloRunner runs
// every block of trials (run_point, run_batch, run_forensics) over the
// self-scheduling pool of util/parallel.hpp (for_each_trial), one
// TrialContext per worker, while keeping the aggregate bit-identical at
// any thread count (ROADMAP: scale "as fast as the hardware allows"
// without changing the statistical output).
//
// Determinism contract (verified by tests/mc/test_parallel.cpp against
// the serial oracle in tests/testing/serial_point.hpp):
//  * every trial derives its RNG stream from (McConfig::seed, trial index)
//    alone — never from thread identity or scheduling order;
//  * every worker owns a full TrialContext (memory image, ISS, cloned
//    fault model), so concurrent trials share no mutable state; the only
//    cross-thread data are the const characterization tables (STA, CDF
//    store, Vdd fit) behind the model clones;
//  * outcomes are stored by trial index and aggregated in index order
//    (summarize_trials / accumulate_trials), so the floating-point
//    accumulation rounds exactly as in the serial loop.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "mc/montecarlo.hpp"
#include "util/parallel.hpp"

namespace sfi {

/// Per-worker execution state: own memory image, own ISS bound to it, and
/// an own clone of the prototype fault model. Contexts are built on the
/// dispatching thread (cloning is not concurrent) and then handed to
/// exactly one worker each.
struct TrialContext {
    TrialContext(const Benchmark& benchmark, const FaultModel& prototype);

    Memory memory;
    std::unique_ptr<FaultModel> model;
    Cpu cpu;  // bound to `memory`; declared after it (init order)
};

/// Builds one TrialContext per worker (`threads` has McConfig::threads
/// semantics) for `runner`'s benchmark and prototype model — what the
/// runner calls once, at its first block. Primes every context's
/// micro-op stream; a wall-mode runner.ledger() gets one "decode" span
/// with items = contexts x program words.
std::vector<std::unique_ptr<TrialContext>> make_trial_contexts(
    const MonteCarloRunner& runner, std::size_t threads);

}  // namespace sfi
