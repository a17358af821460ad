// Parallel Monte-Carlo trial engine: fans the trials of one operating
// point out over the self-scheduling pool of util/parallel.hpp
// (for_each_trial) while keeping the aggregate bit-identical to the
// serial loop (ROADMAP: scale "as fast as the hardware allows" without
// changing the statistical output).
//
// Determinism contract (verified by tests/mc/test_parallel.cpp):
//  * every trial derives its RNG stream from (McConfig::seed, trial index)
//    alone — never from thread identity or scheduling order;
//  * every worker owns a full TrialContext (memory image, ISS, cloned
//    fault model), so concurrent trials share no mutable state; the only
//    cross-thread data are the const characterization tables (STA, CDF
//    store, Vdd fit) behind the model clones;
//  * outcomes are stored by trial index and aggregated in index order
//    (summarize_trials), so the floating-point accumulation rounds exactly
//    as in the serial loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mc/montecarlo.hpp"
#include "util/parallel.hpp"

namespace sfi::obs {
class Ledger;
}

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

/// Runs runner.config().trials independent trials at `point` across
/// `threads` worker contexts and returns the outcomes indexed by trial —
/// ready for summarize_trials(), which makes the aggregate bit-identical
/// to the serial path. The runner's own model/CPU are left untouched.
std::vector<TrialOutcome> run_trials_parallel(const MonteCarloRunner& runner,
                                              const OperatingPoint& point,
                                              std::size_t threads);

/// Builds one TrialContext per worker for `runner`'s benchmark/model —
/// the reusable half of run_trials_parallel, split out so the batched
/// executor (src/sampling/batch.hpp) can keep the contexts alive across
/// many trial blocks instead of re-cloning the model per batch. Primes
/// every context's micro-op stream; a wall-mode runner.ledger() gets one
/// "decode" span with items = contexts x program words.
std::vector<std::unique_ptr<TrialContext>> make_trial_contexts(
    const MonteCarloRunner& runner, std::size_t threads);

/// Runs the contiguous trial block [first_trial, first_trial + count) at
/// `point` over `contexts` (one worker per context; fewer are used when
/// count is small) and returns the outcomes indexed relative to the
/// block start. Trial indices keep their absolute meaning — trial i
/// draws from the (seed, i) stream wherever the block boundaries fall —
/// so the union of consecutive blocks is exactly what one call over the
/// whole range would have produced.
///
/// When a wall-mode `ledger` is attached, each worker accumulates its
/// first/last activity timestamps and trial count in a per-thread buffer
/// (no locks, no shared writes) and the dispatch thread drains them into
/// one "trials" span per active worker lane after the block joins.
/// Logical-mode ledgers record nothing here — worker activity is
/// scheduling-dependent, so it is wall-only by the determinism contract.
std::vector<TrialOutcome> run_trial_block(
    const MonteCarloRunner& runner, const OperatingPoint& point,
    std::uint64_t first_trial, std::size_t count,
    const std::vector<std::unique_ptr<TrialContext>>& contexts,
    obs::Ledger* ledger = nullptr);

/// Forensic variant of run_trial_block: the same chunked self-scheduling
/// fan-out, but every trial runs under its worker's ForensicProbe and the
/// results carry records, razor counters and outcome classes. Results are
/// indexed relative to the block start, so feeding them to a ForensicSink
/// in index order yields a record stream bitwise identical to the serial
/// loop at any thread count (the probe buffers per worker; nothing is
/// emitted in scheduling order).
std::vector<TrialForensics> run_forensic_block(
    const MonteCarloRunner& runner, const OperatingPoint& point,
    std::uint64_t first_trial, std::size_t count,
    const std::vector<std::unique_ptr<TrialContext>>& contexts);

}  // namespace sfi
