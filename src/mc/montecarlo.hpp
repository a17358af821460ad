// Monte-Carlo fault-injection harness (paper §2.3: at least 100
// simulations per parameter configuration).
//
// For each operating point the runner executes N independent trials of a
// benchmark under a fault model and aggregates the four application-level
// metrics of the paper (§4.2): probability to finish, probability to be
// correct, FI rate (faults per 1000 kernel cycles), and the output error
// of the runs that finished.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "apps/benchmark.hpp"
#include "cpu/cpu.hpp"
#include "fi/forensics.hpp"
#include "fi/models.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sfi {

namespace obs {
class Ledger;
class MetricsRegistry;
}

struct TrialContext;

struct McConfig {
    /// Independent runs per operating point (paper: >= 100).
    std::size_t trials = 100;
    /// Base of the per-trial RNG streams: trial `i` always draws from the
    /// stream derived from (seed, i), never from execution order.
    std::uint64_t seed = 1;
    /// Watchdog limit as a multiple of the fault-free kernel run time;
    /// runs exceeding it count as "did not finish" (infinite-loop guard,
    /// paper §2.2).
    double watchdog_factor = 8.0;
    /// Skips the ISS run for trials whose fault model provably cannot
    /// inject at the operating point (FaultModel::can_inject() == false)
    /// and returns the precomputed fault-free outcome instead. Exact, not
    /// approximate: such a trial's simulation is the golden run, so every
    /// summary is bit-identical with the flag on or off (proven by
    /// tests/mc/test_fastpath.cpp). The switch exists for that proof and
    /// for measuring the fast path's effect (bench/sfi_perf.cpp) — leave
    /// it on otherwise.
    bool zero_fault_fast_path = true;
    /// Worker contexts of the trial engine: 0 = one per hardware thread,
    /// N = exactly N (1 included). The runner builds them on its first
    /// block and runs every point, batch and forensic re-run on them; the
    /// caller's model is only their prototype. Every setting produces a
    /// bit-identical PointSummary: trials share no mutable state
    /// (src/mc/parallel.hpp gives each worker its own Cpu/Memory/cloned
    /// model) and outcomes are aggregated in trial-index order.
    std::size_t threads = 1;
};

/// Aggregate of config.trials TrialOutcomes at one operating point — one
/// x-axis sample of the paper's figure panels.
struct PointSummary {
    OperatingPoint point;
    std::size_t trials = 0;
    std::size_t finished_count = 0;
    std::size_t correct_count = 0;
    double fi_rate = 0.0;     ///< mean FI/kCycle over all trials
    double mean_error = 0.0;  ///< mean output error over finished trials
    RunningStats error_stats; ///< distribution over finished trials
    RunningStats fi_rate_stats;

    double finished_frac() const {
        return trials ? static_cast<double>(finished_count) /
                            static_cast<double>(trials)
                      : 0.0;
    }
    double correct_frac() const {
        return trials ? static_cast<double>(correct_count) /
                            static_cast<double>(trials)
                      : 0.0;
    }
    /// 95 % Wilson confidence intervals on the two probabilities.
    Interval finished_ci() const { return wilson_interval(finished_count, trials); }
    Interval correct_ci() const { return wilson_interval(correct_count, trials); }
};

class MonteCarloRunner {
public:
    /// Performs one fault-free reference run at construction; throws
    /// std::logic_error if the benchmark does not reproduce its golden
    /// output (a miscompiled kernel would silently poison every result).
    /// `model` is the prototype of the worker contexts, cloned once at
    /// the first block (run_point, run_batch or run_forensics); changes
    /// made to it after that never reach the contexts.
    MonteCarloRunner(const Benchmark& benchmark, FaultModel& model,
                     McConfig config = {});
    ~MonteCarloRunner();

    const RunResult& golden_run() const { return golden_; }
    const std::vector<std::uint32_t>& golden_output() const {
        return golden_output_;
    }

    /// One independent trial at `point` on caller-provided execution
    /// state; this is what the block engine calls with its per-worker
    /// contexts. The trial index selects the RNG stream, so equal indices
    /// reproduce identical trials regardless of what ran before
    /// (Cpu::reset restores a pristine memory image). Reads only
    /// immutable runner state, so it is safe to call concurrently with
    /// distinct `cpu`/`model` pairs.
    TrialOutcome run_trial_with(Cpu& cpu, FaultModel& model,
                                const OperatingPoint& point,
                                std::uint64_t trial) const;

    /// One trial re-run with full forensic observation: attaches `probe`
    /// to `model` for the duration of the run, classifies the final
    /// architectural state against the golden baseline and returns the
    /// stamped injection records. Bit-identical to run_trial_with in every
    /// TrialOutcome field (the probe adds no RNG draws — proven by
    /// tests/fi/test_forensics.cpp). Safe to call concurrently with
    /// distinct cpu/model/probe triples, like run_trial_with.
    TrialForensics run_trial_forensic(Cpu& cpu, FaultModel& model,
                                      const OperatingPoint& point,
                                      std::uint64_t trial,
                                      ForensicProbe& probe) const;

    /// Outcome taxonomy for a completed trial: Hang (watchdog / abnormal
    /// stop), SDC (finished, wrong output), Detected (correct with razor
    /// detections), LatentCorrupt (correct output but architectural state
    /// differs from the golden run), Masked (indistinguishable from the
    /// golden run). `cpu` must still hold the trial's final state.
    OutcomeClass classify_trial(const Cpu& cpu, const TrialOutcome& outcome,
                                std::uint32_t razor_detected) const;

    /// True when `cpu`'s architectural state (registers r1..r31, compare
    /// flag, data memory) differs from the golden run's final state. The
    /// r0 write sink is ignored (architecturally hardwired to zero) and
    /// the memory walk covers only the union of the two dirty ranges —
    /// bytes outside them are zero by Memory's class invariant.
    bool arch_state_differs(const Cpu& cpu) const;

    /// config.trials independent trials as one block over [0, trials) on
    /// the worker contexts, aggregated in trial-index order.
    PointSummary run_point(const OperatingPoint& point);

    /// Runs the `count` trials following summary.trials at `point` as one
    /// block and folds them into `summary` in trial-index order. Trial
    /// indices are absolute — trial i draws from the (seed, i) stream
    /// wherever the batch boundaries fall — so after any sequence of
    /// batches the summary equals the serial loop over the same trial
    /// prefix bit for bit, at any thread count (start from a
    /// default-constructed summary with `point` set). The adaptive
    /// sampling engine (src/sampling/sequential.hpp) looks at the partial
    /// summary between batches.
    void run_batch(PointSummary& summary, const OperatingPoint& point,
                   std::size_t count);

    /// Forensic re-run of trials [0, count) at `point` on the worker
    /// contexts, one ForensicProbe per worker. Purely observational: the
    /// results never feed a PointSummary, and each trial outcome is
    /// bit-identical to what run_batch produces for the same index.
    /// Results are indexed by trial, so feeding them to a ForensicSink in
    /// order yields a record stream bitwise identical at any thread count.
    std::vector<TrialForensics> run_forensics(const OperatingPoint& point,
                                              std::size_t count);

    const McConfig& config() const { return config_; }
    const Benchmark& benchmark() const { return *benchmark_; }
    /// Prototype fault model (cloned once per worker context).
    const FaultModel& model() const { return *model_; }

    /// True when run_trial_with would take the zero-fault fast path for
    /// trials of `model` at `point` (the model proves it cannot inject
    /// there and the golden run fits the watchdog). Stamps the point on
    /// the model — a memoized no-op after the model ran trials at it.
    /// Used by the observability layer to tag fast-path points.
    bool fast_path_active(FaultModel& model, const OperatingPoint& point) const {
        model.set_operating_point(point);
        return takes_fast_path(model);
    }

    /// Attaches a run ledger (null detaches). Wall-mode ledgers get a
    /// "decode" span when the worker contexts are built (items = words
    /// primed, contexts x program words), a "trial_run" span per
    /// run_point (items = trials), a "batch" span per run_batch with one
    /// "trials" span per active worker lane and a "fast_path" instant on
    /// the first batch of a point the zero-fault fast path serves, and a
    /// "forensic_trials" span per run_forensics (items = trials).
    /// Logical-mode ledgers get nothing here — block structure is
    /// volatile (a warm rerun runs no trials at all). Dispatch-thread
    /// only: workers never touch the ledger.
    void set_ledger(obs::Ledger* ledger) { ledger_ = ledger; }
    obs::Ledger* ledger() const { return ledger_; }

    /// Attaches the registry that counts "run.batches" and
    /// "run.fastpath_points" per run_batch (volatile by the "run."
    /// naming convention); null = no counting.
    void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

private:
    /// The zero-fault fast-path condition for a model already at its
    /// point: it cannot inject there and the golden run fits the
    /// watchdog.
    bool takes_fast_path(const FaultModel& model) const {
        return config_.zero_fault_fast_path && !model.can_inject() &&
               golden_.cycles <= watchdog_cycles_;
    }
    /// Builds the worker contexts on first use (make_trial_contexts).
    void ensure_contexts();
    /// The block engine: stamps `point` on the contexts' models from the
    /// dispatching thread and calls fn(worker, offset) once per offset in
    /// [0, count) over min(contexts, count) workers (for_each_trial).
    void run_block(const OperatingPoint& point, std::size_t count,
                   const std::function<void(std::size_t, std::uint64_t)>& fn);
    /// Outcomes of trials [first_trial, first_trial + count), indexed
    /// relative to the block start. A wall-mode `lanes` ledger gets one
    /// "trials" span per active worker lane.
    std::vector<TrialOutcome> run_trials(const OperatingPoint& point,
                                         std::uint64_t first_trial,
                                         std::size_t count,
                                         obs::Ledger* lanes);

    const Benchmark* benchmark_;
    FaultModel* model_;
    McConfig config_;
    RunResult golden_;
    std::vector<std::uint32_t> golden_output_;
    std::uint64_t watchdog_cycles_ = 0;
    /// Template outcome of a provably injection-free trial (== the golden
    /// run, FI counters included); what the zero-fault fast path returns.
    TrialOutcome clean_outcome_;
    /// Golden-run architectural baseline for forensic classification:
    /// final register file, compare flag and the dirty slice of data
    /// memory, captured right after the reference run at construction.
    std::array<std::uint32_t, 32> golden_regs_{};
    bool golden_flag_ = false;
    std::uint32_t golden_mem_lo_ = 0;
    std::uint32_t golden_mem_hi_ = 0;
    std::vector<std::uint8_t> golden_mem_;  ///< bytes [golden_mem_lo_, golden_mem_hi_)
    /// Per-trial stream derivation base (seeded once from config_.seed;
    /// fork(trial) is const, so sharing it across threads is safe).
    Rng trial_seeder_;
    /// One per worker, built at the first block (src/mc/parallel.hpp).
    std::vector<std::unique_ptr<TrialContext>> contexts_;
    obs::Ledger* ledger_ = nullptr;
    obs::MetricsRegistry* metrics_ = nullptr;
};

/// Aggregates `outcomes` (indexed by trial) exactly like the historical
/// serial loop: iterating in trial-index order makes the floating-point
/// accumulation independent of the order in which trials finished, which
/// is what makes run_point bit-identical at every thread count.
PointSummary summarize_trials(const OperatingPoint& point,
                              const std::vector<TrialOutcome>& outcomes);

/// Folds `outcomes` (a contiguous trial-index block, in index order) into
/// an existing summary with the exact accumulation sequence of
/// summarize_trials, then refreshes the derived means. Feeding the blocks
/// of a trial prefix in order therefore reproduces summarize_trials over
/// that prefix bit for bit — the foundation of run_batch's determinism
/// contract.
void accumulate_trials(PointSummary& summary,
                       const std::vector<TrialOutcome>& outcomes);

}  // namespace sfi
