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
#include <vector>

#include "apps/benchmark.hpp"
#include "cpu/cpu.hpp"
#include "fi/forensics.hpp"
#include "fi/models.hpp"
#include "perf/perf.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sfi {

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
    /// Worker threads for run_point (and therefore the sweep drivers):
    /// 1 = serial on the caller's model, 0 = one worker per hardware
    /// thread, N = exactly N workers. Every setting produces a
    /// bit-identical PointSummary — trials share no mutable state
    /// (src/mc/parallel.hpp gives each worker its own Cpu/Memory/cloned
    /// model) and outcomes are aggregated in trial-index order. Only the
    /// summary is part of that contract: when run_point actually fans out
    /// (threads != 1 and trials > 1 — single-trial points fall back to
    /// the serial loop), the caller's model object is not driven (clones
    /// are), so its incidental post-run state — stats() of the last
    /// trial, Razor detected()/escaped() accumulation — stays untouched.
    /// Workflows that read per-trial model state (bench_ext_razor) call
    /// run_trial directly.
    std::size_t threads = 1;
    /// Draw-stream mode applied to the fault model each trial
    /// (fi/sampling_batch.hpp). Batched prefetches whole blocks of noise
    /// draws and is bit-identical to the one-draw-per-op reference walks
    /// (tests/testing/); Quantized is the fingerprinted alias-sampled
    /// variant.
    FaultSamplingMode fault_sampling = FaultSamplingMode::Batched;
};

/// Result of one fault-injected run of a benchmark.
struct TrialOutcome {
    StopReason stop = StopReason::Halted;
    bool finished = false;      ///< halted normally before the watchdog fired
    bool correct = false;       ///< finished AND output bit-exact vs. golden
    double output_error = 0.0;  ///< benchmark quality metric; valid only when finished
    FiStats fi;                 ///< injection counters from the fault model
    std::uint64_t cycles = 0;         ///< total simulated cycles
    std::uint64_t kernel_cycles = 0;  ///< cycles inside the marked kernel region
};

/// One trial re-run under a ForensicProbe: the ordinary outcome plus the
/// per-injection provenance records and the trial's outcome class.
/// Forensics never feeds PointSummary — the plain trial path stays the
/// single source of the paper's metrics, and this struct is strictly
/// additive observation on top of it.
struct TrialForensics {
    TrialOutcome outcome;
    OutcomeClass cls = OutcomeClass::Masked;
    std::uint32_t razor_detected = 0;  ///< razor verdicts this trial
    std::uint32_t razor_escaped = 0;
    std::vector<FaultRecord> records;  ///< injection order; trial stamped
    std::vector<std::uint32_t> detection_latencies;  ///< cycles, per detection
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
    MonteCarloRunner(const Benchmark& benchmark, FaultModel& model,
                     McConfig config = {});

    const RunResult& golden_run() const { return golden_; }
    const std::vector<std::uint32_t>& golden_output() const {
        return golden_output_;
    }

    /// One independent trial at `point` (trial index selects the RNG
    /// stream; equal indices reproduce identical trials regardless of what
    /// ran before — Cpu::reset restores a pristine memory image).
    TrialOutcome run_trial(const OperatingPoint& point, std::uint64_t trial);

    /// The same trial computation on caller-provided execution state; this
    /// is what the parallel engine (src/mc/parallel.hpp) calls with its
    /// per-thread contexts. Reads only immutable runner state, so it is
    /// safe to call concurrently with distinct `cpu`/`model` pairs.
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

    /// Convenience serial form on the runner's own Cpu and model.
    TrialForensics run_trial_forensic(const OperatingPoint& point,
                                      std::uint64_t trial);

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

    /// config.trials independent trials, aggregated in trial-index order.
    /// Fans out over McConfig::threads workers when threads != 1; the
    /// result is bit-identical to the serial loop.
    PointSummary run_point(const OperatingPoint& point);

    const McConfig& config() const { return config_; }
    const Benchmark& benchmark() const { return *benchmark_; }
    /// Prototype fault model (cloned once per parallel worker).
    const FaultModel& model() const { return *model_; }

    /// True when run_trial_with would take the zero-fault fast path for
    /// trials of `model` at `point` (the model proves it cannot inject
    /// there and the golden run fits the watchdog). Stamps the point on
    /// the model — a memoized no-op after the model ran trials at it.
    /// Used by the observability layer to tag fast-path points.
    bool fast_path_active(FaultModel& model, const OperatingPoint& point) const {
        model.set_operating_point(point);
        return config_.zero_fault_fast_path && !model.can_inject() &&
               golden_.cycles <= watchdog_cycles_;
    }

    /// Attaches a perf profile (null detaches). run_point charges the
    /// trial loop to Phase::TrialRun and the summary fold to
    /// Phase::Aggregation (items = trials); micro-op lowering is charged
    /// to Phase::Decode (parallel context priming in make_trial_contexts,
    /// plus any lazy re-lowering on the runner's own Cpu). Dispatch-thread
    /// only: parallel sections are timed as a whole, workers never touch
    /// the profile.
    void set_perf_profile(perf::PhaseProfile* profile) {
        profile_ = profile;
        cpu_.set_perf_profile(profile);
    }
    perf::PhaseProfile* perf_profile() const { return profile_; }

private:
    const Benchmark* benchmark_;
    FaultModel* model_;
    McConfig config_;
    Memory memory_;
    Cpu cpu_;
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
    perf::PhaseProfile* profile_ = nullptr;
};

/// Aggregates `outcomes` (indexed by trial) exactly like the historical
/// serial loop: iterating in trial-index order makes the floating-point
/// accumulation independent of the order in which trials finished, which
/// is what makes parallel and serial run_point bit-identical.
PointSummary summarize_trials(const OperatingPoint& point,
                              const std::vector<TrialOutcome>& outcomes);

/// Folds `outcomes` (a contiguous trial-index block, in index order) into
/// an existing summary with the exact accumulation sequence of
/// summarize_trials, then refreshes the derived means. Feeding the blocks
/// of a trial prefix in order therefore reproduces summarize_trials over
/// that prefix bit for bit — the foundation of the batched executor's
/// determinism contract (src/sampling/batch.hpp).
void accumulate_trials(PointSummary& summary,
                       const std::vector<TrialOutcome>& outcomes);

}  // namespace sfi
