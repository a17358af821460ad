#include "mc/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mc/parallel.hpp"

namespace sfi {

namespace {

/// Pass-through hook that only counts what a FaultModel would have
/// counted on an injection-free run; drives the golden run so the
/// zero-fault fast path can synthesize exact FiStats.
class CountingHook final : public ExFaultHook {
public:
    void on_cycle(bool fi_active) override {
        if (fi_active) ++stats_.fi_cycles;
    }
    void on_cycles(std::uint64_t n, bool fi_active) override {
        if (fi_active) stats_.fi_cycles += n;
    }
    std::uint32_t on_ex_result(const ExEvent&, std::uint32_t correct) override {
        ++stats_.alu_ops;
        return correct;
    }
    const FiStats& stats() const { return stats_; }

private:
    FiStats stats_;
};

}  // namespace

MonteCarloRunner::MonteCarloRunner(const Benchmark& benchmark, FaultModel& model,
                                   McConfig config)
    : benchmark_(&benchmark),
      model_(&model),
      config_(config),
      cpu_(memory_),
      trial_seeder_(config.seed) {
    // Lower the program into the micro-op stream once, up front: the
    // golden run and every serial trial reuse it across resets (content
    // hash match), so no run on this Cpu ever decodes lazily. No profile
    // is attached yet — this one-time cost is construction, not a phase.
    cpu_.prime_decode(benchmark.program());
    // Fault-free reference run: establishes the golden cycle count and
    // validates the kernel against its C++ replica. The counting hook is
    // functionally inert (results pass through untouched) but records the
    // FI counters an injection-free trial reports — the fast-path
    // template below must match a simulated clean trial field for field.
    CountingHook counter;
    cpu_.set_fault_hook(&counter);
    cpu_.reset(benchmark.program());
    golden_ = cpu_.run();
    cpu_.set_fault_hook(nullptr);
    if (golden_.stop != StopReason::Halted)
        throw std::logic_error("MonteCarloRunner: golden run of " +
                               benchmark.name() + " did not halt (" +
                               stop_reason_name(golden_.stop) + ")");
    golden_output_ = benchmark.golden_output();
    const auto observed = benchmark.read_output(memory_);
    if (observed != golden_output_)
        throw std::logic_error("MonteCarloRunner: golden run of " +
                               benchmark.name() +
                               " does not match the reference output");
    watchdog_cycles_ = static_cast<std::uint64_t>(
        std::ceil(config_.watchdog_factor * static_cast<double>(golden_.cycles)));

    // Forensic baseline: cpu_/memory_ still hold the reference run's final
    // architectural state, so snapshot it here for classify_trial. Only
    // the dirty slice of memory is copied — everything outside it is zero
    // by Memory's class invariant, for the golden run and trials alike.
    for (std::uint8_t i = 0; i < 32; ++i) golden_regs_[i] = cpu_.reg(i);
    golden_flag_ = cpu_.flag();
    golden_mem_lo_ = memory_.dirty_lo();
    golden_mem_hi_ = memory_.dirty_hi();
    golden_mem_.resize(golden_mem_hi_ - golden_mem_lo_);
    for (std::uint32_t a = golden_mem_lo_; a < golden_mem_hi_; ++a)
        golden_mem_[a - golden_mem_lo_] = memory_.read_u8_unchecked(a);

    clean_outcome_.stop = StopReason::Halted;
    clean_outcome_.finished = true;
    clean_outcome_.correct = true;
    clean_outcome_.output_error = benchmark.output_error(golden_output_);
    clean_outcome_.fi = counter.stats();
    clean_outcome_.cycles = golden_.cycles;
    clean_outcome_.kernel_cycles = golden_.kernel_cycles;
}

TrialOutcome MonteCarloRunner::run_trial_with(Cpu& cpu, FaultModel& model,
                                              const OperatingPoint& point,
                                              std::uint64_t trial) const {
    model.set_operating_point(point);
    // Memoized like the point: a no-op after the first trial. Applied
    // before reseed() so a mode switch's batch invalidation cannot drop
    // draws from the fresh stream.
    model.set_sampling_mode(config_.fault_sampling);
    model.reset_stats();
    // Independent, reproducible stream per trial: (seed, trial) fully
    // determines the model's draws, so equal indices reproduce identical
    // trials on any context, in any order, on any thread.
    model.reseed(trial_seeder_.fork(trial)());

    // Zero-fault fast path: when the model proves it cannot inject at this
    // point, the trial's simulation IS the golden run — return the
    // precomputed outcome instead of re-simulating it. The watchdog guard
    // covers watchdog_factor < 1 configurations where even the clean run
    // would be cut short. RNG state needs no special handling: every trial
    // reseeds above, so skipped draws cannot leak into other trials.
    if (config_.zero_fault_fast_path && !model.can_inject() &&
        golden_.cycles <= watchdog_cycles_) {
        model.adopt_stats(clean_outcome_.fi);  // model.stats() stays faithful
        return clean_outcome_;
    }

    cpu.set_fault_hook(&model);
    cpu.reset(benchmark_->program());  // zeroes memory: no cross-trial state
    const RunResult run = cpu.run(watchdog_cycles_);
    cpu.set_fault_hook(nullptr);

    TrialOutcome outcome;
    outcome.stop = run.stop;
    outcome.finished = run.finished();
    outcome.fi = model.stats();
    outcome.cycles = run.cycles;
    outcome.kernel_cycles = run.kernel_cycles;
    if (outcome.finished) {
        const auto output = benchmark_->read_output(cpu.memory());
        outcome.correct = output == golden_output_;
        outcome.output_error = benchmark_->output_error(output);
    }
    return outcome;
}

TrialOutcome MonteCarloRunner::run_trial(const OperatingPoint& point,
                                         std::uint64_t trial) {
    return run_trial_with(cpu_, *model_, point, trial);
}

bool MonteCarloRunner::arch_state_differs(const Cpu& cpu) const {
    // r0 is the write sink — architecturally always zero, and the threaded
    // engine's slot-32 trick means its raw cell is never corrupted anyway.
    for (std::uint8_t i = 1; i < 32; ++i)
        if (cpu.reg(i) != golden_regs_[i]) return true;
    if (cpu.flag() != golden_flag_) return true;
    const Memory& mem = cpu.memory();
    const std::uint32_t lo = std::min(golden_mem_lo_, mem.dirty_lo());
    const std::uint32_t hi = std::max(golden_mem_hi_, mem.dirty_hi());
    for (std::uint32_t a = lo; a < hi; ++a) {
        const std::uint8_t golden =
            (a >= golden_mem_lo_ && a < golden_mem_hi_)
                ? golden_mem_[a - golden_mem_lo_]
                : 0;
        if (mem.read_u8_unchecked(a) != golden) return true;
    }
    return false;
}

OutcomeClass MonteCarloRunner::classify_trial(const Cpu& cpu,
                                              const TrialOutcome& outcome,
                                              std::uint32_t razor_detected) const {
    if (!outcome.finished) return OutcomeClass::Hang;
    if (!outcome.correct) return OutcomeClass::SDC;
    if (razor_detected > 0) return OutcomeClass::Detected;
    if (arch_state_differs(cpu)) return OutcomeClass::LatentCorrupt;
    return OutcomeClass::Masked;
}

TrialForensics MonteCarloRunner::run_trial_forensic(Cpu& cpu, FaultModel& model,
                                                    const OperatingPoint& point,
                                                    std::uint64_t trial,
                                                    ForensicProbe& probe) const {
    TrialForensics fx;

    model.set_operating_point(point);
    // Fast-path trials ARE the golden run: vacuously Masked, zero records.
    // Mirrors run_trial_with exactly so the forensic re-run of a point
    // classifies the same trials the summary counted.
    if (config_.zero_fault_fast_path && !model.can_inject() &&
        golden_.cycles <= watchdog_cycles_) {
        model.set_sampling_mode(config_.fault_sampling);
        model.reset_stats();
        model.reseed(trial_seeder_.fork(trial)());
        model.adopt_stats(clean_outcome_.fi);
        fx.outcome = clean_outcome_;
        fx.cls = OutcomeClass::Masked;
        return fx;
    }

    probe.start_trial();
    model.set_forensic_probe(&probe);
    // The probed run must be bit-identical to the plain one, so the trial
    // body below is run_trial_with verbatim (the probe adds no draws).
    fx.outcome = run_trial_with(cpu, model, point, trial);
    model.set_forensic_probe(nullptr);

    fx.razor_detected = probe.detected();
    fx.razor_escaped = probe.escaped();
    fx.cls = classify_trial(cpu, fx.outcome, fx.razor_detected);
    fx.records = probe.take_records();
    for (FaultRecord& rec : fx.records)
        rec.trial = static_cast<std::uint32_t>(trial);
    fx.detection_latencies = probe.take_latencies();
    return fx;
}

TrialForensics MonteCarloRunner::run_trial_forensic(const OperatingPoint& point,
                                                    std::uint64_t trial) {
    ForensicProbe probe;
    return run_trial_forensic(cpu_, *model_, point, trial, probe);
}

PointSummary MonteCarloRunner::run_point(const OperatingPoint& point) {
    std::vector<TrialOutcome> outcomes;
    {
        const perf::ScopedPhaseTimer trial_timer(profile_, perf::Phase::TrialRun,
                                                 config_.trials);
        // Worker-count resolution/clamping is owned by run_trials_parallel;
        // here we only decide serial vs. parallel.
        if (config_.trials > 1 && resolve_thread_count(config_.threads) > 1) {
            outcomes = run_trials_parallel(*this, point, config_.threads);
        } else {
            outcomes.reserve(config_.trials);
            for (std::size_t trial = 0; trial < config_.trials; ++trial)
                outcomes.push_back(run_trial(point, trial));
        }
    }
    const perf::ScopedPhaseTimer fold_timer(profile_, perf::Phase::Aggregation,
                                            outcomes.size());
    return summarize_trials(point, outcomes);
}

PointSummary summarize_trials(const OperatingPoint& point,
                              const std::vector<TrialOutcome>& outcomes) {
    PointSummary summary;
    summary.point = point;
    accumulate_trials(summary, outcomes);
    return summary;
}

void accumulate_trials(PointSummary& summary,
                       const std::vector<TrialOutcome>& outcomes) {
    summary.trials += outcomes.size();
    for (const TrialOutcome& outcome : outcomes) {
        if (outcome.finished) {
            ++summary.finished_count;
            if (outcome.correct) ++summary.correct_count;
            summary.error_stats.add(outcome.output_error);
        }
        summary.fi_rate_stats.add(outcome.fi.fi_per_kcycle());
    }
    // The derived means are pure functions of the accumulators, so
    // refreshing them after every block leaves the final values identical
    // to a single-pass summarize_trials.
    summary.fi_rate = summary.fi_rate_stats.mean();
    summary.mean_error = summary.error_stats.mean();
}

}  // namespace sfi
