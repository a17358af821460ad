#include "mc/montecarlo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mc/parallel.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

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
    // hash match), so no run on this Cpu ever decodes lazily. No ledger
    // is attached yet — this one-time cost is construction, not a span.
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
    if (takes_fast_path(model)) {
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
    // Fast-path trials ARE the golden run: vacuously Masked, zero records,
    // whatever state an earlier trial left in `cpu`. Mirrors
    // run_trial_with exactly so the forensic re-run of a point classifies
    // the same trials the summary counted.
    if (takes_fast_path(model)) {
        fx.outcome = run_trial_with(cpu, model, point, trial);
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

MonteCarloRunner::~MonteCarloRunner() = default;

void MonteCarloRunner::ensure_contexts() {
    if (contexts_.empty())
        contexts_ = make_trial_contexts(*this, config_.threads);
}

void MonteCarloRunner::run_block(
    const OperatingPoint& point, std::size_t count,
    const std::function<void(std::size_t, std::uint64_t)>& fn) {
    const std::size_t threads = std::clamp<std::size_t>(
        contexts_.size(), 1, std::max<std::size_t>(count, 1));
    // Per-point derived state (noise tables, model C's count memo) is
    // allocated here, once per worker, instead of on the workers, whose
    // own set_operating_point in run_trial_with becomes a memoized no-op.
    for (std::size_t worker = 0; worker < threads; ++worker)
        contexts_[worker]->model->set_operating_point(point);
    // Small chunks keep workers balanced across the clean-run/watchdog-run
    // cost spread; 8 grabs per worker amortizes the counter traffic.
    const std::size_t chunk = std::max<std::size_t>(count / (threads * 8), 1);
    for_each_trial(count, threads, chunk, fn);
}

std::vector<TrialOutcome> MonteCarloRunner::run_trials(
    const OperatingPoint& point, std::uint64_t first_trial, std::size_t count,
    obs::Ledger* lanes) {
    // Per-worker activity buffers: each is written by exactly one worker
    // (cache-line padded against false sharing) and read by the dispatch
    // thread only after the join — the ledger itself is never touched
    // from a worker. Ledger::now_us() is const over immutable state, so
    // concurrent reads are safe.
    struct alignas(64) WorkerActivity {
        double first_us = 0.0;
        double last_us = 0.0;
        std::uint64_t trials = 0;
    };
    std::vector<WorkerActivity> activity(lanes ? contexts_.size() : 0);

    std::vector<TrialOutcome> outcomes(count);
    run_block(point, count, [&](std::size_t worker, std::uint64_t offset) {
        if (lanes && activity[worker].trials == 0)
            activity[worker].first_us = lanes->now_us();
        TrialContext& context = *contexts_[worker];
        outcomes[offset] = run_trial_with(context.cpu, *context.model, point,
                                          first_trial + offset);
        if (lanes) {
            activity[worker].last_us = lanes->now_us();
            ++activity[worker].trials;
        }
    });
    for (std::size_t worker = 0; worker < activity.size(); ++worker) {
        const WorkerActivity& a = activity[worker];
        if (a.trials == 0) continue;
        lanes->worker_span(
            worker + 1, "trials", a.first_us,
            std::max(0.0, a.last_us - a.first_us),
            {{"trials", a.trials}, {"first_trial", first_trial}});
    }
    return outcomes;
}

PointSummary MonteCarloRunner::run_point(const OperatingPoint& point) {
    obs::Ledger* const wall = obs::wall_ledger(ledger_);
    if (wall) wall->begin("trial_run");
    ensure_contexts();
    PointSummary summary =
        summarize_trials(point, run_trials(point, 0, config_.trials, nullptr));
    if (wall)
        wall->end("trial_run",
                  {{"items", static_cast<std::uint64_t>(config_.trials)}});
    return summary;
}

void MonteCarloRunner::run_batch(PointSummary& summary,
                                 const OperatingPoint& point,
                                 std::size_t count) {
    if (count == 0) return;
    // Contexts first: their "decode" span precedes the batch, as a
    // sibling inside the caller's point span.
    ensure_contexts();
    obs::Ledger* const wall = obs::wall_ledger(ledger_);
    const bool first_batch = summary.trials == 0;
    if (wall)
        wall->begin("batch",
                    {{"first_trial", summary.trials}, {"count", count}});
    accumulate_trials(summary, run_trials(point, summary.trials, count, wall));
    if (metrics_ != nullptr) metrics_->add("run.batches");
    if ((wall || metrics_ != nullptr) && first_batch &&
        fast_path_active(*contexts_.front()->model, point)) {
        if (metrics_ != nullptr) metrics_->add("run.fastpath_points");
        if (wall) wall->instant("fast_path", {{"freq_mhz", point.freq_mhz}});
    }
    if (wall) wall->end("batch", {{"trials", summary.trials}});
}

std::vector<TrialForensics> MonteCarloRunner::run_forensics(
    const OperatingPoint& point, std::size_t count) {
    ensure_contexts();
    obs::Ledger* const wall = obs::wall_ledger(ledger_);
    if (wall) wall->begin("forensic_trials");
    // One probe per worker, reused across its trials (start_trial clears
    // it); run_trial_forensic moves the records out before the next grab.
    std::vector<ForensicProbe> probes(contexts_.size());
    std::vector<TrialForensics> results(count);
    run_block(point, count, [&](std::size_t worker, std::uint64_t trial) {
        TrialContext& context = *contexts_[worker];
        results[trial] = run_trial_forensic(context.cpu, *context.model, point,
                                            trial, probes[worker]);
    });
    if (wall)
        wall->end("forensic_trials",
                  {{"items", static_cast<std::uint64_t>(count)}});
    return results;
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
