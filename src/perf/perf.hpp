// Performance instrumentation primitives (ROADMAP: "as fast as the
// hardware allows" needs a measured trajectory, not vibes).
//
// The subsystem separates the two things a perf report mixes:
//
//  * wall-clock time — inherently machine- and run-dependent, measured
//    with monotonic scoped timers (Stopwatch / ScopedPhaseTimer on
//    std::chrono::steady_clock, never the wall clock);
//  * work counters — calls and items per phase, which are a pure function
//    of the workload and therefore deterministic: two runs of the same
//    experiment must report identical counter columns even though their
//    seconds differ. tests/perf/test_perf.cpp pins that contract.
//
// Phases form a fixed taxonomy (the rows of BENCH_core.json): DTA
// evaluation, event-sim settle, fault sampling, micro-op decode, trial
// execution and outcome aggregation. Instrumented code takes a nullable PhaseProfile* —
// a null profile makes every hook a no-op, so the hot paths pay one
// branch when profiling is off.
//
// PhaseProfile is intentionally NOT thread-safe: the instrumented call
// sites (run_dta, MonteCarloRunner::run_point) only touch the profile
// from the dispatching thread, timing whole parallel sections instead of
// letting workers race on shared accumulators. Workers that want their
// own timings use one profile each and merge() afterwards.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace sfi::perf {

/// The phase taxonomy of BENCH_core.json (docs/ARCHITECTURE.md,
/// "Performance instrumentation"). Values index PhaseProfile's table.
enum class Phase : std::uint8_t {
    DtaEval,        ///< DTA characterization of one instruction class
    EventSimSettle, ///< event-driven settle() cycles inside the DTA loop
    FaultSampling,  ///< fault-model corrupt() evaluation (per ALU op)
    Decode,         ///< ISS micro-op lowering (per word)
    TrialRun,       ///< Monte-Carlo trial execution (ISS runs)
    Aggregation,    ///< folding TrialOutcomes into PointSummaries
    FaultSamplingBatch,  ///< batched corrupt() evaluation (per ALU op)
    Forensics,      ///< forensic trial re-runs + artifact aggregation
};

inline constexpr std::size_t kPhaseCount = 8;

/// Stable snake_case identifier used in the JSON schema ("dta_eval", ...).
const char* phase_name(Phase phase);

/// Monotonic stopwatch: seconds() can never go backwards between calls
/// (steady_clock), and restart() re-arms it.
class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    void restart() { start_ = Clock::now(); }

    /// Seconds since construction / the last restart (>= 0).
    double seconds() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// Accumulated cost of one phase. `items` counts phase-specific work units
/// (settle cycles, ALU ops, trials, outcomes) — the deterministic column.
struct PhaseStats {
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
};

/// Per-phase accumulator; one instance per profiled run (or per worker,
/// merged afterwards).
class PhaseProfile {
public:
    void add(Phase phase, double seconds, std::uint64_t items = 0) {
        PhaseStats& s = stats_[static_cast<std::size_t>(phase)];
        s.seconds += seconds;
        s.calls += 1;
        s.items += items;
    }

    const PhaseStats& stats(Phase phase) const {
        return stats_[static_cast<std::size_t>(phase)];
    }

    /// Folds another profile in (per-phase sums); used to combine
    /// per-worker profiles into one report.
    void merge(const PhaseProfile& other);

    /// Sum of seconds over all phases. Phases nest (EventSimSettle is
    /// inside DtaEval), so this is an upper bound on distinct wall time.
    double total_seconds() const;

    void clear() { stats_ = {}; }

private:
    std::array<PhaseStats, kPhaseCount> stats_{};
};

/// RAII phase timer: charges the enclosed scope to `profile` (no-op when
/// null). `items` can be set up front or adjusted before destruction.
class ScopedPhaseTimer {
public:
    ScopedPhaseTimer(PhaseProfile* profile, Phase phase,
                     std::uint64_t items = 0)
        : profile_(profile), phase_(phase), items_(items) {}

    ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
    ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

    void set_items(std::uint64_t items) { items_ = items; }

    ~ScopedPhaseTimer() {
        if (profile_) profile_->add(phase_, watch_.seconds(), items_);
    }

private:
    PhaseProfile* profile_;
    Phase phase_;
    std::uint64_t items_;
    Stopwatch watch_;
};

}  // namespace sfi::perf
