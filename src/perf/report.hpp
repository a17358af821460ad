// The BENCH_core.json report: the repo's core perf trajectory artifact,
// produced by bench/sfi_perf.cpp and gated in CI by
// scripts/check_perf_regression.py against scripts/perf_baseline.json.
//
// Schema (stable; bump kSchemaVersion on breaking change):
//
//   {
//     "schema": "sfi-bench-core",
//     "schema_version": 8,
//     "config":   { seed, dta_cycles, trials, benchmark },
//                 (v5: dropped v2's "dispatch" — the ISS has one engine)
//     "phases":   [ { phase, seconds, calls, items } ],
//                 (v7: a view of sfi_perf's wall-mode run ledger — one row
//                  per dispatch-lane span name, in order of first
//                  appearance, summed by phase_rows() below: characterize,
//                  calibrate, cdf_cache_load, dta_class, cdf_build,
//                  cdf_cache_save, fault_sampling, trial_run, decode.
//                  v6's event_sim_settle folded into dta_class and
//                  aggregation into trial_run; decode counts priming only)
//     "kernels":  [ { label, model, benchmark, freq_mhz, vdd, sigma_mv,
//                     trials, fast_path,
//                     scaling: [ { threads, seconds, trials_per_sec } ] } ],
//     "fast_path": { sim_trials_per_sec, fastpath_trials_per_sec, speedup },
//     "fault_sampling": { batched_ops_per_sec, quantized_ops_per_sec },
//                 (v3: throughput of the draw->index sampling kernels;
//                  v6: dropped scalar_ops_per_sec and batched_speedup —
//                  the per-op scalar draw is now a test oracle only;
//                  v8: dropped the flag of the vector conversion
//                  kernel, which is gone)
//     "campaign":  { figure, seconds, trials_spent } | null,
//     "metrics":  { counters: [ { name, value } ] },
//                 (v4: the obs::MetricsRegistry the report's campaign
//                  sample accumulated into — named counters in sorted
//                  order, so the block is deterministic for equal work;
//                  v7: dropped "gauges", which nothing ever set)
//     "wall_clock_s": ...
//   }
//
// "kernels" carries the machine-dependent absolute throughputs (compared
// against the checked-in baseline with a noise margin); "fast_path" is a
// within-run ratio and therefore machine-independent — the regression
// gate holds it to a hard floor. The gate reads no phase row: their
// calls/items are deterministic for equal flags and cache state, their
// seconds are for humans.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"

namespace sfi::perf {

inline constexpr int kSchemaVersion = 8;

/// One "phases" row: every dispatch-lane span of one name, summed.
/// `items` adds up the "items" argument of the spans' end events.
struct PhaseRow {
    std::string phase;
    double seconds = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t items = 0;
};

/// Sums the dispatch-lane (tid 0) B/E spans of `ledger` by name, in order
/// of first appearance. Nested spans count toward their own rows only,
/// so a parent's seconds include its children's. Throws
/// std::runtime_error on an end event that closes no open span.
std::vector<PhaseRow> phase_rows(const obs::LedgerFile& ledger);

/// One rung (thread count) of a kernel bench: the median of sfi_perf's
/// fixed number of timed points, and the throughput it gives.
struct ThreadSample {
    std::size_t threads = 1;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
};

/// Trial-kernel throughput for one fault model at one operating point.
struct KernelBench {
    std::string label;      ///< stable identifier, the baseline join key
    std::string model;      ///< FaultModel::name() ("A", "B", "B+", "C")
    std::string benchmark;  ///< application kernel (e.g. "median")
    double freq_mhz = 0.0;
    double vdd = 0.0;
    double sigma_mv = 0.0;
    std::size_t trials = 0;         ///< trials per sample
    bool fast_path = true;          ///< zero-fault fast path enabled?
    std::vector<ThreadSample> scaling;
};

/// Within-run effect of the zero-fault trial fast path at a sub-threshold
/// operating point: same trials, fast path off vs. on.
struct FastPathResult {
    double sim_trials_per_sec = 0.0;       ///< fast path disabled
    double fastpath_trials_per_sec = 0.0;  ///< fast path enabled
    double speedup = 0.0;                  ///< fastpath / sim
};

/// Throughput of the draw -> table-index sampling paths
/// (bench_fault_sampling in bench/sfi_perf.cpp): synthetic ALU-op streams
/// through model B+ under each FaultSamplingMode. The regression gate
/// holds batched_ops_per_sec to an absolute floor.
struct FaultSamplingResult {
    double batched_ops_per_sec = 0.0;
    double quantized_ops_per_sec = 0.0;
};

/// Wall clock of a small end-to-end figure campaign (store disabled, so
/// every point is computed).
struct CampaignSample {
    std::string figure;
    double seconds = 0.0;
    std::uint64_t trials_spent = 0;
};

struct PerfReport {
    std::uint64_t seed = 1;
    std::size_t dta_cycles = 0;
    std::size_t trials = 0;
    std::string benchmark;
    std::vector<PhaseRow> phases;
    std::vector<KernelBench> kernels;
    FastPathResult fast_path;
    FaultSamplingResult fault_sampling;
    std::optional<CampaignSample> campaign;
    /// Campaign counters (v4) — what the report's campaign sample
    /// accumulated through obs::MetricsRegistry; empty when no campaign
    /// figure was run.
    obs::MetricsRegistry metrics;
    double wall_clock_s = 0.0;
};

/// Emits the report in the schema above (stable key order, deterministic
/// number formatting — see json_writer.hpp).
void write_bench_core_json(std::ostream& os, const PerfReport& report);

}  // namespace sfi::perf
