// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --trials N       Monte-Carlo trials per data point (default varies)
//   --threads N      worker threads for the MC trials of each data point
//                    and for DTA characterization (default 0 = one per
//                    hardware thread; results are bit-identical at any N)
//   --dta-cycles N   DTA characterization kernel length (default 8192)
//   --seed S         Monte-Carlo base seed
//   --watchdog-factor F  watchdog limit as a multiple of the fault-free
//                    kernel run time (default 8; finite, > 0)
//   --sampling MODE  trial-budget policy for campaign points: "fixed"
//                    (the paper's flat trial count, default), "ci"
//                    (batches until the Wilson intervals are tighter than
//                    --ci-target), "two-stage" (cheap screen, refine only
//                    undecided points)
//   --ci-target H    target Wilson half-width for adaptive sampling
//                    (default 0.05; finite, > 0)
//   --max-trials N   adaptive trial ceiling per point (default 1000)
//   --batch N        trials per adaptive batch (default 25)
//   --cache PATH     CDF cache file (default sfi_cdf_cache.bin in cwd)
//   --store PATH     campaign point store (default sfi_point_store.bin;
//                    completed Monte-Carlo points are persisted there and
//                    re-runs with the same parameters are served from it)
//   --no-store       disable the point store (recompute everything)
//   --csv-dir DIR    directory for CSV dumps (default bench_csv)
//   --no-csv         disable CSV output
//   --fault-sampling MODE  noise-draw sampling path for models B/B+/C:
//                    "batched" (block-prefetched draws, bit-identical to
//                    one draw per op; the default) or "quantized"
//                    (alias-table index sampling; faster but a distinct
//                    sampling distribution variant — model names gain a
//                    "-q" suffix and store/cache keys are salted so
//                    results never collide with exact runs).
//   --forensics DIR  opt-in fault forensics: every Benchmark-kernel
//                    campaign point re-runs its first --forensics-trials
//                    trials under the forensic probe and the
//                    vulnerability-report artifacts (records.bin,
//                    forensics.json, CSV tables) land in DIR. Off by
//                    default; off means byte-identical artifacts and no
//                    extra work (src/fi/forensics.hpp).
//   --forensics-trials K  trials forensically sampled per point
//                    (default 32, clamped to the point's trial count)
//   --trace PATH     write a JSONL run ledger (src/obs/ledger.hpp) of the
//                    campaign — spans, probes, stopping decisions,
//                    counters. Analyze or convert it with bench/sfi_trace.
//   --trace-mode M   "wall" (default: full event stream with wall-clock
//                    timestamps) or "logical" (byte-stable spec narrative
//                    for CI diffing; timestamps zeroed)
//   --quiet          suppress the live `point k/N, trials/s, ETA` stderr
//                    progress line (it is TTY-gated anyway)
//
// Tracing never changes results: CSVs and manifests are byte-identical
// with --trace on or off (ledger emission is observation-only).
//
// Flags outside this set (plus a bench's declared extras) produce a
// warning on stderr but are still parsed — typos like `--trails` no
// longer pass silently, while binaries that forward foreign flags keep
// working. Negative or malformed --trials/--seed/--threads/--dta-cycles,
// --dta-cycles 0 and non-finite or non-positive
// --watchdog-factor/--ci-target are rejected with a clear message (exit
// 2) instead of running a nonsense experiment.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sfi/sfi.hpp"

namespace sfi::bench {

inline std::vector<std::string> known_flags(std::vector<std::string> extra) {
    std::vector<std::string> known = {"trials", "threads", "dta-cycles",
                                      "seed",   "cache",   "store",
                                      "no-store", "csv-dir", "no-csv",
                                      "watchdog-factor", "sampling",
                                      "ci-target", "max-trials", "batch",
                                      "fault-sampling",
                                      "forensics", "forensics-trials",
                                      "trace", "trace-mode", "quiet"};
    known.insert(known.end(), std::make_move_iterator(extra.begin()),
                 std::make_move_iterator(extra.end()));
    return known;
}

struct Context {
    Cli cli;
    CoreModelConfig core_config;
    std::size_t trials = 0;
    std::uint64_t seed = 1;
    std::size_t threads = 0;
    double watchdog_factor = 8.0;
    sampling::SamplingPolicy sampling;
    std::string csv_dir;
    std::string store_path;
    std::string forensics_dir;  ///< empty = forensics off (the default)
    std::size_t forensics_trials = 32;
    /// Run ledger (--trace); null unless the flag was given. Owned here so
    /// it outlives the campaign and flushes/closes at Context destruction.
    std::unique_ptr<obs::Ledger> ledger;
    bool quiet = false;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();

    /// `extra_known` declares bench-specific flags (e.g.
    /// bench_cwc_compare's --points) so they are not reported as unknown.
    Context(int argc, char** argv, std::size_t default_trials,
            std::vector<std::string> extra_known = {})
        : cli(argc, argv, known_flags(std::move(extra_known))) {
        for (const std::string& flag : cli.unknown_flags())
            std::cerr << "warning: unknown flag --" << flag
                      << " (ignored; see bench/README.md for the flag list)\n";
        trials = static_cast<std::size_t>(
            checked_uint("trials", static_cast<std::uint64_t>(default_trials)));
        seed = checked_uint("seed", 1);
        threads = static_cast<std::size_t>(checked_uint("threads", 0));
        watchdog_factor = checked_positive_double("watchdog-factor", 8.0);
        core_config.fault_sampling = parse_fault_sampling_flag();
        sampling = parse_sampling_policy();
        core_config.dta.cycles =
            static_cast<std::size_t>(checked_uint("dta-cycles", 8192));
        if (core_config.dta.cycles == 0) {
            // An empty kernel characterizes a core that never faults.
            std::cerr << "error: --dta-cycles must be positive\n";
            std::exit(2);
        }
        core_config.cdf_cache_path = cli.get("cache", "sfi_cdf_cache.bin");
        // No eager mkdir: the CSV sinks (CsvWriter, CampaignRunner)
        // create missing directories themselves, so pure-query
        // invocations leave the filesystem untouched.
        if (!cli.get_bool("no-csv", false))
            csv_dir = cli.get("csv-dir", "bench_csv");
        if (!cli.get_bool("no-store", false))
            store_path = cli.get("store", "sfi_point_store.bin");
        quiet = cli.get_bool("quiet", false);
        forensics_dir = cli.get("forensics", "");
        forensics_trials = static_cast<std::size_t>(
            checked_uint("forensics-trials", 32));
        if (!forensics_dir.empty() && forensics_trials == 0) {
            std::cerr << "error: --forensics-trials must be positive\n";
            std::exit(2);
        }
        if (const std::string trace = cli.get("trace", ""); !trace.empty()) {
            const std::string mode_name = cli.get("trace-mode", "wall");
            const auto mode = obs::parse_trace_mode(mode_name);
            if (!mode) {
                std::cerr << "error: --trace-mode must be one of logical, "
                             "wall (got \"" << mode_name << "\")\n";
                std::exit(2);
            }
            try {
                ledger = std::make_unique<obs::Ledger>(trace, *mode);
            } catch (const std::exception& e) {
                std::cerr << "error: " << e.what() << "\n";
                std::exit(2);
            }
        }
    }

    /// Builds the characterized core (prints a one-line summary).
    CharacterizedCore make_core() const {
        const auto t0 = std::chrono::steady_clock::now();
        CharacterizedCore core(core_config, nullptr, threads);
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        std::cout << "[core] " << core.alu().netlist.cell_count()
                  << " cells, f_STA(0.7 V) = " << fmt_fixed(core.sta_fmax_mhz(0.7), 1)
                  << " MHz, DTA " << core_config.dta.cycles
                  << " cycles/class, characterization " << fmt_fixed(dt, 1)
                  << " s\n\n";
        return core;
    }

    McConfig mc_config() const {
        McConfig config;
        config.trials = trials;
        config.seed = seed;
        config.watchdog_factor = watchdog_factor;
        config.threads = threads;  // parallel MC; output is bit-identical
        return config;
    }

    /// Applies the shared MC knobs (watchdog, sampling policy) that the
    /// figure factories do not take as parameters. Campaign drivers call
    /// this on every spec they build.
    void apply_to(campaign::CampaignSpec& spec) const {
        spec.watchdog_factor = watchdog_factor;
        spec.sampling = sampling;
    }

    /// Store/CSV/threads wiring for a campaign run from this bench.
    /// (Non-const: the campaign writes through the Context-owned ledger.)
    campaign::RunOptions campaign_options() {
        campaign::RunOptions options;
        options.store_path = store_path;
        options.csv_dir = csv_dir;
        options.threads = threads;
        options.console = &std::cout;
        options.ledger = ledger.get();
        options.progress = !quiet;
        options.forensics_dir = forensics_dir;
        options.forensics_trials = forensics_trials;
        return options;
    }

    std::string csv_path(const std::string& name) const {
        return csv_dir.empty() ? std::string{} : csv_dir + "/" + name;
    }

    void footer() const {
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        std::cout << "\n[done in " << fmt_fixed(dt, 1) << " s]\n";
    }

    /// get_uint with CLI-grade error reporting: a bad value prints the
    /// reason and exits 2 instead of running a nonsense experiment.
    /// Bench-specific count flags (bench_cwc_compare's --points) go
    /// through this too.
    std::uint64_t checked_uint(const char* name, std::uint64_t def) const {
        try {
            return cli.get_uint(name, def);
        } catch (const std::invalid_argument& e) {
            std::cerr << "error: " << e.what() << "\n";
            std::exit(2);
        }
    }

    /// get_positive_double with the same exit-2 contract: non-finite or
    /// <= 0 --watchdog-factor/--ci-target values abort at parse time.
    double checked_positive_double(const char* name, double def) const {
        try {
            return cli.get_positive_double(name, def);
        } catch (const std::invalid_argument& e) {
            std::cerr << "error: " << e.what() << "\n";
            std::exit(2);
        }
    }

private:
    FaultSamplingMode parse_fault_sampling_flag() const {
        const std::string mode = cli.get("fault-sampling", "batched");
        const auto parsed = parse_fault_sampling_mode(mode);
        if (!parsed) {
            std::cerr << "error: --fault-sampling must be one of batched, "
                         "quantized (got \"" << mode << "\")\n";
            std::exit(2);
        }
        return *parsed;
    }

    sampling::SamplingPolicy parse_sampling_policy() const {
        const std::string mode = cli.get("sampling", "fixed");
        const auto kind = sampling::parse_sampling_kind(mode);
        if (!kind) {
            std::cerr << "error: --sampling must be one of fixed, ci, "
                         "two-stage (got \"" << mode << "\")\n";
            std::exit(2);
        }
        sampling::SamplingPolicy policy;
        policy.kind = *kind;
        policy.ci_half_width = checked_positive_double("ci-target", 0.05);
        policy.max_trials =
            static_cast<std::size_t>(checked_uint("max-trials", 1000));
        policy.batch_size =
            static_cast<std::size_t>(checked_uint("batch", 25));
        if (policy.batch_size == 0 ||
            (policy.adaptive() && policy.max_trials == 0)) {
            std::cerr << "error: --batch and --max-trials must be positive\n";
            std::exit(2);
        }
        policy.min_trials = std::min(policy.min_trials, policy.max_trials);
        policy.screen_trials = std::min(policy.screen_trials, policy.max_trials);
        return policy;
    }
};

/// Maps a --benchmark flag value to its BenchmarkId; a typo prints the
/// valid names and exits 2 (the Context::checked_* contract). Call it
/// before producing any output so a bad flag cannot leave a partial
/// report on stdout.
inline BenchmarkId checked_benchmark(const std::string& name) {
    for (const BenchmarkId id : all_benchmarks())
        if (name == benchmark_name(id)) return id;
    std::cerr << "error: --benchmark must be one of:";
    for (const BenchmarkId id : all_benchmarks())
        std::cerr << " " << benchmark_name(id);
    std::cerr << " (got \"" << name << "\")\n";
    std::exit(2);
}

}  // namespace sfi::bench
