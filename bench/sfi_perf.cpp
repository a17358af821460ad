// Perf trajectory driver: benches the Monte-Carlo trial kernel (the
// hardware-limit axis of the ROADMAP north star) and emits BENCH_core.json
// in the stable schema of src/perf/report.hpp.
//
// What is measured:
//   * characterization phases — calibration, per-class DTA (its chunks on
//     --threads workers), CDF build and cache I/O (DTA is skipped on a
//     CDF-cache hit: delete the cache for a cold timing);
//   * fault-sampling ops/sec — the models' corrupt() path in isolation;
//   * trial-kernel throughput (trials/sec) for models A, B, B+ and C at
//     fig. 1-style operating points, with per-thread scaling — each rung
//     the median of kTimedSamples timed points;
//   * the zero-fault fast path — the same sub-threshold point with the
//     fast path off vs. on (a machine-independent within-run ratio);
//   * a small end-to-end fig1 campaign (store disabled: every point is
//     computed).
//
// The report's "phases" rows are summed (perf::phase_rows) from a
// wall-mode run ledger kept in memory: the core, the fault-sampling loops
// and the measured kernel samples record their spans on it. The fig1
// campaign records on the --trace ledger only.
//
// CI runs this under scripts/check_perf_regression.py against
// scripts/perf_baseline.json; see docs/ARCHITECTURE.md ("Performance
// instrumentation") for the schema and the gate's tolerance model.
//
// Extra flags: --out PATH (default BENCH_core.json), --max-threads N
// (scaling sweep ceiling; default --threads, i.e. hardware), --benchmark
// NAME (default median, the fig. 1 kernel), --campaign-trials N
// (default 10), --no-campaign.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"

namespace {

using namespace sfi;

// Timed run_points per rung. A fixed count, not a time budget, keeps
// the phase rows' calls/items equal for equal flags; the median of the
// samples is what a rung reports, so one preempted sample cannot move it
// (the fast-path kernels finish a point in well under a millisecond).
constexpr std::size_t kTimedSamples = 7;

// kTimedSamples timed run_points after one warm-up: returns the
// ThreadSample of the median sample for `threads` workers.
perf::ThreadSample time_point(const Benchmark& bench, FaultModel& model,
                              const OperatingPoint& point, McConfig config,
                              std::size_t threads, obs::Ledger* ledger) {
    config.threads = threads;
    MonteCarloRunner runner(bench, model, config);
    runner.run_point(point);  // warm-up: page in code, clone contexts once
    // Attach the ledger only now so the phases table counts exactly the
    // measured samples, not the warm-ups.
    runner.set_ledger(ledger);
    std::vector<double> seconds(kTimedSamples);
    for (double& s : seconds) {
        perf::Stopwatch watch;
        runner.run_point(point);
        s = watch.seconds();
    }
    std::nth_element(seconds.begin(), seconds.begin() + kTimedSamples / 2,
                     seconds.end());
    perf::ThreadSample sample;
    sample.threads = threads;
    sample.seconds = seconds[kTimedSamples / 2];
    sample.trials_per_sec =
        sample.seconds > 0.0
            ? static_cast<double>(config.trials) / sample.seconds
            : 0.0;
    return sample;
}

// Doubling thread counts up to `max_threads`, always including the top.
std::vector<std::size_t> thread_ladder(std::size_t max_threads) {
    std::vector<std::size_t> ladder;
    for (std::size_t t = 1; t < max_threads; t *= 2) ladder.push_back(t);
    ladder.push_back(max_threads);
    return ladder;
}

perf::KernelBench bench_kernel(const std::string& label, const Benchmark& bench,
                               FaultModel& model, const OperatingPoint& point,
                               McConfig config,
                               const std::vector<std::size_t>& threads,
                               obs::Ledger* ledger) {
    perf::KernelBench kernel;
    kernel.label = label;
    model.set_operating_point(point);
    kernel.model = model.name();
    kernel.benchmark = bench.name();
    kernel.freq_mhz = point.freq_mhz;
    kernel.vdd = point.vdd;
    kernel.sigma_mv = point.noise.sigma_mv;
    kernel.trials = config.trials;
    kernel.fast_path = config.zero_fault_fast_path;
    for (const std::size_t t : threads)
        kernel.scaling.push_back(
            time_point(bench, model, point, config, t, ledger));
    const perf::ThreadSample& serial = kernel.scaling.front();
    std::printf("  %-26s %-6s f=%7.1f MHz sigma=%4.1f  %9.1f trials/s @1thr",
                label.c_str(), kernel.model.c_str(), kernel.freq_mhz,
                kernel.sigma_mv, serial.trials_per_sec);
    if (kernel.scaling.size() > 1) {
        const perf::ThreadSample& top = kernel.scaling.back();
        std::printf("  %9.1f @%zuthr", top.trials_per_sec, top.threads);
    }
    std::printf("\n");
    return kernel;
}

// The models' corrupt() path in isolation: synthetic add-class events,
// one "fault_sampling" span (items = ops) each. Returns the measured
// ops/sec.
double bench_fault_sampling(FaultModel& model, const OperatingPoint& point,
                            std::size_t ops, obs::Ledger& ledger) {
    model.set_operating_point(point);
    model.reset_stats();
    model.reseed(0xFA57ULL);
    ExEvent ev;
    ev.op = Op::ADD;
    ev.cls = ExClass::Add;
    Rng rng(42);
    ledger.begin("fault_sampling");
    perf::Stopwatch watch;
    std::uint32_t sink = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        ev.operand_a = rng.u32();
        ev.operand_b = rng.u32();
        ev.prev_result = sink;
        sink = model.on_ex_result(ev, ev.operand_a + ev.operand_b);
    }
    const double seconds = watch.seconds();
    ledger.end("fault_sampling", {{"items", static_cast<std::uint64_t>(ops)}});
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sfi;
    bench::Context ctx(argc, argv, /*default_trials=*/256,
                       {"out", "max-threads", "benchmark", "campaign-trials",
                        "no-campaign"});

    const std::string out_path = ctx.cli.get("out", "BENCH_core.json");
    // Ceiling of the scaling ladder: --max-threads, else --threads
    // (0 = one per hardware thread, like McConfig::threads).
    const std::size_t max_threads = resolve_thread_count(
        static_cast<std::size_t>(ctx.checked_uint("max-threads", ctx.threads)));
    const BenchmarkId bench_id =
        bench::checked_benchmark(ctx.cli.get("benchmark", "median"));

    perf::PerfReport report;
    report.seed = ctx.seed;
    report.dta_cycles = ctx.core_config.dta.cycles;
    report.trials = ctx.trials;
    perf::Stopwatch total_watch;
    std::stringstream phase_text;
    obs::Ledger phases(phase_text, obs::TraceMode::Wall);

    // Characterization (the DTA spans land in the ledger on a cache miss).
    perf::Stopwatch core_watch;
    CharacterizedCore core(ctx.core_config, &phases, ctx.threads);
    const double core_s = core_watch.seconds();
    std::printf("[core] %zu cells, f_STA(0.7 V) = %.1f MHz, DTA %zu "
                "cycles/class, characterization %.1f s\n",
                core.alu().netlist.cell_count(), core.sta_fmax_mhz(0.7),
                ctx.core_config.dta.cycles, core_s);

    const auto bench = make_benchmark(bench_id);
    report.benchmark = bench->name();
    McConfig mc = ctx.mc_config();

    auto model_a = core.make_model_a(1e-4);
    auto model_b = core.make_model_b();
    auto model_c = core.make_model_c();

    // Fig. 1-style anchors at 0.7 V: the models' first-fault frequencies.
    OperatingPoint base;
    base.vdd = 0.7;
    base.noise = {};
    model_b->set_operating_point(base);
    const double f0_b = model_b->first_fault_frequency_mhz();
    OperatingPoint bplus_base = base;
    bplus_base.noise.sigma_mv = 10.0;
    model_b->set_operating_point(bplus_base);
    const double f0_bplus = model_b->first_fault_frequency_mhz();
    double f0_c = 0.0;
    model_c->set_operating_point(base);
    for (const ExClass cls : Alu::instruction_classes()) {
        const double f = model_c->first_fault_frequency_mhz(cls);
        f0_c = f0_c == 0.0 ? f : std::min(f0_c, f);
    }

    std::printf("\n[fault sampling] %zu synthetic ALU ops/model\n", ctx.trials * 1000);
    const std::size_t sampling_ops = ctx.trials * 1000;
    OperatingPoint fault_b = base;
    fault_b.freq_mhz = f0_b * 1.002;
    OperatingPoint fault_bplus = bplus_base;
    fault_bplus.freq_mhz = f0_bplus * 1.01;
    OperatingPoint fault_c = base;
    fault_c.freq_mhz = f0_c * 1.02;
    // The same point with supply noise: modelC-fault draws none, so only
    // this point times model C's per-op noise draw.
    OperatingPoint noisy_c = fault_c;
    noisy_c.noise.sigma_mv = 10.0;
    bench_fault_sampling(*model_a, fault_b, sampling_ops, phases);
    // Model B+ under each sampling mode — the report's "fault_sampling"
    // object (the batched throughput has a floor in CI).
    model_b->set_sampling_mode(FaultSamplingMode::Batched);
    report.fault_sampling.batched_ops_per_sec =
        bench_fault_sampling(*model_b, fault_bplus, sampling_ops, phases);
    model_b->set_sampling_mode(FaultSamplingMode::Quantized);
    report.fault_sampling.quantized_ops_per_sec =
        bench_fault_sampling(*model_b, fault_bplus, sampling_ops, phases);
    model_b->set_sampling_mode(ctx.core_config.fault_sampling);
    bench_fault_sampling(*model_c, fault_c, sampling_ops, phases);
    std::printf("  B+ corrupt(): batched %.2e, quantized %.2e ops/s; "
                "C corrupt() at sigma 10 mV: %.2e ops/s\n",
                report.fault_sampling.batched_ops_per_sec,
                report.fault_sampling.quantized_ops_per_sec,
                bench_fault_sampling(*model_c, noisy_c, sampling_ops, phases));

    std::printf("\n[trial kernels] %zu trials/sample, %s benchmark\n",
                ctx.trials, report.benchmark.c_str());
    const std::vector<std::size_t> ladder = thread_ladder(max_threads);
    OperatingPoint clean_b = base;
    clean_b.freq_mhz = f0_b * 0.97;

    report.kernels.push_back(bench_kernel("fig1-modelB-fault", *bench,
                                          *model_b, fault_b, mc, ladder,
                                          &phases));
    {
        // The fig1 model-B workhorse: a sub-threshold clean run with the
        // fast path disabled, i.e. the full ISS simulation cost per trial.
        McConfig sim_mc = mc;
        sim_mc.zero_fault_fast_path = false;
        report.kernels.push_back(bench_kernel("fig1-modelB-clean-sim", *bench,
                                              *model_b, clean_b, sim_mc,
                                              ladder, &phases));
    }
    report.kernels.push_back(bench_kernel("fig1-modelBplus-sigma10", *bench,
                                          *model_b, fault_bplus, mc, ladder,
                                          &phases));
    {
        // Same point under the quantized (B-q) sampling variant: the
        // runner's worker contexts clone the model's mode, and the label
        // reads "B-q".
        model_b->set_sampling_mode(FaultSamplingMode::Quantized);
        report.kernels.push_back(bench_kernel("fig1-modelBplus-sigma10-q",
                                              *bench, *model_b, fault_bplus,
                                              mc, {1}, &phases));
        model_b->set_sampling_mode(ctx.core_config.fault_sampling);
    }
    report.kernels.push_back(bench_kernel("modelC-fault", *bench, *model_c,
                                          fault_c, mc, {1}, &phases));
    report.kernels.push_back(bench_kernel("modelC-sigma10", *bench, *model_c,
                                          noisy_c, mc, {1}, &phases));
    report.kernels.push_back(bench_kernel("modelA-p1e-4", *bench, *model_a,
                                          fault_b, mc, {1}, &phases));
    {
        // CWC decorator cost on top of model C: same point as modelC-fault,
        // so the delta is the per-op weight-check overhead.
        DetectionModel cwc(core.make_model_c(), CwcConfig{});
        report.kernels.push_back(bench_kernel("modelC-cwc8", *bench, cwc,
                                              fault_c, mc, {1},
                                              &phases));
    }

    // Zero-fault fast path: same point, fast path off vs. on (serial).
    {
        McConfig sim_mc = mc;
        sim_mc.zero_fault_fast_path = false;
        const perf::ThreadSample sim =
            time_point(*bench, *model_b, clean_b, sim_mc, 1, nullptr);
        const perf::ThreadSample fast =
            time_point(*bench, *model_b, clean_b, mc, 1, nullptr);
        report.fast_path.sim_trials_per_sec = sim.trials_per_sec;
        report.fast_path.fastpath_trials_per_sec = fast.trials_per_sec;
        report.fast_path.speedup =
            sim.trials_per_sec > 0.0
                ? fast.trials_per_sec / sim.trials_per_sec
                : 0.0;
        std::printf("\n[fast path] sub-threshold model B: %.1f -> %.1f "
                    "trials/s (%.0fx)\n",
                    sim.trials_per_sec, fast.trials_per_sec,
                    report.fast_path.speedup);
    }

    // End-to-end fig1 campaign, store disabled so every point computes.
    if (!ctx.cli.get_bool("no-campaign", false)) {
        const std::size_t campaign_trials =
            static_cast<std::size_t>(ctx.checked_uint("campaign-trials", 10));
        campaign::CampaignSpec spec = campaign::figures::fig1(
            ctx.core_config, campaign_trials, ctx.seed);
        ctx.apply_to(spec);
        campaign::RunOptions options;
        options.threads = ctx.threads;
        // Campaign counters land in the report's v4 "metrics" block (and
        // in the --trace ledger when one is attached).
        options.metrics = &report.metrics;
        options.ledger = ctx.ledger.get();
        perf::Stopwatch watch;
        campaign::CampaignRunner runner(std::move(spec), std::move(options));
        const campaign::CampaignResult result = runner.run();
        perf::CampaignSample sample;
        sample.figure = "fig1";
        sample.seconds = watch.seconds();
        sample.trials_spent = result.trials_spent;
        report.campaign = sample;
        std::printf("\n[campaign] fig1, %zu trials/point: %llu trials in "
                    "%.2f s\n",
                    campaign_trials,
                    static_cast<unsigned long long>(sample.trials_spent),
                    sample.seconds);
    }

    phases.flush();
    report.phases = perf::phase_rows(obs::read_ledger(phase_text));
    report.wall_clock_s = total_watch.seconds();
    std::ofstream os(out_path);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
        return 1;
    }
    perf::write_bench_core_json(os, report);
    std::printf("\n[report] %s\n", out_path.c_str());
    ctx.footer();
    return 0;
}
