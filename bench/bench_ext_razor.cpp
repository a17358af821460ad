// Extension: Razor-style error detection & replay evaluated with the
// statistical FI model — the design alternative the paper's introduction
// contrasts against ([1,2]). Detection converts timing errors into replay
// cycles, so over-scaling trades throughput instead of correctness; the
// statistical model locates the throughput-optimal operating point.
#include "bench_common.hpp"

#include "fi/mitigation.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    bench::Context ctx(argc, argv, /*default_trials=*/40,
                       {"coverage", "replay-penalty"});
    const CharacterizedCore core = ctx.make_core();
    const auto bench = make_benchmark(BenchmarkId::KMeans);

    OperatingPoint base;
    base.vdd = 0.7;
    base.noise.sigma_mv = 10.0;
    const double fsta = core.sta_fmax_mhz(0.7);
    const double coverage = ctx.cli.get_double("coverage", 1.0);
    const unsigned penalty =
        static_cast<unsigned>(ctx.cli.get_int("replay-penalty", 11));

    std::cout << "Razor-style detection (coverage "
              << fmt_pct(coverage) << ", replay " << penalty
              << " cycles) on " << bench->name() << ", Vdd = 0.7 V, "
              << "sigma = 10 mV\n\n";

    TextTable table({"f [MHz]", "finished", "correct", "raw FI/kCycle",
                     "detected/run", "escaped/run", "eff. throughput [MHz]"});
    double best_eff = 0.0, best_f = 0.0;
    for (const double rel :
         {0.95, 1.0, 1.03, 1.06, 1.09, 1.12, 1.15, 1.20, 1.25}) {
        const double f = fsta * rel;
        RazorConfig razor;
        razor.detection_coverage = coverage;
        razor.replay_penalty_cycles = penalty;
        const DetectorCost cost = razor_cost(razor);
        DetectionModel model(core.make_model_c(), razor);
        MonteCarloRunner runner(*bench, model, ctx.mc_config());
        OperatingPoint point = base;
        point.freq_mhz = f;

        std::size_t finished = 0, correct = 0;
        std::uint64_t detected = 0, escaped = 0;
        double eff_sum = 0.0;
        RunningStats raw_rate;
        // Every trial under the forensic probe, on the runner's workers:
        // the probe counts each trial's verdicts, and the trial's own
        // kernel cycles price them.
        for (const TrialForensics& fx :
             runner.run_forensics(point, ctx.trials)) {
            finished += fx.outcome.finished;
            correct += fx.outcome.correct;
            detected += fx.razor_detected;
            escaped += fx.razor_escaped;
            raw_rate.add(fx.outcome.fi.fi_per_kcycle());
            eff_sum += cost.effective_mhz(f, fx.outcome.kernel_cycles,
                                          fx.razor_detected);
        }
        const double eff = eff_sum / static_cast<double>(ctx.trials);
        if (eff > best_eff && finished == ctx.trials) {
            best_eff = eff;
            best_f = f;
        }
        table.add_row(
            {fmt_fixed(f, 1),
             fmt_pct(static_cast<double>(finished) / ctx.trials),
             fmt_pct(static_cast<double>(correct) / ctx.trials),
             fmt_sci(raw_rate.mean(), 3),
             fmt_fixed(static_cast<double>(detected) / ctx.trials, 1),
             fmt_fixed(static_cast<double>(escaped) / ctx.trials, 2),
             fmt_fixed(eff, 1)});
    }
    table.print(std::cout);
    std::cout << "\nthroughput-optimal clock: " << fmt_fixed(best_f, 1)
              << " MHz (" << fmt_fixed(100.0 * (best_f / fsta - 1.0), 1)
              << "% over the STA limit) with effective "
              << fmt_fixed(best_eff, 1) << " MHz\n";
    if (coverage >= 1.0)
        std::cout << "with full coverage every error is replayed: runs stay "
                     "correct and the optimum sits where replay cost "
                     "outweighs the clock gain.\n";
    ctx.footer();
    return 0;
}
