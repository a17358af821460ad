// Fig. 3 is the block diagram of the model-C simulation flow. This bench
// exercises every block of that diagram once and reports what flowed
// through it: gate-level netlist -> dynamic timing analysis -> statistical
// timings (CDFs) -> CDF scaling (frequency + voltage noise) -> per-cycle
// timing error probabilities -> fault injection into the cycle-accurate
// ISS's EX stage.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    // The walkthrough's operating point and demo kernel are flags (all in
    // the known vocabulary, so typos warn instead of passing silently).
    bench::Context ctx(argc, argv, /*default_trials=*/1,
                       {"freq", "vdd", "sigma", "benchmark"});
    const double freq_mhz = ctx.checked_positive_double("freq", 760.0);
    const double vdd = ctx.checked_positive_double("vdd", 0.7);
    const double sigma_mv = ctx.checked_double("sigma", 10.0, 0.0);
    const BenchmarkId bench_id =
        bench::checked_benchmark(ctx.cli.get("benchmark", "mat_mult_8bit"));
    const CharacterizedCore core = ctx.make_core();

    std::cout << "Fig. 3 walkthrough: statistical FI simulation pipeline\n\n";

    // (1) gate-level netlist
    const Netlist& netlist = core.alu().netlist;
    std::cout << "[netlist]   " << netlist.cell_count() << " cells, depth "
              << netlist.logic_depth() << ", endpoints "
              << netlist.output_bus("y").size() << "\n";
    for (const auto& [type, count] : netlist.type_histogram())
        std::cout << "            " << type << " x" << count << "\n";

    // (2) dynamic timing analysis -> statistical timings (CDFs)
    const TimingErrorCdfs& cdfs = *core.cdfs();
    std::cout << "[DTA/CDFs]  " << cdfs.samples_per_endpoint()
              << " arrival samples per endpoint, setup "
              << fmt_fixed(cdfs.setup_ps(), 1) << " ps\n";
    for (const ExClass cls : Alu::instruction_classes())
        std::cout << "            " << ex_class_name(cls)
                  << ": dynamic f_max(" << fmt_fixed(vdd, 2) << " V) = "
                  << fmt_fixed(core.dynamic_fmax_mhz(cls, vdd), 1) << " MHz\n";

    // (3) CDF scaling factor from clock frequency + supply voltage noise
    OperatingPoint point;
    point.freq_mhz = freq_mhz;
    point.vdd = vdd;
    point.noise.sigma_mv = sigma_mv;
    const VddDelayFit& fit = core.lib().fit();
    // The noise range spans the windows the models draw at the clip,
    // +/- clip_sigmas * sigma: a two-entry noise-window table is exactly
    // the first and last rows of the models' own table.
    const std::vector<double> clip_windows = build_noise_window_table(point, fit, 2);
    std::cout << "[scaling]   f = " << fmt_fixed(point.freq_mhz, 0)
              << " MHz, Vdd = " << fmt_fixed(point.vdd, 2)
              << " V, sigma = " << fmt_fixed(point.noise.sigma_mv, 0)
              << " mV -> capture window "
              << fmt_fixed(point.period_ps() / fit.factor(point.vdd), 1)
              << " ps @ Vref (noise range "
              << fmt_fixed(clip_windows.front(), 1) << " .. "
              << fmt_fixed(clip_windows.back(), 1) << " ps)\n";

    // (4) timing error probability evaluation for one instruction
    const double window = point.period_ps() / fit.factor(point.vdd);
    std::cout << "[P_E,V,I]   l.mul endpoint probabilities at this window:\n";
    for (const std::size_t bit : {31, 24, 16, 8, 3})
        std::cout << "            bit[" << bit << "] P = "
                  << fmt_sci(cdfs.violation_prob(ExClass::Mul, bit, window), 3)
                  << "\n";

    // (5) fault injection into the ISS: trial 0 of the point, on the
    // trial engine
    auto model = core.make_model_c();
    const auto bench = make_benchmark(bench_id);
    MonteCarloRunner runner(*bench, *model, ctx.mc_config());
    const TrialOutcome outcome = runner.run_forensics(point, 1).front().outcome;
    std::cout << "[ISS]       " << bench->name() << ": "
              << stop_reason_name(outcome.stop) << ", "
              << outcome.kernel_cycles << " kernel cycles, "
              << outcome.fi.alu_ops << " ALU ops offered, "
              << outcome.fi.injections << " faults injected ("
              << fmt_sci(outcome.fi.fi_per_kcycle(), 3) << " FI/kCycle)\n";
    ctx.footer();
    return 0;
}
