// Ablation: DTA characterization-kernel length. The paper uses 8 kCycles
// of randomized operands per instruction. Short kernels under-sample the
// arrival-time tails (the rare worst-case excitations), which moves the
// apparent dynamic limits up and distorts the onset of the CDFs.
//
// The ladder is derived from --dta-cycles c as {c/16, c/4, c, 4c} (each
// at least 1); the default 8,192 gives 512, 2,048, 8,192 and 32,768.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    // Pure characterization study (no Monte-Carlo points), so it stays
    // off the campaign engine / point store.
    bench::Context ctx(argc, argv, /*default_trials=*/1);

    std::cout << "DTA kernel length vs dynamic limits (Vdd = 0.7 V)\n\n";
    TextTable table({"cycles", "mul fmax [MHz]", "add fmax [MHz]",
                     "cmp fmax [MHz]", "mul P(f=740MHz,b31)",
                     "DTA time [s]"});
    const std::size_t c = ctx.core_config.dta.cycles;
    for (const std::size_t cycles :
         {std::max<std::size_t>(c / 16, 1), std::max<std::size_t>(c / 4, 1),
          c, 4 * c}) {
        CoreModelConfig config = ctx.core_config;
        config.dta.cycles = cycles;
        config.cdf_cache_path.clear();
        const auto t0 = std::chrono::steady_clock::now();
        const CharacterizedCore core(config, nullptr, ctx.threads);
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        const double window =
            (1.0e6 / 740.0) / core.lib().fit().factor(0.7);
        table.add_row({std::to_string(cycles),
                       fmt_fixed(core.dynamic_fmax_mhz(ExClass::Mul, 0.7), 1),
                       fmt_fixed(core.dynamic_fmax_mhz(ExClass::Add, 0.7), 1),
                       fmt_fixed(core.dynamic_fmax_mhz(ExClass::Cmp, 0.7), 1),
                       fmt_sci(core.cdfs()->violation_prob(ExClass::Mul, 31,
                                                           window),
                               3),
                       fmt_fixed(dt, 1)});
    }
    table.print(std::cout);
    std::cout << "\nlonger kernels sample deeper into the arrival tail: the\n"
                 "dynamic fmax estimates decrease monotonically and converge\n"
                 "toward the true data-dependent limits.\n";
    ctx.footer();
    return 0;
}
