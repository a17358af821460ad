// Voltage/quality exploration (the paper's §4.4 use case as a tool):
// given a benchmark and a quality budget, find how much supply voltage —
// and therefore power — can be saved at the nominal frequency.
//
//   $ ./examples/voltage_explorer --benchmark kmeans --sigma 10
//         --max-error 5 --trials 60 [--threads 0]
#include <iostream>
#include <stdexcept>

#include "sfi/sfi.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    const Cli cli(argc, argv);

    // Flags first: a malformed or out-of-range value stops here, before
    // anything is built or printed.
    double max_error = 0.0;
    double sigma = 0.0;
    try {
        max_error = cli.get_non_negative_double("max-error", 5.0);
        sigma = cli.get_non_negative_double("sigma", 10.0);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    CoreModelConfig config;
    config.cdf_cache_path = "sfi_cdf_cache.bin";
    CharacterizedCore core(config);
    const PowerModel power;

    const std::string name = cli.get("benchmark", "median");
    std::unique_ptr<Benchmark> bench;
    for (const BenchmarkId id : all_benchmarks())
        if (name == benchmark_name(id)) bench = make_benchmark(id);
    if (!bench) {
        std::cerr << "unknown benchmark '" << name << "'\n";
        return 1;
    }

    const double v_nom = 0.7;
    const double f_nom = core.sta_fmax_mhz(v_nom);

    auto model = core.make_model_c();
    McConfig mc;
    mc.trials = static_cast<std::size_t>(cli.get_uint("trials", 60));
    mc.threads = cli.get_threads();
    MonteCarloRunner runner(*bench, *model, mc);

    OperatingPoint base;
    base.freq_mhz = f_nom;
    base.vdd = v_nom;
    base.noise.sigma_mv = sigma;

    std::cout << bench->name() << " at fixed " << fmt_fixed(f_nom, 1)
              << " MHz, sigma = " << fmt_fixed(sigma, 0)
              << " mV; quality budget: " << fmt_fixed(max_error, 1) << " "
              << bench->error_unit() << "\n\n";

    TextTable table({"Vdd [V]", "norm. power", "finished", "correct",
                     bench->error_unit(), "within budget"});
    double best_vdd = v_nom;
    const auto sweep = voltage_sweep(runner, base, linspace(0.645, v_nom, 12));
    for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
        const PointSummary& p = *it;
        const bool ok =
            p.finished_frac() >= 0.999 && p.mean_error <= max_error;
        if (ok && p.point.vdd < best_vdd) best_vdd = p.point.vdd;
        table.add_row({fmt_fixed(p.point.vdd, 3),
                       fmt_fixed(power.normalized_power(p.point.vdd, v_nom), 3),
                       fmt_pct(p.finished_frac()), fmt_pct(p.correct_frac()),
                       fmt_sci(p.mean_error, 3), ok ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\nlowest voltage meeting the budget: "
              << fmt_fixed(best_vdd, 3) << " V  ->  "
              << fmt_fixed(100.0 * power.normalized_power(best_vdd, v_nom), 1)
              << "% of nominal core power ("
              << fmt_fixed(power.core_power_uw(best_vdd, f_nom) / 1000.0, 2)
              << " mW)\n";
    return 0;
}
