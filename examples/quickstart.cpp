// Quickstart: characterize the core, run one benchmark under statistical
// fault injection (model C), and print the four application metrics.
//
//   $ ./examples/quickstart [--freq 760] [--vdd 0.7] [--sigma 10]
//                           [--benchmark median] [--trials 50] [--threads 0]
#include <iostream>
#include <stdexcept>

#include "sfi/sfi.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    const Cli cli(argc, argv);

    // 0. Read the operating point (frequency over-scaling + supply noise)
    //    first: a malformed or out-of-range value stops here, before
    //    anything is built or printed.
    OperatingPoint point;
    try {
        point.freq_mhz = cli.get_positive_double("freq", 760.0);
        point.vdd = cli.get_positive_double("vdd", 0.7);
        point.noise.sigma_mv = cli.get_non_negative_double("sigma", 10.0);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    // 1. Build and characterize the core: gate-level ALU netlist, timing
    //    calibration to the paper's 28 nm operating point (707 MHz STA
    //    limit at 0.7 V), and dynamic timing analysis for the CDFs.
    CoreModelConfig config;
    config.cdf_cache_path = "sfi_cdf_cache.bin";  // reuse across runs
    CharacterizedCore core(config);
    std::cout << "STA frequency limit at 0.7 V: "
              << fmt_fixed(core.sta_fmax_mhz(0.7), 1) << " MHz\n";

    // 2. Pick a benchmark and the statistical fault model.
    const std::string name = cli.get("benchmark", "median");
    std::unique_ptr<Benchmark> bench;
    for (const BenchmarkId id : all_benchmarks())
        if (name == benchmark_name(id)) bench = make_benchmark(id);
    if (!bench) {
        std::cerr << "unknown benchmark '" << name << "'\n";
        return 1;
    }
    auto model = core.make_model_c();

    // 3. Monte-Carlo fault-injection campaign at that point.
    McConfig mc;
    mc.trials = static_cast<std::size_t>(cli.get_uint("trials", 50));
    // 0 = one worker per hardware thread; any value is bit-identical.
    mc.threads = cli.get_threads();
    MonteCarloRunner runner(*bench, *model, mc);
    std::cout << bench->name() << ": fault-free kernel = "
              << runner.golden_run().kernel_cycles << " cycles\n";

    const PointSummary s = runner.run_point(point);
    std::cout << "\nAt " << fmt_fixed(point.freq_mhz, 1) << " MHz, "
              << fmt_fixed(point.vdd, 2) << " V, sigma = "
              << fmt_fixed(point.noise.sigma_mv, 0) << " mV ("
              << mc.trials << " trials):\n"
              << "  finished : " << fmt_pct(s.finished_frac()) << "\n"
              << "  correct  : " << fmt_pct(s.correct_frac()) << "\n"
              << "  FI rate  : " << fmt_sci(s.fi_rate, 3) << " per kCycle\n"
              << "  output error (" << bench->error_unit()
              << ", finished runs): " << fmt_sci(s.mean_error, 4) << "\n";
    return 0;
}
