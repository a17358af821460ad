// Adaptive sampling walkthrough: spend Monte-Carlo trials where the
// statistics still need them, then find the point of first failure by
// bisection instead of a dense frequency grid.
//
//   $ ./examples/adaptive_sampling [--vdd 0.7] [--sigma 10]
//                                  [--ci-target 0.08] [--threads 0]
#include <iostream>
#include <stdexcept>

#include "sfi/sfi.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    const Cli cli(argc, argv);

    // Flags first: a malformed or out-of-range value stops here, before
    // anything is built or printed.
    OperatingPoint base;
    try {
        base.vdd = cli.get_positive_double("vdd", 0.7);
        base.noise.sigma_mv = cli.get_non_negative_double("sigma", 10.0);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    CoreModelConfig config;
    config.cdf_cache_path = "sfi_cdf_cache.bin";
    CharacterizedCore core(config);

    const double fsta = core.sta_fmax_mhz(base.vdd);
    std::cout << "STA limit at " << fmt_fixed(base.vdd, 2)
              << " V: " << fmt_fixed(fsta, 1) << " MHz\n\n";

    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = core.make_model_c();
    McConfig mc;
    mc.trials = 40;  // the fixed-N budget an adaptive run competes with
    mc.threads = cli.get_threads();
    MonteCarloRunner runner(*bench, *model, mc);

    // 1. One operating point under a target-CI policy: batches run until
    //    the Wilson intervals on finished/correct are tighter than the
    //    target (or the ceiling hits). Decided points stop early.
    sampling::SamplingPolicy policy = sampling::SamplingPolicy::target_ci(
        cli.get_positive_double("ci-target", 0.08),
        /*max_trials=*/400, /*batch_size=*/20);
    for (const double factor : {0.7, 1.02}) {
        OperatingPoint point = base;
        point.freq_mhz = factor * fsta;
        const auto result = run_point_sequential(runner, point, policy);
        std::cout << fmt_fixed(point.freq_mhz, 1) << " MHz: correct "
                  << fmt_pct(result.summary.correct_frac()) << " after "
                  << result.summary.trials << " trials ("
                  << result.batches << " batches, "
                  << (result.converged ? "CI target met" : "ceiling hit")
                  << ", half-width "
                  << fmt_fixed(sampling::max_half_width(result.summary), 3)
                  << ")\n";
    }

    // 2. PoFF by bisection: O(log) probes around the failure cliff
    //    instead of a dense grid, each probe sampled under the same
    //    policy. The true PoFF lies inside (lo, hi].
    sampling::PoffSearchConfig search;
    search.lo_mhz = 0.8 * fsta;
    search.hi_mhz = 1.1 * fsta;
    search.tol_mhz = 2.0;
    const auto poff = find_poff_bisection(runner, base, search, policy);
    if (poff.bracketed)
        std::cout << "\nPoFF in (" << fmt_fixed(poff.lo_mhz, 1) << ", "
                  << fmt_fixed(poff.hi_mhz, 1) << "] MHz after "
                  << poff.probes << " probes / " << poff.trials_spent
                  << " trials (pass-side residual risk "
                  << fmt_fixed(poff.pass_risk, 3) << ")\n"
                  << "gain over STA: "
                  << fmt_fixed(poff_gain_percent(poff.hi_mhz, fsta), 1)
                  << "%\n";
    else
        std::cout << "\nPoFF not bracketed in ["
                  << fmt_fixed(search.lo_mhz, 1) << ", "
                  << fmt_fixed(search.hi_mhz, 1) << "] MHz\n";
    return 0;
}
