// Declarative experiment campaigns with a persistent point store.
//
// Describes a two-panel frequency study of the median benchmark as a
// CampaignSpec, runs it twice through the campaign engine, and shows the
// second run being served entirely from the point store — the mechanism
// that makes the paper-figure benches incremental and interruptible
// (docs/ARCHITECTURE.md, "The campaign engine").
//
//   sfi_example_campaign_quickstart [--trials N] [--threads N]
#include <iostream>

#include "sfi/sfi.hpp"

int main(int argc, char** argv) {
    using namespace sfi;
    const Cli cli(argc, argv);

    campaign::CampaignSpec spec;
    spec.name = "quickstart";
    spec.core.cdf_cache_path = "sfi_cdf_cache.bin";  // reuse characterization
    spec.trials = static_cast<std::size_t>(cli.get_uint("trials", 30));
    spec.seed = 1;

    // Panel 1: model C across the transition region (grid resolved
    // against the core's STA limit at run time).
    campaign::PanelSpec transition;
    transition.name = "quickstart_model_c";
    transition.title = "median under model C (Vdd = 0.7 V, sigma = 10 mV)";
    transition.kernel = campaign::KernelSpec::bench(BenchmarkId::Median);
    transition.model = campaign::ModelSpec::c();
    transition.base.vdd = 0.7;
    transition.base.noise.sigma_mv = 10.0;
    transition.grid = campaign::GridSpec::sta_linspace(0.98, 1.25, 8);
    spec.panels.push_back(transition);

    // Panel 2: the model B+ hard threshold for contrast (grid anchored
    // at the model's first-fault frequency).
    campaign::PanelSpec threshold;
    threshold.name = "quickstart_model_b";
    threshold.title = "median under model B+ around its threshold";
    threshold.kernel = campaign::KernelSpec::bench(BenchmarkId::Median);
    threshold.model = campaign::ModelSpec::b();
    threshold.base.vdd = 0.7;
    threshold.base.noise.sigma_mv = 10.0;
    threshold.grid = campaign::GridSpec::first_fault_window(1.0, 2.0, 1.0);
    spec.panels.push_back(threshold);

    campaign::RunOptions options;
    options.store_path = "quickstart_points.bin";
    options.csv_dir = "quickstart_csv";
    options.threads = cli.get_threads();
    options.console = &std::cout;

    std::cout << "first run (computes every point):\n\n";
    campaign::CampaignRunner cold(spec, options);
    cold.run();

    std::cout << "\nsecond run (same spec, warm store):\n\n";
    campaign::CampaignRunner warm(spec, options);
    const campaign::CampaignResult result = warm.run();

    std::cout << "\nthe warm run recomputed " << result.store_misses
              << " points — every summary came from " << options.store_path
              << ",\nand its CSVs in " << options.csv_dir
              << "/ are byte-identical to the first run's (the resume "
                 "guarantee).\n";
    return 0;
}
