// Mitigation comparison campaign (docs/MITIGATIONS.md, EXPERIMENTS.md
// "Mitigation comparison"): CWC weight-check detection vs Razor replay vs
// the bare fault models A/B+/C on the app kernels, as a fig1-style
// frequency sweep around the STA limit at 0.7 V with 10 mV supply noise.
//
// Per (kernel, detector) panel the driver emits the ordinary sweep CSV
// via the campaign engine (point store, resume, forensics all apply),
// then joins the per-point detection counters from the forensic pass with
// the sweeps into cwc_compare.csv — finished/correct/FI rate plus the
// throughput/energy economics of each detector, priced by its
// DetectorCost (src/fi/mitigation.hpp, razor_cost / cwc_cost):
//
//   effective_mhz = (f / (1 + latency_frac)) * K / (K + detections * penalty)
//   power_uw      = PowerModel(vdd, f) * (1 + energy_frac)
//
// with K the golden kernel cycle count and detections the mean per
// forensic trial. cwc_poff.csv holds the per-detector PoFF and STA gain, and
// cwc_coverage.csv the exact a-priori CWC coverage table that
// scripts/check_cwc.py re-derives by brute force.
//
// Extra flags:
//   --benchmark NAME|all  kernel selection (default median)
//   --mitigation M        detector panels to run next to the bare models:
//                         "all" (default), "razor", "cwc", "none"
//   --points N            frequencies per sweep (default 7)
//   --block-bits K        CWC protected-block width (default 8)
//
// Expected qualitative result: CWC holds throughput at high FI rates
// (2-cycle recovery, no replay storm) but its balanced-flip coverage
// holes let some corruptions escape where Razor's flat coverage catches
// them — coverage holes traded against zero replay cycles.
#include "bench_common.hpp"

namespace {

using namespace sfi;

struct DetectorSpec {
    std::string tag;  ///< panel-name component
    campaign::ModelSpec model;
};

/// The panel's detector price; a bare model costs nothing.
DetectorCost cost_of(const campaign::ModelSpec& model) {
    switch (model.mitigation) {
        case campaign::ModelSpec::Mitigation::Razor:
            return razor_cost(
                RazorConfig{model.razor_coverage, model.razor_replay_cycles});
        case campaign::ModelSpec::Mitigation::Cwc:
            return cwc_cost(
                CwcConfig{model.cwc_block_bits, model.cwc_recovery_cycles});
        case campaign::ModelSpec::Mitigation::None:
            break;
    }
    return {};
}

struct PointRow {
    double freq_mhz = 0.0;
    double finished = 0.0;
    double correct = 0.0;
    double fi_rate = 0.0;
    std::size_t trials = 0;
    std::uint64_t probe_trials = 0;
    std::uint64_t detected = 0;
    std::uint64_t escaped = 0;
    double effective_mhz = 0.0;
    double power_uw = 0.0;
};

std::string panel_name(const std::string& kernel, const std::string& tag) {
    return "cwc_" + kernel + "_" + tag;
}

}  // namespace

int main(int argc, char** argv) {
    bench::Context ctx(argc, argv, /*default_trials=*/40,
                       {"benchmark", "mitigation", "points", "block-bits"});

    const std::string bench_flag = ctx.cli.get("benchmark", "median");
    std::vector<BenchmarkId> kernels;
    if (bench_flag == "all")
        for (const BenchmarkId id : all_benchmarks()) kernels.push_back(id);
    else
        kernels.push_back(bench::checked_benchmark(bench_flag));

    const std::string mitigation = ctx.cli.get("mitigation", "all");
    if (mitigation != "all" && mitigation != "razor" && mitigation != "cwc" &&
        mitigation != "none") {
        std::cerr << "error: --mitigation must be one of all, razor, cwc, "
                     "none (got \"" << mitigation << "\")\n";
        return 2;
    }
    const std::size_t points =
        static_cast<std::size_t>(ctx.checked_uint("points", 7));
    const unsigned block_bits =
        static_cast<unsigned>(ctx.checked_uint("block-bits", 8));
    CwcCode code;
    try {
        code = CwcCode::for_block_bits(block_bits);
    } catch (const std::exception& e) {
        std::cerr << "error: --block-bits: " << e.what() << "\n";
        return 2;
    }

    // The detector roster: the three bare models anchor the comparison,
    // the decorated model-C panels carry the mitigation trade-off.
    std::vector<DetectorSpec> detectors = {
        {"bareA", campaign::ModelSpec::a(1e-4)},
        {"bareB", campaign::ModelSpec::b()},
        {"bareC", campaign::ModelSpec::c()},
    };
    if (mitigation == "all" || mitigation == "razor")
        detectors.push_back({"razor", campaign::ModelSpec::c().with_razor()});
    if (mitigation == "all" || mitigation == "cwc")
        detectors.push_back({"cwc" + std::to_string(code.k),
                             campaign::ModelSpec::c().with_cwc(code.k)});

    std::cout << "Mitigation comparison: CWC(" << code.k << "," << code.n
              << "," << code.w << ") vs Razor vs bare A/B+/C\n\n";
    CharacterizedCore core = ctx.make_core();

    OperatingPoint base;
    base.vdd = 0.7;
    base.noise.sigma_mv = 10.0;

    campaign::CampaignSpec spec;
    spec.name = "cwc_compare";
    spec.core = ctx.core_config;
    spec.trials = ctx.trials;
    spec.seed = ctx.seed;
    ctx.apply_to(spec);
    std::uint64_t offset = 0;
    for (const BenchmarkId kernel : kernels)
        for (const DetectorSpec& detector : detectors) {
            campaign::PanelSpec panel;
            panel.name = panel_name(benchmark_name(kernel), detector.tag);
            panel.title = panel.name;
            panel.kernel = campaign::KernelSpec::bench(kernel);
            panel.model = detector.model;
            panel.base = base;
            panel.grid = campaign::GridSpec::sta_linspace(0.94, 1.12, points);
            panel.seed_offset = offset++;
            spec.panels.push_back(std::move(panel));
        }

    // The detection counters come from the forensic pass, so it is on by
    // default for this bench (into the CSV directory unless --forensics
    // chose a destination). PointSummary stays the frozen store payload.
    campaign::RunOptions options = ctx.campaign_options();
    if (options.forensics_dir.empty())
        options.forensics_dir = ctx.csv_path("cwc_forensics");

    const std::string forensics_dir = options.forensics_dir;
    campaign::CampaignRunner runner(spec, std::move(options));
    const campaign::CampaignResult result = runner.run();
    if (!result.completed) {
        ctx.footer();
        return 1;
    }

    // Join: sweeps (in-memory) x forensic per-point counters (artifact),
    // keyed by panel name + point order.
    std::vector<ForensicPointRow> forensic_rows;
    if (!forensics_dir.empty())
        forensic_rows = read_forensic_points(forensics_dir +
                                             "/forensics_points.csv");

    const PowerModel power;
    const double fsta = core.sta_fmax_mhz(base.vdd);

    CsvWriter compare(ctx.csv_path("cwc_compare.csv").empty()
                          ? "cwc_compare.csv"
                          : ctx.csv_path("cwc_compare.csv"));
    compare.header({"kernel", "detector", "freq_mhz", "vdd", "sigma_mv",
                    "finished", "correct", "fi_per_kcycle", "trials",
                    "probe_trials", "detected", "escaped",
                    "detected_per_trial", "effective_mhz", "power_uw",
                    "uw_per_mhz"});
    CsvWriter poff_csv(ctx.csv_path("cwc_poff.csv").empty()
                           ? "cwc_poff.csv"
                           : ctx.csv_path("cwc_poff.csv"));
    poff_csv.header({"kernel", "detector", "poff_mhz", "sta_mhz",
                     "gain_pct"});

    for (const BenchmarkId kernel : kernels) {
        const std::string kernel_name = benchmark_name(kernel);
        // Golden kernel length for the cycle-dilation model: one clean
        // run, no faults (model A at probability zero).
        const auto bench_app = make_benchmark(kernel);
        const auto clean = core.make_model_a(0.0);
        McConfig golden_config = ctx.mc_config();
        golden_config.trials = 1;
        const MonteCarloRunner golden(*bench_app, *clean, golden_config);
        const std::uint64_t kernel_cycles = golden.golden_run().kernel_cycles;

        std::cout << kernel_name << " (kernel " << kernel_cycles
                  << " cycles, STA " << fmt_fixed(fsta, 1) << " MHz):\n";
        TextTable table({"detector", "PoFF [MHz]", "gain %",
                         "eff. MHz @ top", "det/trial @ top",
                         "uW/MHz @ top"});

        for (const DetectorSpec& detector : detectors) {
            const std::string name = panel_name(kernel_name, detector.tag);
            const campaign::PanelResult& panel = result.panel(name);
            const DetectorCost cost = cost_of(detector.model);

            // Forensic rows for this panel, in point order.
            std::vector<const ForensicPointRow*> probe;
            for (const ForensicPointRow& row : forensic_rows)
                if (row.panel == name) probe.push_back(&row);

            std::vector<PointRow> rows;
            for (std::size_t i = 0; i < panel.sweep.size(); ++i) {
                const PointSummary& summary = panel.sweep[i];
                PointRow row;
                row.freq_mhz = summary.point.freq_mhz;
                row.finished = summary.finished_frac();
                row.correct = summary.correct_frac();
                row.fi_rate = summary.fi_rate;
                row.trials = summary.trials;
                if (i < probe.size()) {
                    row.probe_trials = probe[i]->trials;
                    row.detected = probe[i]->razor_detected;
                    row.escaped = probe[i]->razor_escaped;
                }
                const double per_trial =
                    row.probe_trials
                        ? static_cast<double>(row.detected) /
                              static_cast<double>(row.probe_trials)
                        : 0.0;
                row.effective_mhz =
                    cost.effective_mhz(row.freq_mhz, kernel_cycles, per_trial);
                row.power_uw = cost.power_uw(
                    power.core_power_uw(summary.point.vdd, row.freq_mhz));
                rows.push_back(row);

                compare.cell(kernel_name)
                    .cell(detector.tag)
                    .cell(row.freq_mhz)
                    .cell(summary.point.vdd)
                    .cell(summary.point.noise.sigma_mv)
                    .cell(row.finished)
                    .cell(row.correct)
                    .cell(row.fi_rate)
                    .cell(static_cast<std::uint64_t>(row.trials))
                    .cell(row.probe_trials)
                    .cell(row.detected)
                    .cell(row.escaped)
                    .cell(per_trial)
                    .cell(row.effective_mhz)
                    .cell(row.power_uw)
                    .cell(row.effective_mhz > 0.0
                              ? row.power_uw / row.effective_mhz
                              : 0.0);
                compare.end_row();
            }

            const auto poff = find_poff_mhz(panel.sweep);
            poff_csv.cell(kernel_name).cell(detector.tag);
            if (poff)
                poff_csv.cell(*poff).cell(fsta).cell(
                    poff_gain_percent(*poff, fsta));
            else
                poff_csv.cell(std::string()).cell(fsta).cell(std::string());
            poff_csv.end_row();

            const PointRow* top = rows.empty() ? nullptr : &rows.back();
            table.add_row(
                {detector.tag,
                 poff ? fmt_fixed(*poff, 1) : std::string("> grid"),
                 poff ? fmt_fixed(poff_gain_percent(*poff, fsta), 1)
                      : std::string("n/a"),
                 top ? fmt_fixed(top->effective_mhz, 1) : "n/a",
                 top && top->probe_trials
                     ? fmt_fixed(static_cast<double>(top->detected) /
                                     static_cast<double>(top->probe_trials),
                                 2)
                     : "n/a",
                 top && top->effective_mhz > 0.0
                     ? fmt_fixed(top->power_uw / top->effective_mhz, 2)
                     : "n/a"});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    compare.close();
    poff_csv.close();

    // The exact a-priori coverage table (4-bit operand enumeration keeps
    // the brute-force CI check fast) — scripts/check_cwc.py validates it.
    const std::string coverage_path = ctx.csv_path("cwc_coverage.csv").empty()
                                          ? "cwc_coverage.csv"
                                          : ctx.csv_path("cwc_coverage.csv");
    write_cwc_coverage_csv(coverage_path, code, /*operand_bits=*/4);
    std::cout << "coverage table: " << coverage_path << "\n";

    ctx.footer();
    return 0;
}
