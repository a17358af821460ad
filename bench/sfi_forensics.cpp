// Fault-forensics driver: runs models A / B / B+ / C (plus a razor-
// decorated B) at a fig1-style operating point just past model B's
// first-fault threshold, re-runs every trial under the forensic probe and
// reconciles the per-trial outcome taxonomy against the point summaries:
//
//   hang                       == trials - finished
//   sdc                        == finished - correct
//   masked + latent + detected == correct
//   (non-razor) sum(records per trial) == sum(FiStats.injections)
//   (razor)     probe detected+escaped == FiStats.injections per trial
//
// Exits 1 on any mismatch — CI runs it as the taxonomy acceptance gate —
// and writes the ForensicSink artifacts (records.bin, forensics.json,
// CSV tables) so the record stream can be byte-compared across thread
// counts (--threads N changes nothing; see src/fi/forensics.hpp).
#include "bench_common.hpp"

#include <cstdio>

namespace {

struct VariantResult {
    sfi::PointSummary summary;
    sfi::ForensicPointInfo info;  ///< the sink's tallies of the point
    bool ok = true;
};

}  // namespace

int main(int argc, char** argv) {
    using namespace sfi;
    bench::Context ctx(argc, argv, /*default_trials=*/100, {"benchmark"});
    const BenchmarkId bench_id =
        bench::checked_benchmark(ctx.cli.get("benchmark", "median"));
    const std::string forensics_dir =
        ctx.forensics_dir.empty() ? "bench_forensics" : ctx.forensics_dir;

    const CharacterizedCore core = ctx.make_core();

    // Fig1-style point: just past model B's deterministic first-fault
    // threshold at 0.7 V, so every model injects but trials still finish.
    OperatingPoint base;
    base.vdd = 0.7;
    {
        auto model_b = core.make_model_b();
        model_b->set_operating_point(base);
        base.freq_mhz = model_b->first_fault_frequency_mhz() + 1.0;
    }
    std::printf("[point] f = %.1f MHz, Vdd = %.2f V (%s)\n\n", base.freq_mhz,
                base.vdd, benchmark_name(bench_id));

    struct Variant {
        std::string name;
        std::unique_ptr<FaultModel> model;
        double sigma_mv = 0.0;
        bool razor = false;
    };
    std::vector<Variant> variants;
    variants.push_back({"A", core.make_model_a(1e-5), 0.0, false});
    variants.push_back({"B", core.make_model_b(), 0.0, false});
    variants.push_back({"B+", core.make_model_b(), 10.0, false});
    variants.push_back({"C", core.make_model_c(), 0.0, false});
    // Full coverage: every corruption replays, so trials finish correct
    // and classify Detected — the taxonomy's detection path; a partial
    // coverage (0.9) variant exercises escapes feeding Hang/SDC instead.
    variants.push_back({"razor(B)",
                        std::make_unique<DetectionModel>(
                            core.make_model_b(), RazorConfig{1.0, 11}),
                        0.0, true});
    variants.push_back({"razor(B,.9)",
                        std::make_unique<DetectionModel>(
                            core.make_model_b(), RazorConfig{0.9, 11}),
                        0.0, true});

    const auto bench_app = make_benchmark(bench_id);
    ForensicSink sink;
    double forensic_s = 0.0;
    std::vector<VariantResult> results;
    bool all_ok = true;

    for (Variant& variant : variants) {
        OperatingPoint point = base;
        point.noise.sigma_mv = variant.sigma_mv;

        MonteCarloRunner mc(*bench_app, *variant.model, ctx.mc_config());

        // Summary via the ordinary path, then the forensic re-run of the
        // same trial indices — the pair the taxonomy must reconcile with.
        VariantResult res;
        res.summary = mc.run_point(point);

        const perf::Stopwatch forensic_watch;
        std::vector<TrialForensics> fxs = mc.run_forensics(point, ctx.trials);
        forensic_s += forensic_watch.seconds();

        std::uint64_t fi_injections = 0;
        for (const TrialForensics& fx : fxs) {
            fi_injections += fx.outcome.fi.injections;
            if (variant.razor &&
                fx.razor_detected + fx.razor_escaped !=
                    fx.outcome.fi.injections) {
                std::printf("  MISMATCH [%s]: razor verdicts %llu != "
                            "FiStats injections %llu\n",
                            variant.name.c_str(),
                            static_cast<unsigned long long>(
                                fx.razor_detected + fx.razor_escaped),
                            static_cast<unsigned long long>(
                                fx.outcome.fi.injections));
                res.ok = false;
            }
        }
        res.info = sink.add_point(variant.name, variant.name,
                                  benchmark_name(bench_id), point,
                                  std::move(fxs));

        const ForensicPointInfo& info = res.info;
        const auto cls = [&info](OutcomeClass c) {
            return info.outcomes[static_cast<std::size_t>(c)];
        };
        const auto check = [&res](bool cond, const char* what) {
            if (cond) return;
            std::printf("  MISMATCH [%s]: %s\n", res.info.model.c_str(), what);
            res.ok = false;
        };
        check(info.finished == res.summary.finished_count,
              "forensic finished != summary finished");
        check(info.correct == res.summary.correct_count,
              "forensic correct != summary correct");
        check(cls(OutcomeClass::Hang) ==
                  res.summary.trials - res.summary.finished_count,
              "hang != trials - finished");
        check(cls(OutcomeClass::SDC) ==
                  res.summary.finished_count - res.summary.correct_count,
              "sdc != finished - correct");
        check(cls(OutcomeClass::Masked) + cls(OutcomeClass::LatentCorrupt) +
                      cls(OutcomeClass::Detected) ==
                  res.summary.correct_count,
              "masked + latent + detected != correct");
        if (!variant.razor)
            check(info.injections == fi_injections,
                  "record count != FiStats injections");
        if (!variant.razor)
            check(info.razor_detected == 0 && info.razor_escaped == 0,
                  "razor counters nonzero without a razor stage");

        all_ok = all_ok && res.ok;
        results.push_back(std::move(res));
    }

    std::printf("%-11s %7s %9s %8s %7s %7s %5s %9s %8s %9s\n", "model",
                "trials", "finished", "correct", "masked", "latent", "sdc",
                "hang", "detected", "records");
    for (const VariantResult& res : results) {
        const auto cls = [&res](OutcomeClass c) {
            return res.info.outcomes[static_cast<std::size_t>(c)];
        };
        std::printf("%-11s %7zu %9zu %8zu %7llu %7llu %5llu %9llu %8llu %9llu\n",
                    res.info.model.c_str(), res.summary.trials,
                    res.summary.finished_count, res.summary.correct_count,
                    static_cast<unsigned long long>(cls(OutcomeClass::Masked)),
                    static_cast<unsigned long long>(
                        cls(OutcomeClass::LatentCorrupt)),
                    static_cast<unsigned long long>(cls(OutcomeClass::SDC)),
                    static_cast<unsigned long long>(cls(OutcomeClass::Hang)),
                    static_cast<unsigned long long>(
                        cls(OutcomeClass::Detected)),
                    static_cast<unsigned long long>(res.info.injections));
    }

    sink.write_artifacts(forensics_dir);
    std::printf("\n[forensics] %llu records over %llu trials -> %s "
                "(forensics phase: %.2f s)\n",
                static_cast<unsigned long long>(sink.records().size()),
                static_cast<unsigned long long>(sink.trials_recorded()),
                forensics_dir.c_str(), forensic_s);
    std::printf("[reconciliation] %s\n", all_ok ? "OK" : "FAILED");
    ctx.footer();
    return all_ok ? 0 : 1;
}
