#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "fi/cwc.hpp"
#include "fi/mitigation.hpp"
#include "isa/isa.hpp"
#include "mc/report.hpp"
#include "mc/sweep.hpp"
#include "perf/json_writer.hpp"
#include "power/power_model.hpp"
#include "sampling/search.hpp"
#include "timing/dta.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace sfi::campaign {

namespace {

std::string hex64(std::uint64_t value) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

const char* model_kind_name(ModelSpec::Kind kind) {
    switch (kind) {
        case ModelSpec::Kind::A: return "A";
        case ModelSpec::Kind::B: return "B";
        case ModelSpec::Kind::C: return "C";
    }
    return "unknown";
}

/// Model label shared by the ledger panel payload and the forensic point
/// registry: the bare kind ("A", "B", "B+", "C") wrapped in its
/// mitigation decorator ("razor(C)", "cwc8(B+)") when the panel has one.
std::string model_label(const PanelSpec& panel, const OperatingPoint& base) {
    const std::string bare =
        panel.model.kind == ModelSpec::Kind::B && base.noise.sigma_mv > 0.0
            ? "B+"
            : model_kind_name(panel.model.kind);
    switch (panel.model.mitigation) {
        case ModelSpec::Mitigation::Razor:
            return "razor(" + bare + ")";
        case ModelSpec::Mitigation::Cwc:
            return "cwc" + std::to_string(panel.model.cwc_block_bits) + "(" +
                   bare + ")";
        case ModelSpec::Mitigation::None: break;
    }
    return bare;
}

const char* panel_kind_name(const PanelSpec& panel) {
    if (panel.poff) return "poff";
    return panel.kernel.kind == KernelSpec::Kind::Benchmark ? "mc"
                                                            : "opstream";
}

/// Grid resolution shared by MC and CDF panels. `first_fault` is only
/// invoked for FirstFaultWindow grids.
std::vector<double> resolve(const GridSpec& grid, const CharacterizedCore& core,
                            double base_vdd,
                            const std::function<double()>& first_fault) {
    switch (grid.kind) {
        case GridSpec::Kind::Explicit:
            return grid.values;
        case GridSpec::Kind::Linspace:
            return linspace(grid.lo, grid.hi, grid.points);
        case GridSpec::Kind::StaLinspace: {
            const double fsta = core.sta_fmax_mhz(base_vdd);
            return linspace(grid.lo * fsta, grid.hi * fsta, grid.points);
        }
        case GridSpec::Kind::FirstFaultWindow: {
            if (!first_fault)
                throw std::invalid_argument(
                    "GridSpec: FirstFaultWindow grid needs a model with a "
                    "first-fault frequency (model B/B+)");
            const double f0 = first_fault();
            return arange(f0 - grid.below, f0 + grid.above, grid.step);
        }
    }
    throw std::logic_error("GridSpec: unknown grid kind");
}

/// Console report of one completed Monte-Carlo panel (RunOptions::console).
/// `describe_core` adds the core's f_STA / dynamic-fmax line, printed for
/// the first panel that runs on each distinct core.
void print_panel(std::ostream& os, const PanelSpec& panel,
                 const CharacterizedCore& core, const OperatingPoint& base,
                 const PanelResult& result, bool describe_core) {
    os << (panel.title.empty() ? panel.name : panel.title) << "\n";
    const double fsta = core.sta_fmax_mhz(base.vdd);
    if (describe_core) {
        os << "[core] f_STA(" << fmt_fixed(base.vdd, 2)
           << " V) = " << fmt_fixed(fsta, 1) << " MHz, dynamic fmax";
        for (const ExClass cls :
             {ExClass::Add, ExClass::Sub, ExClass::Cmp, ExClass::Mul})
            os << " " << ex_class_name(cls) << " "
               << fmt_fixed(core.dynamic_fmax_mhz(cls, base.vdd), 1);
        os << " MHz\n";
    }
    // Model B+'s hard threshold at the same point: the panel's own
    // threshold under model B, the contrast to model C's transition.
    if (panel.model.kind != ModelSpec::Kind::A) {
        const double f0 = first_fault_mhz(core, ModelSpec::b(), base);
        os << "model " << (base.noise.sigma_mv > 0.0 ? "B+" : "B")
           << " first fault at the base point: " << fmt_fixed(f0, 1)
           << " MHz (" << fmt_fixed(100.0 * (f0 / fsta - 1.0), 1)
           << "% vs STA)\n";
    }
    print_sweep(os, "", result.sweep, panel.error_label,
                panel.axis == Axis::Voltage);
    if (result.poff) {
        if (result.poff->bracketed)
            os << "PoFF in (" << fmt_fixed(result.poff->lo_mhz, 1) << ", "
               << fmt_fixed(result.poff->hi_mhz, 1) << "] MHz (bisection, "
               << result.poff->probes << " probes, " << result.trials_spent
               << " trials), gain "
               << fmt_fixed(poff_gain_percent(result.poff->hi_mhz, fsta), 1)
               << "% over STA (" << fmt_fixed(fsta, 1) << " MHz)\n";
        else
            os << "PoFF not bracketed in [" << fmt_fixed(result.poff->lo_mhz, 1)
               << ", " << fmt_fixed(result.poff->hi_mhz, 1) << "] MHz\n";
    } else if (panel.axis == Axis::Frequency) {
        if (const auto poff = find_poff_mhz(result.sweep))
            os << "PoFF = " << fmt_fixed(*poff, 1) << " MHz, gain "
               << fmt_fixed(poff_gain_percent(*poff, fsta), 1)
               << "% over STA (" << fmt_fixed(fsta, 1) << " MHz)\n";
        else
            os << "PoFF above the swept range\n";
    } else {
        // Voltage sweep at fixed frequency (Fig. 7): the highest Vdd that
        // is not fully correct, and the power it saves over the base Vdd.
        std::optional<double> failing_vdd;
        for (const PointSummary& p : result.sweep)
            if (p.correct_count != p.trials &&
                (!failing_vdd || p.point.vdd > *failing_vdd))
                failing_vdd = p.point.vdd;
        if (failing_vdd)
            os << "first-failure voltage ~" << fmt_fixed(*failing_vdd, 3)
               << " V ("
               << fmt_fixed(100.0 * PowerModel().normalized_power(*failing_vdd,
                                                                  base.vdd),
                            1)
               << "% of the power at " << fmt_fixed(base.vdd, 2) << " V)\n";
        else
            os << "fully correct across the swept Vdd range\n";
    }
    os << "\n";
}

}  // namespace

double first_fault_mhz(const CharacterizedCore& core,
                       const ModelSpec& model_spec, const OperatingPoint& base) {
    if (model_spec.kind != ModelSpec::Kind::B)
        throw std::invalid_argument(
            "first_fault_mhz: only model B/B+ has a deterministic "
            "first-fault frequency");
    auto model = core.make_model_b();
    model->set_operating_point(base);
    return model->first_fault_frequency_mhz();
}

const PanelResult& CampaignResult::panel(const std::string& name) const {
    for (const PanelResult& p : panels)
        if (p.name == name) return p;
    throw std::out_of_range("CampaignResult: no panel named " + name);
}

bool CampaignRunner::ConditionedStoreKey::operator<(
    const ConditionedStoreKey& other) const {
    if (core_fingerprint != other.core_fingerprint)
        return core_fingerprint < other.core_fingerprint;
    if (cls != other.cls) return cls < other.cls;
    return operand_bits < other.operand_bits;
}

CampaignRunner::CampaignRunner(CampaignSpec spec, RunOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      store_(options_.store_path, options_.ledger) {}

CampaignRunner::~CampaignRunner() = default;

const CharacterizedCore& CampaignRunner::core() {
    const std::uint64_t fp = core_config_fingerprint(spec_.core);
    auto it = cores_.find(fp);
    if (it == cores_.end())
        it = cores_.emplace(fp, std::make_unique<CharacterizedCore>(spec_.core))
                 .first;
    return *it->second;
}

const CharacterizedCore& CampaignRunner::core_for(const PanelSpec& panel) {
    if (!panel.core_override) return core();
    const std::uint64_t fp = core_config_fingerprint(*panel.core_override);
    auto it = cores_.find(fp);
    if (it == cores_.end())
        it = cores_
                 .emplace(fp, std::make_unique<CharacterizedCore>(
                                  *panel.core_override))
                 .first;
    return *it->second;
}

CampaignRunner::ResolvedPanel CampaignRunner::resolve_panel(
    const PanelSpec& panel) {
    const CharacterizedCore& panel_core = core_for(panel);
    ResolvedPanel resolved{panel.base, {}};
    if (panel.base_freq_sta_factor)
        resolved.base.freq_mhz = *panel.base_freq_sta_factor *
                                 panel_core.sta_fmax_mhz(resolved.base.vdd);
    // PoFF-search panels pick their own probe frequencies; the (ignored)
    // grid is not resolved, so e.g. a leftover FirstFaultWindow grid on a
    // model-C panel cannot make the search throw.
    if (!panel.poff)
        resolved.axis_values =
            resolve(panel.grid, panel_core, resolved.base.vdd, [&] {
                return first_fault_mhz(panel_core, panel.model, resolved.base);
            });
    return resolved;
}

std::vector<double> CampaignRunner::resolve_grid(const PanelSpec& panel) {
    return resolve_panel(panel).axis_values;
}

std::shared_ptr<const TimingErrorCdfs> CampaignRunner::conditioned_store(
    const PanelSpec& panel, const CharacterizedCore& panel_core) {
    const ConditionedStoreKey key{panel_core.fingerprint(), panel.kernel.cls,
                                  *panel.dta_operand_bits};
    auto it = conditioned_.find(key);
    if (it != conditioned_.end()) return it->second;

    // Operand-profile-conditioned characterization of just this class
    // (Fig. 4): re-run DTA with the panel's operand width.
    DtaConfig dta = panel_core.config().dta;
    dta.operand_bits = *panel.dta_operand_bits;
    DtaResult result;
    result.setup_ps = panel_core.timing().setup_ps();
    result.cycles = dta.cycles;
    result.classes = {run_dta_class(panel_core.alu(), panel_core.timing(),
                                    panel.kernel.cls, dta)};
    result.worst_arrival_ps = result.classes[0].max_arrival_ps;
    auto store =
        std::make_shared<TimingErrorCdfs>(TimingErrorCdfs::from_dta(result));
    conditioned_.emplace(key, store);
    return store;
}

std::unique_ptr<FaultModel> CampaignRunner::make_model(
    const PanelSpec& panel, const CharacterizedCore& panel_core) {
    std::unique_ptr<FaultModel> model;
    switch (panel.model.kind) {
        case ModelSpec::Kind::A:
            model = panel_core.make_model_a(panel.model.flip_probability);
            break;
        case ModelSpec::Kind::B:
            model = panel_core.make_model_b();
            break;
        case ModelSpec::Kind::C:
            if (panel.dta_operand_bits)
                model = std::make_unique<ModelC>(
                    conditioned_store(panel, panel_core),
                    panel_core.lib().fit());
            else
                model = panel_core.make_model_c();
            break;
    }
    // The factory paths stamp the core's sampling mode already (memoized
    // no-op here); the directly-constructed conditioned ModelC does not.
    // Mode and policy land on the inner model BEFORE a decorator wraps it:
    // set_policy is non-virtual, so it must reach the model that injects.
    model->set_sampling_mode(panel_core.config().fault_sampling);
    model->set_policy(panel.model.policy);
    switch (panel.model.mitigation) {
        case ModelSpec::Mitigation::None:
            break;
        case ModelSpec::Mitigation::Razor:
            model = std::make_unique<ErrorDetectionModel>(
                std::move(model),
                RazorConfig{panel.model.razor_coverage,
                            panel.model.razor_replay_cycles});
            model->set_sampling_mode(panel_core.config().fault_sampling);
            break;
        case ModelSpec::Mitigation::Cwc: {
            CwcConfig config;
            config.block_bits = panel.model.cwc_block_bits;
            config.recovery_penalty_cycles = panel.model.cwc_recovery_cycles;
            model = std::make_unique<CwcDetectionModel>(std::move(model),
                                                        config);
            model->set_sampling_mode(panel_core.config().fault_sampling);
            break;
        }
    }
    return model;
}

PointSummary CampaignRunner::compute_op_stream_point(
    const PanelSpec& panel, FaultModel& model, const OperatingPoint& point) {
    const KernelSpec& kernel = panel.kernel;
    model.set_operating_point(point);
    model.reseed(spec_.seed + panel.seed_offset);
    Rng operands(kernel.operand_seed);
    const std::uint32_t mask = kernel.operand_bits >= 32
                                   ? 0xffffffffu
                                   : ((1u << kernel.operand_bits) - 1);
    PointSummary summary;
    summary.point = point;
    summary.trials = spec_.trials;
    for (std::size_t trial = 0; trial < spec_.trials; ++trial) {
        model.reset_stats();
        double sum_sq = 0.0;
        for (std::size_t i = 0; i < kernel.ops_per_trial; ++i) {
            model.on_cycle(true);
            ExEvent ev;
            ev.cls = kernel.cls;
            ev.operand_a = operands.u32() & mask;
            ev.operand_b = operands.u32() & mask;
            const std::uint32_t correct =
                alu_result(ev.cls, ev.operand_a, ev.operand_b);
            const std::uint32_t got = model.on_ex_result(ev, correct);
            const double diff =
                static_cast<double>(got) - static_cast<double>(correct);
            sum_sq += diff * diff;
        }
        // A raw instruction stream always runs to completion; "correct"
        // means every result of the trial was exact.
        ++summary.finished_count;
        if (sum_sq == 0.0) ++summary.correct_count;
        summary.error_stats.add(
            sum_sq / static_cast<double>(kernel.ops_per_trial));
        summary.fi_rate_stats.add(model.stats().fi_per_kcycle());
    }
    summary.fi_rate = summary.fi_rate_stats.mean();
    summary.mean_error = summary.error_stats.mean();
    return summary;
}

PanelResult CampaignRunner::run_panel(const PanelSpec& panel) {
    PanelResult result;
    result.name = panel.name;
    result.axis = panel.axis;

    const sampling::SamplingPolicy& policy = effective_sampling(spec_, panel);
    if (panel.kernel.kind != KernelSpec::Kind::Benchmark) {
        // OpStream trials are single ALU operations — there is no budget
        // for adaptive stopping to save, so the campaign-level policy is
        // simply not applied. An explicit per-panel request is a spec
        // error, not something to ignore.
        if (panel.sampling && panel.sampling->adaptive())
            throw std::invalid_argument(
                "PanelSpec '" + panel.name +
                "': adaptive sampling requires a Benchmark kernel");
        if (panel.poff)
            throw std::invalid_argument(
                "PanelSpec '" + panel.name +
                "': PoFF search requires a Benchmark kernel");
    }
    if (panel.poff && panel.axis != Axis::Frequency)
        throw std::invalid_argument(
            "PanelSpec '" + panel.name +
            "': PoFF search bisects frequency; axis must be Frequency");

    const CharacterizedCore& panel_core = core_for(panel);
    const std::uint64_t core_fp = panel_core.fingerprint();

    const ResolvedPanel resolved = resolve_panel(panel);
    const OperatingPoint& base = resolved.base;
    const std::vector<double>& axis_values = resolved.axis_values;

    obs::Ledger* const led = options_.ledger;
    const bool wall = led != nullptr && !led->logical();
    if (led != nullptr)
        led->begin(
            "panel",
            {{"name", panel.name},
             {"kind", panel_kind_name(panel)},
             {"model", model_label(panel, base)},
             {"kernel", panel.kernel.kind == KernelSpec::Kind::Benchmark
                            ? benchmark_name(panel.kernel.benchmark)
                            : ex_class_name(panel.kernel.cls)}});
    if (progress_)
        progress_->begin_panel(panel.name,
                               panel.poff ? 0 : axis_values.size());

    // The executors are built lazily: a fully warm panel (every point in
    // the store) skips model construction, the golden reference run and
    // any conditioned re-characterization entirely.
    std::unique_ptr<Benchmark> bench;
    std::unique_ptr<FaultModel> model;
    std::unique_ptr<MonteCarloRunner> mc;
    std::unique_ptr<sampling::BatchedExecutor> executor;
    const auto ensure_executor = [&] {
        if (model) return;
        model = make_model(panel, panel_core);
        model->set_operating_point(base);
        if (panel.kernel.kind == KernelSpec::Kind::Benchmark) {
            bench = make_benchmark(panel.kernel.benchmark);
            McConfig config;
            config.trials = spec_.trials;
            config.seed = spec_.seed + panel.seed_offset;
            config.watchdog_factor = spec_.watchdog_factor;
            config.threads = options_.threads;
            config.fault_sampling = panel_core.config().fault_sampling;
            mc = std::make_unique<MonteCarloRunner>(*bench, *model, config);
            executor = std::make_unique<sampling::BatchedExecutor>(
                *mc, options_.threads);
            executor->set_observer(options_.ledger, &metrics());
        }
    };

    // Store-backed point computation shared by the grid sweep and the
    // PoFF probes: every completed summary is keyed (with the policy
    // fingerprint when adaptive) and persisted before the next one runs.
    //
    // Ledger narrative: a "point" B/E span per point in both trace modes
    // (its payload — operating point, trial totals, stopping rule — is a
    // pure function of the spec), with the volatile details (store
    // traffic, batch spans, trajectories) only in wall mode. The stopping
    // rule is always re-derived via classify_stop so warm store hits and
    // cold computations report identical classifications.
    std::size_t point_index = 0;
    // Panel labels for the forensic point registry; mirrors the ledger's
    // panel payload above so the artifacts and traces name points alike.
    const std::string forensic_model = model_label(panel, base);
    const std::string forensic_kernel =
        panel.kernel.kind == KernelSpec::Kind::Benchmark
            ? benchmark_name(panel.kernel.benchmark)
            : ex_class_name(panel.kernel.cls);
    const auto compute_point = [&](const OperatingPoint& point) {
        const std::uint64_t key = point_key(spec_, panel, core_fp, point);
        if (led != nullptr)
            led->begin("point",
                       {{"panel", panel.name},
                        {"index", static_cast<std::uint64_t>(point_index)},
                        {"freq_mhz", point.freq_mhz},
                        {"vdd", point.vdd},
                        {"sigma_mv", point.noise.sigma_mv}});
        PointSummary summary;
        if (auto stored = store_.lookup(key)) {
            ++result.store_hits;
            metrics().add("run.store_hits");
            if (wall) led->instant("store_hit", {{"key", "0x" + hex64(key)}});
            summary = std::move(*stored);
        } else {
            if (wall) led->instant("store_miss", {{"key", "0x" + hex64(key)}});
            ensure_executor();
            summary =
                panel.kernel.kind == KernelSpec::Kind::Benchmark
                    ? sampling::run_point_sequential(*executor, point, policy,
                                                     spec_.trials)
                          .summary
                    : compute_op_stream_point(panel, *model, point);
            if (wall) led->begin("store_insert", {{"key", "0x" + hex64(key)}});
            store_.insert(key, summary);
            if (wall) led->end("store_insert");
            ++result.store_misses;
            metrics().add("run.store_misses");
        }
        // Forensic sampling pass: re-run the point's first K trials under
        // the probe. Purely additive — the summary above is already
        // final, so the trials drawn here (bit-identical re-runs of
        // indices [0, K)) cannot perturb any figure. Store hits get the
        // pass too: forensics is an observation of the point, not of
        // whether its summary was cached.
        if (forensic_sink_ != nullptr &&
            panel.kernel.kind == KernelSpec::Kind::Benchmark) {
            ensure_executor();
            const std::size_t sample =
                std::min<std::size_t>(options_.forensics_trials, summary.trials);
            const perf::ScopedPhaseTimer forensic_timer(
                mc->perf_profile(), perf::Phase::Forensics, sample);
            const std::uint32_t pid = forensic_sink_->begin_point(
                panel.name, forensic_model, forensic_kernel, point);
            for (TrialForensics& fx : executor->run_forensics(point, sample))
                forensic_sink_->add_trial(pid, fx.cls, fx.outcome.finished,
                                          fx.outcome.correct, fx.razor_detected,
                                          fx.razor_escaped,
                                          std::move(fx.records),
                                          fx.detection_latencies);
            metrics().add("run.forensic_trials", sample);
        }

        const sampling::StopRule stop =
            panel.kernel.kind == KernelSpec::Kind::Benchmark
                ? sampling::classify_stop(summary, policy)
                : sampling::StopRule::Fixed;
        ++result.stopping[static_cast<std::size_t>(stop)];
        metrics().add("campaign.points");
        metrics().add("campaign.trials_spent", summary.trials);
        if (led != nullptr)
            led->end("point",
                     {{"trials", summary.trials},
                      {"finished", summary.finished_count},
                      {"correct", summary.correct_count},
                      {"stop", sampling::stop_rule_name(stop)},
                      {"half_width",
                       sampling::max_half_width(summary, policy.z)}});
        ++point_index;
        if (progress_) {
            progress_->point_done();
            if (wall)
                led->instant(
                    "progress",
                    {{"points_done",
                      static_cast<std::uint64_t>(progress_->points_done())},
                     {"eta_s", progress_->eta_s()},
                     {"trials_per_sec", progress_->trials_per_sec()}});
        }
        return summary;
    };

    if (panel.poff) {
        sampling::PoffSearchConfig search;
        const double fsta = panel_core.sta_fmax_mhz(base.vdd);
        search.lo_mhz = panel.poff->lo_factor * fsta;
        search.hi_mhz = panel.poff->hi_factor * fsta;
        search.tol_mhz = panel.poff->tol_mhz;
        search.max_expand = panel.poff->max_expand;
        search.cancelled = options_.cancelled;
        // Probes run under `policy` (via compute_point), so their residual
        // pass_risk must be quoted at the policy's z, not the default.
        search.z = policy.z;
        // Probe verdicts are a pure function of the spec, so the search
        // emits them in both trace modes.
        search.ledger = options_.ledger;
        const sampling::PoffSearchResult found =
            sampling::find_poff_bisection(compute_point, base, search);
        result.sweep = found.sweep;
        result.completed = !found.cancelled;
        result.poff = PoffOutcome{found.bracketed, found.lo_mhz,
                                  found.hi_mhz, found.pass_risk,
                                  found.probes};
        metrics().add("campaign.probes", found.probes);
    } else {
        result.sweep.reserve(axis_values.size());
        for (const double value : axis_values) {
            if (options_.cancelled && options_.cancelled()) {
                result.completed = false;
                break;
            }
            OperatingPoint point = base;
            if (panel.axis == Axis::Frequency)
                point.freq_mhz = value;
            else
                point.vdd = value;
            result.sweep.push_back(compute_point(point));
        }
    }
    for (const PointSummary& summary : result.sweep)
        result.trials_spent += summary.trials;
    metrics().add("panel." + panel.name + ".points", result.sweep.size());
    metrics().add("panel." + panel.name + ".trials_spent",
                  result.trials_spent);
    if (progress_) progress_->end_panel();
    if (led != nullptr) {
        const auto points = static_cast<std::uint64_t>(result.sweep.size());
        if (result.poff)
            led->end("panel",
                     {{"points", points},
                      {"trials_spent", result.trials_spent},
                      {"completed", result.completed},
                      {"poff_bracketed", result.poff->bracketed},
                      {"poff_lo_mhz", result.poff->lo_mhz},
                      {"poff_hi_mhz", result.poff->hi_mhz}});
        else
            led->end("panel", {{"points", points},
                               {"trials_spent", result.trials_spent},
                               {"completed", result.completed}});
    }
    if (!result.completed) return result;

    if (options_.console)
        print_panel(*options_.console, panel, panel_core, base, result,
                    described_cores_.insert(core_fp).second);

    if (!options_.csv_dir.empty()) {
        result.csv_path = options_.csv_dir + "/" + panel.name + ".csv";
        write_sweep_csv(result.csv_path, result.sweep);
    }
    return result;
}

CdfPanelResult CampaignRunner::run_cdf_panel(const CdfPanelSpec& panel) {
    CdfPanelResult result;
    result.name = panel.name;

    obs::Ledger* const led = options_.ledger;
    if (led != nullptr)
        led->begin("panel", {{"name", panel.name}, {"kind", "cdf"}});

    const CharacterizedCore& campaign_core = core();
    const TimingErrorCdfs& cdfs = *campaign_core.cdfs();
    // CDF panels have no base operating point or model, so the symbolic
    // grid kinds have nothing to resolve against — reject them instead
    // of evaluating curves at meaningless frequencies.
    if (panel.grid.kind != GridSpec::Kind::Explicit &&
        panel.grid.kind != GridSpec::Kind::Linspace)
        throw std::invalid_argument(
            "CdfPanelSpec '" + panel.name +
            "': grids must be Explicit or Linspace");
    const std::vector<double> freqs =
        resolve(panel.grid, campaign_core, /*base_vdd=*/0.0, nullptr);

    result.columns = {"f [MHz]"};
    for (const CdfCurveSpec& curve : panel.curves) {
        char label[48];
        std::snprintf(label, sizeof label, "%s b%zu %.1fV",
                      ex_class_name(curve.cls), curve.bit, curve.vdd);
        result.columns.push_back(label);
    }

    result.rows.reserve(freqs.size());
    for (const double f : freqs) {
        std::vector<double> row = {f};
        for (const CdfCurveSpec& curve : panel.curves) {
            const double window =
                (1.0e6 / f) / campaign_core.lib().fit().factor(curve.vdd);
            row.push_back(cdfs.violation_prob(curve.cls, curve.bit, window));
        }
        result.rows.push_back(std::move(row));
    }

    if (options_.console) {
        std::ostream& os = *options_.console;
        os << (panel.title.empty() ? panel.name : panel.title) << "\n\n";
        TextTable table(result.columns);
        for (const std::vector<double>& row : result.rows) {
            std::vector<std::string> cells = {fmt_fixed(row[0], 0)};
            for (std::size_t i = 1; i < row.size(); ++i)
                cells.push_back(fmt_fixed(100.0 * row[i], 1) + "%");
            table.add_row(cells);
        }
        table.print(os);
        os << "\nfirst-failure frequencies (P > 0):\n";
        for (const CdfCurveSpec& curve : panel.curves) {
            const double f0 =
                1.0e6 / (cdfs.endpoint_max_window_ps(curve.cls, curve.bit) *
                         campaign_core.lib().fit().factor(curve.vdd));
            os << "  " << ex_class_name(curve.cls) << " bit[" << curve.bit
               << "] @ " << fmt_fixed(curve.vdd, 1)
               << " V : " << fmt_fixed(f0, 0) << " MHz\n";
        }
        os << "\n";
    }

    if (!options_.csv_dir.empty()) {
        result.csv_path = options_.csv_dir + "/" + panel.name + ".csv";
        CsvWriter csv(result.csv_path);
        csv.header(result.columns);
        for (const auto& row : result.rows) csv.row(row);
        csv.close();  // surface write failures like the sweep CSVs do
    }
    metrics().add("panel." + panel.name + ".points", result.rows.size());
    if (led != nullptr)
        led->end("panel",
                 {{"points", static_cast<std::uint64_t>(result.rows.size())}});
    return result;
}

void CampaignRunner::write_manifest(CampaignResult& result) {
    std::string path = options_.manifest_path;
    if (path.empty() && !options_.csv_dir.empty())
        path = options_.csv_dir + "/" + spec_.name + "_manifest.json";
    if (path.empty()) return;

    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("campaign manifest: cannot open " + path);

    // Stable description first; everything that varies between runs of
    // the same spec (hit/miss split, wall clock, machine-local paths)
    // lives on the single "run" line so consumers — and the resume tests
    // — can separate the two by line.
    using perf::JsonWriter;
    os << "{\n";
    os << "  \"campaign\": \"" << JsonWriter::escape(spec_.name) << "\",\n";
    os << "  \"spec_fingerprint\": \"0x" << hex64(result.spec_fingerprint)
       << "\",\n";
    os << "  \"trials\": " << spec_.trials << ",\n";
    os << "  \"seed\": " << spec_.seed << ",\n";
    os << "  \"panels\": [\n";
    bool first = true;
    for (const PanelResult& panel : result.panels) {
        if (!first) os << ",\n";
        first = false;
        os << "    {\"name\": \"" << JsonWriter::escape(panel.name)
           << "\", \"kind\": \"" << (panel.poff ? "poff" : "mc")
           << "\", \"points\": " << panel.sweep.size()
           << ", \"trials_spent\": " << panel.trials_spent;
        // Stopping classifications are derived from the final summaries
        // (classify_stop), so they are a pure function of the spec and
        // belong to the stable section: warm and cold runs agree.
        {
            using sampling::StopRule;
            const auto count = [&](StopRule rule) {
                return panel.stopping[static_cast<std::size_t>(rule)];
            };
            os << ", \"stopping\": {\"fixed\": " << count(StopRule::Fixed)
               << ", \"ci_met\": " << count(StopRule::CiMet)
               << ", \"max_trials\": " << count(StopRule::MaxTrials)
               << ", \"screen\": " << count(StopRule::Screen) << "}";
        }
        // The PoFF crossing (paper §4.2): dense frequency panels report
        // the grid estimate, bisection panels the bracket — both land in
        // the stable part, they are pure functions of the spec.
        if (panel.poff) {
            const PoffOutcome& poff = *panel.poff;
            os << ", \"poff_bracketed\": "
               << (poff.bracketed ? "true" : "false");
            if (poff.bracketed)
                os << ", \"poff_lo_mhz\": " << format_double(poff.lo_mhz)
                   << ", \"poff_hi_mhz\": " << format_double(poff.hi_mhz)
                   << ", \"poff_mhz\": " << format_double(poff.hi_mhz)
                   << ", \"probes\": " << poff.probes;
        } else if (panel.axis == Axis::Frequency && !panel.sweep.empty()) {
            if (const auto poff = find_poff_mhz(panel.sweep))
                os << ", \"poff_mhz\": " << format_double(*poff);
            else
                os << ", \"poff_mhz\": null";
        }
        os << ", \"csv\": \""
           << JsonWriter::escape(
                  std::filesystem::path(panel.csv_path).filename().string())
           << "\"}";
    }
    for (const CdfPanelResult& panel : result.cdf_panels) {
        if (!first) os << ",\n";
        first = false;
        os << "    {\"name\": \"" << JsonWriter::escape(panel.name)
           << "\", \"kind\": \"cdf\", \"points\": " << panel.rows.size()
           << ", \"csv\": \""
           << JsonWriter::escape(
                  std::filesystem::path(panel.csv_path).filename().string())
           << "\"}";
    }
    os << "\n  ],\n";
    os << "  \"run\": {\"store_path\": \""
       << JsonWriter::escape(options_.store_path)
       << "\", \"store_hits\": " << result.store_hits
       << ", \"store_misses\": " << result.store_misses
       << ", \"trials_spent\": " << result.trials_spent
       << ", \"store_recovered_bytes\": " << store_.recovered_bytes()
       << ", \"threads\": " << options_.threads
       << ", \"wall_clock_s\": " << format_double(result.wall_s)
       << ", \"completed\": " << (result.completed ? "true" : "false")
       << "}\n";
    os << "}\n";
    os.flush();
    if (!os)
        throw std::runtime_error("campaign manifest: write to " + path +
                                 " failed");
    result.manifest_path = path;
}

CampaignResult CampaignRunner::run() {
    const auto t0 = std::chrono::steady_clock::now();
    CampaignResult result;
    result.name = spec_.name;
    result.spec_fingerprint = spec_.fingerprint();

    described_cores_.clear();

    obs::Ledger* const led = options_.ledger;
    const bool wall = led != nullptr && !led->logical();
    if (led != nullptr)
        led->begin("campaign",
                   {{"name", spec_.name},
                    {"spec_fingerprint", "0x" + hex64(result.spec_fingerprint)},
                    {"panels", static_cast<std::uint64_t>(spec_.panels.size() +
                                                          spec_.cdf_panels.size())},
                    {"trials", static_cast<std::uint64_t>(spec_.trials)},
                    {"seed", spec_.seed}});
    // Always constructed while running: wall-mode ledgers want the ETA
    // estimates even when stderr is not a TTY (console == nullptr then).
    progress_ = std::make_unique<obs::ProgressReporter>(
        options_.progress && obs::stderr_is_tty() ? &std::cerr : nullptr,
        &metrics());
    if (store_.recovered_bytes() > 0)
        metrics().add("run.store_recovered_bytes", store_.recovered_bytes());

    if (!options_.csv_dir.empty())
        std::filesystem::create_directories(options_.csv_dir);
    forensic_sink_ = options_.forensics_dir.empty()
                         ? nullptr
                         : std::make_unique<ForensicSink>();

    for (const PanelSpec& panel : spec_.panels) {
        if (options_.cancelled && options_.cancelled()) {
            result.completed = false;
            break;
        }
        PanelResult panel_result = run_panel(panel);
        result.store_hits += panel_result.store_hits;
        result.store_misses += panel_result.store_misses;
        result.trials_spent += panel_result.trials_spent;
        const bool completed = panel_result.completed;
        result.panels.push_back(std::move(panel_result));
        if (!completed) {
            result.completed = false;
            break;
        }
    }
    if (result.completed)
        for (const CdfPanelSpec& panel : spec_.cdf_panels) {
            if (options_.cancelled && options_.cancelled()) {
                result.completed = false;
                break;
            }
            result.cdf_panels.push_back(run_cdf_panel(panel));
        }

    // Forensic artifacts are written even for cancelled campaigns: every
    // recorded point is complete, and a partial record stream is still a
    // valid (and debuggable) artifact.
    if (forensic_sink_ != nullptr) {
        forensic_sink_->write_artifacts(options_.forensics_dir);
        metrics().add("run.forensic_records",
                      forensic_sink_->records().size());
        if (led != nullptr)
            led->instant(
                "forensics",
                {{"dir", options_.forensics_dir},
                 {"trials", forensic_sink_->trials_recorded()},
                 {"records", static_cast<std::uint64_t>(
                                 forensic_sink_->records().size())}});
        forensic_sink_.reset();
    }

    result.wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    write_manifest(result);
    progress_.reset();

    if (led != nullptr) {
        if (!result.completed)
            // The cancellation instant is part of the stable narrative:
            // whether a run was cancelled is an input, not a measurement.
            led->instant("cancelled",
                         {{"panels_done",
                           static_cast<std::uint64_t>(result.panels.size())}});
        if (wall)
            led->instant("run_stats",
                         {{"store_hits",
                           static_cast<std::uint64_t>(result.store_hits)},
                          {"store_misses",
                           static_cast<std::uint64_t>(result.store_misses)},
                          {"wall_s", result.wall_s},
                          {"threads",
                           static_cast<std::uint64_t>(options_.threads)}});
        led->emit_metrics(metrics());
        led->end("campaign",
                 {{"trials_spent", result.trials_spent},
                  {"completed", result.completed}});
        led->flush();
    }

    if (options_.console) {
        *options_.console << "[campaign " << spec_.name << "] "
                          << result.store_hits << " store hits, "
                          << result.store_misses << " misses, "
                          << fmt_fixed(result.wall_s, 1) << " s"
                          << (result.completed ? "" : " (cancelled)") << "\n";
    }
    return result;
}

}  // namespace sfi::campaign
