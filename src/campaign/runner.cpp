#include "campaign/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

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
/// registry: the bare kind ("A", "B", "B+", "C") wrapped in its detector
/// ("razor(C)", "cwc8(B+)") when the panel has one.
std::string model_label(const PanelSpec& panel, const OperatingPoint& base) {
    const std::string bare =
        panel.model.kind == ModelSpec::Kind::B && base.noise.sigma_mv > 0.0
            ? "B+"
            : model_kind_name(panel.model.kind);
    const std::optional<Detector> detector = panel.model.detector();
    return detector ? detector_name(*detector) + "(" + bare + ")" : bare;
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

/// Throws, naming the panel (`panel`, e.g. "PanelSpec 'fig1_sigma0'")
/// and the field, unless `value` is finite and positive (a frequency or a
/// Vdd) or, with `zero_ok`, finite and non-negative (a sigma). The models
/// read a sigma <= 0 as no noise and a frequency <= 0 as a non-positive
/// clock period, so such a point would run another experiment than its
/// key and CSV row name.
void check_value(const std::string& panel, const char* field, double value,
                 bool zero_ok = false) {
    if (std::isfinite(value) && (value > 0.0 || (zero_ok && value == 0.0)))
        return;
    throw std::invalid_argument(panel + ": " + field + " must be finite and " +
                                (zero_ok ? "non-negative" : "positive") +
                                ", not " + format_double(value));
}

/// Throws, naming the panel and the field, unless the CDF panel's grid is
/// Explicit or Linspace (a CDF panel has no base point or model for the
/// symbolic kinds to resolve against) with finite, positive frequencies,
/// and each curve reads an endpoint of `core`'s store at a finite,
/// positive Vdd. Such a curve would otherwise evaluate a window the
/// store cannot describe (probability 1 at any frequency) or read past
/// the store's endpoints.
void check_cdf_panel(const CdfPanelSpec& panel, const CharacterizedCore& core) {
    const std::string label = "CdfPanelSpec '" + panel.name + "'";
    if (panel.grid.kind != GridSpec::Kind::Explicit &&
        panel.grid.kind != GridSpec::Kind::Linspace)
        throw std::invalid_argument(label +
                                    ": grid must be Explicit or Linspace");
    for (const double f : resolve(panel.grid, core, 0.0, nullptr))
        check_value(label, "grid frequency [MHz]", f);
    const std::size_t endpoints = core.cdfs()->endpoint_count();
    for (const CdfCurveSpec& curve : panel.curves) {
        check_value(label, "curve Vdd [V]", curve.vdd);
        if (curve.bit >= endpoints)
            throw std::invalid_argument(
                label + ": curve bit " + std::to_string(curve.bit) +
                " must be below the store's " + std::to_string(endpoints) +
                " endpoints");
    }
}

/// One value per key, built on the first request and kept until the
/// process exits; every CampaignRunner of the process shares it. The map
/// mutex guards only the lookup: each slot's own mutex makes concurrent
/// requests for one key wait for a single build, while other keys build
/// beside it. A build that throws leaves its slot empty for the next
/// request.
template <typename Key, typename T>
class Registry {
public:
    template <typename Build>
    std::shared_ptr<const T> get(const Key& key, const Build& build) {
        Slot* slot = nullptr;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            slot = &slots_[key];
        }
        const std::lock_guard<std::mutex> lock(slot->mutex);
        if (!slot->value) slot->value = build();
        return slot->value;
    }

private:
    struct Slot {
        std::mutex mutex;
        std::shared_ptr<const T> value;
    };
    std::mutex mutex_;
    std::map<Key, Slot> slots_;  // nodes never move: slot pointers stay valid
};

/// The process's characterized cores, by core_config_fingerprint.
Registry<std::uint64_t, CharacterizedCore>& core_registry() {
    static Registry<std::uint64_t, CharacterizedCore> registry;
    return registry;
}

/// The process's operand-conditioned stores, by (core fingerprint,
/// class, operand bits).
Registry<std::tuple<std::uint64_t, ExClass, unsigned>, TimingErrorCdfs>&
store_registry() {
    static Registry<std::tuple<std::uint64_t, ExClass, unsigned>,
                    TimingErrorCdfs>
        registry;
    return registry;
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

CampaignRunner::CampaignRunner(CampaignSpec spec, RunOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      store_(options_.store_path, options_.ledger) {}

CampaignRunner::~CampaignRunner() = default;

const CharacterizedCore& CampaignRunner::core() { return core_of(spec_.core); }

const CharacterizedCore& CampaignRunner::core_for(const PanelSpec& panel) {
    return core_of(panel.core_override ? *panel.core_override : spec_.core);
}

const CharacterizedCore& CampaignRunner::core_of(
    const CoreModelConfig& config) {
    return *core_registry().get(core_config_fingerprint(config), [&] {
        return std::make_shared<const CharacterizedCore>(
            config, options_.ledger, options_.threads);
    });
}

CampaignRunner::ResolvedPanel CampaignRunner::resolve_panel(
    const PanelSpec& panel) {
    const CharacterizedCore& panel_core = core_for(panel);
    const std::string label = "PanelSpec '" + panel.name + "'";
    // Vdd and sigma first: the base frequency and every symbolic grid
    // are resolved against them.
    check_value(label, "base Vdd [V]", panel.base.vdd);
    check_value(label, "base sigma [mV]", panel.base.noise.sigma_mv,
                /*zero_ok=*/true);
    ResolvedPanel resolved;
    resolved.base = panel.base;
    if (panel.base_freq_sta_factor)
        resolved.base.freq_mhz = *panel.base_freq_sta_factor *
                                 panel_core.sta_fmax_mhz(resolved.base.vdd);
    check_value(label, "base frequency [MHz]", resolved.base.freq_mhz);
    // PoFF-search panels pick their own probe frequencies inside their
    // bracket; the (ignored) grid is not resolved, so e.g. a leftover
    // FirstFaultWindow grid on a model-C panel cannot make the search
    // throw.
    if (panel.poff) {
        const double fsta = panel_core.sta_fmax_mhz(resolved.base.vdd);
        resolved.poff_lo_mhz = panel.poff->lo_factor * fsta;
        resolved.poff_hi_mhz = panel.poff->hi_factor * fsta;
        check_value(label, "PoFF bracket low edge [MHz]", resolved.poff_lo_mhz);
        check_value(label, "PoFF bracket high edge [MHz]",
                    resolved.poff_hi_mhz);
        return resolved;
    }
    resolved.axis_values =
        resolve(panel.grid, panel_core, resolved.base.vdd, [&] {
            return first_fault_mhz(panel_core, panel.model, resolved.base);
        });
    for (const double value : resolved.axis_values)
        check_value(label,
                    panel.axis == Axis::Frequency ? "grid frequency [MHz]"
                                                  : "grid Vdd [V]",
                    value);
    return resolved;
}

std::vector<double> CampaignRunner::resolve_grid(const PanelSpec& panel) {
    return resolve_panel(panel).axis_values;
}

std::shared_ptr<const TimingErrorCdfs> CampaignRunner::conditioned_store(
    const PanelSpec& panel) {
    const CharacterizedCore& panel_core = core_for(panel);
    const ExClass cls = panel.kernel.cls;
    const unsigned bits = panel.dta_operand_bits.value();
    return store_registry().get({panel_core.fingerprint(), cls, bits}, [&] {
        // At the core's own operand width the conditioned DTA would be
        // the very run_dta_class call the core made for `cls`, and
        // from_dta reads only a class's arrivals, the setup and the cycle
        // count: the core's store restricted to `cls` is that store.
        if (bits == panel_core.config().dta.operand_bits)
            return std::make_shared<const TimingErrorCdfs>(
                panel_core.cdfs()->single_class(cls));
        // Operand-profile-conditioned characterization of just this class
        // (Fig. 4): re-run DTA with the panel's operand width.
        DtaConfig dta = panel_core.config().dta;
        dta.operand_bits = bits;
        DtaResult result;
        result.setup_ps = panel_core.timing().setup_ps();
        result.cycles = dta.cycles;
        result.classes = {run_dta_class(panel_core.alu(), panel_core.timing(),
                                        cls, dta, options_.ledger,
                                        options_.threads)};
        return std::make_shared<const TimingErrorCdfs>(
            TimingErrorCdfs::from_dta(result));
    });
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
                model = std::make_unique<ModelC>(conditioned_store(panel),
                                                 panel_core.lib().fit());
            else
                model = panel_core.make_model_c();
            break;
    }
    // The policy lands on the inner model BEFORE a decorator wraps it:
    // set_policy is non-virtual, so it must reach the model that injects.
    model->set_policy(panel.model.policy);
    if (const std::optional<Detector> detector = panel.model.detector())
        model = std::make_unique<DetectionModel>(std::move(model), *detector);
    // The core's sampling mode, stamped once on the finished model: the
    // decorator forwards it to the model it wraps, and every clone (the
    // trial engine's worker contexts) copies it. The factory paths set it
    // already; the directly-constructed conditioned ModelC does not.
    model->set_sampling_mode(panel_core.config().fault_sampling);
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
    std::vector<TrialOutcome> outcomes(spec_.trials);
    for (TrialOutcome& outcome : outcomes) {
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
        outcome.finished = true;
        outcome.correct = sum_sq == 0.0;
        outcome.output_error =
            sum_sq / static_cast<double>(kernel.ops_per_trial);
        outcome.fi = model.stats();
    }
    return summarize_trials(point, outcomes);
}

PanelResult CampaignRunner::run_panel(const PanelSpec& panel,
                                      const ResolvedPanel& resolved) {
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
    const OperatingPoint& base = resolved.base;
    const std::vector<double>& axis_values = resolved.axis_values;

    // The panel's labels, shared by the ledger payload and the forensic
    // point registry so the artifacts and traces name points alike.
    const std::string model_name = model_label(panel, base);
    const std::string kernel_name =
        panel.kernel.kind == KernelSpec::Kind::Benchmark
            ? benchmark_name(panel.kernel.benchmark)
            : ex_class_name(panel.kernel.cls);
    obs::Ledger* const led = options_.ledger;
    const bool wall = obs::wall_ledger(led) != nullptr;
    if (led != nullptr)
        led->begin("panel", {{"name", panel.name},
                             {"kind", panel_kind_name(panel)},
                             {"model", model_name},
                             {"kernel", kernel_name}});
    if (progress_)
        progress_->begin_panel(panel.name,
                               panel.poff ? 0 : axis_values.size());

    // The runner is built lazily: a fully warm panel (every point in the
    // store) skips model construction, the golden reference run and any
    // conditioned re-characterization entirely; its worker contexts wait
    // for its first block.
    std::unique_ptr<Benchmark> bench;
    std::unique_ptr<FaultModel> model;
    std::unique_ptr<MonteCarloRunner> mc;
    const auto ensure_runner = [&] {
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
            mc = std::make_unique<MonteCarloRunner>(*bench, *model, config);
            mc->set_ledger(options_.ledger);
            mc->set_metrics(&metrics());
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
            ensure_runner();
            summary =
                panel.kernel.kind == KernelSpec::Kind::Benchmark
                    ? sampling::run_point_sequential(*mc, point, policy).summary
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
            ensure_runner();
            const std::size_t sample =
                std::min<std::size_t>(options_.forensics_trials, summary.trials);
            result.forensics.push_back(forensic_sink_->add_point(
                panel.name, model_name, kernel_name, point,
                mc->run_forensics(point, sample)));
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
        search.lo_mhz = resolved.poff_lo_mhz;
        search.hi_mhz = resolved.poff_hi_mhz;
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
        // The search sorts its sweep by frequency; the forensic records
        // follow it out of probe order.
        std::stable_sort(result.forensics.begin(), result.forensics.end(),
                         [](const auto& lhs, const auto& rhs) {
                             return lhs.freq_mhz < rhs.freq_mhz;
                         });
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
    if (options_.csv_dir.empty()) return;
    const std::string path =
        options_.csv_dir + "/" + spec_.name + "_manifest.json";
    std::filesystem::create_directories(options_.csv_dir);
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
    const bool wall = obs::wall_ledger(led) != nullptr;
    if (led != nullptr)
        led->begin("campaign",
                   {{"name", spec_.name},
                    {"spec_fingerprint", "0x" + hex64(result.spec_fingerprint)},
                    {"panels", static_cast<std::uint64_t>(spec_.panels.size() +
                                                          spec_.cdf_panels.size())},
                    {"trials", static_cast<std::uint64_t>(spec_.trials)},
                    {"seed", spec_.seed}});
    // Every panel is resolved and checked before the first point is
    // looked up: an impossible operating point or CDF curve fails the
    // whole campaign up front, not after the panels before it ran.
    std::vector<ResolvedPanel> resolved;
    resolved.reserve(spec_.panels.size());
    for (const PanelSpec& panel : spec_.panels)
        resolved.push_back(resolve_panel(panel));
    for (const CdfPanelSpec& panel : spec_.cdf_panels)
        check_cdf_panel(panel, core());
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

    for (std::size_t i = 0; i < spec_.panels.size(); ++i) {
        if (options_.cancelled && options_.cancelled()) {
            result.completed = false;
            break;
        }
        PanelResult panel_result = run_panel(spec_.panels[i], resolved[i]);
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
