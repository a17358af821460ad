// Workload runner of the campaign benchmark; perfbench/run.py launches it
// once per timed repetition, once per resume check and once for the
// isolated layer kernels.
//
// A run executes one workload's campaigns through the entry points
// sfi_campaign uses (figures::make_figure -> CampaignRunner::core() ->
// CampaignRunner::run()) and prints one JSON object on stdout: the time
// spent inside core(), and the exact work counts of the run.
//
// With --trace FILE the run also records the benchmark's own spans around
// the public calls it makes (the steps of core construction, each
// CampaignRunner::run), attaches a wall-mode run ledger kept in memory for
// the panel/point/batch/worker-lane spans, and writes every span as Chrome
// trace-event JSON to FILE when the run ends. Self times per module and
// the per-layer figures derived from the spans join the JSON object.
//
//   sfi_perfbench --workload NAME --seed S --cache FILE --store FILE
//                 --csv-dir DIR [--trace FILE] [--run-id N]
//   sfi_perfbench --workload NAME --seed S --cache FILE --prime
//   sfi_perfbench --workload NAME --seed S --cache FILE --kernels
//                 [--trace FILE]
//
// --prime only builds the core (fills the CDF cache); --kernels runs the
// workload's isolated layer kernels instead of its campaigns.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sfi/sfi.hpp"

namespace {

using namespace sfi;
using Clock = std::chrono::steady_clock;

/// DTA kernel length of every workload's core. The paper's 8 k cycles
/// make one cold characterization ~16 s on a 4-core VM; 1 k keeps the
/// same per-cycle work at ~2 s, so a run holds a dozen repetitions.
constexpr std::size_t kDtaCycles = 1024;
/// MC worker threads of the parallel workload and the fan-out kernel. Two
/// of the four cores: at four, host contention on a shared VM moved a
/// run's median wall time by up to 19 % between identical runs.
constexpr std::size_t kThreads = 2;

struct Workload {
    std::string name;
    std::vector<std::string> figures;
    std::size_t trials = 0;   ///< 0 = the figure's own default
    std::size_t threads = 1;  ///< RunOptions::threads
    bool cold = false;        ///< characterizes from an empty CDF cache
};

std::vector<Workload> workloads() {
    std::vector<Workload> list;
    list.push_back({"cold_characterize", {"fig2"}, 0, 1, true});
    list.push_back({"opstream_fig4", {"fig4"}, 6, 1, false});
    list.push_back({"iss_campaigns",
                    {"fig5", "fig6", "fig7", "ablation_policy"}, 8, kThreads,
                    false});
    return list;
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Named measurements reported in the runner's JSON object.
using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    std::string name;
    std::string detail;  ///< class, panel name or panel kind
    double start_us = 0.0;
    double end_us = 0.0;
    std::uint64_t tid = 0;  ///< 0 = dispatch thread, 1..N = worker lanes
    long parent = -1;
};

/// In-memory span recorder; a disabled tracer only runs the callables.
class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    }

    template <typename F>
    decltype(auto) span(std::string name, std::string detail, F&& fn) {
        if (!enabled_) return fn();
        struct Closer {
            Tracer* tracer;
            std::size_t index;
            ~Closer() { tracer->spans_[index].end_us = tracer->now_us(); }
        } closer{this, add({std::move(name), std::move(detail), now_us(),
                            0.0, 0, -1})};
        return fn();
    }
    template <typename F>
    decltype(auto) span(std::string name, F&& fn) {
        return span(std::move(name), std::string{}, std::forward<F>(fn));
    }

    std::size_t add(Span s) {
        spans_.push_back(std::move(s));
        return spans_.size() - 1;
    }
    std::vector<Span>& spans() { return spans_; }

private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/// Converts the ledger's dispatch-lane B/E pairs and worker-lane "X"
/// spans into tracer spans. `offset_us` maps ledger time to tracer time.
void import_ledger(Tracer& tracer, const std::string& text, double offset_us) {
    std::istringstream is(text);
    const obs::LedgerFile file = obs::read_ledger(is);
    std::vector<std::size_t> open;
    std::string panel_kind;
    for (const obs::LedgerEvent& ev : file.events) {
        if (ev.ph == 'B' && ev.tid == 0) {
            std::string detail;
            if (ev.name == "panel") {
                panel_kind = ev.arg_string("kind");
                detail = ev.arg_string("name");
            } else if (ev.name == "point") {
                detail = panel_kind;
            }
            open.push_back(tracer.add({ev.name, std::move(detail),
                                       ev.ts_us + offset_us, 0.0, 0, -1}));
        } else if (ev.ph == 'E' && ev.tid == 0) {
            if (open.empty()) throw std::runtime_error("ledger: unmatched E");
            tracer.spans()[open.back()].end_us = ev.ts_us + offset_us;
            open.pop_back();
        } else if (ev.ph == 'X') {
            tracer.add({ev.name, "", ev.ts_us + offset_us,
                        ev.ts_us + ev.dur_us + offset_us, ev.tid, -1});
        }
    }
    if (!open.empty()) throw std::runtime_error("ledger: unclosed span");
}

/// Links every span to the innermost dispatch-lane span open at its start.
void link_parents(std::vector<Span>& spans) {
    std::vector<std::size_t> order(spans.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (spans[a].start_us != spans[b].start_us)
            return spans[a].start_us < spans[b].start_us;
        return spans[a].end_us > spans[b].end_us;
    });
    std::vector<std::size_t> stack;
    for (const std::size_t i : order) {
        while (!stack.empty() && spans[stack.back()].end_us <= spans[i].start_us)
            stack.pop_back();
        spans[i].parent = stack.empty() ? -1 : static_cast<long>(stack.back());
        if (spans[i].tid == 0) stack.push_back(i);
    }
}

/// Module a span's time belongs to, by the layer its call enters.
std::string module_of(const Span& s) {
    if (s.tid != 0) return "cpu";
    const std::string& n = s.name;
    if (n == "process") return "process";
    if (n.rfind("core.cdf_", 0) == 0) return "fi";
    if (n.rfind("core.", 0) == 0) return "timing";
    if (n == "point") return s.detail == "opstream" ? "fi" : "sampling";
    if (n == "batch") return "mc";
    if (n.rfind("kernel.", 0) == 0) return "kernel";
    return "campaign";
}

/// Dispatch-lane self time (duration minus the part children cover) of
/// every span, indexed like `spans`. Worker lanes run beside the dispatch
/// thread, so they never subtract from a parent.
std::vector<double> self_times(const std::vector<Span>& spans) {
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].tid == 0) self[i] = spans[i].end_us - spans[i].start_us;
    for (const Span& s : spans) {
        if (s.tid != 0 || s.parent < 0) continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        const double covered = std::min(s.end_us, p.end_us) - s.start_us;
        self[static_cast<std::size_t>(s.parent)] -= std::max(0.0, covered);
    }
    for (double& v : self) v = std::max(0.0, v) * 1e-6;
    return self;
}

/// Per-layer figures of a traced campaign run, summed from its spans.
void layer_figures(const std::vector<Span>& spans, std::size_t threads,
                   Values& layers) {
    Values total;  // dispatch-lane seconds by span name
    double worker_s = 0.0;
    for (const Span& s : spans) {
        const double dur = (s.end_us - s.start_us) * 1e-6;
        if (s.tid != 0) worker_s += dur;
        else total[s.name] += dur;
        if (s.name == "panel") layers["campaign.panel_s." + s.detail] += dur;
        if (s.name == "core.dta" && s.detail == "mul")
            layers["timing.dta_mul_s"] += dur;
    }
    layers["timing.dta_s"] = total["core.dta"];
    layers["timing.calibrate_s"] = total["core.calibrate"] + total["core.sta"];
    layers["fi.cdf_build_s"] = total["core.cdf_build"];
    layers["fi.cdf_save_s"] = total["core.cdf_save"];
    layers["fi.cdf_load_s"] = total["core.cdf_load"];
    layers["sampling.batch_s"] = total["batch"];
    layers["campaign.store_insert_s"] = total["store_insert"];
    // Busy share of the worker lanes while batches were open.
    layers["mc.worker_utilization"] =
        total["batch"] > 0.0
            ? worker_s / (static_cast<double>(threads) * total["batch"])
            : 0.0;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::uint64_t run_id) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace " + path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::uint64_t max_tid = 0;
    for (const Span& s : spans) max_tid = std::max(max_tid, s.tid);
    for (std::uint64_t tid = 0; tid <= max_tid; ++tid)
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
           << ",\"args\":{\"name\":\""
           << (tid == 0 ? std::string("dispatch")
                        : "worker " + std::to_string(tid))
           << "\"}},\n";
    char buf[128];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f", s.start_us,
                      std::max(0.0, s.end_us - s.start_us));
        os << "{\"name\":\"" << perf::JsonWriter::escape(s.name)
           << "\",\"cat\":\"" << module_of(s) << "\",\"ph\":\"X\"," << buf
           << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << s.parent << ",\"run\":" << run_id
           << ",\"detail\":\"" << perf::JsonWriter::escape(s.detail) << "\"}}"
           << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    if (!os.flush()) throw std::runtime_error("write to " + path + " failed");
}

// ---------------------------------------------------------------------------
// Core construction, step by step
// ---------------------------------------------------------------------------

/// The steps of CharacterizedCore's constructor, one span each: the same
/// public calls in the same order, so the cache it writes on a cold run is
/// byte-identical to the one the runner's own core() would write. Returns
/// the DTA event count (0 on a warm cache).
std::uint64_t characterize_in_steps(Tracer& tracer, const CoreModelConfig& config,
                                    bool cold) {
    const Alu alu = tracer.span("core.alu", [&] { return build_alu(config.alu); });
    const TimingLib lib =
        tracer.span("core.timing_lib", [&] { return TimingLib(config.lib); });
    InstanceTiming timing = tracer.span(
        "core.instance_timing", [&] { return InstanceTiming(alu.netlist, lib); });
    tracer.span("core.calibrate",
                [&] { calibrate_alu(alu, timing, config.calibration); });
    tracer.span("core.sta", [&] { endpoint_worst_sta(alu, timing); });

    const std::uint64_t fingerprint = core_config_fingerprint(config);
    if (!cold) {
        tracer.span("core.cdf_load", [&] {
            std::ifstream is(config.cdf_cache_path, std::ios::binary);
            std::uint64_t stored = 0;
            is.read(reinterpret_cast<char*>(&stored), sizeof stored);
            if (!is || stored != fingerprint)
                throw std::runtime_error("CDF cache not primed: " +
                                         config.cdf_cache_path);
            TimingErrorCdfs::load(is);
        });
        return 0;
    }
    DtaResult dta;
    dta.setup_ps = timing.setup_ps();
    dta.cycles = config.dta.cycles;
    std::uint64_t events = 0;
    for (const ExClass cls : Alu::instruction_classes()) {
        dta.classes.push_back(tracer.span("core.dta", ex_class_name(cls), [&] {
            return run_dta_class(alu, timing, cls, config.dta);
        }));
        dta.worst_arrival_ps =
            std::max(dta.worst_arrival_ps, dta.classes.back().max_arrival_ps);
        events += dta.classes.back().events;
    }
    const TimingErrorCdfs cdfs = tracer.span(
        "core.cdf_build", [&] { return TimingErrorCdfs::from_dta(dta); });
    tracer.span("core.cdf_save", [&] {
        std::ofstream os(config.cdf_cache_path, std::ios::binary);
        os.write(reinterpret_cast<const char*>(&fingerprint), sizeof fingerprint);
        cdfs.save(os);
        if (!os.flush())
            throw std::runtime_error("cannot write " + config.cdf_cache_path);
    });
    return events;
}

// ---------------------------------------------------------------------------
// Isolated layer kernels
// ---------------------------------------------------------------------------

/// Calls `fn` (which returns the work units it did) until `min_s` passed;
/// returns units per second.
template <typename F>
double rate_over(double min_s, F&& fn) {
    const auto t0 = Clock::now();
    double units = 0.0;
    do units += fn();
    while (seconds_since(t0) < min_s);
    return units / seconds_since(t0);
}

/// fig4: the three operand-conditioned single-class DTAs, then model C's
/// on_ex_result over the add32 series' op stream at a mid-grid point.
void fig4_kernels(Tracer& tracer, const CharacterizedCore& core,
                  const campaign::CampaignSpec& spec, Values& out) {
    double dta_s = 0.0;
    std::shared_ptr<const TimingErrorCdfs> add32;
    for (const campaign::PanelSpec& panel : spec.panels) {
        DtaConfig config = core.config().dta;
        config.operand_bits = *panel.dta_operand_bits;
        const auto t0 = Clock::now();
        DtaResult result;
        result.setup_ps = core.timing().setup_ps();
        result.cycles = config.cycles;
        result.classes = {tracer.span("kernel.conditioned_dta", panel.name, [&] {
            return run_dta_class(core.alu(), core.timing(), panel.kernel.cls,
                                 config);
        })};
        dta_s += seconds_since(t0);
        result.worst_arrival_ps = result.classes[0].max_arrival_ps;
        if (panel.name == "fig4_add32")
            add32 = std::make_shared<TimingErrorCdfs>(
                TimingErrorCdfs::from_dta(result));
    }
    out["timing.conditioned_dta_s"] = dta_s;

    const campaign::PanelSpec& panel = spec.panels.at(1);
    ModelC model(add32, core.lib().fit());
    model.set_sampling_mode(core.config().fault_sampling);
    OperatingPoint point = panel.base;
    point.freq_mhz = 950.0;
    model.set_operating_point(point);
    model.reseed(spec.seed);
    Rng operands(panel.kernel.operand_seed);
    out["fi.modelC_ops_per_s"] = tracer.span("kernel.modelC_ops", [&] {
        return rate_over(0.3, [&] {
            model.reset_stats();
            for (std::size_t i = 0; i < panel.kernel.ops_per_trial; ++i) {
                model.on_cycle(true);
                ExEvent ev;
                ev.cls = panel.kernel.cls;
                ev.operand_a = operands.u32();
                ev.operand_b = operands.u32();
                model.on_ex_result(
                    ev, alu_result(ev.cls, ev.operand_a, ev.operand_b));
            }
            return static_cast<double>(panel.kernel.ops_per_trial);
        });
    });
}

/// ISS trials without faults (fast path off, one thread) at a sub-threshold
/// point of a fig5 and a fig6 panel. Returns the number of trials that did
/// not come out correct (a clean trial must).
std::uint64_t clean_trial_kernels(Tracer& tracer, const CharacterizedCore& core,
                                  std::uint64_t seed, Values& out) {
    double trials = 0.0, cycles = 0.0, seconds = 0.0;
    std::uint64_t wrong = 0;
    for (const char* figure : {"fig5", "fig6"}) {
        const campaign::CampaignSpec spec =
            campaign::figures::make_figure(figure, core.config(), 0, seed);
        const campaign::PanelSpec& panel = spec.panels.front();
        const auto bench = make_benchmark(panel.kernel.benchmark);
        const auto model = core.make_model_c();
        OperatingPoint point = panel.base;
        point.noise.sigma_mv = 0.0;
        point.freq_mhz = 0.9 * core.sta_fmax_mhz(point.vdd);
        McConfig config;
        config.trials = 32;
        config.seed = seed;
        config.zero_fault_fast_path = false;
        config.threads = 1;
        MonteCarloRunner runner(*bench, *model, config);
        const double golden_cycles =
            static_cast<double>(runner.golden_run().cycles);
        const auto t0 = Clock::now();
        tracer.span("kernel.clean_trials", figure, [&] {
            do {
                const PointSummary s = runner.run_point(point);
                wrong += s.trials - s.correct_count;
                trials += static_cast<double>(s.trials);
                cycles += static_cast<double>(s.trials) * golden_cycles;
            } while (seconds_since(t0) < 0.25);
        });
        seconds += seconds_since(t0);
    }
    out["cpu.clean_trials_per_s"] = trials / seconds;
    out["cpu.sim_cycles_per_s"] = cycles / seconds;
    return wrong;
}

/// Trial-pool fan-out at a fast-path model-B point of fig1: trials/s of
/// 25-trial points (one adaptive batch) at kThreads threads over 1 thread,
/// and the cost of building kThreads workers' trial contexts. Returns the
/// number of runners whose fast path was off (the kernel would measure
/// something else).
std::uint64_t fanout_kernels(Tracer& tracer, const CharacterizedCore& core,
                             std::uint64_t seed, Values& out) {
    const campaign::CampaignSpec spec =
        campaign::figures::make_figure("fig1", core.config(), 0, seed);
    const campaign::PanelSpec& panel = spec.panels.front();
    const auto bench = make_benchmark(panel.kernel.benchmark);
    const auto model = core.make_model_b();
    OperatingPoint point = panel.base;
    point.freq_mhz =
        0.97 * campaign::first_fault_mhz(core, panel.model, panel.base);
    std::map<std::size_t, double> rate;
    std::uint64_t failures = 0;
    for (const std::size_t threads : {std::size_t{1}, kThreads}) {
        McConfig config;
        config.trials = 25;
        config.seed = spec.seed;
        config.threads = threads;
        MonteCarloRunner runner(*bench, *model, config);
        if (!runner.fast_path_active(*model, point)) ++failures;
        rate[threads] = tracer.span(
            "kernel.fanout", std::to_string(threads) + " threads", [&] {
                return rate_over(0.25, [&] {
                    return static_cast<double>(runner.run_point(point).trials);
                });
            });
    }
    out["mc.fanout_ratio"] = rate[kThreads] / rate[1];

    McConfig config;
    config.trials = 25;
    config.threads = kThreads;
    MonteCarloRunner runner(*bench, *model, config);
    std::vector<double> setup;
    for (int i = 0; i < 9; ++i) {
        const auto t0 = Clock::now();
        const auto contexts = tracer.span("kernel.context_setup", [&] {
            return make_trial_contexts(runner, kThreads);
        });
        setup.push_back(seconds_since(t0));
    }
    std::nth_element(setup.begin(), setup.begin() + 4, setup.end());
    out["mc.context_setup_s"] = setup[4];
    return failures;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_values(perf::JsonWriter& json, const char* key, const Values& values) {
    json.key(key);
    json.begin_object();
    for (const auto& [name, value] : values) json.field(name, value);
    json.end_object();
}

struct Args {
    std::string workload, cache, store, csv_dir, trace;
    std::uint64_t seed = 1;
    std::uint64_t run_id = 0;
    bool prime = false;
    bool kernels = false;
};

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") args.workload = next();
        else if (flag == "--seed") args.seed = std::stoull(next());
        else if (flag == "--cache") args.cache = next();
        else if (flag == "--store") args.store = next();
        else if (flag == "--csv-dir") args.csv_dir = next();
        else if (flag == "--trace") args.trace = next();
        else if (flag == "--run-id") args.run_id = std::stoull(next());
        else if (flag == "--prime") args.prime = true;
        else if (flag == "--kernels") args.kernels = true;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.workload.empty() || args.cache.empty())
        throw std::invalid_argument("--workload and --cache are required");
    return args;
}

int run(const Args& args) {
    const auto list = workloads();
    const auto it = std::find_if(list.begin(), list.end(), [&](const Workload& w) {
        return w.name == args.workload;
    });
    if (it == list.end())
        throw std::invalid_argument("unknown workload " + args.workload);
    const Workload& workload = *it;

    CoreModelConfig config;
    config.dta.cycles = kDtaCycles;
    config.cdf_cache_path = args.cache;

    if (args.prime) {
        CharacterizedCore core(config);
        std::cout << "{\"primed\": true}\n";
        return 0;
    }

    Tracer tracer(!args.trace.empty());
    const std::size_t root = tracer.add({"process", "", tracer.now_us(), 0.0, 0, -1});
    Values counts, layers;
    std::uint64_t check_failures = 0;

    if (args.kernels) {
        const CharacterizedCore core =
            tracer.span("campaign.core", [&] { return CharacterizedCore(config); });
        if (workload.name == "opstream_fig4")
            fig4_kernels(tracer, core,
                         campaign::figures::make_figure(
                             "fig4", config, workload.trials, args.seed),
                         layers);
        if (workload.name == "iss_campaigns") {
            check_failures += clean_trial_kernels(tracer, core, args.seed, layers);
            check_failures += fanout_kernels(tracer, core, args.seed, layers);
        }
    } else {
        std::ostringstream ledger_text;
        std::unique_ptr<obs::Ledger> ledger;
        double ledger_offset_us = 0.0;
        if (tracer.enabled()) {
            counts["timing.dta_events"] = static_cast<double>(
                characterize_in_steps(tracer, config, workload.cold));
            const double before = tracer.now_us();
            ledger = std::make_unique<obs::Ledger>(ledger_text, obs::TraceMode::Wall);
            ledger_offset_us = (before + tracer.now_us()) / 2.0 - ledger->now_us();
        }
        obs::MetricsRegistry metrics;
        double setup_s = 0.0, points = 0.0, misses = 0.0, hits = 0.0,
               trials = 0.0, opstream_ops = 0.0;
        for (const std::string& figure : workload.figures) {
            campaign::CampaignSpec spec = tracer.span("campaign.spec", figure, [&] {
                return campaign::figures::make_figure(figure, config,
                                                      workload.trials, args.seed);
            });
            campaign::RunOptions options;
            options.store_path = args.store;
            options.csv_dir = args.csv_dir;
            options.threads = workload.threads;
            options.ledger = ledger.get();
            options.metrics = &metrics;
            campaign::CampaignRunner runner(spec, std::move(options));
            const auto t_core = Clock::now();
            tracer.span("campaign.core", figure, [&] { runner.core(); });
            setup_s += seconds_since(t_core);
            const campaign::CampaignResult result =
                tracer.span("campaign.run", figure, [&] { return runner.run(); });
            if (!result.completed) ++check_failures;
            hits += static_cast<double>(result.store_hits);
            misses += static_cast<double>(result.store_misses);
            trials += static_cast<double>(result.trials_spent);
            for (std::size_t p = 0; p < result.panels.size(); ++p) {
                const campaign::PanelSpec& panel = spec.panels[p];
                points += static_cast<double>(result.panels[p].sweep.size());
                if (panel.kernel.kind == campaign::KernelSpec::Kind::OpStream)
                    opstream_ops += static_cast<double>(
                        result.panels[p].sweep.size() * spec.trials *
                        panel.kernel.ops_per_trial);
            }
            for (const campaign::CdfPanelResult& panel : result.cdf_panels)
                points += static_cast<double>(panel.rows.size());
        }
        counts["campaign.points"] = points;
        counts["campaign.store_misses"] = misses;
        counts["campaign.store_hits"] = hits;
        counts["mc.trials"] = trials;
        counts["mc.fastpath_points"] =
            static_cast<double>(metrics.counter("run.fastpath_points"));
        counts["sampling.batches"] =
            static_cast<double>(metrics.counter("run.batches"));
        counts["fi.opstream_ops"] = opstream_ops;
        layers["setup_s"] = setup_s;
        if (ledger) {
            ledger->flush();
            ledger.reset();
            import_ledger(tracer, ledger_text.str(), ledger_offset_us);
        }
    }

    Values self_by_module;
    double export_s = 0.0;
    if (tracer.enabled()) {
        std::vector<Span>& spans = tracer.spans();
        spans[root].end_us = tracer.now_us();
        link_parents(spans);
        const std::vector<double> self = self_times(spans);
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (i != root && spans[i].tid == 0)
                self_by_module[module_of(spans[i])] += self[i];
        if (!args.kernels) layer_figures(spans, workload.threads, layers);
        const auto t_export = Clock::now();
        write_chrome_trace(args.trace, spans, args.run_id);
        export_s = seconds_since(t_export);
    }

    perf::JsonWriter json(std::cout);
    json.begin_object();
    write_values(json, "counts", counts);
    write_values(json, "layers", layers);
    json.field("check_failures", check_failures);
    if (tracer.enabled()) {
        write_values(json, "self_s", self_by_module);
        json.field("export_s", export_s);
    }
    json.end_object();
    std::cout << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "sfi_perfbench: " << e.what() << "\n";
        return 1;
    }
}
