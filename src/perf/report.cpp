#include "perf/report.hpp"

#include <ostream>

#include "perf/json_writer.hpp"

namespace sfi::perf {

void write_bench_core_json(std::ostream& os, const PerfReport& report) {
    JsonWriter json(os);
    json.begin_object();
    json.field("schema", "sfi-bench-core");
    json.field("schema_version", kSchemaVersion);

    json.key("config");
    json.begin_object();
    json.field("seed", report.seed);
    json.field("dta_cycles", report.dta_cycles);
    json.field("trials", report.trials);
    json.field("benchmark", report.benchmark);
    json.end_object();

    json.key("phases");
    json.begin_array();
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const Phase phase = static_cast<Phase>(i);
        const PhaseStats& stats = report.phases.stats(phase);
        // The forensics row appears only when forensics actually ran:
        // keeps BENCH_core.json byte-identical for forensics-off runs
        // (the zero-overhead-off guarantee, docs/ARCHITECTURE.md).
        if (phase == Phase::Forensics && stats.calls == 0) continue;
        json.begin_object();
        json.field("phase", phase_name(phase));
        json.field("seconds", stats.seconds);
        json.field("calls", stats.calls);
        json.field("items", stats.items);
        json.end_object();
    }
    json.end_array();

    json.key("kernels");
    json.begin_array();
    for (const KernelBench& kernel : report.kernels) {
        json.begin_object();
        json.field("label", kernel.label);
        json.field("model", kernel.model);
        json.field("benchmark", kernel.benchmark);
        json.field("freq_mhz", kernel.freq_mhz);
        json.field("vdd", kernel.vdd);
        json.field("sigma_mv", kernel.sigma_mv);
        json.field("trials", kernel.trials);
        json.field("fast_path", kernel.fast_path);
        json.key("scaling");
        json.begin_array();
        for (const ThreadSample& sample : kernel.scaling) {
            json.begin_object();
            json.field("threads", sample.threads);
            json.field("seconds", sample.seconds);
            json.field("trials_per_sec", sample.trials_per_sec);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    }
    json.end_array();

    json.key("fast_path");
    json.begin_object();
    json.field("sim_trials_per_sec", report.fast_path.sim_trials_per_sec);
    json.field("fastpath_trials_per_sec",
               report.fast_path.fastpath_trials_per_sec);
    json.field("speedup", report.fast_path.speedup);
    json.end_object();

    json.key("fault_sampling");
    json.begin_object();
    json.field("batched_ops_per_sec",
               report.fault_sampling.batched_ops_per_sec);
    json.field("quantized_ops_per_sec",
               report.fault_sampling.quantized_ops_per_sec);
    json.field("avx2", report.fault_sampling.avx2);
    json.end_object();

    json.key("metrics");
    json.begin_object();
    json.key("counters");
    json.begin_array();
    for (const auto& [name, value] : report.metrics.counters()) {
        json.begin_object();
        json.field("name", name);
        json.field("value", value);
        json.end_object();
    }
    json.end_array();
    json.key("gauges");
    json.begin_array();
    for (const auto& [name, value] : report.metrics.gauges()) {
        json.begin_object();
        json.field("name", name);
        json.field("value", value);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    if (report.campaign) {
        json.key("campaign");
        json.begin_object();
        json.field("figure", report.campaign->figure);
        json.field("seconds", report.campaign->seconds);
        json.field("trials_spent", report.campaign->trials_spent);
        json.end_object();
    } else {
        json.null_field("campaign");
    }

    json.field("wall_clock_s", report.wall_clock_s);
    json.end_object();
}

}  // namespace sfi::perf
