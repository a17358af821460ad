#include "perf/report.hpp"

#include <ostream>
#include <stdexcept>

#include "perf/json_writer.hpp"

namespace sfi::perf {

std::vector<PhaseRow> phase_rows(const obs::LedgerFile& ledger) {
    std::vector<PhaseRow> rows;
    // Open dispatch-lane spans: (row index, begin timestamp).
    std::vector<std::pair<std::size_t, double>> open;
    for (const obs::LedgerEvent& ev : ledger.events) {
        if (ev.tid != 0) continue;
        if (ev.ph == 'B') {
            std::size_t row = 0;
            while (row < rows.size() && rows[row].phase != ev.name) ++row;
            if (row == rows.size()) rows.push_back(PhaseRow{ev.name});
            open.emplace_back(row, ev.ts_us);
        } else if (ev.ph == 'E') {
            if (open.empty() || rows[open.back().first].phase != ev.name)
                throw std::runtime_error("ledger span \"" + ev.name +
                                         "\" ends without a matching begin");
            PhaseRow& row = rows[open.back().first];
            row.seconds += (ev.ts_us - open.back().second) * 1e-6;
            row.calls += 1;
            row.items += ev.arg_uint("items");
            open.pop_back();
        }
    }
    return rows;
}

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
    for (const PhaseRow& row : report.phases) {
        json.begin_object();
        json.field("phase", row.phase);
        json.field("seconds", row.seconds);
        json.field("calls", row.calls);
        json.field("items", row.items);
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
