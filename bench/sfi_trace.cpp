// sfi_trace: analysis tool for --trace run ledgers (src/obs/ledger.hpp).
//
//   sfi_trace LEDGER.jsonl                 run summary on stdout
//   sfi_trace LEDGER.jsonl --export-chrome OUT.json
//                                          Chrome trace-event conversion
//                                          (load OUT.json in Perfetto or
//                                          chrome://tracing)
//
// The summary prints one line per campaign of the ledger (a driver run
// with several --figures writes them all into one file), then per panel:
// points, Monte-Carlo trials, stopping classifications and probe counts.
// Over all campaigns it reports the point store hit ratio (counted from
// the store_hit/store_miss instants), worker-lane utilization over the
// summed campaign spans, and the accuracy of the live ETA estimates, each
// scored against the end of the panel that emitted it. Ratio/utilization/
// ETA sections need wall-mode data and print "n/a (logical ledger)" on a
// logical-mode file. When a forensic artifact (forensics_points.csv from
// bench --forensics) sits next to the ledger, the panel table grows
// per-panel outcome-class tallies.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "sfi/sfi.hpp"

namespace {

using sfi::obs::LedgerEvent;
using sfi::obs::LedgerFile;

struct PanelRow {
    std::string name;
    std::string kind;
    std::string model;
    std::string kernel;
    std::uint64_t points = 0;
    std::uint64_t trials = 0;
    std::uint64_t probes = 0;
    std::map<std::string, std::uint64_t> stops;  ///< stop rule -> points
    bool completed = true;
};

struct CampaignRow {
    std::string name;
    std::string fingerprint;
    bool completed = true;
    bool cancelled = false;
    std::uint64_t trials_spent = 0;
    double span_us = 0.0;  ///< campaign B -> E (wall mode)
};

struct Summary {
    std::string mode;
    std::vector<CampaignRow> campaigns;
    std::vector<PanelRow> panels;
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::map<std::uint64_t, double> worker_busy_us;
    /// Live ETA estimates, each scored against its own panel's end.
    std::size_t eta_estimates = 0;
    double eta_abs_err_s = 0.0;
    std::vector<std::string> warnings;
};

Summary summarize(const LedgerFile& file) {
    Summary s;
    s.mode = sfi::obs::trace_mode_name(file.mode);
    // Campaigns and panels never nest in their own kind, so their B/E
    // events pair up in stream order.
    double campaign_begin_us = 0.0;
    bool panel_open = false;
    std::vector<std::pair<double, double>> panel_eta;  ///< (ts_us, eta_s)
    for (const LedgerEvent& ev : file.events) {
        if (ev.name == "campaign") {
            if (ev.ph == 'B') {
                CampaignRow row;
                row.name = ev.arg_string("name");
                row.fingerprint = ev.arg_string("spec_fingerprint");
                s.campaigns.push_back(std::move(row));
                campaign_begin_us = ev.ts_us;
            } else if (ev.ph == 'E' && !s.campaigns.empty()) {
                CampaignRow& row = s.campaigns.back();
                row.trials_spent = ev.arg_uint("trials_spent");
                row.completed = ev.arg_bool("completed");
                row.span_us = ev.ts_us - campaign_begin_us;
            }
        } else if (ev.name == "panel") {
            if (ev.ph == 'B') {
                PanelRow row;
                row.name = ev.arg_string("name");
                row.kind = ev.arg_string("kind");
                row.model = ev.arg_string("model");
                row.kernel = ev.arg_string("kernel");
                s.panels.push_back(std::move(row));
                panel_open = true;
            } else if (ev.ph == 'E' && panel_open) {
                PanelRow& row = s.panels.back();
                row.points = ev.arg_uint("points");
                row.trials = ev.arg_uint("trials_spent");
                if (ev.has_arg("completed"))
                    row.completed = ev.arg_bool("completed");
                for (const auto& [ts_us, eta_s] : panel_eta) {
                    if (ts_us >= ev.ts_us) continue;
                    s.eta_abs_err_s +=
                        std::fabs(eta_s - (ev.ts_us - ts_us) / 1e6);
                    ++s.eta_estimates;
                }
                panel_eta.clear();
                panel_open = false;
            }
        } else if (ev.name == "point" && ev.ph == 'E') {
            if (panel_open) ++s.panels.back().stops[ev.arg_string("stop")];
        } else if (ev.name == "probe") {
            if (panel_open) ++s.panels.back().probes;
        } else if (ev.name == "store_hit") {
            ++s.store_hits;
        } else if (ev.name == "store_miss") {
            ++s.store_misses;
        } else if (ev.name == "cancelled") {
            if (!s.campaigns.empty()) s.campaigns.back().cancelled = true;
        } else if (ev.name == "store_warning") {
            s.warnings.push_back(ev.arg_string("kind") + " on " +
                                 ev.arg_string("path"));
        } else if (ev.name == "progress" && ev.ph == 'i') {
            // The instant predicted its panel's remaining time; the
            // panel's end event above scores it against the actual one.
            const double eta_s = ev.arg_double("eta_s", -1.0);
            if (eta_s >= 0.0 && panel_open)
                panel_eta.emplace_back(ev.ts_us, eta_s);
        } else if (ev.ph == 'X' && ev.tid >= 1) {
            s.worker_busy_us[ev.tid] += ev.dur_us;
        }
    }
    return s;
}

// Per-panel outcome-class tallies, printed only when a forensic artifact
// was found next to the ledger (tallies keyed by panel name).
void print_forensics(
    const Summary& s,
    const std::map<std::string, sfi::ForensicPanelTally>& tallies) {
    if (tallies.empty()) return;
    std::printf("%-24s %7s %7s %7s %5s %5s %9s\n", "forensics", "trials",
                "masked", "latent", "sdc", "hang", "detected");
    const auto cls = [](const sfi::ForensicPanelTally& t,
                        sfi::OutcomeClass c) -> unsigned long long {
        return t.outcomes[static_cast<std::size_t>(c)];
    };
    const auto print_row = [&](const std::string& name,
                               const sfi::ForensicPanelTally& t) {
        std::printf("%-24s %7llu %7llu %7llu %5llu %5llu %9llu\n",
                    name.c_str(), static_cast<unsigned long long>(t.trials),
                    cls(t, sfi::OutcomeClass::Masked),
                    cls(t, sfi::OutcomeClass::LatentCorrupt),
                    cls(t, sfi::OutcomeClass::SDC),
                    cls(t, sfi::OutcomeClass::Hang),
                    cls(t, sfi::OutcomeClass::Detected));
    };
    // Ledger panel order first, then any tallies the ledger never saw
    // (e.g. an sfi_forensics artifact dropped next to a foreign ledger).
    std::map<std::string, sfi::ForensicPanelTally> rest = tallies;
    for (const PanelRow& row : s.panels) {
        const auto it = rest.find(row.name);
        if (it == rest.end()) continue;
        print_row(it->first, it->second);
        rest.erase(it);
    }
    for (const auto& [name, tally] : rest) print_row(name, tally);
    std::printf("\n");
}

void print_summary(const Summary& s,
                   const std::map<std::string, sfi::ForensicPanelTally>&
                       forensic_tallies) {
    std::printf("mode     %s\n", s.mode.c_str());
    if (s.campaigns.empty()) std::printf("campaign <none>\n");
    for (const CampaignRow& c : s.campaigns)
        std::printf("campaign %-24s %s  %-10s %llu trials\n",
                    c.name.empty() ? "<unnamed>" : c.name.c_str(),
                    c.fingerprint.c_str(),
                    c.cancelled   ? "cancelled"
                    : c.completed ? "completed"
                                  : "incomplete",
                    static_cast<unsigned long long>(c.trials_spent));
    std::printf("\n");

    if (!s.panels.empty()) {
        std::printf("%-24s %-8s %-5s %-10s %7s %10s  %s\n", "panel", "kind",
                    "model", "kernel", "points", "trials", "stopping");
        for (const PanelRow& row : s.panels) {
            std::string stops;
            for (const auto& [rule, count] : row.stops) {
                if (!stops.empty()) stops += ", ";
                stops += rule + ":" + std::to_string(count);
            }
            if (row.probes > 0)
                stops += (stops.empty() ? "" : ", ") + std::string("probes:") +
                         std::to_string(row.probes);
            if (!row.completed) stops += " (incomplete)";
            std::printf("%-24s %-8s %-5s %-10s %7llu %10llu  %s\n",
                        row.name.c_str(), row.kind.c_str(), row.model.c_str(),
                        row.kernel.c_str(),
                        static_cast<unsigned long long>(row.points),
                        static_cast<unsigned long long>(row.trials),
                        stops.c_str());
        }
        std::printf("\n");
    }

    print_forensics(s, forensic_tallies);

    // The volatile sections: store traffic, lane utilization and ETA
    // accuracy only exist in wall-mode ledgers (logical mode records the
    // spec narrative only — see obs/ledger.hpp).
    const bool logical = s.mode == "logical";
    const std::uint64_t hits = s.store_hits;
    const std::uint64_t misses = s.store_misses;
    if (logical)
        std::printf("store    n/a (logical ledger)\n");
    else if (hits + misses == 0)
        std::printf("store    no lookups recorded\n");
    else
        std::printf("store    %llu hits / %llu misses (%.1f%% hit ratio)\n",
                    static_cast<unsigned long long>(hits),
                    static_cast<unsigned long long>(misses),
                    100.0 * static_cast<double>(hits) /
                        static_cast<double>(hits + misses));

    double campaigns_us = 0.0;
    for (const CampaignRow& c : s.campaigns) campaigns_us += c.span_us;
    if (logical) {
        std::printf("workers  n/a (logical ledger)\n");
    } else if (s.worker_busy_us.empty()) {
        std::printf("workers  no worker lanes recorded\n");
    } else {
        std::printf("workers  %zu lanes", s.worker_busy_us.size());
        if (campaigns_us > 0.0) {
            double busy = 0.0;
            for (const auto& [tid, us] : s.worker_busy_us) busy += us;
            const double util =
                busy / (campaigns_us *
                        static_cast<double>(s.worker_busy_us.size()));
            std::printf(", %.1f%% mean utilization over the campaign spans",
                        100.0 * util);
        }
        std::printf("\n");
    }

    if (logical)
        std::printf("eta      n/a (logical ledger)\n");
    else if (s.eta_estimates == 0)
        std::printf("eta      not enough progress samples\n");
    else
        std::printf("eta      %zu estimates, mean abs error %.2f s\n",
                    s.eta_estimates,
                    s.eta_abs_err_s / static_cast<double>(s.eta_estimates));

    for (const std::string& warning : s.warnings)
        std::printf("warning  store recovery: %s\n", warning.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const sfi::Cli cli(argc, argv, {"export-chrome"});
    for (const std::string& flag : cli.unknown_flags())
        std::fprintf(stderr, "warning: unknown flag --%s (ignored)\n",
                     flag.c_str());
    if (cli.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: %s LEDGER.jsonl [--export-chrome OUT.json]\n",
                     cli.program().c_str());
        return 2;
    }
    const std::string& path = cli.positional().front();

    LedgerFile file;
    try {
        file = sfi::obs::read_ledger_file(path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    const std::string out = cli.get("export-chrome", "");
    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
            return 1;
        }
        sfi::obs::export_chrome_trace(file, os);
        os.flush();
        if (!os) {
            std::fprintf(stderr, "error: write to %s failed\n", out.c_str());
            return 1;
        }
        std::printf("[chrome-trace] %zu events -> %s\n", file.events.size(),
                    out.c_str());
        return 0;
    }

    // A forensic artifact next to the ledger enriches the summary with
    // per-panel outcome-class tallies; absence is silent (empty map).
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    print_summary(summarize(file),
                  sfi::read_forensic_panel_tallies(dir +
                                                   "/forensics_points.csv"));
    return 0;
}
