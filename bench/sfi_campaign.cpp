// Campaign driver: the one entry point for the paper's figure and
// ablation campaigns (src/campaign/figures.hpp), run against a shared
// persistent point store. The runner prints each panel's report.
//
//   sfi_campaign --list                # campaigns, panels and titles
//   sfi_campaign --list --figures fig4 # just those campaigns
//   sfi_campaign --figures fig1,fig5 --trials 100 --threads 0
//   sfi_campaign                       # every figure campaign
//
// Completed points land in the store (--store, default
// sfi_point_store.bin) as soon as they finish, so an interrupted run —
// Ctrl-C stops cleanly after the point in flight — resumes where it
// left off, and a re-run with identical parameters is served entirely
// from the store with byte-identical CSV output (the resume contract;
// CI enforces it).
#include <algorithm>
#include <csignal>

#include "bench_common.hpp"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void handle_sigint(int) {
    g_interrupted = 1;
    // Re-arm default handling: the campaign only checks the flag between
    // points, so a second Ctrl-C during a long in-flight point must still
    // be able to terminate the process.
    std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace sfi;
    bench::Context ctx(argc, argv, /*default_trials=*/0, {"figures", "list"});

    // --figures a,b,c ("all" or empty = everything).
    std::vector<std::string> selected;
    {
        const std::string list = ctx.cli.get("figures", "all");
        if (list == "all" || list.empty()) {
            selected = campaign::figures::figure_names();
        } else {
            std::string::size_type pos = 0;
            while (pos <= list.size()) {
                const auto comma = list.find(',', pos);
                const std::string name =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (!name.empty()) selected.push_back(name);
                if (comma == std::string::npos) break;
                pos = comma + 1;
            }
        }
    }

    // Validate every name up front: a typo late in the list must not
    // surface only after earlier campaigns already ran for minutes.
    {
        const auto& names = campaign::figures::figure_names();
        for (const std::string& name : selected)
            if (std::find(names.begin(), names.end(), name) == names.end()) {
                std::cerr << "error: unknown figure campaign: " << name
                          << " (see --list)\n";
                return 2;
            }
    }

    if (ctx.cli.get_bool("list", false)) {
        std::cout << "built-in figure campaigns:\n";
        for (const std::string& name : selected) {
            const campaign::CampaignSpec spec =
                campaign::figures::make_figure(name, ctx.core_config);
            std::cout << "  " << name << "\n";
            for (const campaign::PanelSpec& panel : spec.panels)
                std::cout << "    " << panel.name << ": " << panel.title
                          << "\n";
            for (const campaign::CdfPanelSpec& panel : spec.cdf_panels)
                std::cout << "    " << panel.name << ": " << panel.title
                          << "\n";
        }
        return 0;
    }

    std::signal(SIGINT, handle_sigint);

    std::size_t total_hits = 0, total_misses = 0;
    bool all_completed = true;
    // A failed artifact write (CSV, manifest, trace ledger) throws; report
    // it instead of aborting.
    try {
        for (const std::string& name : selected) {
            campaign::CampaignSpec spec = campaign::figures::make_figure(
                name, ctx.core_config, ctx.trials, ctx.seed);
            ctx.apply_to(spec);  // --watchdog-factor / --sampling / --ci-target
            campaign::RunOptions options = ctx.campaign_options();
            options.cancelled = [] { return g_interrupted != 0; };
            std::cout << "=== campaign " << name << " ===\n";
            campaign::CampaignRunner runner(std::move(spec),
                                            std::move(options));
            const campaign::CampaignResult result = runner.run();
            total_hits += result.store_hits;
            total_misses += result.store_misses;
            if (!result.completed) {
                all_completed = false;
                std::cout << "[interrupted — completed points are persisted; "
                             "re-run to resume]\n";
                break;
            }
            std::cout << "\n";
        }
    } catch (const std::exception& e) {
        std::cout.flush();
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    std::cout << "store: " << total_hits << " hits, " << total_misses
              << " misses\n";
    ctx.footer();
    return all_completed ? 0 : 130;
}
