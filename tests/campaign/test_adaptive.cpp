// Adaptive sampling through the campaign engine (ISSUE 4 acceptance):
//  * a bisection PoFF panel on a fig-1-style setup returns an interval
//    containing the dense-grid find_poff_mhz value while spending
//    measurably fewer trials — both budgets recorded in the manifest and
//    asserted from it;
//  * adaptive summaries never collide with fixed-N summaries in the
//    point store (the policy fingerprint is part of the key), while a
//    re-run under the same policy is served 100 % from the store with
//    byte-identical artifacts;
//  * the campaign path through the batched executor reproduces the
//    hand-rolled run_point sweep byte for byte at 1 and 8 threads
//    (threads = 2 is covered by test_campaign.cpp).
#include "campaign/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <string>

#include "mc/report.hpp"
#include "mc/sweep.hpp"
#include "testing/frequency_sweep.hpp"

namespace sfi::campaign {
namespace {

using sfi::testing::frequency_sweep;

namespace fs = std::filesystem;

CoreModelConfig test_core_config() {
    CoreModelConfig config;
    config.dta.cycles = 1024;
    config.cdf_cache_path = "/tmp/sfi_test_cdf_cache.bin";
    return config;
}

/// Fig. 1 in miniature: median under model B+ (sigma = 10 mV), dense
/// FirstFaultWindow grid around the first-fault threshold.
CampaignSpec dense_fig1_campaign(std::size_t trials) {
    CampaignSpec spec;
    spec.name = "adaptive_dense";
    spec.core = test_core_config();
    spec.trials = trials;
    spec.seed = 9;

    PanelSpec panel;
    panel.name = "dense_b_plus";
    panel.kernel = KernelSpec::bench(BenchmarkId::Median);
    panel.model = ModelSpec::b();
    panel.base.vdd = 0.7;
    panel.base.noise.sigma_mv = 10.0;
    panel.grid = GridSpec::first_fault_window(2.0, 3.0, 0.5);
    spec.panels = {panel};
    return spec;
}

/// The same physics, but the grid replaced by a bisection PoFF search.
CampaignSpec poff_fig1_campaign(std::size_t trials) {
    CampaignSpec spec = dense_fig1_campaign(trials);
    spec.name = "adaptive_poff";
    spec.panels[0].name = "poff_b_plus";
    PoffSearchSpec search;
    search.lo_factor = 0.85;  // f0 sits below the STA limit under noise
    search.hi_factor = 1.05;
    search.tol_mhz = 2.0;
    spec.panels[0].poff = search;
    return spec;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

std::string manifest_stable_part(const std::string& path) {
    std::istringstream is(read_file(path));
    std::string out, line;
    while (std::getline(is, line))
        if (line.find("\"run\":") == std::string::npos) out += line + "\n";
    return out;
}

/// First capture group of `pattern` in `text` as a double; fails the
/// test if absent.
double json_number(const std::string& text, const std::string& pattern) {
    std::smatch match;
    EXPECT_TRUE(std::regex_search(text, match, std::regex(pattern)))
        << "pattern not found: " << pattern;
    return match.size() > 1 ? std::stod(match[1].str()) : 0.0;
}

class AdaptiveCampaignTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::path(::testing::TempDir()) /
                ("sfi_adaptive_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    RunOptions options(const std::string& workspace) const {
        RunOptions o;
        o.store_path = dir_ + "/" + workspace + "/store.bin";
        o.csv_dir = dir_ + "/" + workspace + "/csv";
        o.threads = 2;
        return o;
    }

    std::string dir_;
};

TEST_F(AdaptiveCampaignTest, BisectionPoffAgreesWithDenseGridForFewerTrials) {
    const std::size_t trials = 8;

    // Reference: the dense FirstFaultWindow sweep.
    CampaignRunner dense(dense_fig1_campaign(trials), options("dense"));
    const CampaignResult dense_result = dense.run();
    ASSERT_TRUE(dense_result.completed);
    const PanelResult& dense_panel = dense_result.panel("dense_b_plus");
    const auto dense_poff = find_poff_mhz(dense_panel.sweep);
    ASSERT_TRUE(dense_poff.has_value());
    const double grid_step = 0.5;

    // Bisection on the same physics (fresh workspace: no shared store).
    CampaignRunner adaptive(poff_fig1_campaign(trials), options("poff"));
    const CampaignResult poff_result = adaptive.run();
    ASSERT_TRUE(poff_result.completed);
    const PanelResult& poff_panel = poff_result.panel("poff_b_plus");
    ASSERT_TRUE(poff_panel.poff.has_value());
    ASSERT_TRUE(poff_panel.poff->bracketed);

    // The bisection interval must contain the dense-grid PoFF up to the
    // grid's own resolution (the dense estimate is only step-accurate).
    EXPECT_LT(poff_panel.poff->lo_mhz, *dense_poff + grid_step);
    EXPECT_GE(poff_panel.poff->hi_mhz, *dense_poff - grid_step);

    // ...while spending measurably fewer trials.
    EXPECT_LT(poff_panel.trials_spent, dense_panel.trials_spent);
    EXPECT_GT(poff_panel.trials_spent, 0u);

    // The budgets are recorded in the manifests, per panel — assert from
    // the files, not just the in-memory results.
    const std::string dense_manifest = read_file(dense_result.manifest_path);
    const std::string poff_manifest = read_file(poff_result.manifest_path);
    EXPECT_EQ(json_number(dense_manifest, "\"trials_spent\": (\\d+)"),
              static_cast<double>(dense_panel.trials_spent));
    EXPECT_EQ(json_number(poff_manifest, "\"trials_spent\": (\\d+)"),
              static_cast<double>(poff_panel.trials_spent));
    EXPECT_NEAR(json_number(poff_manifest, "\"poff_hi_mhz\": ([0-9.]+)"),
                poff_panel.poff->hi_mhz, 1e-6);
    EXPECT_NEAR(json_number(poff_manifest, "\"poff_lo_mhz\": ([0-9.]+)"),
                poff_panel.poff->lo_mhz, 1e-6);
    EXPECT_NE(poff_manifest.find("\"kind\": \"poff\""), std::string::npos);
    EXPECT_NE(dense_manifest.find("\"poff_mhz\": "), std::string::npos);
}

TEST_F(AdaptiveCampaignTest, PoffSearchResumesFromTheStoreByteIdentical) {
    const CampaignSpec spec = poff_fig1_campaign(6);

    CampaignRunner cold(spec, options("w"));
    const CampaignResult first = cold.run();
    ASSERT_TRUE(first.completed);
    EXPECT_EQ(first.store_hits, 0u);
    EXPECT_GT(first.store_misses, 0u);
    const std::string cold_csv =
        read_file(dir_ + "/w/csv/poff_b_plus.csv");
    ASSERT_FALSE(cold_csv.empty());
    const std::string cold_manifest = manifest_stable_part(first.manifest_path);

    CampaignRunner warm(spec, options("w"));
    const CampaignResult second = warm.run();
    ASSERT_TRUE(second.completed);
    EXPECT_EQ(second.store_misses, 0u);
    EXPECT_EQ(second.store_hits, first.store_misses);
    EXPECT_EQ(read_file(dir_ + "/w/csv/poff_b_plus.csv"), cold_csv);
    EXPECT_EQ(manifest_stable_part(second.manifest_path), cold_manifest);
    EXPECT_EQ(second.trials_spent, first.trials_spent);
}

TEST_F(AdaptiveCampaignTest, AdaptiveAndFixedNKeysNeverCollide) {
    CampaignSpec fixed = dense_fig1_campaign(6);
    CampaignRunner fixed_runner(fixed, options("k"));
    const CampaignResult fixed_result = fixed_runner.run();
    ASSERT_TRUE(fixed_result.completed);
    EXPECT_GT(fixed_result.store_misses, 0u);

    // Same grid, same physics, adaptive policy: every point must MISS
    // (different trial budget => different summary => different key).
    CampaignSpec adaptive = dense_fig1_campaign(6);
    adaptive.sampling = sampling::SamplingPolicy::target_ci(0.2, 12, 6);
    CampaignRunner adaptive_runner(adaptive, options("k"));
    const CampaignResult adaptive_result = adaptive_runner.run();
    ASSERT_TRUE(adaptive_result.completed);
    EXPECT_EQ(adaptive_result.store_hits, 0u);
    EXPECT_EQ(adaptive_result.store_misses, fixed_result.store_misses);

    // And the adaptive run is itself resumable from the shared store.
    CampaignRunner warm(adaptive, options("k"));
    const CampaignResult warm_result = warm.run();
    EXPECT_EQ(warm_result.store_misses, 0u);
}

TEST_F(AdaptiveCampaignTest, CampaignPathMatchesHandRolledSweepAt1And8Threads) {
    // The fixed-N equivalence contract at the thread counts
    // test_campaign.cpp does not cover: campaign CSV == seed-path CSV.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        CampaignSpec spec = dense_fig1_campaign(5);
        spec.name += "_t" + std::to_string(threads);
        RunOptions o = options("eq" + std::to_string(threads));
        o.threads = threads;
        CampaignRunner runner(spec, std::move(o));
        const CampaignResult result = runner.run();
        ASSERT_TRUE(result.completed);
        const std::string campaign_csv = read_file(
            dir_ + "/eq" + std::to_string(threads) + "/csv/dense_b_plus.csv");
        ASSERT_FALSE(campaign_csv.empty());

        const CharacterizedCore core(test_core_config());
        const auto bench = make_benchmark(BenchmarkId::Median);
        auto model = core.make_model_b();
        OperatingPoint base;
        base.vdd = 0.7;
        base.noise.sigma_mv = 10.0;
        model->set_operating_point(base);
        const double f0 = model->first_fault_frequency_mhz();
        McConfig config;
        config.trials = 5;
        config.seed = 9;
        config.threads = threads;
        MonteCarloRunner mc(*bench, *model, config);
        const auto sweep =
            frequency_sweep(mc, base, arange(f0 - 2.0, f0 + 3.0, 0.5));
        const std::string legacy_path =
            dir_ + "/eq" + std::to_string(threads) + "/legacy.csv";
        write_sweep_csv(legacy_path, sweep);
        EXPECT_EQ(campaign_csv, read_file(legacy_path))
            << "campaign CSV diverged from the seed path at threads="
            << threads;
    }
}

}  // namespace
}  // namespace sfi::campaign
