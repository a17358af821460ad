// End-to-end campaign engine contract:
//  * a warm re-run is served 100 % from the point store and its CSV
//    artifacts are byte-identical to the cold run's;
//  * a campaign cancelled mid-sweep resumes from the store and the
//    resumed artifacts are byte-identical to an uninterrupted run;
//  * point keys are content-addressed (renamed panels still hit);
//  * the declarative grids resolve to the historical sweep values and
//    the campaign path reproduces the hand-rolled fig1-style sweep
//    byte for byte;
//  * the console report renders voltage sweeps on a Vdd axis and CDF
//    panels as percent tables with their first-failure frequencies;
//  * the manifest escapes control bytes instead of dropping them.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/report.hpp"
#include "mc/sweep.hpp"
#include "power/power_model.hpp"
#include "testing/frequency_sweep.hpp"
#include "util/table.hpp"

namespace sfi::campaign {
namespace {

using sfi::testing::frequency_sweep;

namespace fs = std::filesystem;

// Mirrors tests/testing/shared_core.hpp so every campaign test reuses
// the process-shared CDF cache instead of re-running DTA.
CoreModelConfig test_core_config() {
    CoreModelConfig config;
    config.dta.cycles = 1024;
    config.cdf_cache_path = "/tmp/sfi_test_cdf_cache.bin";
    return config;
}

CampaignSpec tiny_campaign() {
    CampaignSpec spec;
    spec.name = "tiny";
    spec.core = test_core_config();
    spec.trials = 5;
    spec.seed = 11;

    PanelSpec mc;
    mc.name = "tiny_median";
    mc.kernel = KernelSpec::bench(BenchmarkId::Median);
    mc.model = ModelSpec::c();
    mc.base.vdd = 0.7;
    mc.base.noise.sigma_mv = 10.0;
    // One safe and one faulting frequency (f_STA(0.7 V) is ~707 MHz).
    mc.grid = GridSpec::explicit_values({500.0, 745.0});
    spec.panels.push_back(mc);

    PanelSpec stream;
    stream.name = "tiny_stream";
    stream.kernel = KernelSpec::op_stream(ExClass::Add, 16, 256, 0xF00D);
    stream.model = ModelSpec::c();
    stream.dta_operand_bits = 16;
    stream.seed_offset = 1;
    stream.base.vdd = 0.7;
    stream.base.noise.sigma_mv = 10.0;
    stream.grid = GridSpec::explicit_values({700.0, 900.0});
    spec.panels.push_back(stream);
    return spec;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t count = 0;
    for (auto at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++count;
    return count;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

// The manifest minus its volatile single-line "run" object (hit/miss
// split, wall clock, machine paths) — the stable description that must
// not depend on how the points were obtained.
std::string manifest_stable_part(const std::string& path) {
    std::istringstream is(read_file(path));
    std::string out, line;
    while (std::getline(is, line))
        if (line.find("\"run\":") == std::string::npos) out += line + "\n";
    return out;
}

class CampaignTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::path(::testing::TempDir()) /
                ("sfi_campaign_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    RunOptions options(const std::string& workspace) const {
        RunOptions o;
        o.store_path = dir_ + "/" + workspace + "/store.bin";
        o.csv_dir = dir_ + "/" + workspace + "/csv";
        o.threads = 2;  // exercise the trial-level pool under the runner
        return o;
    }

    std::vector<std::string> csv_files(const std::string& workspace) const {
        std::vector<std::string> names;
        for (const auto& entry :
             fs::directory_iterator(dir_ + "/" + workspace + "/csv"))
            if (entry.path().extension() == ".csv")
                names.push_back(entry.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    }

    std::string dir_;
};

TEST_F(CampaignTest, WarmRerunIsAllHitsAndByteIdentical) {
    const CampaignSpec spec = tiny_campaign();
    const std::size_t total_points = 4;

    CampaignRunner cold(spec, options("w"));
    const CampaignResult first = cold.run();
    EXPECT_TRUE(first.completed);
    EXPECT_EQ(first.store_hits, 0u);
    EXPECT_EQ(first.store_misses, total_points);
    ASSERT_EQ(first.panels.size(), 2u);
    EXPECT_EQ(first.panel("tiny_median").sweep.size(), 2u);
    ASSERT_FALSE(first.manifest_path.empty());

    const auto files = csv_files("w");
    ASSERT_EQ(files.size(), 2u);
    std::vector<std::string> cold_bytes;
    for (const auto& f : files)
        cold_bytes.push_back(read_file(dir_ + "/w/csv/" + f));
    const std::string cold_manifest =
        manifest_stable_part(first.manifest_path);

    CampaignRunner warm(spec, options("w"));
    const CampaignResult second = warm.run();
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(second.store_hits, total_points);
    EXPECT_EQ(second.store_misses, 0u);
    for (std::size_t i = 0; i < files.size(); ++i)
        EXPECT_EQ(read_file(dir_ + "/w/csv/" + files[i]), cold_bytes[i])
            << files[i] << " changed across a warm re-run";
    EXPECT_EQ(manifest_stable_part(second.manifest_path), cold_manifest);
}

TEST_F(CampaignTest, InterruptedCampaignResumesByteIdentical) {
    const CampaignSpec spec = tiny_campaign();
    const std::size_t total_points = 4;

    // "Kill" the campaign after two cancellation checks: the hook fires
    // between points, exactly like a signal-triggered stop, so the run
    // ends with some points persisted and the rest never attempted.
    std::size_t budget = 2;
    RunOptions countdown = options("i");
    countdown.cancelled = [&budget] {
        if (budget == 0) return true;
        --budget;
        return false;
    };
    CampaignRunner first(spec, std::move(countdown));
    const CampaignResult partial = first.run();
    EXPECT_FALSE(partial.completed);
    const std::size_t done = partial.store_misses;
    EXPECT_GT(done, 0u);
    EXPECT_LT(done, total_points);
    ASSERT_FALSE(partial.manifest_path.empty());
    EXPECT_NE(read_file(partial.manifest_path).find("\"completed\": false"),
              std::string::npos);

    // Resume: completed points come from the store, the rest compute.
    CampaignRunner second(spec, options("i"));
    const CampaignResult resumed = second.run();
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.store_hits, done);
    EXPECT_EQ(resumed.store_misses, total_points - done);

    // Reference: an uninterrupted run in a fresh workspace.
    CampaignRunner reference(spec, options("ref"));
    const CampaignResult ref = reference.run();
    EXPECT_TRUE(ref.completed);

    const auto files = csv_files("i");
    ASSERT_EQ(files, csv_files("ref"));
    ASSERT_FALSE(files.empty());
    for (const auto& f : files)
        EXPECT_EQ(read_file(dir_ + "/i/csv/" + f),
                  read_file(dir_ + "/ref/csv/" + f))
            << f << " differs between resumed and uninterrupted runs";
    EXPECT_EQ(manifest_stable_part(resumed.manifest_path),
              manifest_stable_part(ref.manifest_path));
}

TEST_F(CampaignTest, RenamedPanelsStillHitTheStore) {
    CampaignSpec spec = tiny_campaign();
    CampaignRunner cold(spec, options("n"));
    const CampaignResult first = cold.run();
    EXPECT_EQ(first.store_misses, 4u);

    // Same physics, different presentation: every point must hit.
    spec.name = "renamed_campaign";
    for (PanelSpec& panel : spec.panels) {
        panel.name += "_v2";
        panel.title = "new title";
    }
    CampaignRunner warm(spec, options("n"));
    const CampaignResult second = warm.run();
    EXPECT_EQ(second.store_hits, 4u);
    EXPECT_EQ(second.store_misses, 0u);
}

TEST_F(CampaignTest, GridsResolveAgainstTheCore) {
    CampaignSpec spec = tiny_campaign();
    PanelSpec sta_panel;
    sta_panel.name = "sta";
    sta_panel.model = ModelSpec::c();
    sta_panel.base.vdd = 0.7;
    sta_panel.grid = GridSpec::sta_linspace(1.0, 1.2, 3);
    PanelSpec window_panel;
    window_panel.name = "window";
    window_panel.model = ModelSpec::b();
    window_panel.base.vdd = 0.7;
    window_panel.base.noise.sigma_mv = 10.0;
    window_panel.grid = GridSpec::first_fault_window(1.0, 2.0, 0.5);
    spec.panels = {sta_panel, window_panel};

    CampaignRunner runner(spec, RunOptions{});
    const double fsta = runner.core().sta_fmax_mhz(0.7);
    const auto sta_values = runner.resolve_grid(spec.panels[0]);
    EXPECT_EQ(sta_values, linspace(fsta, 1.2 * fsta, 3));

    const double f0 =
        first_fault_mhz(runner.core(), window_panel.model, window_panel.base);
    const auto window_values = runner.resolve_grid(spec.panels[1]);
    EXPECT_EQ(window_values, arange(f0 - 1.0, f0 + 2.0, 0.5));
    EXPECT_LT(f0, fsta);  // sigma = 10 mV noise pulls B+ below the STA limit

    // FirstFaultWindow is only defined for model B/B+.
    spec.panels[1].model = ModelSpec::c();
    EXPECT_THROW(runner.resolve_grid(spec.panels[1]), std::invalid_argument);
}

TEST_F(CampaignTest, CampaignPathMatchesHandRolledSweepByteForByte) {
    // The fig1 acceptance contract in miniature: the declarative campaign
    // must reproduce the historical make-model/frequency_sweep/CSV path
    // byte for byte at a fixed seed.
    CampaignSpec spec = tiny_campaign();
    PanelSpec panel;
    panel.name = "b_window";
    panel.kernel = KernelSpec::bench(BenchmarkId::Median);
    panel.model = ModelSpec::b();
    panel.base.vdd = 0.7;
    panel.base.noise.sigma_mv = 10.0;
    panel.grid = GridSpec::first_fault_window(0.5, 1.5, 0.5);
    spec.panels = {panel};
    spec.trials = 6;
    spec.seed = 42;

    CampaignRunner runner(spec, options("c"));
    const CampaignResult result = runner.run();
    ASSERT_TRUE(result.completed);
    const std::string campaign_csv =
        read_file(dir_ + "/c/csv/b_window.csv");
    ASSERT_FALSE(campaign_csv.empty());

    // Hand-rolled legacy path on an independently characterized core.
    const CharacterizedCore core(test_core_config());
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = core.make_model_b();
    OperatingPoint base;
    base.vdd = 0.7;
    base.noise.sigma_mv = 10.0;
    model->set_operating_point(base);
    const double f0 = model->first_fault_frequency_mhz();
    McConfig config;
    config.trials = 6;
    config.seed = 42;
    config.threads = 2;
    MonteCarloRunner mc(*bench, *model, config);
    const auto sweep =
        frequency_sweep(mc, base, arange(f0 - 0.5, f0 + 1.5, 0.5));
    const std::string legacy_path = dir_ + "/c/legacy.csv";
    write_sweep_csv(legacy_path, sweep);
    EXPECT_EQ(campaign_csv, read_file(legacy_path));
}

TEST_F(CampaignTest, ConsoleRendersVoltageSweepsOnTheVddAxis) {
    // Fig. 7 in miniature: median at the nominal STA limit, supply swept
    // across the failure edge (0.64 V fails, 0.70 V is the nominal point).
    CampaignSpec spec = tiny_campaign();
    spec.panels.clear();
    for (const double sigma : {0.0, 10.0}) {
        PanelSpec panel;
        panel.name = "volt_s" + std::to_string(static_cast<int>(sigma));
        panel.title = "voltage sweep, sigma = " + fmt_fixed(sigma, 0) + " mV";
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = sigma;
        panel.base_freq_sta_factor = 1.0;
        panel.axis = Axis::Voltage;
        panel.grid = GridSpec::explicit_values({0.64, 0.70});
        spec.panels.push_back(panel);
    }
    std::ostringstream console;
    RunOptions o = options("v");
    o.console = &console;
    CampaignRunner runner(spec, std::move(o));
    const CampaignResult result = runner.run();
    ASSERT_TRUE(result.completed);
    const PanelResult& quiet = result.panel("volt_s0");
    ASSERT_EQ(quiet.sweep.size(), 2u);
    ASSERT_NE(quiet.sweep[0].correct_count, quiet.sweep[0].trials);
    ASSERT_EQ(quiet.sweep[1].correct_count, quiet.sweep[1].trials);

    const std::string text = console.str();
    EXPECT_NE(text.find("voltage sweep, sigma = 0 mV\n"), std::string::npos);
    EXPECT_NE(text.find("voltage sweep, sigma = 10 mV\n"), std::string::npos);
    EXPECT_EQ(count_of(text, "Vdd [V]"), 2u);
    EXPECT_EQ(count_of(text, "f [MHz]"), 0u);
    EXPECT_EQ(count_of(text, "\n0.640 "), 2u);
    EXPECT_EQ(count_of(text, "\n0.700 "), 2u);
    // The highest failing Vdd of the noiseless panel, with its power
    // normalized to the nominal 0.7 V.
    EXPECT_NE(text.find("first-failure voltage ~0.640 V (" +
                        fmt_fixed(100.0 * PowerModel().normalized_power(
                                              0.64, 0.7),
                                  1) +
                        "% of the power at 0.70 V)"),
              std::string::npos)
        << text;
    // Both panels share one core: it is described once, and each model-C
    // panel quotes the model-B/B+ threshold at its base point.
    EXPECT_EQ(count_of(text, "[core] f_STA(0.70 V) = " +
                                 fmt_fixed(runner.core().sta_fmax_mhz(0.7), 1) +
                                 " MHz, dynamic fmax add "),
              1u);
    EXPECT_EQ(count_of(text, "model B first fault at the base point: "), 1u);
    EXPECT_EQ(count_of(text, "model B+ first fault at the base point: "), 1u);
}

TEST_F(CampaignTest, ConsoleRendersCdfPanels) {
    // Fig. 2 in miniature: two DTA curves on a three-point grid.
    CampaignSpec spec = tiny_campaign();
    spec.panels.clear();
    CdfPanelSpec panel;
    panel.name = "cdfs";
    panel.title = "timing-error CDFs";
    panel.curves = {{ExClass::Add, 24, 0.7}, {ExClass::Mul, 24, 0.8}};
    panel.grid = GridSpec::explicit_values({600.0, 1000.0, 2400.0});
    spec.cdf_panels.push_back(panel);

    std::ostringstream console;
    RunOptions o = options("d");
    o.console = &console;
    CampaignRunner runner(spec, std::move(o));
    const CampaignResult result = runner.run();
    ASSERT_EQ(result.cdf_panels.size(), 1u);
    const CdfPanelResult& cdf = result.cdf_panels[0];

    const std::string text = console.str();
    EXPECT_NE(text.find("timing-error CDFs\n"), std::string::npos) << text;
    EXPECT_NE(text.find("add b24 0.7V"), std::string::npos);
    EXPECT_NE(text.find("mul b24 0.8V"), std::string::npos);
    // One row per grid frequency, probabilities as percentages.
    for (std::size_t i = 0; i < cdf.rows.size(); ++i) {
        std::string row = fmt_fixed(cdf.rows[i][0], 0);
        EXPECT_NE(text.find("\n" + row + " "), std::string::npos) << row;
        EXPECT_NE(text.find(fmt_fixed(100.0 * cdf.rows[i][1], 1) + "%"),
                  std::string::npos);
    }
    // First-failure frequency of each curve: the endpoint's worst window
    // at the curve's Vdd.
    EXPECT_NE(text.find("first-failure frequencies (P > 0):\n"),
              std::string::npos);
    const CharacterizedCore& core = runner.core();
    for (const CdfCurveSpec& curve : panel.curves) {
        const double f0 =
            1.0e6 / (core.cdfs()->endpoint_max_window_ps(curve.cls, curve.bit) *
                     core.lib().fit().factor(curve.vdd));
        const std::string line = std::string("  ") + ex_class_name(curve.cls) +
                                 " bit[24] @ " + fmt_fixed(curve.vdd, 1) +
                                 " V : " + fmt_fixed(f0, 0) + " MHz\n";
        EXPECT_NE(text.find(line), std::string::npos) << line << text;
    }
}

// Minimal JSON string decoder for the escapes JsonWriter emits.
std::string json_unescape(const std::string& text) {
    std::string out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '\\' || i + 1 == text.size()) {
            out += text[i];
            continue;
        }
        switch (text[++i]) {
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u':
                out += static_cast<char>(
                    std::stoi(text.substr(i + 1, 4), nullptr, 16));
                i += 4;
                break;
            default: out += text[i];
        }
    }
    return out;
}

TEST_F(CampaignTest, ManifestRoundTripsControlBytesInTheStorePath) {
    CampaignSpec spec = tiny_campaign();
    spec.panels.clear();
    RunOptions o = options("m");
    o.store_path = dir_ + "/m/odd\tstore\nname\x01.bin";
    fs::create_directories(dir_ + "/m");
    CampaignRunner runner(spec, o);
    const CampaignResult result = runner.run();
    ASSERT_FALSE(result.manifest_path.empty());

    // The run object stays on one line and decodes to the exact path.
    std::istringstream manifest(read_file(result.manifest_path));
    std::string line, run_line;
    while (std::getline(manifest, line))
        if (line.find("\"run\":") != std::string::npos) run_line = line;
    const std::string key = "\"store_path\": \"";
    const auto begin = run_line.find(key);
    ASSERT_NE(begin, std::string::npos) << run_line;
    const auto end = run_line.find("\", \"store_hits\"", begin);
    ASSERT_NE(end, std::string::npos) << run_line;
    EXPECT_EQ(json_unescape(run_line.substr(begin + key.size(),
                                            end - begin - key.size())),
              o.store_path);
}

}  // namespace
}  // namespace sfi::campaign
