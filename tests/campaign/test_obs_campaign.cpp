// Campaign observability contract (the run ledger's determinism rules,
// obs/ledger.hpp):
//  * a logical-mode ledger is byte-identical (modulo the volatile header
//    line) across worker thread counts AND across cold/warm reruns;
//  * a wall-mode ledger records the volatile story — store traffic,
//    batch spans, worker lanes — with balanced B/E spans;
//  * the manifest's stable section gains per-panel stopping
//    classifications that agree between warm and cold runs;
//  * tracing is observation-only: CSV artifacts are byte-identical with
//    the ledger attached or absent.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/ledger.hpp"

namespace sfi::campaign {
namespace {

namespace fs = std::filesystem;

// Mirrors tests/testing/shared_core.hpp so every campaign test reuses
// the process-shared CDF cache instead of re-running DTA.
CoreModelConfig test_core_config() {
    CoreModelConfig config;
    config.dta.cycles = 1024;
    config.cdf_cache_path = "/tmp/sfi_test_cdf_cache.bin";
    return config;
}

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

/// Two panels: an adaptive MC sweep (so the stopping classifications are
/// interesting) and a fixed-N op-stream sweep.
CampaignSpec obs_campaign(const CoreModelConfig& core = test_core_config()) {
    CampaignSpec spec;
    spec.name = "obs";
    spec.core = core;
    spec.trials = 5;
    spec.seed = 11;
    spec.sampling = sampling::SamplingPolicy::target_ci(0.15, 30, 10);

    PanelSpec mc;
    mc.name = "obs_median";
    mc.kernel = KernelSpec::bench(BenchmarkId::Median);
    mc.model = ModelSpec::c();
    mc.base.vdd = 0.7;
    mc.base.noise.sigma_mv = 10.0;
    // A safe point and one where model C faults and outcomes mix on the
    // 1,024-cycle core (see test_campaign.cpp's tiny_campaign).
    mc.grid = GridSpec::explicit_values({500.0, 775.0});
    spec.panels.push_back(mc);

    PanelSpec stream;
    stream.name = "obs_stream";
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

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

/// Ledger bytes minus the volatile header line — what the byte-equality
/// contract covers (CI strips it the same way with `tail -n +2`).
std::string ledger_body(const std::ostringstream& os) {
    const std::string text = os.str();
    const std::size_t eol = text.find('\n');
    return eol == std::string::npos ? std::string{} : text.substr(eol + 1);
}

std::string manifest_stable_part(const std::string& path) {
    std::istringstream is(read_file(path));
    std::string out, line;
    while (std::getline(is, line))
        if (line.find("\"run\":") == std::string::npos) out += line + "\n";
    return out;
}

class ObsCampaignTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::path(::testing::TempDir()) /
                ("sfi_obs_campaign_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    RunOptions options(const std::string& workspace,
                       std::size_t threads = 2) const {
        RunOptions o;
        o.store_path = dir_ + "/" + workspace + "/store.bin";
        o.csv_dir = dir_ + "/" + workspace + "/csv";
        o.threads = threads;
        return o;
    }

    /// Runs the obs campaign with a ledger attached, returning the raw
    /// ledger text.
    std::ostringstream traced_run(const std::string& workspace,
                                  obs::TraceMode mode, std::size_t threads,
                                  CampaignResult* out = nullptr,
                                  CampaignSpec spec = obs_campaign()) {
        std::ostringstream os;
        obs::Ledger ledger(os, mode);
        RunOptions o = options(workspace, threads);
        o.ledger = &ledger;
        CampaignRunner runner(std::move(spec), std::move(o));
        CampaignResult result = runner.run();
        EXPECT_TRUE(result.completed);
        if (out != nullptr) *out = std::move(result);
        return os;
    }

    std::string dir_;
};

TEST_F(ObsCampaignTest, LogicalLedgerIsByteStableAcrossThreadsAndWarmth) {
    const std::ostringstream serial =
        traced_run("a", obs::TraceMode::Logical, 1);
    const std::ostringstream parallel =
        traced_run("b", obs::TraceMode::Logical, max_threads());
    // Warm rerun against workspace "a": every point served from the store.
    CampaignResult warm_result;
    const std::ostringstream warm =
        traced_run("a", obs::TraceMode::Logical, 2, &warm_result);
    EXPECT_EQ(warm_result.store_hits, 4u);
    EXPECT_EQ(warm_result.store_misses, 0u);

    const std::string reference = ledger_body(serial);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(reference, ledger_body(parallel));
    EXPECT_EQ(reference, ledger_body(warm));

    // The stable narrative is actually there: spans, stopping
    // classifications, spec-pure counters.
    std::istringstream is(serial.str());
    const obs::LedgerFile file = obs::read_ledger(is);
    std::size_t points = 0, counters = 0;
    for (const obs::LedgerEvent& ev : file.events) {
        // The instrumentation spans are wall-only: a warm and a cold CDF
        // cache must read alike here.
        for (const char* wall_only :
             {"characterize", "calibrate", "cdf_cache_load", "dta_class",
              "cdf_build", "cdf_cache_save", "decode", "trial_run"})
            EXPECT_NE(ev.name, wall_only);
        if (ev.name == "point" && ev.ph == 'E') {
            ++points;
            EXPECT_FALSE(ev.arg_string("stop").empty());
        }
        if (ev.ph == 'C') {
            ++counters;
            EXPECT_FALSE(obs::volatile_metric_name(ev.name))
                << "volatile counter in logical ledger: " << ev.name;
        }
        EXPECT_EQ(ev.ts_us, 0.0);
        EXPECT_EQ(ev.tid, 0u);
    }
    EXPECT_EQ(points, 4u);
    EXPECT_GT(counters, 0u);
}

TEST_F(ObsCampaignTest, WallLedgerRecordsTheVolatileStoryWithBalancedSpans) {
    // Cores and conditioned stores are built once per process, on the
    // ledger of the runner that asks first. A core no other test of this
    // binary uses (its own DTA seed, no cache file) makes this run the
    // first, so its characterization lands here whatever ran before.
    CoreModelConfig core = test_core_config();
    core.dta.seed = 0x0B5EDULL;
    core.cdf_cache_path.clear();
    const CampaignSpec spec = obs_campaign(core);
    CampaignResult cold_result;
    const std::ostringstream cold =
        traced_run("w", obs::TraceMode::Wall, 2, &cold_result, spec);

    std::istringstream cold_is(cold.str());
    const obs::LedgerFile file = obs::read_ledger(cold_is);
    std::map<std::string, std::size_t> names;
    std::vector<std::string> stack;
    bool saw_worker_lane = false;
    for (const obs::LedgerEvent& ev : file.events) {
        ++names[std::string(1, ev.ph) + ":" + ev.name];
        if (ev.ph == 'B') stack.push_back(ev.name);
        if (ev.ph == 'E') {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), ev.name);
            stack.pop_back();
        }
        if (ev.ph == 'X' && ev.tid >= 1) {
            saw_worker_lane = true;
            EXPECT_GE(ev.dur_us, 0.0);
            EXPECT_GT(ev.arg_uint("trials"), 0u);
        }
    }
    EXPECT_TRUE(stack.empty());
    EXPECT_EQ(names["B:campaign"], 1u);
    EXPECT_EQ(names["B:panel"], 2u);
    EXPECT_EQ(names["B:point"], 4u);
    EXPECT_EQ(names["i:store_miss"], 4u);  // cold: every point computed
    EXPECT_EQ(names["i:store_hit"], 0u);
    EXPECT_GT(names["B:batch"], 0u);       // MC points ran real batches
    EXPECT_EQ(names["i:run_stats"], 1u);
    EXPECT_GT(names["i:progress"], 0u);
    EXPECT_TRUE(saw_worker_lane);
    // Where the dispatch thread's time went: the core's characterization
    // (the whole DTA, from no cache), micro-op priming of the MC panel's
    // worker contexts, and the op-stream panel's conditioned DTA inside
    // its first point.
    EXPECT_EQ(names["B:characterize"], 1u);
    EXPECT_EQ(names["B:calibrate"], 1u);
    EXPECT_EQ(names["B:decode"], 1u);
    EXPECT_GE(names["B:dta_class"], 1u);

    // Warm rerun: hits instead of misses, and no batches at all.
    const std::ostringstream warm =
        traced_run("w", obs::TraceMode::Wall, 2, nullptr, spec);
    std::istringstream warm_is(warm.str());
    const obs::LedgerFile warm_file = obs::read_ledger(warm_is);
    std::size_t hits = 0, misses = 0, batches = 0;
    for (const obs::LedgerEvent& ev : warm_file.events) {
        if (ev.name == "store_hit") ++hits;
        if (ev.name == "store_miss") ++misses;
        if (ev.name == "batch" && ev.ph == 'B') ++batches;
    }
    EXPECT_EQ(hits, 4u);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(batches, 0u);
    EXPECT_EQ(cold_result.trials_spent, 0u + cold_result.trials_spent);
}

TEST_F(ObsCampaignTest, ManifestStoppingBlockIsStableAcrossWarmth) {
    CampaignRunner cold(obs_campaign(), options("m"));
    const CampaignResult first = cold.run();
    ASSERT_TRUE(first.completed);
    ASSERT_FALSE(first.manifest_path.empty());
    const std::string cold_stable = manifest_stable_part(first.manifest_path);
    EXPECT_NE(cold_stable.find("\"stopping\": {\"fixed\": "),
              std::string::npos);

    // The op-stream panel is fixed-N; the MC panel ran adaptively, so its
    // points all classified as one of the adaptive rules.
    const PanelResult& mc = first.panel("obs_median");
    const PanelResult& stream = first.panel("obs_stream");
    ASSERT_EQ(mc.sweep.size(), 2u);
    const PointSummary& hot = mc.sweep[1];
    EXPECT_GT(hot.fi_rate, 0.0);
    EXPECT_GT(hot.correct_count, 0u);
    EXPECT_LT(hot.correct_count, hot.trials);
    std::uint64_t mc_total = 0;
    for (const std::uint64_t n : mc.stopping) mc_total += n;
    EXPECT_EQ(mc_total, mc.sweep.size());
    EXPECT_EQ(mc.stopping[static_cast<std::size_t>(
                  sampling::StopRule::Fixed)],
              0u);
    EXPECT_EQ(stream.stopping[static_cast<std::size_t>(
                  sampling::StopRule::Fixed)],
              stream.sweep.size());

    CampaignRunner warm(obs_campaign(), options("m"));
    const CampaignResult second = warm.run();
    EXPECT_EQ(second.store_hits, 4u);
    EXPECT_EQ(manifest_stable_part(second.manifest_path), cold_stable);
    // Warm stopping classifications equal the cold ones (classify_stop on
    // store-served summaries agrees with the engine's live decisions).
    EXPECT_EQ(second.panel("obs_median").stopping, mc.stopping);
}

TEST_F(ObsCampaignTest, TracingIsObservationOnly) {
    CampaignRunner plain(obs_campaign(), options("p"));
    const CampaignResult untraced = plain.run();
    ASSERT_TRUE(untraced.completed);

    CampaignResult traced_result;
    traced_run("t", obs::TraceMode::Wall, 2, &traced_result);

    for (const char* panel : {"obs_median", "obs_stream"}) {
        const std::string csv = std::string(panel) + ".csv";
        EXPECT_EQ(read_file(dir_ + "/p/csv/" + csv),
                  read_file(dir_ + "/t/csv/" + csv))
            << csv;
    }
    EXPECT_EQ(manifest_stable_part(untraced.manifest_path),
              manifest_stable_part(traced_result.manifest_path));
}

TEST_F(ObsCampaignTest, ExternalMetricsRegistryAccumulatesCampaignCounters) {
    obs::MetricsRegistry metrics;
    RunOptions o = options("x");
    o.metrics = &metrics;
    CampaignRunner runner(obs_campaign(), std::move(o));
    const CampaignResult result = runner.run();
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(metrics.counter("campaign.points"), 4u);
    EXPECT_EQ(metrics.counter("campaign.trials_spent"), result.trials_spent);
    EXPECT_EQ(metrics.counter("run.store_misses"), 4u);
    EXPECT_EQ(&runner.metrics(), &metrics);
}

TEST_F(ObsCampaignTest, CancelledRunEmitsTheCancellationInstant) {
    std::ostringstream os;
    obs::Ledger ledger(os, obs::TraceMode::Logical);
    RunOptions o = options("c");
    o.ledger = &ledger;
    std::size_t points_allowed = 1;
    o.cancelled = [&] { return points_allowed-- == 0; };
    CampaignRunner runner(obs_campaign(), std::move(o));
    const CampaignResult result = runner.run();
    EXPECT_FALSE(result.completed);

    std::istringstream is(os.str());
    const obs::LedgerFile file = obs::read_ledger(is);
    std::vector<std::string> stack;
    bool saw_cancelled = false;
    for (const obs::LedgerEvent& ev : file.events) {
        if (ev.ph == 'B') stack.push_back(ev.name);
        if (ev.ph == 'E') {
            ASSERT_FALSE(stack.empty());
            stack.pop_back();
        }
        if (ev.name == "cancelled") saw_cancelled = true;
    }
    // Even a cancelled run leaves a well-formed ledger: every span
    // closed, the cancellation recorded as part of the stable narrative.
    EXPECT_TRUE(stack.empty());
    EXPECT_TRUE(saw_cancelled);
}

}  // namespace
}  // namespace sfi::campaign
