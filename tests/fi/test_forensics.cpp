// Fault-forensics layer (src/fi/forensics.{hpp,cpp} + the classifier in
// src/mc/montecarlo.cpp):
//
//  * FaultRecord binary round-trip and the reader's header validation;
//  * classification edges — zero-injection trials are Masked vacuously
//    (fast path on and off), watchdog trials are never SDC, razor models
//    classify Detected with latency >= 0, and the arch-state diff ignores
//    the write-sink register slot r0;
//  * the probed re-run is bit-identical to the plain trial in every
//    TrialOutcome field (the probe adds no RNG draws), for every model;
//  * serial and parallel record streams are bitwise identical at any
//    thread count;
//  * ForensicSink artifacts round-trip through the panel-tally reader
//    that sfi_trace uses.
#include "fi/forensics.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fi/mitigation.hpp"
#include "mc/parallel.hpp"
#include "testing/serial_point.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::SerialTrials;
using testing::shared_core;

OperatingPoint point(double f, double vdd = 0.7, double sigma = 0.0) {
    OperatingPoint p;
    p.freq_mhz = f;
    p.vdd = vdd;
    p.noise.sigma_mv = sigma;
    return p;
}

McConfig fast_config(std::size_t trials = 10) {
    McConfig config;
    config.trials = trials;
    config.seed = 99;
    return config;
}

/// Model B's deterministic first-fault frequency at 0.7 V on the test
/// core; +1 MHz guarantees injections on every trial.
double model_b_first_fault_mhz() {
    auto model = shared_core().make_model_b();
    model->set_operating_point(point(700.0));
    return model->first_fault_frequency_mhz();
}

/// Frequency with guaranteed model-C injection activity on the median
/// kernel (its EX mix is adds/compares, not the critical mul path).
double model_c_active_mhz() {
    auto model = shared_core().make_model_c();
    model->set_operating_point(point(700.0, 0.7, 10.0));
    return 1.2 * std::min(model->first_fault_frequency_mhz(ExClass::Cmp),
                          model->first_fault_frequency_mhz(ExClass::Add));
}

void expect_outcomes_identical(const TrialOutcome& a, const TrialOutcome& b) {
    EXPECT_EQ(a.stop, b.stop);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.output_error, b.output_error);
    EXPECT_EQ(a.fi.fi_cycles, b.fi.fi_cycles);
    EXPECT_EQ(a.fi.alu_ops, b.fi.alu_ops);
    EXPECT_EQ(a.fi.injections, b.fi.injections);
    EXPECT_EQ(a.fi.corrupted_ops, b.fi.corrupted_ops);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.kernel_cycles, b.kernel_cycles);
}

// ---------------------------------------------------------------------------
// Record serialization.
// ---------------------------------------------------------------------------

std::vector<FaultRecord> synthetic_records() {
    std::vector<FaultRecord> records;
    Rng rng(42);
    for (int i = 0; i < 57; ++i) {
        FaultRecord rec;
        rec.trial = rng.u32();
        rec.point_id = rng.bounded(8);
        rec.cycle = (static_cast<std::uint64_t>(rng.u32()) << 32) | rng.u32();
        rec.pc = rng.u32() & ~3u;
        rec.window = static_cast<std::uint16_t>(rng.bounded(5) + 1);
        rec.op = static_cast<std::uint8_t>(rng.bounded(32));
        rec.cls = static_cast<std::uint8_t>(rng.bounded(6));
        rec.endpoint = static_cast<std::uint8_t>(rng.bounded(32));
        rec.policy = static_cast<std::uint8_t>(rng.bounded(3));
        rec.pre_bit = static_cast<std::uint8_t>(rng.bounded(2));
        rec.post_bit = static_cast<std::uint8_t>(1 - rec.pre_bit);
        rec.razor = static_cast<std::uint8_t>(rng.bounded(3));
        records.push_back(rec);
    }
    return records;
}

TEST(FaultRecordStream, RoundTripsEveryField) {
    const auto records = synthetic_records();
    std::ostringstream os;
    write_fault_records(os, records);
    // Header (magic + record size + count) + fixed-width payload.
    ASSERT_EQ(os.str().size(), 8 + 4 + 4 + records.size() * kFaultRecordBytes);
    std::istringstream is(os.str());
    EXPECT_EQ(read_fault_records(is), records);
}

TEST(FaultRecordStream, EmptyStreamRoundTrips) {
    std::ostringstream os;
    write_fault_records(os, {});
    std::istringstream is(os.str());
    EXPECT_TRUE(read_fault_records(is).empty());
}

TEST(FaultRecordStream, ReaderRejectsBadMagicSizeAndTruncation) {
    std::ostringstream os;
    write_fault_records(os, synthetic_records());
    const std::string good = os.str();

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    std::istringstream magic_is(bad_magic);
    EXPECT_THROW(read_fault_records(magic_is), std::runtime_error);

    std::string bad_size = good;
    bad_size[8] = static_cast<char>(kFaultRecordBytes + 1);
    std::istringstream size_is(bad_size);
    EXPECT_THROW(read_fault_records(size_is), std::runtime_error);

    std::istringstream short_is(good.substr(0, good.size() - 1));
    EXPECT_THROW(read_fault_records(short_is), std::runtime_error);
}

TEST(LatencyHistogram, PowerOfTwoBuckets) {
    EXPECT_EQ(latency_bucket(0), 0u);   // exact zero-latency detections
    EXPECT_EQ(latency_bucket(1), 1u);   // [1, 2)
    EXPECT_EQ(latency_bucket(2), 2u);   // [2, 4)
    EXPECT_EQ(latency_bucket(3), 2u);
    EXPECT_EQ(latency_bucket(4), 3u);
    EXPECT_EQ(latency_bucket(0xffffffffu), kLatencyBuckets - 1);
}

// ---------------------------------------------------------------------------
// Classification edges.
// ---------------------------------------------------------------------------

TEST(Classification, ZeroInjectionTrialsAreMaskedVacuously) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    // Below the deterministic first-fault threshold model B provably
    // cannot inject; with the fast path on the trial is the golden run by
    // construction, with it off the full ISS run must classify the same.
    const OperatingPoint p = point(model_b_first_fault_mhz() - 50.0);
    for (const bool fast_path : {true, false}) {
        SCOPED_TRACE(fast_path ? "fast path" : "full run");
        auto model = shared_core().make_model_b();
        McConfig config = fast_config(4);
        config.zero_fault_fast_path = fast_path;
        config.threads = 2;
        MonteCarloRunner runner(*bench, *model, config);
        // The block engine first, while its worker contexts are fresh
        // (never reset, never run): a fast-path trial classifies without
        // looking at them. Then the serial form on a test-owned Cpu.
        std::vector<TrialForensics> results = runner.run_forensics(p, 4);
        SerialTrials serial(runner, *model);
        for (std::uint64_t trial = 0; trial < 4; ++trial)
            results.push_back(serial.run_forensic(p, trial));
        for (const TrialForensics& fx : results) {
            EXPECT_EQ(fx.cls, OutcomeClass::Masked);
            EXPECT_TRUE(fx.records.empty());
            EXPECT_TRUE(fx.outcome.finished);
            EXPECT_TRUE(fx.outcome.correct);
            EXPECT_EQ(fx.outcome.fi.injections, 0u);
            EXPECT_EQ(fx.razor_detected, 0u);
            EXPECT_EQ(fx.razor_escaped, 0u);
        }
    }
}

TEST(Classification, WatchdogTrialsAreNeverSdc) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_b();
    MonteCarloRunner runner(*bench, *model, fast_config(12));
    // Past the first-fault threshold every op on the critical path is hit:
    // trials overwhelmingly blow the watchdog or die on a fatal stop.
    const OperatingPoint p = point(model_b_first_fault_mhz() + 1.0);
    std::size_t hangs = 0;
    for (const TrialForensics& fx : runner.run_forensics(p, 12)) {
        if (!fx.outcome.finished) {
            ++hangs;
            EXPECT_EQ(fx.cls, OutcomeClass::Hang);
        } else {
            EXPECT_NE(fx.cls, OutcomeClass::Hang);
        }
        // SDC is reserved for trials that ran to completion.
        if (fx.cls == OutcomeClass::SDC) {
            EXPECT_TRUE(fx.outcome.finished);
        }
    }
    ASSERT_GT(hangs, 0u) << "point never hung: the edge was not exercised";

    // The precedence directly: a non-finished outcome classifies Hang no
    // matter what the architectural state looks like.
    TrialContext context(runner.benchmark(), runner.model());
    TrialOutcome hung = runner.run_trial_with(
        context.cpu, *context.model, point(model_b_first_fault_mhz() - 50.0),
        0);
    hung.finished = false;
    hung.correct = false;
    EXPECT_EQ(runner.classify_trial(context.cpu, hung, 0),
              OutcomeClass::Hang);
    EXPECT_EQ(runner.classify_trial(context.cpu, hung, 3),
              OutcomeClass::Hang);  // even with razor detections
}

TEST(Classification, RazorDetectionsClassifyDetectedWithLatency) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    RazorConfig razor;
    razor.detection_coverage = 1.0;  // every corruption replays correctly
    ErrorDetectionModel model(shared_core().make_model_b(), razor);
    MonteCarloRunner runner(*bench, model, fast_config(6));
    const OperatingPoint p = point(model_b_first_fault_mhz() + 1.0);
    const std::vector<TrialForensics> results = runner.run_forensics(p, 6);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const TrialForensics& fx = results[trial];
        ASSERT_TRUE(fx.outcome.finished);
        ASSERT_TRUE(fx.outcome.correct);
        ASSERT_GT(fx.razor_detected, 0u);
        EXPECT_EQ(fx.cls, OutcomeClass::Detected);
        EXPECT_EQ(fx.razor_escaped, 0u);
        // One latency sample per detection; the trial's first detection
        // replays the op of the first injection, so its latency is 0.
        ASSERT_EQ(fx.detection_latencies.size(), fx.razor_detected);
        EXPECT_EQ(fx.detection_latencies.front(), 0u);
        for (const FaultRecord& rec : fx.records) {
            EXPECT_EQ(rec.razor, kRazorDetected);
            EXPECT_GE(rec.window, 1u);  // inside an FI window by definition
        }
    }
}

TEST(Classification, ArchDiffIgnoresTheWriteSinkRegister) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_b();
    // Fast path off: the trial must actually execute so the context CPU
    // ends up holding the final architectural state to diff.
    McConfig config = fast_config(2);
    config.zero_fault_fast_path = false;
    MonteCarloRunner runner(*bench, *model, config);
    const OperatingPoint p = point(model_b_first_fault_mhz() - 50.0);

    TrialContext context(runner.benchmark(), runner.model());
    const TrialOutcome clean =
        runner.run_trial_with(context.cpu, *context.model, p, 0);
    ASSERT_TRUE(clean.finished);
    ASSERT_TRUE(clean.correct);
    ASSERT_FALSE(runner.arch_state_differs(context.cpu));
    ASSERT_EQ(runner.classify_trial(context.cpu, clean, 0),
              OutcomeClass::Masked);

    // r0 is the architectural write sink (the threaded engine parks
    // discarded results there): scribbling on it must not read as latent
    // corruption...
    context.cpu.set_reg(0, 0xdeadbeefu);
    EXPECT_FALSE(runner.arch_state_differs(context.cpu));
    EXPECT_EQ(runner.classify_trial(context.cpu, clean, 0),
              OutcomeClass::Masked);

    // ...while any named register does.
    context.cpu.set_reg(7, context.cpu.reg(7) ^ 1u);
    EXPECT_TRUE(runner.arch_state_differs(context.cpu));
    EXPECT_EQ(runner.classify_trial(context.cpu, clean, 0),
              OutcomeClass::LatentCorrupt);
}

// ---------------------------------------------------------------------------
// The probe is transparent: a probed trial == the plain trial, bitwise.
// ---------------------------------------------------------------------------

TEST(ProbeTransparency, ForensicOutcomeMatchesPlainTrialForEveryModel) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const CharacterizedCore& core = shared_core();
    const double fb = model_b_first_fault_mhz();

    struct Case {
        std::string label;
        std::unique_ptr<FaultModel> model;
        OperatingPoint at;
    };
    std::vector<Case> cases;
    cases.push_back({"A", core.make_model_a(1e-3), point(fb)});
    cases.push_back({"B", core.make_model_b(), point(fb + 1.0)});
    // B+ exercises the bulk-mask fallback: the probed path applies the
    // mask endpoint-by-endpoint and must not disturb the RNG stream.
    cases.push_back({"B+", core.make_model_b(), point(fb - 10.0, 0.7, 10.0)});
    const double fc = model_c_active_mhz();
    cases.push_back({"C", core.make_model_c(), point(fc, 0.7, 10.0)});
    RazorConfig razor;
    razor.detection_coverage = 0.7;  // both verdict branches draw
    cases.push_back({"razor(C)",
                     std::make_unique<ErrorDetectionModel>(core.make_model_c(),
                                                           razor),
                     point(fc, 0.7, 10.0)});

    for (Case& c : cases) {
        SCOPED_TRACE("model " + c.label);
        MonteCarloRunner runner(*bench, *c.model, fast_config(6));
        SerialTrials serial(runner, *c.model);
        std::uint64_t injections = 0;
        for (std::uint64_t trial = 0; trial < 6; ++trial) {
            SCOPED_TRACE("trial " + std::to_string(trial));
            const TrialOutcome plain = serial.run(c.at, trial);
            const TrialForensics fx = serial.run_forensic(c.at, trial);
            expect_outcomes_identical(plain, fx.outcome);
            injections += plain.fi.injections;
            // Every record is stamped with the trial it belongs to.
            for (const FaultRecord& rec : fx.records)
                EXPECT_EQ(rec.trial, trial);
        }
        EXPECT_GT(injections, 0u)
            << "point never injected: the comparison was vacuous";
    }
}

// ---------------------------------------------------------------------------
// Serial == parallel record streams, bitwise, at any thread count.
// ---------------------------------------------------------------------------

TEST(ForensicDeterminism, RecordStreamBitwiseIdenticalAcrossThreadCounts) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    constexpr std::size_t kTrials = 24;
    auto model = shared_core().make_model_b();
    MonteCarloRunner runner(*bench, *model, fast_config(kTrials));
    // Noise makes the per-trial streams genuinely distinct.
    const OperatingPoint p = point(model_b_first_fault_mhz() - 5.0, 0.7, 10.0);

    const auto drain = [&](const std::vector<TrialForensics>& fxs) {
        ForensicSink sink;
        const std::uint32_t pid = sink.begin_point("panel", "B+", "median", p);
        for (const TrialForensics& fx : fxs)
            sink.add_trial(pid, fx.cls, fx.outcome.finished,
                           fx.outcome.correct, fx.razor_detected,
                           fx.razor_escaped, fx.records,
                           fx.detection_latencies);
        std::ostringstream os;
        sink.write_records(os);
        return os.str();
    };

    std::vector<TrialForensics> serial;
    SerialTrials serial_trials(runner, *model);
    for (std::uint64_t trial = 0; trial < kTrials; ++trial)
        serial.push_back(serial_trials.run_forensic(p, trial));
    const std::string reference = drain(serial);
    std::uint64_t records = 0;
    for (const TrialForensics& fx : serial) records += fx.records.size();
    ASSERT_GT(records, 0u) << "point never injected: byte-compare vacuous";

    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        McConfig config = fast_config(kTrials);
        config.threads = threads;
        MonteCarloRunner engine(*bench, *model, config);
        const auto parallel = engine.run_forensics(p, kTrials);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(parallel[i].cls, serial[i].cls) << "trial " << i;
            expect_outcomes_identical(serial[i].outcome, parallel[i].outcome);
        }
        EXPECT_EQ(drain(parallel), reference);
    }
}

// ---------------------------------------------------------------------------
// Sink artifacts round-trip through the sfi_trace reader.
// ---------------------------------------------------------------------------

TEST(ForensicSinkArtifacts, PanelTalliesRoundTripThroughCsvReader) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::path(::testing::TempDir()) /
         ("sfi_forensics_test_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);

    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_b();
    MonteCarloRunner runner(*bench, *model, fast_config(8));
    const OperatingPoint p = point(model_b_first_fault_mhz() + 1.0);

    ForensicSink sink;
    const std::uint32_t pid = sink.begin_point("panel_b", "B", "median", p);
    std::array<std::uint64_t, kOutcomeClassCount> expected{};
    for (TrialForensics& fx : runner.run_forensics(p, 8)) {
        ++expected[static_cast<std::size_t>(fx.cls)];
        sink.add_trial(pid, fx.cls, fx.outcome.finished, fx.outcome.correct,
                       fx.razor_detected, fx.razor_escaped,
                       std::move(fx.records), fx.detection_latencies);
    }
    sink.write_artifacts(dir);

    const auto tallies =
        read_forensic_panel_tallies(dir + "/forensics_points.csv");
    ASSERT_EQ(tallies.size(), 1u);
    const auto it = tallies.find("panel_b");
    ASSERT_NE(it, tallies.end());
    EXPECT_EQ(it->second.trials, 8u);
    for (std::size_t i = 0; i < kOutcomeClassCount; ++i)
        EXPECT_EQ(it->second.outcomes[i], expected[i]) << outcome_class_name(
            static_cast<OutcomeClass>(i));

    // Missing file: tolerant empty map, never a throw.
    EXPECT_TRUE(read_forensic_panel_tallies(dir + "/absent.csv").empty());
    fs::remove_all(dir);
}

}  // namespace
}  // namespace sfi
