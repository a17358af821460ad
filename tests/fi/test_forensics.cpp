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
//  * ForensicSink artifacts round-trip through read_forensic_points
//    field for field, and the reader drops malformed rows; the record
//    reader fails forged counts as truncation, not allocation.
#include "fi/forensics.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

// The header's count is the file's claim: a forged one must fail as a
// truncated payload, never as an allocation of what it claims. The reads
// run in a child whose address space is capped 256 MiB above its size
// (per /proc/self/statm), so a vector reserved for 0xffffffff records
// (~128 GiB) fails to allocate on any host, whatever its memory and
// overcommit policy. The child exits 0 only if every count threw
// std::runtime_error.
TEST(FaultRecordStreamDeathTest, ForgedCountsThrowRuntimeError) {
    EXPECT_EXIT(
        {
            std::ifstream statm("/proc/self/statm");
            unsigned long long pages = 0;
            statm >> pages;
            const rlim_t cap =
                pages * static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) +
                (rlim_t{256} << 20);
            rlimit limit{};
            if (pages == 0 || ::getrlimit(RLIMIT_AS, &limit) != 0)
                std::_Exit(3);
            limit.rlim_cur = std::min(cap, limit.rlim_max);
            if (::setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
            for (const std::uint32_t count : {0xffffffffu, 1000000u, 1u}) {
                std::string header(kForensicMagic, 8);
                for (const std::uint32_t field :
                     {static_cast<std::uint32_t>(kFaultRecordBytes), count})
                    for (int byte = 0; byte < 4; ++byte)
                        header.push_back(
                            static_cast<char>(field >> (8 * byte)));
                std::istringstream is(header);
                try {
                    read_fault_records(is);
                    std::fprintf(stderr, "count %u: no throw\n", count);
                    std::_Exit(1);
                } catch (const std::runtime_error&) {
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "count %u: %s\n", count, e.what());
                    std::_Exit(2);
                }
            }
            std::_Exit(0);
        },
        ::testing::ExitedWithCode(0), "");
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
    DetectionModel model(shared_core().make_model_b(), razor);
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
                     std::make_unique<DetectionModel>(core.make_model_c(),
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

    const auto drain = [&](std::vector<TrialForensics> fxs) {
        ForensicSink sink;
        sink.add_point("panel", "B+", "median", p, std::move(fxs));
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
// Sink artifacts round-trip through the one forensics_points.csv reader.
// ---------------------------------------------------------------------------

/// A fresh per-process directory under the test temp dir.
std::string temp_dir(const std::string& name) {
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::path(::testing::TempDir()) /
         (name + "_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(ForensicSinkArtifacts, PointsRoundTripThroughCsvReader) {
    const std::string dir = temp_dir("sfi_forensics_test");
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = shared_core().make_model_b();
    MonteCarloRunner runner(*bench, *model, fast_config(8));
    const OperatingPoint p = point(model_b_first_fault_mhz() + 1.0, 0.7, 2.5);

    ForensicSink sink;
    for (const std::string panel : {"panel_b", "odd, \"quoted\" panel"}) {
        std::vector<TrialForensics> fxs = runner.run_forensics(p, 8);
        std::array<std::uint64_t, kOutcomeClassCount> expected{};
        std::uint64_t records = 0;
        for (const TrialForensics& fx : fxs) {
            ++expected[static_cast<std::size_t>(fx.cls)];
            records += fx.records.size();
        }
        const ForensicPointInfo& info =
            sink.add_point(panel, "B", "median", p, std::move(fxs));
        EXPECT_EQ(info.trials_sampled, 8u);
        EXPECT_EQ(info.outcomes, expected);
        EXPECT_EQ(info.injections, records);
    }
    ASSERT_GT(sink.records().size(), 0u) << "round trip of empty tallies";
    sink.write_artifacts(dir);

    // Every field of every row, quoted separators and doubled quotes
    // included.
    EXPECT_EQ(read_forensic_points(dir + "/forensics_points.csv"),
              sink.points());
    // Missing file: no rows, never a throw.
    EXPECT_TRUE(read_forensic_points(dir + "/absent.csv").empty());
    std::filesystem::remove_all(dir);
}

TEST(ForensicPointsReader, DropsMalformedRowsAndForeignTables) {
    const std::string dir = temp_dir("sfi_forensics_reader");
    const auto read = [&dir](const std::string& text) {
        std::ofstream(dir + "/points.csv", std::ios::trunc) << text;
        return read_forensic_points(dir + "/points.csv");
    };
    const std::string header = "panel,point_id,freq_mhz,trials,sdc\n";

    EXPECT_TRUE(read("").empty());
    EXPECT_TRUE(read(header).empty());
    // Without a panel column the table is not a forensic points table.
    EXPECT_TRUE(read("name,point_id,trials\np,0,8\n").empty());

    const auto rows = read(header +
                           "good,0,700.5,8,3\n"
                           "short,1,700.5,8\n"
                           "signed,2,700.5,-1,3\n"
                           "partial,3,700.5,3x,3\n"
                           "empty,4,700.5,,3\n"
                           "huge,5,700.5,18446744073709551616,3\n"
                           "freq,6,7x,8,3\n"
                           "\"kept, too\",7,1e3,0,0\n");
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].panel, "good");
    EXPECT_EQ(rows[0].point_id, 0u);
    EXPECT_EQ(rows[0].freq_mhz, 700.5);
    EXPECT_EQ(rows[0].trials_sampled, 8u);
    EXPECT_EQ(rows[0].outcomes[static_cast<std::size_t>(OutcomeClass::SDC)],
              3u);
    // Columns the header lacks read as 0.
    EXPECT_EQ(rows[0].finished, 0u);
    EXPECT_EQ(rows[0].model, "");
    EXPECT_EQ(rows[1].panel, "kept, too");
    EXPECT_EQ(rows[1].freq_mhz, 1000.0);
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sfi
