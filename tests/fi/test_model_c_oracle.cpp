// Model C against its reference walk (tests/testing/reference_model_c.hpp):
// one scalar noise draw and one violation_prob per live endpoint per op.
// ModelC's count memo, hoisted class views and batched draws must leave
// every observable exactly where that walk puts it — latched values,
// FiStats, forensic records and the final Rng state — over seeded op
// streams that mix classes, at sigma 0/10/25 mV, at frequencies below, at
// and above each class's first fault, under both fault policies, through
// a mid-stream point change A -> B -> A, a mid-stream clone and an
// attached forensic probe, under Batched sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "fi/forensics.hpp"
#include "testing/reference_model_c.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::ReferenceModelC;
using testing::shared_core;

std::vector<ExClass> characterized_classes() {
    std::vector<ExClass> classes;
    for (std::size_t c = 0; c < kExClassCount; ++c)
        if (shared_core().cdfs()->has_class(static_cast<ExClass>(c)))
            classes.push_back(static_cast<ExClass>(c));
    return classes;
}

OperatingPoint point_at(double freq_mhz, double sigma_mv) {
    OperatingPoint point;
    point.freq_mhz = freq_mhz;
    point.vdd = 0.7;
    point.noise.sigma_mv = sigma_mv;
    return point;
}

/// Offers `n` random ops of random characterized classes to both models
/// and asserts that they latch the same value every time.
void run_ops(FaultModel& model, FaultModel& oracle,
             const std::vector<ExClass>& classes, Rng& ops, std::size_t n,
             const std::string& where) {
    for (std::size_t i = 0; i < n; ++i) {
        model.on_cycle(true);
        oracle.on_cycle(true);
        ExEvent ev;
        ev.cls = classes[ops.bounded(classes.size())];
        ev.operand_a = ops.u32();
        ev.operand_b = ops.u32();
        ev.prev_result = ops.u32();
        ev.cycle = i;
        const std::uint32_t correct = ops.u32();
        ASSERT_EQ(model.on_ex_result(ev, correct),
                  oracle.on_ex_result(ev, correct))
            << where << ", op " << i;
    }
}

void expect_same_stats(const FiStats& a, const FiStats& b,
                       const std::string& where) {
    EXPECT_EQ(a.fi_cycles, b.fi_cycles) << where;
    EXPECT_EQ(a.alu_ops, b.alu_ops) << where;
    EXPECT_EQ(a.injections, b.injections) << where;
    EXPECT_EQ(a.corrupted_ops, b.corrupted_ops) << where;
}

/// One stream: A, then B (other frequency AND other noise, so the draw
/// batch is reconfigured mid-stream), back to A, then a clone of the
/// model carries on, then a probed stretch. Returns the injections.
std::uint64_t differential_stream(double freq_mhz, double sigma_mv,
                                  FaultPolicy policy, std::uint64_t seed) {
    const std::string where =
        "f=" + std::to_string(freq_mhz) + " sigma=" +
        std::to_string(sigma_mv) + " policy=" +
        std::to_string(static_cast<int>(policy));
    const std::vector<ExClass> classes = characterized_classes();
    const OperatingPoint a = point_at(freq_mhz, sigma_mv);
    const OperatingPoint b =
        point_at(freq_mhz * 1.08, sigma_mv == 10.0 ? 25.0 : 10.0);

    std::unique_ptr<FaultModel> model = shared_core().make_model_c();
    ReferenceModelC oracle(shared_core().cdfs(), shared_core().lib().fit());
    EXPECT_EQ(model->sampling_mode(), FaultSamplingMode::Batched) << where;
    model->set_policy(policy);
    oracle.set_policy(policy);
    model->set_operating_point(a);
    oracle.set_operating_point(a);
    model->reseed(seed);
    oracle.reseed(seed);

    Rng ops(seed ^ 0x5eedULL);
    run_ops(*model, oracle, classes, ops, 300, where + " [A]");
    model->set_operating_point(b);
    oracle.set_operating_point(b);
    run_ops(*model, oracle, classes, ops, 200, where + " [B]");
    model->set_operating_point(a);
    oracle.set_operating_point(a);
    run_ops(*model, oracle, classes, ops, 200, where + " [A again]");

    model = model->clone();  // the clone must carry the stream on
    run_ops(*model, oracle, classes, ops, 200, where + " [clone]");

    ForensicProbe model_probe;
    ForensicProbe oracle_probe;
    model_probe.start_trial();
    oracle_probe.start_trial();
    model->set_forensic_probe(&model_probe);
    oracle.set_forensic_probe(&oracle_probe);
    run_ops(*model, oracle, classes, ops, 200, where + " [probed]");
    model->set_forensic_probe(nullptr);
    oracle.set_forensic_probe(nullptr);
    const std::vector<FaultRecord> got = model_probe.take_records();
    const std::vector<FaultRecord> want = oracle_probe.take_records();
    EXPECT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_EQ(got[i].cycle, want[i].cycle) << where << ", record " << i;
        EXPECT_EQ(got[i].endpoint, want[i].endpoint) << where << ", record " << i;
        EXPECT_EQ(got[i].pre_bit, want[i].pre_bit) << where << ", record " << i;
        EXPECT_EQ(got[i].post_bit, want[i].post_bit) << where << ", record " << i;
    }

    expect_same_stats(model->stats(), oracle.stats(), where);
    // Batched mode runs ahead of the reference stream by its prefetch; a
    // switch to Quantized first gives that lead back, after which the
    // generators must agree to the bit.
    model->set_sampling_mode(FaultSamplingMode::Quantized);
    EXPECT_TRUE(model->rng() == oracle.rng()) << where;
    return oracle.stats().injections;
}

TEST(ModelCOracle, MemoizedWalkMatchesTheReferenceWalk) {
    const std::vector<ExClass> classes = characterized_classes();
    ASSERT_GE(classes.size(), 2u);
    std::uint64_t seed = 1;
    for (const double sigma_mv : {0.0, 10.0, 25.0}) {
        std::uint64_t injections = 0;
        for (const ExClass cls : classes) {
            auto onset = shared_core().make_model_c();
            onset->set_operating_point(point_at(500.0, sigma_mv));
            const double first_fault = onset->first_fault_frequency_mhz(cls);
            // Below, at, just above and well above this class's onset.
            for (const double factor : {0.97, 1.0, 1.04, 1.25}) {
                for (const FaultPolicy policy :
                     {FaultPolicy::BitFlip, FaultPolicy::StaleCapture}) {
                    injections += differential_stream(
                        first_fault * factor, sigma_mv, policy, seed++);
                    if (::testing::Test::HasFatalFailure()) return;
                }
            }
        }
        EXPECT_GT(injections, 0u)
            << "sigma " << sigma_mv << ": no stream injected anything";
    }
}

TEST(ModelCOracle, SameShapedPointChangeRecountsTheMemo) {
    // Two noise-free points whose capture windows fall into the same gap
    // between consecutive endpoint max windows (over every characterized
    // class) violate the same classes and the same leading endpoints, so
    // model C lays out a count memo of the same shape for both — yet the
    // counts differ. The gap is the one whose two windows differ most in
    // total violation count; the memo must start empty at the second
    // point all the same.
    const TimingErrorCdfs& cdfs = *shared_core().cdfs();
    const std::vector<ExClass> classes = characterized_classes();
    std::vector<double> maxima;
    for (const ExClass cls : classes) {
        const std::vector<double>& windows = cdfs.endpoint_max_windows_ps(cls);
        maxima.insert(maxima.end(), windows.begin(), windows.end());
    }
    std::sort(maxima.begin(), maxima.end());
    const auto count_gap = [&](double wide, double narrow) {
        std::size_t gained = 0;
        for (const ExClass cls : classes)
            for (std::size_t e = 0; e < cdfs.endpoint_count(); ++e)
                gained += cdfs.violation_count(cls, e, narrow) -
                          cdfs.violation_count(cls, e, wide);
        return gained;
    };
    double wide = 0.0, narrow = 0.0;
    std::size_t most_gained = 0;
    for (std::size_t i = 1; i < maxima.size(); ++i) {
        const double lo = maxima[i - 1];
        const double hi = maxima[i];
        if (hi <= lo) continue;
        const double w_wide = lo + 0.75 * (hi - lo);
        const double w_narrow = lo + 0.25 * (hi - lo);
        const std::size_t gained = count_gap(w_wide, w_narrow);
        if (gained > most_gained) {
            most_gained = gained;
            wide = w_wide;
            narrow = w_narrow;
        }
    }
    ASSERT_GT(most_gained, 0u) << "no gap changes any count";

    // window = period / factor(vdd), so f = 1e6 / (window * factor).
    const double factor = shared_core().lib().fit().factor(0.7);
    const OperatingPoint a = point_at(1.0e6 / (wide * factor), 0.0);
    const OperatingPoint b = point_at(1.0e6 / (narrow * factor), 0.0);
    std::unique_ptr<FaultModel> model = shared_core().make_model_c();
    ReferenceModelC oracle(shared_core().cdfs(), shared_core().lib().fit());
    model->reseed(99);
    oracle.reseed(99);
    Rng ops(0xab5eedULL);
    model->set_operating_point(a);
    oracle.set_operating_point(a);
    run_ops(*model, oracle, classes, ops, 2000, "wide window");
    model->set_operating_point(b);
    oracle.set_operating_point(b);
    run_ops(*model, oracle, classes, ops, 2000, "narrow window");
    expect_same_stats(model->stats(), oracle.stats(), "same-shaped points");
    EXPECT_GT(oracle.stats().injections, 0u);
}

TEST(ModelCOracle, ReferenceWalkRejectsUncharacterizedClassesLikeModelC) {
    // ExClass::None is never characterized: both walks must throw the
    // store's error rather than read past the hoisted views.
    auto model = shared_core().make_model_c();
    ReferenceModelC oracle(shared_core().cdfs(), shared_core().lib().fit());
    const OperatingPoint hot = point_at(5000.0, 0.0);
    model->set_operating_point(hot);
    oracle.set_operating_point(hot);
    ExEvent ev;
    ev.cls = ExClass::None;
    EXPECT_THROW(model->on_ex_result(ev, 0), std::out_of_range);
    EXPECT_THROW(oracle.on_ex_result(ev, 0), std::out_of_range);
}

}  // namespace
}  // namespace sfi
