#include "fi/cdf.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "testing/cdf_forgery.hpp"

namespace sfi {
namespace {

/// Builds a tiny synthetic DTA result: two classes, 4 endpoints.
DtaResult synthetic_dta() {
    DtaResult dta;
    dta.setup_ps = 10.0;
    dta.cycles = 4;
    DtaClassResult add;
    add.cls = ExClass::Add;
    add.arrivals_ps = {
        {0.0f, 100.0f, 200.0f, 300.0f},  // endpoint 0
        {0.0f, 0.0f, 0.0f, 0.0f},        // endpoint 1: never toggles
        {50.0f, 50.0f, 50.0f, 50.0f},    // endpoint 2
        {400.0f, 100.0f, 0.0f, 200.0f},  // endpoint 3 (unsorted on purpose)
    };
    add.max_arrival_ps = 400.0;
    DtaClassResult mul;
    mul.cls = ExClass::Mul;
    mul.arrivals_ps = {
        {500.0f, 500.0f, 500.0f, 500.0f},
        {0.0f, 0.0f, 0.0f, 600.0f},
        {0.0f, 0.0f, 0.0f, 0.0f},
        {100.0f, 100.0f, 100.0f, 100.0f},
    };
    mul.max_arrival_ps = 600.0;
    dta.classes = {add, mul};
    dta.worst_arrival_ps = 600.0;
    return dta;
}

TEST(TimingErrorCdfs, ViolationProbabilityFromSortedSamples) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    // Endpoint 0 of add: arrivals {0,100,200,300}, setup 10.
    // window 320 -> threshold 310 -> 0 violations.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 320.0), 0.0);
    // window 250 -> threshold 240 -> one sample (300) above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 250.0), 0.25);
    // window 60 -> threshold 50 -> samples 100,200,300 above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 60.0), 0.75);
    // window 5 -> threshold -5 -> everything (incl. zero arrivals) above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 5.0), 1.0);
}

TEST(TimingErrorCdfs, ViolationCountIsTheProbabilityNumerator) {
    // Model C memoizes counts and divides by samples_per_endpoint(); that
    // must be the very double violation_prob returns.
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_EQ(cdfs.violation_count(ExClass::Add, 0, 250.0), 1u);
    EXPECT_EQ(cdfs.violation_count(ExClass::Add, 0, 5.0), 4u);
    EXPECT_EQ(cdfs.violation_count(ExClass::Mul, 1, 100.0), 1u);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul})
        for (std::size_t e = 0; e < cdfs.endpoint_count(); ++e)
            for (double window = -20.0; window <= 700.0; window += 7.5)
                EXPECT_EQ(cdfs.violation_prob(cls, e, window),
                          static_cast<double>(
                              cdfs.violation_count(cls, e, window)) /
                              static_cast<double>(cdfs.samples_per_endpoint()));
}

TEST(TimingErrorCdfs, EndpointMaxWindowsMatchThePerEndpointAccessor) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const std::vector<double>& windows = cdfs.endpoint_max_windows_ps(ExClass::Mul);
    ASSERT_EQ(windows.size(), cdfs.endpoint_count());
    for (std::size_t e = 0; e < windows.size(); ++e)
        EXPECT_EQ(windows[e], cdfs.endpoint_max_window_ps(ExClass::Mul, e));
}

TEST(TimingErrorCdfs, FromDtaRejectsRaggedShapes) {
    // Every class must carry the same endpoint count, at most 32, and
    // every endpoint exactly dta.cycles samples.
    DtaResult short_endpoint = synthetic_dta();
    short_endpoint.classes[0].arrivals_ps[2].pop_back();
    EXPECT_THROW(TimingErrorCdfs::from_dta(short_endpoint), std::invalid_argument);

    DtaResult ragged = synthetic_dta();
    ragged.classes[1].arrivals_ps.pop_back();
    EXPECT_THROW(TimingErrorCdfs::from_dta(ragged), std::invalid_argument);

    DtaResult wide = synthetic_dta();
    for (DtaClassResult& cls : wide.classes)
        cls.arrivals_ps.resize(33, std::vector<float>(4, 1.0f));
    EXPECT_THROW(TimingErrorCdfs::from_dta(wide), std::invalid_argument);
}

TEST(TimingErrorCdfs, BoundaryIsExclusive) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    // threshold exactly at a sample value: violation requires arrival >
    // threshold, so the sample at 50 does not count.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 2, 60.0), 0.0);
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 2, 59.999), 1.0);
}

TEST(TimingErrorCdfs, NonTogglingEndpointNeverViolates) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 1, 15.0), 0.0);
    EXPECT_DOUBLE_EQ(cdfs.endpoint_max_window_ps(ExClass::Add, 1), 10.0);
}

TEST(TimingErrorCdfs, MaxWindows) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_DOUBLE_EQ(cdfs.class_max_window_ps(ExClass::Add), 410.0);
    EXPECT_DOUBLE_EQ(cdfs.class_max_window_ps(ExClass::Mul), 610.0);
    EXPECT_DOUBLE_EQ(cdfs.max_window_ps(), 610.0);
    EXPECT_DOUBLE_EQ(cdfs.endpoint_max_window_ps(ExClass::Mul, 3), 110.0);
}

TEST(TimingErrorCdfs, CriticalityOrderSortsByMaxWindow) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const auto& order = cdfs.endpoints_by_criticality(ExClass::Mul);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);  // 610
    EXPECT_EQ(order[1], 0u);  // 510
    EXPECT_EQ(order[2], 3u);  // 110
    EXPECT_EQ(order[3], 2u);  // 10 (never toggles)
}

TEST(TimingErrorCdfs, MissingClassThrows) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_TRUE(cdfs.has_class(ExClass::Add));
    EXPECT_FALSE(cdfs.has_class(ExClass::Xor));
    EXPECT_THROW(cdfs.violation_prob(ExClass::Xor, 0, 100.0), std::out_of_range);
}

TEST(TimingErrorCdfs, SingleClassEqualsTheOneClassBuild) {
    // The copy of one class of a store, loaded from bytes or built, is
    // the store from_dta builds from that class alone: worst_arrival_ps,
    // which differs, is never read.
    const DtaResult dta = synthetic_dta();
    const auto cdfs = TimingErrorCdfs::from_dta(dta);
    std::stringstream buffer;
    cdfs.save(buffer);
    const auto loaded = TimingErrorCdfs::load(buffer);
    for (const DtaClassResult& cls_result : dta.classes) {
        DtaResult alone = dta;
        alone.classes = {cls_result};
        alone.worst_arrival_ps = 0.0;
        const auto expected = TimingErrorCdfs::from_dta(alone);
        for (const TimingErrorCdfs* store : {&cdfs, &loaded}) {
            const TimingErrorCdfs copy = store->single_class(cls_result.cls);
            EXPECT_TRUE(copy == expected) << ex_class_name(cls_result.cls);
            EXPECT_EQ(copy.endpoints_by_criticality(cls_result.cls),
                      expected.endpoints_by_criticality(cls_result.cls));
            EXPECT_EQ(copy.class_max_window_ps(cls_result.cls),
                      expected.class_max_window_ps(cls_result.cls));
        }
    }
    const TimingErrorCdfs add = cdfs.single_class(ExClass::Add);
    EXPECT_FALSE(add.has_class(ExClass::Mul));
    EXPECT_EQ(add.max_window_ps(), add.class_max_window_ps(ExClass::Add));
    EXPECT_THROW(cdfs.single_class(ExClass::Xor), std::out_of_range);
}

TEST(TimingErrorCdfs, SaveLoadRoundTrip) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    std::stringstream buffer;
    cdfs.save(buffer);
    const auto loaded = TimingErrorCdfs::load(buffer);
    EXPECT_TRUE(loaded == cdfs);
    EXPECT_DOUBLE_EQ(loaded.violation_prob(ExClass::Add, 0, 250.0), 0.25);
    EXPECT_DOUBLE_EQ(loaded.setup_ps(), 10.0);
    EXPECT_EQ(loaded.samples_per_endpoint(), 4u);
}

TEST(TimingErrorCdfs, LoadRejectsGarbage) {
    std::stringstream buffer("not a cdf store at all");
    EXPECT_THROW(TimingErrorCdfs::load(buffer), std::runtime_error);
}

TEST(TimingErrorCdfs, LoadRejectsTruncated) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    std::stringstream buffer;
    cdfs.save(buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream half(bytes);
    EXPECT_THROW(TimingErrorCdfs::load(half), std::runtime_error);
}

// A forged payload must be rejected, not trusted: counts may not size an
// allocation before the bytes arrive, and violation_prob's upper_bound
// needs finite, sorted samples.
TEST(TimingErrorCdfs, LoadRejectsForgedPayloads) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    std::stringstream buffer;
    cdfs.save(buffer);
    const auto forgeries = testing::forge_cdf_payloads(buffer.str());
    ASSERT_EQ(forgeries.size(), 6u);
    for (const testing::CdfForgery& forgery : forgeries) {
        std::stringstream forged(forgery.bytes);
        EXPECT_THROW(TimingErrorCdfs::load(forged), std::runtime_error)
            << forgery.label;
    }
}

// A self-consistent file can still describe a store no fault model may
// walk: endpoint 32 would be the shift `1u << 32`.
TEST(TimingErrorCdfs, LoadRejectsMoreThan32Endpoints) {
    // One present class of `endpoints` one-sample endpoints, header to
    // match.
    const auto store_bytes = [](std::uint64_t endpoints) {
        std::string bytes;
        const auto put = [&bytes](const auto& value) {
            bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
        };
        put(std::uint32_t{0x53464943});  // "SFIC"
        put(std::uint32_t{1});           // version
        put(10.0);                       // setup_ps
        put(endpoints);
        put(std::uint64_t{1});           // samples
        for (std::size_t c = 0; c < kExClassCount; ++c) {
            const bool present = static_cast<ExClass>(c) == ExClass::Add;
            put(static_cast<std::uint8_t>(present));
            if (!present) continue;
            put(endpoints);
            for (std::uint64_t e = 0; e < endpoints; ++e) {
                put(std::uint64_t{1});
                put(100.0f);
            }
        }
        return bytes;
    };
    std::stringstream at_cap(store_bytes(32));
    EXPECT_EQ(TimingErrorCdfs::load(at_cap).endpoint_count(), 32u);
    std::stringstream past_cap(store_bytes(33));
    EXPECT_THROW(TimingErrorCdfs::load(past_cap), std::runtime_error);
}

TEST(TimingErrorCdfs, MonotoneInWindow) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    double prev = 1.0;
    for (double window = 0.0; window <= 700.0; window += 13.0) {
        const double p = cdfs.violation_prob(ExClass::Mul, 0, window);
        EXPECT_LE(p, prev + 1e-12);
        prev = p;
    }
}

}  // namespace
}  // namespace sfi
