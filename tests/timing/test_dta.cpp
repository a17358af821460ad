#include "timing/dta.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>

#include "timing/calibration.hpp"
#include "timing/sta.hpp"
#include "util/fingerprint.hpp"

namespace sfi {
namespace {

struct DtaTest : ::testing::Test {
    static const Alu& alu() {
        static const Alu instance = build_alu();
        return instance;
    }
    static const InstanceTiming& timing() {
        static const InstanceTiming instance = [] {
            const TimingLib& lib = shared_lib();
            InstanceTiming t(alu().netlist, lib);
            calibrate_alu(alu(), t);
            return t;
        }();
        return instance;
    }
    static const TimingLib& shared_lib() {
        static const TimingLib lib;
        return lib;
    }
    static DtaConfig small_config() {
        DtaConfig config;
        config.cycles = 512;
        return config;
    }
};

TEST_F(DtaTest, ProducesOneSamplePerEndpointPerCycle) {
    const DtaClassResult result =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    ASSERT_EQ(result.arrivals_ps.size(), 32u);
    for (const auto& samples : result.arrivals_ps)
        EXPECT_EQ(samples.size(), 512u);
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.active_cells, 0u);
}

TEST_F(DtaTest, Deterministic) {
    const DtaClassResult a =
        run_dta_class(alu(), timing(), ExClass::Sub, small_config());
    const DtaClassResult b =
        run_dta_class(alu(), timing(), ExClass::Sub, small_config());
    EXPECT_EQ(a.arrivals_ps, b.arrivals_ps);
}

TEST_F(DtaTest, SeedsDifferPerClassButResultsBounded) {
    const DtaClassResult add =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const StaResult sta = run_sta(alu().netlist, timing(),
                                  {{"op", Alu::op_code(ExClass::Add)}});
    for (std::size_t bit = 0; bit < 32; ++bit)
        for (const float arr : add.arrivals_ps[bit])
            EXPECT_LE(arr, sta.endpoint_ps[bit] + 1e-3) << bit;
}

TEST_F(DtaTest, MulArrivalsDominateAddArrivals) {
    const DtaClassResult add =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    EXPECT_GT(mul.max_arrival_ps, add.max_arrival_ps);
}

TEST_F(DtaTest, HighBitsFailBeforeLowBitsForMul) {
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    auto max_of = [&](std::size_t bit) {
        float worst = 0.0f;
        for (const float a : mul.arrivals_ps[bit]) worst = std::max(worst, a);
        return worst;
    };
    EXPECT_GT(max_of(24), max_of(3));
    EXPECT_GT(max_of(31), max_of(8));
}

TEST_F(DtaTest, RestrictedOperandBitsLowerHighEndpointActivity) {
    DtaConfig narrow = small_config();
    narrow.operand_bits = 16;
    const DtaClassResult full =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const DtaClassResult halfw =
        run_dta_class(alu(), timing(), ExClass::Add, narrow);
    // 16-bit operands: sums fit in 17 bits, so endpoints 18..31 never
    // toggle and their arrivals stay 0 (the add16 vs add32 PoFF spread of
    // the paper's Fig. 4).
    float max_high = 0.0f;
    for (std::size_t bit = 18; bit < 32; ++bit)
        for (const float a : halfw.arrivals_ps[bit])
            max_high = std::max(max_high, a);
    EXPECT_EQ(max_high, 0.0f);
    EXPECT_LT(halfw.max_arrival_ps, full.max_arrival_ps);
}

TEST_F(DtaTest, FullRunCoversAllClasses) {
    DtaConfig config = small_config();
    config.cycles = 128;
    const DtaResult result = run_dta(alu(), timing(), config);
    EXPECT_EQ(result.classes.size(), Alu::instruction_classes().size());
    EXPECT_EQ(result.cycles, 128u);
    EXPECT_DOUBLE_EQ(result.setup_ps, timing().setup_ps());
    double worst = 0.0;
    for (const auto& cls : result.classes)
        worst = std::max(worst, cls.max_arrival_ps);
    EXPECT_DOUBLE_EQ(result.worst_arrival_ps, worst);
    // Dynamic slack: the observed worst arrival can never exceed the
    // design STA bound.
    const StaResult sta = endpoint_worst_sta(alu(), timing());
    EXPECT_LE(result.worst_arrival_ps, sta.worst_ps + 1e-3);
}

TEST_F(DtaTest, MulDynamicSlackIsSmall) {
    // Random operands excite near-critical multiplier paths easily: the
    // dynamic limit sits within a few percent of the static one. This is
    // why mul-heavy kernels show no PoFF gain in the paper.
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    const StaResult sta = run_sta(alu().netlist, timing(),
                                  {{"op", Alu::op_code(ExClass::Mul)}});
    EXPECT_GT(mul.max_arrival_ps, 0.9 * sta.worst_ps);
}

TEST_F(DtaTest, ZeroCyclesIsRejected) {
    // An empty kernel would build a CDF store whose classes never fault.
    DtaConfig config = small_config();
    config.cycles = 0;
    EXPECT_THROW(run_dta_class(alu(), timing(), ExClass::Add, config),
                 std::invalid_argument);
    EXPECT_THROW(run_dta(alu(), timing(), config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The characterization bytes. The values below were recorded with the
// serial kernel that first wrote the CDF caches (one simulator, one
// std::push_heap/std::pop_heap queue, no chunks), before the event queue
// and the chunked kernel replaced it. They pin the queue's pop order among
// same-femtosecond events: a (time, net) tie-break, for one, fails them.
// ---------------------------------------------------------------------------

struct ClassPin {
    ExClass cls;
    std::uint64_t events;
    std::uint64_t max_arrival_bits;  ///< bits of max_arrival_ps
    std::uint64_t arrival_digest;    ///< FNV-1a over every arrival's float
};

std::uint64_t arrival_digest(const DtaClassResult& result) {
    Fingerprint fp;
    for (const auto& endpoint : result.arrivals_ps)
        for (const float arrival : endpoint) fp.mix(arrival);
    return fp.value();
}

void expect_pinned(const DtaClassResult& result, const ClassPin& pin) {
    SCOPED_TRACE(ex_class_name(pin.cls));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &result.max_arrival_ps, sizeof bits);
    EXPECT_EQ(result.cls, pin.cls);
    EXPECT_EQ(result.events, pin.events);
    EXPECT_EQ(bits, pin.max_arrival_bits) << result.max_arrival_ps;
    EXPECT_EQ(arrival_digest(result), pin.arrival_digest);
}

TEST_F(DtaTest, EveryClassAt256CyclesIsPinned) {
    constexpr ClassPin kPins[] = {
        {ExClass::Add, 143395, 0x4081592d0e560419ULL, 0xe595eee76155357dULL},
        {ExClass::Sub, 149993, 0x408253b851eb851fULL, 0xee5fea8cdbfbea01ULL},
        {ExClass::And, 128269, 0x407c0147ae147ae1ULL, 0x3fafa12e43f37bd2ULL},
        {ExClass::Or, 128030, 0x407c76bc6a7ef9dbULL, 0x11144c09ac51b800ULL},
        {ExClass::Xor, 134896, 0x407776e978d4fdf4ULL, 0x282da8df9c7bb163ULL},
        {ExClass::Sll, 140651, 0x407c10ac083126e9ULL, 0x20832bd8d2353760ULL},
        {ExClass::Srl, 142052, 0x407c5e20c49ba5e3ULL, 0x0a24840f099f950fULL},
        {ExClass::Sra, 156406, 0x4081862f1a9fbe77ULL, 0x8f81093f46c3e893ULL},
        {ExClass::Mul, 2057008, 0x408573a9fbe76c8bULL, 0xda40281a0f3d7ddbULL},
        {ExClass::Cmp, 146202, 0x40821749ba5e353fULL, 0x26cd84c456ade907ULL},
    };
    DtaConfig config;
    config.cycles = 256;
    const DtaResult result = run_dta(alu(), timing(), config);
    ASSERT_EQ(result.classes.size(), std::size(kPins));
    for (std::size_t i = 0; i < std::size(kPins); ++i)
        expect_pinned(result.classes[i], kPins[i]);
}

TEST_F(DtaTest, SixteenBitAddAndMulArePinned) {
    constexpr ClassPin kPins[] = {
        {ExClass::Add, 75944, 0x4080c3a3d70a3d71ULL, 0xdf075433f34f08caULL},
        {ExClass::Mul, 774059, 0x4081b86a7ef9db23ULL, 0x280d8a625bd24afcULL},
    };
    DtaConfig config;
    config.cycles = 256;
    config.operand_bits = 16;
    for (const ClassPin& pin : kPins)
        expect_pinned(run_dta_class(alu(), timing(), pin.cls, config), pin);
}

// Chunks on any number of workers reproduce the one-worker result. 300
// cycles make two full chunks and a partial one, so at two workers one of
// them runs a second chunk that does not follow its first.
TEST_F(DtaTest, ThreadCountNeverChangesTheResult) {
    static_assert(300 % kDtaChunkCycles != 0 && 300 > 2 * kDtaChunkCycles);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul}) {
        for (const unsigned bits : {32u, 16u}) {
            DtaConfig config;
            config.cycles = 300;
            config.operand_bits = bits;
            const DtaClassResult serial =
                run_dta_class(alu(), timing(), cls, config, nullptr, 1);
            for (const std::size_t threads : {2u, 3u, 4u}) {
                SCOPED_TRACE(std::string(ex_class_name(cls)) + " " +
                             std::to_string(bits) + " bits, " +
                             std::to_string(threads) + " threads");
                const DtaClassResult parallel =
                    run_dta_class(alu(), timing(), cls, config, nullptr, threads);
                EXPECT_EQ(parallel.arrivals_ps, serial.arrivals_ps);
                EXPECT_EQ(parallel.events, serial.events);
                EXPECT_EQ(parallel.max_arrival_ps, serial.max_arrival_ps);
                EXPECT_EQ(parallel.active_cells, serial.active_cells);
            }
        }
    }
}

}  // namespace
}  // namespace sfi
