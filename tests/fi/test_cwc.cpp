#include "fi/cwc.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fi/forensics.hpp"
#include "isa/isa.hpp"
#include "testing/cwc_enumerative.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::cwc_decode_enumerative;
using testing::cwc_encode_enumerative;
using testing::shared_core;

OperatingPoint overscaled_point() {
    OperatingPoint p;
    p.vdd = 0.7;
    p.noise.sigma_mv = 0.0;
    auto probe = shared_core().make_model_c();
    p.freq_mhz = probe->first_fault_frequency_mhz(ExClass::Mul) * 1.15;
    return p;
}

ExEvent mul_event(std::uint32_t a, std::uint32_t b) {
    ExEvent ev;
    ev.cls = ExClass::Mul;
    ev.operand_a = a;
    ev.operand_b = b;
    return ev;
}

TEST(CwcCode, BinomialValues) {
    EXPECT_EQ(cwc_binomial(0, 0), 1u);
    EXPECT_EQ(cwc_binomial(5, 0), 1u);
    EXPECT_EQ(cwc_binomial(5, 5), 1u);
    EXPECT_EQ(cwc_binomial(5, 2), 10u);
    EXPECT_EQ(cwc_binomial(11, 5), 462u);
    EXPECT_EQ(cwc_binomial(19, 9), 92378u);
    EXPECT_EQ(cwc_binomial(3, 7), 0u);  // r > n
}

TEST(CwcCode, ForBlockBitsPicksTheSmallestCentralCode) {
    // The least n with C(n, floor(n/2)) >= 2^k.
    const struct { unsigned k, n, w; } expected[] = {
        {1, 2, 1}, {2, 4, 2}, {4, 6, 3}, {8, 11, 5}, {16, 19, 9}};
    for (const auto& e : expected) {
        const CwcCode code = CwcCode::for_block_bits(e.k);
        EXPECT_EQ(code.k, e.k);
        EXPECT_EQ(code.n, e.n);
        EXPECT_EQ(code.w, e.w);
        EXPECT_GE(code.codewords(), 1ull << e.k);
        // Minimality: one bit fewer cannot carry k data bits.
        EXPECT_LT(cwc_binomial(e.n - 1, (e.n - 1) / 2), 1ull << e.k);
    }
    EXPECT_THROW(CwcCode::for_block_bits(0), std::invalid_argument);
    EXPECT_THROW(CwcCode::for_block_bits(3), std::invalid_argument);
    EXPECT_THROW(CwcCode::for_block_bits(5), std::invalid_argument);
    EXPECT_THROW(CwcCode::for_block_bits(32), std::invalid_argument);
}

TEST(CwcCode, EnumerativeCodecIsAConstantWeightBijection) {
    for (const unsigned k : {1u, 2u, 4u, 8u}) {
        const CwcCode code = CwcCode::for_block_bits(k);
        std::set<std::uint64_t> words;
        for (std::uint64_t x = 0; x < (1ull << k); ++x) {
            const std::uint64_t word = cwc_encode_enumerative(code, x);
            EXPECT_EQ(static_cast<unsigned>(std::popcount(word)), code.w)
                << "k=" << k << " x=" << x;
            EXPECT_LT(word, 1ull << code.n);
            EXPECT_EQ(cwc_decode_enumerative(code, word), x);
            words.insert(word);
        }
        EXPECT_EQ(words.size(), 1ull << k);  // injective
    }
}

TEST(CwcCode, SequentialSchemeMatchesEnumerative) {
    // Bit-equality over the FULL index space (not just the data range):
    // the sequential scheme is the same bijection, computed cheaper.
    for (const unsigned k : {4u, 8u}) {
        const CwcCode code = CwcCode::for_block_bits(k);
        for (std::uint64_t index = 0; index < code.codewords(); ++index) {
            const std::uint64_t word = cwc_encode_enumerative(code, index);
            EXPECT_EQ(cwc_encode_sequential(code, index), word);
        }
    }
    // k = 16 (92378 codewords): sampled plus the edges.
    const CwcCode code16 = CwcCode::for_block_bits(16);
    for (std::uint64_t index = 0; index < code16.codewords();
         index += (index % 997) + 1) {
        const std::uint64_t word = cwc_encode_enumerative(code16, index);
        EXPECT_EQ(cwc_encode_sequential(code16, index), word);
    }
    const std::uint64_t last = code16.codewords() - 1;
    EXPECT_EQ(cwc_encode_sequential(code16, last),
              cwc_encode_enumerative(code16, last));
}

TEST(CwcDetection, BlockEscapeProbability) {
    EXPECT_DOUBLE_EQ(cwc_block_escape_probability(0), 1.0);
    EXPECT_DOUBLE_EQ(cwc_block_escape_probability(2), 0.5);      // C(2,1)/4
    EXPECT_DOUBLE_EQ(cwc_block_escape_probability(4), 0.375);    // C(4,2)/16
    EXPECT_DOUBLE_EQ(cwc_block_escape_probability(6), 0.3125);   // C(6,3)/64
    for (unsigned d = 2; d <= 18; d += 2)
        EXPECT_LT(cwc_block_escape_probability(d + 2),
                  cwc_block_escape_probability(d));
}

TEST(CwcDetection, DetectProbabilityCombinesBlocks) {
    const CwcCode code = CwcCode::for_block_bits(8);
    EXPECT_DOUBLE_EQ(cwc_detect_probability(code, 0x12345678u, 0x12345678u),
                     0.0);
    // One corrupted block: detect = 1 - escape(d) of that block alone.
    const std::uint32_t correct = 0x00000010u;
    const std::uint32_t one_block = 0x00000025u;  // low byte differs only
    const std::uint64_t c0 = cwc_encode_sequential(code, 0x10);
    const std::uint64_t c1 = cwc_encode_sequential(code, 0x25);
    const double escape0 = cwc_block_escape_probability(
        static_cast<unsigned>(std::popcount(c0 ^ c1)));
    EXPECT_DOUBLE_EQ(cwc_detect_probability(code, correct, one_block),
                     1.0 - escape0);
    // Two corrupted blocks multiply their escapes.
    const std::uint32_t two_blocks = 0x00470025u;
    const std::uint64_t c2 = cwc_encode_sequential(code, 0x00);
    const std::uint64_t c3 = cwc_encode_sequential(code, 0x47);
    const double escape1 = cwc_block_escape_probability(
        static_cast<unsigned>(std::popcount(c2 ^ c3)));
    EXPECT_DOUBLE_EQ(cwc_detect_probability(code, correct, two_blocks),
                     1.0 - escape0 * escape1);
    // A single-bit result flip always changes exactly one block, and a
    // constant-weight code cannot have distance 0 between distinct words.
    EXPECT_GT(cwc_detect_probability(code, correct, correct ^ 0x100u), 0.0);
}

TEST(CwcDetection, CoverageTableMatchesDirectEnumeration) {
    const CwcCode code = CwcCode::for_block_bits(4);
    const unsigned operand_bits = 3;
    const std::vector<CwcCoverageRow> table =
        cwc_coverage_table(code, operand_bits);
    ASSERT_EQ(table.size(), (kExClassCount - 1) * 32);
    // Spot-check a handful of rows against a direct re-derivation.
    for (const auto& [cls, bit] :
         {std::pair{ExClass::Add, 5u}, {ExClass::Mul, 0u},
          {ExClass::Xor, 31u}, {ExClass::Srl, 2u}}) {
        double sum = 0.0;
        for (std::uint32_t a = 0; a < (1u << operand_bits); ++a)
            for (std::uint32_t b = 0; b < (1u << operand_bits); ++b) {
                const std::uint32_t r = alu_result(cls, a, b);
                sum += cwc_detect_probability(code, r, r ^ (1u << bit));
            }
        const double expected =
            sum / static_cast<double>(1u << (2 * operand_bits));
        const std::size_t row =
            (static_cast<std::size_t>(cls) -
             static_cast<std::size_t>(ExClass::Add)) * 32 + bit;
        EXPECT_EQ(table[row].cls, cls);
        EXPECT_EQ(table[row].bit, bit);
        EXPECT_DOUBLE_EQ(table[row].coverage, expected);
    }
    // Every single-bit flip lands in exactly one block with d >= 2, so
    // coverage is bounded by the detection range of one block.
    for (const CwcCoverageRow& row : table) {
        EXPECT_GT(row.coverage, 0.0);
        EXPECT_LE(row.coverage, 1.0);
    }
}

TEST(CwcModel, DetectsAndEscapesAtTheCodeRate) {
    CwcDetectionModel model(shared_core().make_model_c(), CwcConfig{});
    model.set_operating_point(overscaled_point());
    model.reseed(1);
    for (int i = 0; i < 40000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(0x9e3779b9u * i, i), 0x1234u * i);
    }
    // The 8-bit code's minimum distance is 2, so escape >= ... > 0: both
    // verdicts must occur over enough corruptions.
    EXPECT_GT(model.detected(), 0u);
    EXPECT_GT(model.escaped(), 0u);
    EXPECT_EQ(model.stats().injections, model.detected() + model.escaped());
}

TEST(CwcModel, RecoveryCyclesAndEffectiveThroughput) {
    CwcConfig config;
    config.recovery_penalty_cycles = 3;
    CwcDetectionModel model(shared_core().make_model_c(), config);
    model.set_operating_point(overscaled_point());
    model.reseed(2);
    for (int i = 0; i < 10000; ++i) {
        model.on_cycle(true);
        model.on_ex_result(mul_event(i, 11u * i), 0);
    }
    EXPECT_EQ(model.recovery_cycles(), model.detected() * 3);
    // Defaults derive from the code geometry: k=8 -> n=11, 3 check bits.
    EXPECT_DOUBLE_EQ(model.latency_overhead_frac(), 0.03);
    EXPECT_DOUBLE_EQ(model.energy_overhead_frac(), 0.5 * 3.0 / 8.0);
    const double eff = model.effective_mhz(800.0, 100000);
    const double derated = 800.0 / 1.03;
    EXPECT_LT(eff, derated);
    EXPECT_NEAR(eff,
                derated * 100000.0 /
                    (100000.0 +
                     static_cast<double>(model.recovery_cycles())),
                1e-9);
    // The static clock derating applies even with zero detections.
    CwcDetectionModel idle(shared_core().make_model_c(), CwcConfig{});
    EXPECT_DOUBLE_EQ(idle.effective_mhz(800.0, 1000), 800.0 / 1.03);
}

TEST(CwcModel, ExplicitOverheadOverridesAreHonored) {
    CwcConfig config;
    config.latency_overhead_frac = 0.1;
    config.energy_overhead_frac = 0.25;
    CwcDetectionModel model(shared_core().make_model_c(), config);
    EXPECT_DOUBLE_EQ(model.latency_overhead_frac(), 0.1);
    EXPECT_DOUBLE_EQ(model.energy_overhead_frac(), 0.25);
}

TEST(CwcModel, RejectsBadConfig) {
    EXPECT_THROW(CwcDetectionModel(nullptr, CwcConfig{}),
                 std::invalid_argument);
    CwcConfig bad;
    bad.block_bits = 5;
    EXPECT_THROW(CwcDetectionModel(shared_core().make_model_c(), bad),
                 std::invalid_argument);
}

TEST(CwcModel, NameReportsCodeAndInner) {
    CwcDetectionModel model(shared_core().make_model_c(), CwcConfig{});
    EXPECT_EQ(model.name().rfind("cwc8(", 0), 0u) << model.name();
}

TEST(CwcModel, ReseedIsReproducible) {
    CwcDetectionModel model(shared_core().make_model_c(), CwcConfig{});
    model.set_operating_point(overscaled_point());
    auto run = [&] {
        model.reseed(77);
        model.reset_stats();
        model.reset_mitigation_stats();
        for (int i = 0; i < 5000; ++i) {
            model.on_cycle(true);
            model.on_ex_result(mul_event(i, 13u * i), 3u * i);
        }
        return std::pair(model.detected(), model.escaped());
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sfi
