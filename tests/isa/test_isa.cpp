#include "isa/isa.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "testing/disassemble.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

using testing::reg_name;

TEST(OpInfo, MnemonicsAreUniqueAndPrefixed) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const OpInfo& info = op_info(static_cast<Op>(i));
        EXPECT_TRUE(std::string(info.mnemonic).rfind("l.", 0) == 0)
            << info.mnemonic;
        EXPECT_TRUE(seen.insert(info.mnemonic).second) << info.mnemonic;
    }
}

TEST(OpInfo, AluClassesWriteRdExceptCompares) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const auto op = static_cast<Op>(i);
        const OpInfo& info = op_info(op);
        if (info.ex_class == ExClass::None) continue;
        if (info.sets_flag)
            EXPECT_FALSE(info.writes_rd) << info.mnemonic;
        else
            EXPECT_TRUE(info.writes_rd) << info.mnemonic;
    }
}

TEST(OpInfo, BranchesAreNotFiTargets) {
    for (const Op op : {Op::J, Op::JAL, Op::JR, Op::JALR, Op::BF, Op::BNF,
                        Op::LWZ, Op::SW, Op::NOP, Op::MOVHI}) {
        EXPECT_FALSE(is_alu_fi_target(op)) << op_info(op).mnemonic;
    }
}

TEST(OpInfo, AluOpsAreFiTargets) {
    for (const Op op : {Op::ADD, Op::ADDI, Op::SUB, Op::MUL, Op::MULI, Op::AND,
                        Op::SLL, Op::SRAI, Op::SFEQ, Op::SFLTSI}) {
        EXPECT_TRUE(is_alu_fi_target(op)) << op_info(op).mnemonic;
    }
}

TEST(ExClassNames, RoundTrip) {
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const auto cls = static_cast<ExClass>(i);
        const auto back = ex_class_from_name(ex_class_name(cls));
        ASSERT_TRUE(back.has_value()) << ex_class_name(cls);
        EXPECT_EQ(*back, cls);
    }
    EXPECT_FALSE(ex_class_from_name("bogus").has_value());
}

TEST(AluResult, MatchesReferenceSemantics) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t a = rng.u32(), b = rng.u32();
        EXPECT_EQ(alu_result(ExClass::Add, a, b), a + b);
        EXPECT_EQ(alu_result(ExClass::Sub, a, b), a - b);
        EXPECT_EQ(alu_result(ExClass::Cmp, a, b), a - b);
        EXPECT_EQ(alu_result(ExClass::And, a, b), a & b);
        EXPECT_EQ(alu_result(ExClass::Or, a, b), a | b);
        EXPECT_EQ(alu_result(ExClass::Xor, a, b), a ^ b);
        EXPECT_EQ(alu_result(ExClass::Mul, a, b), a * b);
        EXPECT_EQ(alu_result(ExClass::Sll, a, b), a << (b & 31));
        EXPECT_EQ(alu_result(ExClass::Srl, a, b), a >> (b & 31));
        EXPECT_EQ(alu_result(ExClass::Sra, a, b),
                  static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                             (b & 31)));
    }
}

TEST(CompareFlag, AllConditionsAgainstNative) {
    Rng rng(2);
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> edge = {
        {0, 0},
        {1, 0},
        {0, 1},
        {0x7fffffffu, 0x80000000u},
        {0x80000000u, 0x7fffffffu},
        {0xffffffffu, 0},
        {0xffffffffu, 0xffffffffu},
    };
    auto check = [](std::uint32_t a, std::uint32_t b) {
        const auto sa = static_cast<std::int32_t>(a);
        const auto sb = static_cast<std::int32_t>(b);
        EXPECT_EQ(compare_flag(Op::SFEQ, a, b), a == b);
        EXPECT_EQ(compare_flag(Op::SFNE, a, b), a != b);
        EXPECT_EQ(compare_flag(Op::SFGTU, a, b), a > b);
        EXPECT_EQ(compare_flag(Op::SFGEU, a, b), a >= b);
        EXPECT_EQ(compare_flag(Op::SFLTU, a, b), a < b);
        EXPECT_EQ(compare_flag(Op::SFLEU, a, b), a <= b);
        EXPECT_EQ(compare_flag(Op::SFGTS, a, b), sa > sb);
        EXPECT_EQ(compare_flag(Op::SFGES, a, b), sa >= sb);
        EXPECT_EQ(compare_flag(Op::SFLTS, a, b), sa < sb);
        EXPECT_EQ(compare_flag(Op::SFLES, a, b), sa <= sb);
    };
    for (const auto& [a, b] : edge) check(a, b);
    for (int i = 0; i < 2000; ++i) check(rng.u32(), rng.u32());
}

TEST(CompareFlagFromDiff, AgreesWithDirectFlagForCorrectDiff) {
    Rng rng(3);
    const Op ops[] = {Op::SFEQ, Op::SFNE, Op::SFGTU, Op::SFGEU, Op::SFLTU,
                      Op::SFLEU, Op::SFGTS, Op::SFGES, Op::SFLTS, Op::SFLES};
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t a = rng.u32(), b = rng.u32();
        const std::uint32_t diff = a - b;
        for (const Op op : ops)
            EXPECT_EQ(compare_flag_from_diff(op, a, b, diff),
                      compare_flag(op, a, b))
                << op_info(op).mnemonic << " a=" << a << " b=" << b;
    }
}

TEST(CompareFlagFromDiff, CorruptedDiffChangesEquality) {
    // A flipped bit in the difference must flip sfeq when a == b.
    const std::uint32_t a = 77, b = 77;
    EXPECT_TRUE(compare_flag_from_diff(Op::SFEQ, a, b, 0));
    EXPECT_FALSE(compare_flag_from_diff(Op::SFEQ, a, b, 1u << 13));
}

TEST(RegName, Format) {
    EXPECT_EQ(reg_name(0), "r0");
    EXPECT_EQ(reg_name(31), "r31");
}

}  // namespace
}  // namespace sfi
