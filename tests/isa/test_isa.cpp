#include "isa/isa.hpp"

#include <gtest/gtest.h>

#include <iterator>
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

// Every row's mnemonic, EX class and form-derived flags, written out
// independently of the opcode table (test_encoding pins its encoding).
// Flags: w writes_rd, a reads_ra, b reads_rb, i has_imm, j is_branch,
// l is_load, s is_store, f sets_flag. l.jal and l.jalr link into r9
// implicitly: they have no rD field, so no `w`.
TEST(OpInfo, RowsArePinned) {
    struct Row {
        const char* mnemonic;
        ExClass cls;
        const char* flags;
    };
    const Row rows[] = {
        {"l.j",      ExClass::None, "...ij..."},
        {"l.jal",    ExClass::None, "...ij..."},
        {"l.jr",     ExClass::None, "..b.j..."},
        {"l.jalr",   ExClass::None, "..b.j..."},
        {"l.bf",     ExClass::None, "...ij..."},
        {"l.bnf",    ExClass::None, "...ij..."},
        {"l.nop",    ExClass::None, "...i...."},
        {"l.movhi",  ExClass::None, "w..i...."},
        {"l.lwz",    ExClass::None, "wa.i.l.."},
        {"l.lbz",    ExClass::None, "wa.i.l.."},
        {"l.lhz",    ExClass::None, "wa.i.l.."},
        {"l.sw",     ExClass::None, ".abi..s."},
        {"l.sb",     ExClass::None, ".abi..s."},
        {"l.sh",     ExClass::None, ".abi..s."},
        {"l.add",    ExClass::Add,  "wab....."},
        {"l.sub",    ExClass::Sub,  "wab....."},
        {"l.and",    ExClass::And,  "wab....."},
        {"l.or",     ExClass::Or,   "wab....."},
        {"l.xor",    ExClass::Xor,  "wab....."},
        {"l.mul",    ExClass::Mul,  "wab....."},
        {"l.sll",    ExClass::Sll,  "wab....."},
        {"l.srl",    ExClass::Srl,  "wab....."},
        {"l.sra",    ExClass::Sra,  "wab....."},
        {"l.addi",   ExClass::Add,  "wa.i...."},
        {"l.andi",   ExClass::And,  "wa.i...."},
        {"l.ori",    ExClass::Or,   "wa.i...."},
        {"l.xori",   ExClass::Xor,  "wa.i...."},
        {"l.muli",   ExClass::Mul,  "wa.i...."},
        {"l.slli",   ExClass::Sll,  "wa.i...."},
        {"l.srli",   ExClass::Srl,  "wa.i...."},
        {"l.srai",   ExClass::Sra,  "wa.i...."},
        {"l.sfeq",   ExClass::Cmp,  ".ab....f"},
        {"l.sfne",   ExClass::Cmp,  ".ab....f"},
        {"l.sfgtu",  ExClass::Cmp,  ".ab....f"},
        {"l.sfgeu",  ExClass::Cmp,  ".ab....f"},
        {"l.sfltu",  ExClass::Cmp,  ".ab....f"},
        {"l.sfleu",  ExClass::Cmp,  ".ab....f"},
        {"l.sfgts",  ExClass::Cmp,  ".ab....f"},
        {"l.sfges",  ExClass::Cmp,  ".ab....f"},
        {"l.sflts",  ExClass::Cmp,  ".ab....f"},
        {"l.sfles",  ExClass::Cmp,  ".ab....f"},
        {"l.sfeqi",  ExClass::Cmp,  ".a.i...f"},
        {"l.sfnei",  ExClass::Cmp,  ".a.i...f"},
        {"l.sfgtui", ExClass::Cmp,  ".a.i...f"},
        {"l.sfgeui", ExClass::Cmp,  ".a.i...f"},
        {"l.sfltui", ExClass::Cmp,  ".a.i...f"},
        {"l.sfleui", ExClass::Cmp,  ".a.i...f"},
        {"l.sfgtsi", ExClass::Cmp,  ".a.i...f"},
        {"l.sfgesi", ExClass::Cmp,  ".a.i...f"},
        {"l.sfltsi", ExClass::Cmp,  ".a.i...f"},
        {"l.sflesi", ExClass::Cmp,  ".a.i...f"},
    };
    static_assert(std::size(rows) == kOpCount);
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const OpInfo& info = op_info(static_cast<Op>(i));
        const std::string flags = {
            info.writes_rd ? 'w' : '.', info.reads_ra ? 'a' : '.',
            info.reads_rb ? 'b' : '.',  info.has_imm ? 'i' : '.',
            info.is_branch ? 'j' : '.', info.is_load ? 'l' : '.',
            info.is_store ? 's' : '.',  info.sets_flag ? 'f' : '.'};
        EXPECT_STREQ(info.mnemonic, rows[i].mnemonic);
        EXPECT_EQ(info.ex_class, rows[i].cls) << rows[i].mnemonic;
        EXPECT_EQ(flags, rows[i].flags) << rows[i].mnemonic;
    }
}

TEST(OpInfo, BranchesAreNotFiTargets) {
    for (const Op op : {Op::J, Op::JAL, Op::JR, Op::JALR, Op::BF, Op::BNF,
                        Op::LWZ, Op::SW, Op::NOP, Op::MOVHI}) {
        EXPECT_EQ(op_info(op).ex_class, ExClass::None) << op_info(op).mnemonic;
    }
}

TEST(OpInfo, AluOpsAreFiTargets) {
    for (const Op op : {Op::ADD, Op::ADDI, Op::SUB, Op::MUL, Op::MULI, Op::AND,
                        Op::SLL, Op::SRAI, Op::SFEQ, Op::SFLTSI}) {
        EXPECT_NE(op_info(op).ex_class, ExClass::None) << op_info(op).mnemonic;
    }
}

TEST(ExClassNames, AreUniqueAndKnown) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const std::string name = ex_class_name(static_cast<ExClass>(i));
        EXPECT_NE(name, "?");
        EXPECT_TRUE(seen.insert(name).second) << name;
    }
    EXPECT_STREQ(ex_class_name(ExClass::Add), "add");
    EXPECT_STREQ(ex_class_name(ExClass::Cmp), "cmp");
    EXPECT_STREQ(ex_class_name(ExClass::kCount), "?");
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

/// The flag of a set-flag opcode from the primitive comparisons of its
/// operands: cmp_kind's predicate, evaluated by flag_from.
bool flag_of(Op op, std::uint32_t a, std::uint32_t b) {
    return flag_from(cmp_kind(op), a == b,
                     static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b),
                     a < b);
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>> kEdgeOperands = {
    {0, 0},
    {1, 0},
    {0, 1},
    {0x7fffffffu, 0x80000000u},
    {0x80000000u, 0x7fffffffu},
    {0xffffffffu, 0},
    {0xffffffffu, 0xffffffffu},
};

TEST(CompareFlag, AllConditionsAgainstNative) {
    Rng rng(2);
    // Register and immediate forms share each predicate.
    auto check = [](std::uint32_t a, std::uint32_t b) {
        const auto sa = static_cast<std::int32_t>(a);
        const auto sb = static_cast<std::int32_t>(b);
        const std::pair<Op, bool> cases[] = {
            {Op::SFEQ, a == b},  {Op::SFEQI, a == b},
            {Op::SFNE, a != b},  {Op::SFNEI, a != b},
            {Op::SFGTU, a > b},  {Op::SFGTUI, a > b},
            {Op::SFGEU, a >= b}, {Op::SFGEUI, a >= b},
            {Op::SFLTU, a < b},  {Op::SFLTUI, a < b},
            {Op::SFLEU, a <= b}, {Op::SFLEUI, a <= b},
            {Op::SFGTS, sa > sb},  {Op::SFGTSI, sa > sb},
            {Op::SFGES, sa >= sb}, {Op::SFGESI, sa >= sb},
            {Op::SFLTS, sa < sb},  {Op::SFLTSI, sa < sb},
            {Op::SFLES, sa <= sb}, {Op::SFLESI, sa <= sb},
        };
        for (const auto& [op, want] : cases)
            EXPECT_EQ(flag_of(op, a, b), want)
                << op_info(op).mnemonic << " a=" << a << " b=" << b;
    };
    for (const auto& [a, b] : kEdgeOperands) check(a, b);
    for (int i = 0; i < 2000; ++i) check(rng.u32(), rng.u32());
}

TEST(CompareFlagFromDiff, AgreesWithDirectFlagForCorrectDiff) {
    Rng rng(3);
    std::vector<Op> ops;
    for (std::size_t i = 0; i < kOpCount; ++i)
        if (op_info(static_cast<Op>(i)).sets_flag) ops.push_back(static_cast<Op>(i));
    ASSERT_EQ(ops.size(), 20u);
    auto check = [&](std::uint32_t a, std::uint32_t b) {
        const std::uint32_t diff = a - b;
        for (const Op op : ops)
            EXPECT_EQ(compare_flag_from_diff_kind(cmp_kind(op), a, b, diff),
                      flag_of(op, a, b))
                << op_info(op).mnemonic << " a=" << a << " b=" << b;
    };
    for (const auto& [a, b] : kEdgeOperands) check(a, b);
    for (int i = 0; i < 5000; ++i) check(rng.u32(), rng.u32());
}

TEST(CompareFlagFromDiff, CorruptedDiffChangesEquality) {
    // A flipped bit in the difference must flip sfeq when a == b.
    const std::uint32_t a = 77, b = 77;
    EXPECT_TRUE(compare_flag_from_diff_kind(CmpKind::Eq, a, b, 0));
    EXPECT_FALSE(compare_flag_from_diff_kind(CmpKind::Eq, a, b, 1u << 13));
}

TEST(RegName, Format) {
    EXPECT_EQ(reg_name(0), "r0");
    EXPECT_EQ(reg_name(31), "r31");
}

}  // namespace
}  // namespace sfi
