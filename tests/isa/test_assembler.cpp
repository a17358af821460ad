#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include "isa/encoding.hpp"

namespace sfi {
namespace {

std::uint32_t word_at(const Program& p, std::uint32_t addr) {
    for (const auto& s : p.sections) {
        if (addr >= s.addr && addr + 4 <= s.addr + s.bytes.size()) {
            const std::size_t off = addr - s.addr;
            return static_cast<std::uint32_t>(s.bytes[off]) |
                   (static_cast<std::uint32_t>(s.bytes[off + 1]) << 8) |
                   (static_cast<std::uint32_t>(s.bytes[off + 2]) << 16) |
                   (static_cast<std::uint32_t>(s.bytes[off + 3]) << 24);
        }
    }
    throw std::out_of_range("word_at: address not covered");
}

TEST(Assembler, SimpleInstruction) {
    const Program p = assemble("l.addi r3,r0,5\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::ADDI, 3, 0, 0, 5}));
    EXPECT_EQ(p.byte_size(), 4u);
}

TEST(Assembler, CommentsAndBlankLines) {
    const Program p = assemble(
        "# full line comment\n"
        "\n"
        "  l.nop    ; trailing comment\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::NOP, 0, 0, 0, 0}));
}

TEST(Assembler, LabelsResolveToBranchOffsets) {
    const Program p = assemble(
        "start:\n"
        "  l.nop\n"
        "  l.j start\n");
    EXPECT_EQ(word_at(p, 4), encode({Op::J, 0, 0, 0, -1}));
}

TEST(Assembler, ForwardReferences) {
    const Program p = assemble(
        "  l.bf end\n"
        "  l.nop\n"
        "end:\n"
        "  l.nop\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::BF, 0, 0, 0, 2}));
}

TEST(Assembler, HiLoSplitAddresses) {
    const Program p = assemble(
        "  l.movhi r4,hi(data)\n"
        "  l.ori r4,r4,lo(data)\n"
        ".org 0x12340\n"
        "data:\n"
        "  .word 99\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::MOVHI, 4, 0, 0, 0x1}));
    EXPECT_EQ(word_at(p, 4), encode({Op::ORI, 4, 4, 0, 0x2340}));
    EXPECT_EQ(p.symbol("data"), 0x12340u);
    EXPECT_EQ(word_at(p, 0x12340), 99u);
}

TEST(Assembler, MemoryOperands) {
    const Program p = assemble(
        "  l.lwz r5,8(r6)\n"
        "  l.sw -4(r2),r9\n"
        "  l.lbz r1,0(r2)\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::LWZ, 5, 6, 0, 8}));
    EXPECT_EQ(word_at(p, 4), encode({Op::SW, 0, 2, 9, -4}));
    EXPECT_EQ(word_at(p, 8), encode({Op::LBZ, 1, 2, 0, 0}));
}

TEST(Assembler, DataDirectives) {
    const Program p = assemble(
        ".org 0x100\n"
        "d:\n"
        "  .word 1, 2, 0x30\n"
        "  .half 7, 8\n"
        "  .byte 1, 2\n"
        "  .align 4\n"
        "  .space 8\n"
        "e:\n");
    EXPECT_EQ(word_at(p, 0x100), 1u);
    EXPECT_EQ(word_at(p, 0x104), 2u);
    EXPECT_EQ(word_at(p, 0x108), 0x30u);
    // half/byte packing: 7, 8 as halves then 1, 2 as bytes -> one word + pad
    EXPECT_EQ(word_at(p, 0x10c), 7u | (8u << 16));
    EXPECT_EQ(word_at(p, 0x110), 1u | (2u << 8));
    EXPECT_EQ(p.symbol("e"), 0x114u + 8u);
}

TEST(Assembler, EquConstants) {
    const Program p = assemble(
        ".equ N, 12\n"
        ".equ M, N + 3\n"
        "  l.addi r1,r0,N\n"
        "  l.addi r2,r0,M\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::ADDI, 1, 0, 0, 12}));
    EXPECT_EQ(word_at(p, 4), encode({Op::ADDI, 2, 0, 0, 15}));
}

TEST(Assembler, EntryDirective) {
    const Program p = assemble(
        "  l.nop\n"
        ".entry main\n"
        "main:\n"
        "  l.nop 1\n");
    EXPECT_EQ(p.entry, 4u);
}

TEST(Assembler, DefaultEntryIsZero) {
    EXPECT_EQ(assemble("l.nop\n").entry, 0u);
}

TEST(Assembler, ExpressionArithmetic) {
    const Program p = assemble(
        ".org 0x200\n"
        "base:\n"
        "  .word base + 8, base - 4, 2 + 3 + 4\n");
    EXPECT_EQ(word_at(p, 0x200), 0x208u);
    EXPECT_EQ(word_at(p, 0x204), 0x1fcu);
    EXPECT_EQ(word_at(p, 0x208), 9u);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
    try {
        assemble("l.nop\nl.bogus r1,r2,r3\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError& e) {
        EXPECT_EQ(e.line, 2u);
    }
}

TEST(Assembler, DuplicateLabelRejected) {
    EXPECT_THROW(assemble("a:\n l.nop\na:\n"), AsmError);
}

TEST(Assembler, UndefinedSymbolRejected) {
    EXPECT_THROW(assemble("l.j nowhere\n"), AsmError);
}

TEST(Assembler, WrongOperandCountRejected) {
    EXPECT_THROW(assemble("l.add r1,r2\n"), AsmError);
    EXPECT_THROW(assemble("l.jr r1,r2\n"), AsmError);
}

TEST(Assembler, BadRegisterRejected) {
    EXPECT_THROW(assemble("l.add r1,r32,r2\n"), AsmError);
    EXPECT_THROW(assemble("l.add r1,x2,r3\n"), AsmError);
}

TEST(Assembler, ImmediateOverflowReportsLine) {
    try {
        assemble("  l.nop\n  l.addi r1,r0,100000\n");
        FAIL() << "expected AsmError";
    } catch (const AsmError& e) {
        EXPECT_EQ(e.line, 2u);
    }
}

// An instruction operand is range-checked before it is narrowed to the
// 32-bit Instr::imm: wider values used to wrap silently (0x100000000
// became 0, turning l.j into a self-loop) and l.movhi masked its operand
// to 16 bits. Data directives still truncate.
TEST(Assembler, OperandsOutOfRangeAreRejectedNotWrapped) {
    for (const char* source :
         {"l.addi r3,r3,0x100000000\n", "l.j 0x100000000\n",
          "l.lwz r3,0x100000008(r4)\n", "l.sw 0x100000008(r4),r3\n",
          "l.sfeqi r3,0x100000000\n", "l.slli r3,r3,0x100000001\n",
          "l.nop 0x100000001\n", "l.movhi r3,0x12345\n",
          "l.movhi r3,-1\n"}) {
        EXPECT_THROW(assemble(source), AsmError) << source;
    }
    const Program p = assemble(
        "l.movhi r3,0xffff\n"
        "l.addi r3,r3,0xffffffff\n"
        ".word 0x100000005\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::MOVHI, 3, 0, 0, 0xffff}));
    EXPECT_EQ(word_at(p, 4), encode({Op::ADDI, 3, 3, 0, -1}));
    EXPECT_EQ(word_at(p, 8), 5u);
}

TEST(Assembler, MultipleLabelsOnOneAddress) {
    const Program p = assemble(
        "a: b:\n"
        "  l.nop\n");
    EXPECT_EQ(p.symbol("a"), 0u);
    EXPECT_EQ(p.symbol("b"), 0u);
}

TEST(Assembler, NopCodes) {
    const Program p = assemble("l.nop 0x10\nl.nop 0x11\nl.nop 1\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::NOP, 0, 0, 0, kNopKernelBegin}));
    EXPECT_EQ(word_at(p, 4), encode({Op::NOP, 0, 0, 0, kNopKernelEnd}));
    EXPECT_EQ(word_at(p, 8), encode({Op::NOP, 0, 0, 0, kNopExit}));
}

TEST(Assembler, SetFlagSyntax) {
    const Program p = assemble("l.sfeqi r3,-1\nl.sfltu r4,r5\n");
    EXPECT_EQ(word_at(p, 0), encode({Op::SFEQI, 0, 3, 0, -1}));
    EXPECT_EQ(word_at(p, 4), encode({Op::SFLTU, 0, 4, 5, 0}));
}

TEST(Program, SymbolLookupThrowsForUnknown) {
    const Program p = assemble("l.nop\n");
    EXPECT_THROW(p.symbol("missing"), std::out_of_range);
}

TEST(Assembler, OrgCreatesDisjointSections) {
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x8000\n"
        "  .word 5\n");
    ASSERT_EQ(p.sections.size(), 2u);
    EXPECT_EQ(p.sections[0].addr, 0u);
    EXPECT_EQ(p.sections[1].addr, 0x8000u);
}

}  // namespace
}  // namespace sfi
