#include "isa/encoding.hpp"

#include <gtest/gtest.h>

#include "testing/disassemble.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

using testing::disassemble;

// Hand-checked golden encodings against the OpenRISC 1000 manual.
TEST(Encode, GoldenWords) {
    // l.nop: 0x15000000 | K
    EXPECT_EQ(encode({Op::NOP, 0, 0, 0, 0}), 0x15000000u);
    EXPECT_EQ(encode({Op::NOP, 0, 0, 0, 1}), 0x15000001u);
    // l.addi r3,r4,-1 -> opcode 0x27, D=3, A=4, imm=0xffff
    EXPECT_EQ(encode({Op::ADDI, 3, 4, 0, -1}), (0x27u << 26) | (3u << 21) |
                                                   (4u << 16) | 0xffffu);
    // l.add r1,r2,r3 -> opcode 0x38, low nibble 0
    EXPECT_EQ(encode({Op::ADD, 1, 2, 3, 0}),
              (0x38u << 26) | (1u << 21) | (2u << 16) | (3u << 11));
    // l.mul r5,r6,r7 -> opcode 0x38, op2=3, low=6
    EXPECT_EQ(encode({Op::MUL, 5, 6, 7, 0}), (0x38u << 26) | (5u << 21) |
                                                 (6u << 16) | (7u << 11) |
                                                 (3u << 8) | 0x6u);
    // l.j with offset -2
    EXPECT_EQ(encode({Op::J, 0, 0, 0, -2}), 0x03fffffeu);
    // l.movhi r7,0xABCD
    EXPECT_EQ(encode({Op::MOVHI, 7, 0, 0, 0xABCD}),
              (0x06u << 26) | (7u << 21) | 0xABCDu);
    // l.sw -4(r2),r9: store imm split across [25:21] and [10:0]
    const std::uint32_t imm = 0xfffcu;
    EXPECT_EQ(encode({Op::SW, 0, 2, 9, -4}),
              (0x35u << 26) | ((imm >> 11) << 21) | (2u << 16) | (9u << 11) |
                  (imm & 0x7ffu));
}

TEST(Decode, RejectsUnknownOpcodes) {
    EXPECT_FALSE(decode(0xffffffffu).has_value());
    EXPECT_FALSE(decode(0x60000000u).has_value());  // opcode 0x18: unused
}

TEST(Decode, RejectsBadNopFormat) {
    // l.nop requires bits [25:24] == 01.
    EXPECT_FALSE(decode(0x14000000u).has_value());
}

std::vector<Instr> representative_instrs() {
    std::vector<Instr> out;
    Rng rng(7);
    auto reg = [&] { return static_cast<std::uint8_t>(rng.bounded(32)); };
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const auto op = static_cast<Op>(i);
        const OpInfo& info = op_info(op);
        for (int k = 0; k < 8; ++k) {
            Instr instr;
            instr.op = op;
            // l.jal / l.jalr write r9 implicitly; no rd field is encoded.
            if (info.writes_rd && op != Op::JAL && op != Op::JALR)
                instr.rd = reg();
            if (info.reads_ra) instr.ra = reg();
            if (info.reads_rb) instr.rb = reg();
            if (op == Op::MOVHI || op == Op::NOP || op == Op::ANDI ||
                op == Op::ORI) {
                instr.imm = static_cast<std::int32_t>(rng.bounded(0x10000));
            } else if (op == Op::SLLI || op == Op::SRLI || op == Op::SRAI) {
                instr.imm = static_cast<std::int32_t>(rng.bounded(32));
            } else if (op == Op::J || op == Op::JAL || op == Op::BF ||
                       op == Op::BNF) {
                instr.imm = static_cast<std::int32_t>(rng.bounded(1u << 26)) -
                            (1 << 25);
            } else if (info.has_imm) {
                instr.imm = static_cast<std::int32_t>(rng.bounded(0x10000)) - 0x8000;
            }
            out.push_back(instr);
        }
    }
    return out;
}

TEST(EncodeDecode, RoundTripsEveryOpcode) {
    for (const Instr& instr : representative_instrs()) {
        const std::uint32_t word = encode(instr);
        const auto back = decode(word);
        ASSERT_TRUE(back.has_value()) << disassemble(instr);
        EXPECT_EQ(*back, instr) << disassemble(instr) << " vs "
                                << disassemble(*back);
    }
}

TEST(Encode, ImmediateRangeChecks) {
    EXPECT_THROW(encode({Op::ADDI, 1, 1, 0, 40000}), std::out_of_range);
    EXPECT_THROW(encode({Op::ADDI, 1, 1, 0, -40000}), std::out_of_range);
    EXPECT_THROW(encode({Op::ANDI, 1, 1, 0, -1}), std::out_of_range);
    EXPECT_THROW(encode({Op::ANDI, 1, 1, 0, 0x10000}), std::out_of_range);
    EXPECT_THROW(encode({Op::SLLI, 1, 1, 0, 32}), std::out_of_range);
    EXPECT_THROW(encode({Op::J, 0, 0, 0, 1 << 25}), std::out_of_range);
    EXPECT_NO_THROW(encode({Op::J, 0, 0, 0, (1 << 25) - 1}));
}

TEST(Disassemble, Formats) {
    EXPECT_EQ(disassemble({Op::ADDI, 3, 4, 0, -12}), "l.addi r3,r4,-12");
    EXPECT_EQ(disassemble({Op::ADD, 1, 2, 3, 0}), "l.add r1,r2,r3");
    EXPECT_EQ(disassemble({Op::LWZ, 5, 6, 0, 8}), "l.lwz r5,8(r6)");
    EXPECT_EQ(disassemble({Op::SW, 0, 2, 9, -4}), "l.sw -4(r2),r9");
    EXPECT_EQ(disassemble({Op::BF, 0, 0, 0, 8}), "l.bf 8");
    EXPECT_EQ(disassemble({Op::NOP, 0, 0, 0, 0}), "l.nop");
    EXPECT_EQ(disassemble({Op::NOP, 0, 0, 0, 1}), "l.nop 1");
    EXPECT_EQ(disassemble({Op::SFEQI, 0, 7, 0, 3}), "l.sfeqi r7,3");
    EXPECT_EQ(disassemble({Op::JR, 0, 0, 9, 0}), "l.jr r9");
}

TEST(EncodeDecode, StoreImmediateSplitExhaustive) {
    // The split store immediate is the trickiest field: check the full
    // signed range at a coarse stride plus the boundary values.
    for (std::int32_t imm = -32768; imm <= 32767; imm += 257) {
        const Instr instr{Op::SW, 0, 3, 4, imm};
        const auto back = decode(encode(instr));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->imm, imm);
    }
    for (const std::int32_t imm : {-32768, -1, 0, 1, 32767}) {
        const auto back = decode(encode({Op::SH, 0, 1, 2, imm}));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->imm, imm);
    }
}

}  // namespace
}  // namespace sfi
