#include "isa/encoding.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <optional>

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

    // One word per Op, in Op order. Encode and decode read the same opcode
    // table, so a wrong row would round-trip and run consistently; these
    // words, recorded from the switch-based encoder the table replaced,
    // pin every row's opcode, select bits and field packing.
    struct Golden {
        Instr instr;
        std::uint32_t word;
    };
    const Golden per_op[] = {
        {{Op::J, 0, 0, 0, -3}, 0x03fffffdu},
        {{Op::JAL, 0, 0, 0, 0x12345}, 0x04012345u},
        {{Op::JR, 0, 0, 2, 0}, 0x44001000u},
        {{Op::JALR, 0, 0, 7, 0}, 0x48003800u},
        {{Op::BF, 0, 0, 0, -0x2000000}, 0x12000000u},
        {{Op::BNF, 0, 0, 0, 0x1ffffff}, 0x0dffffffu},
        {{Op::NOP, 0, 0, 0, 0xabcd}, 0x1500abcdu},
        {{Op::MOVHI, 5, 0, 0, 0xbeef}, 0x18a0beefu},
        {{Op::LWZ, 10, 21, 0, -8}, 0x8555fff8u},
        {{Op::LBZ, 15, 26, 0, 0x7fff}, 0x8dfa7fffu},
        {{Op::LHZ, 20, 31, 0, -0x8000}, 0x969f8000u},
        {{Op::SW, 0, 5, 16, -4}, 0xd7e587fcu},
        {{Op::SB, 0, 10, 21, 0x1234}, 0xd84aaa34u},
        {{Op::SH, 0, 15, 26, -0x7ff1}, 0xde0fd00fu},
        {{Op::ADD, 9, 20, 31, 0}, 0xe134f800u},
        {{Op::SUB, 14, 25, 5, 0}, 0xe1d92802u},
        {{Op::AND, 19, 30, 10, 0}, 0xe27e5003u},
        {{Op::OR, 24, 4, 15, 0}, 0xe3047804u},
        {{Op::XOR, 29, 9, 20, 0}, 0xe3a9a005u},
        {{Op::MUL, 3, 14, 25, 0}, 0xe06ecb06u},
        {{Op::SLL, 8, 19, 30, 0}, 0xe113f008u},
        {{Op::SRL, 13, 24, 4, 0}, 0xe1b82048u},
        {{Op::SRA, 18, 29, 9, 0}, 0xe25d4888u},
        {{Op::ADDI, 23, 3, 0, -1}, 0x9ee3ffffu},
        {{Op::ANDI, 28, 8, 0, 0xffff}, 0xa788ffffu},
        {{Op::ORI, 2, 13, 0, 0x8001}, 0xa84d8001u},
        {{Op::XORI, 7, 18, 0, 0x5555}, 0xacf25555u},
        {{Op::MULI, 12, 23, 0, -0x8000}, 0xb1978000u},
        {{Op::SLLI, 17, 28, 0, 0x1f}, 0xba3c001fu},
        {{Op::SRLI, 22, 2, 0, 7}, 0xbac20047u},
        {{Op::SRAI, 27, 7, 0, 0x10}, 0xbb670090u},
        {{Op::SFEQ, 0, 12, 23, 0}, 0xe40cb800u},
        {{Op::SFNE, 0, 17, 28, 0}, 0xe431e000u},
        {{Op::SFGTU, 0, 22, 2, 0}, 0xe4561000u},
        {{Op::SFGEU, 0, 27, 7, 0}, 0xe47b3800u},
        {{Op::SFLTU, 0, 1, 12, 0}, 0xe4816000u},
        {{Op::SFLEU, 0, 6, 17, 0}, 0xe4a68800u},
        {{Op::SFGTS, 0, 11, 22, 0}, 0xe54bb000u},
        {{Op::SFGES, 0, 16, 27, 0}, 0xe570d800u},
        {{Op::SFLTS, 0, 21, 1, 0}, 0xe5950800u},
        {{Op::SFLES, 0, 26, 6, 0}, 0xe5ba3000u},
        {{Op::SFEQI, 0, 31, 0, -1}, 0xbc1fffffu},
        {{Op::SFNEI, 0, 5, 0, 0x7fff}, 0xbc257fffu},
        {{Op::SFGTUI, 0, 10, 0, -0x8000}, 0xbc4a8000u},
        {{Op::SFGEUI, 0, 15, 0, 1}, 0xbc6f0001u},
        {{Op::SFLTUI, 0, 20, 0, 0x100}, 0xbc940100u},
        {{Op::SFLEUI, 0, 25, 0, -0x1234}, 0xbcb9edccu},
        {{Op::SFGTSI, 0, 30, 0, 0x2a}, 0xbd5e002au},
        {{Op::SFGESI, 0, 4, 0, -0x2a}, 0xbd64ffd6u},
        {{Op::SFLTSI, 0, 9, 0, 0x4000}, 0xbd894000u},
        {{Op::SFLESI, 0, 14, 0, -2}, 0xbdaefffeu},
    };
    static_assert(std::size(per_op) == kOpCount);
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const Golden& g = per_op[i];
        ASSERT_EQ(g.instr.op, static_cast<Op>(i));
        EXPECT_EQ(encode(g.instr), g.word) << disassemble(g.instr);
        EXPECT_EQ(decode(g.word), std::optional<Instr>(g.instr))
            << disassemble(g.instr);
    }
}

TEST(Decode, RejectsUnknownOpcodes) {
    EXPECT_FALSE(decode(0xffffffffu).has_value());
    EXPECT_FALSE(decode(0x60000000u).has_value());  // opcode 0x18: unused
}

TEST(Decode, RejectsBadNopFormat) {
    // l.nop requires bits [25:24] == 01.
    EXPECT_FALSE(decode(0x14000000u).has_value());
}

// decode() over every value of the 23 bits it reads ([31:26], [25:21],
// [16], [10:0]), with the other nine ([20:17], [15:11]: register fields
// only) drawn from a seeded Rng. The digest and count were recorded from
// the switch-based decoder the opcode table replaced.
TEST(Decode, DigestOverEveryReadBitIsPinned) {
    Rng rng(2016);
    std::uint64_t digest = 14695981039346656037ULL, decoded = 0;
    for (std::uint32_t v = 0; v < (1u << 23); ++v) {
        const std::uint32_t word =
            ((v >> 17) << 26) | (((v >> 12) & 0x1fu) << 21) |
            (((v >> 11) & 1u) << 16) | (v & 0x7ffu) |
            (rng.u32() & 0x001ef800u);
        std::uint64_t fields = 0xffff;  // rejected
        if (const auto instr = decode(word)) {
            ++decoded;
            fields = static_cast<std::uint64_t>(instr->op) |
                     std::uint64_t{instr->rd} << 8 |
                     std::uint64_t{instr->ra} << 16 |
                     std::uint64_t{instr->rb} << 24 |
                     std::uint64_t{static_cast<std::uint32_t>(instr->imm)} << 32;
        }
        digest ^= fields;
        digest *= 1099511628211ULL;
    }
    EXPECT_EQ(decoded, 2471424u);
    EXPECT_EQ(digest, 0xa4e735925958db25ull);
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
            if (info.writes_rd) instr.rd = reg();
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
