#include "isa/isa.hpp"

#include <array>
#include <cassert>

namespace sfi {

namespace {

// Indexed by Op. Order must match the enum declaration.
constexpr std::array<OpInfo, kOpCount> kOpTable = {{
    // mnemonic    ex_class       wrD    rdA    rdB    imm    br     ld     st     setF   rdF
    {"l.j",     ExClass::None, false, false, false, true,  true,  false, false, false, false},
    {"l.jal",   ExClass::None, true,  false, false, true,  true,  false, false, false, false},
    {"l.jr",    ExClass::None, false, false, true,  false, true,  false, false, false, false},
    {"l.jalr",  ExClass::None, true,  false, true,  false, true,  false, false, false, false},
    {"l.bf",    ExClass::None, false, false, false, true,  true,  false, false, false, true},
    {"l.bnf",   ExClass::None, false, false, false, true,  true,  false, false, false, true},
    {"l.nop",   ExClass::None, false, false, false, true,  false, false, false, false, false},
    {"l.movhi", ExClass::None, true,  false, false, true,  false, false, false, false, false},
    {"l.lwz",   ExClass::None, true,  true,  false, true,  false, true,  false, false, false},
    {"l.lbz",   ExClass::None, true,  true,  false, true,  false, true,  false, false, false},
    {"l.lhz",   ExClass::None, true,  true,  false, true,  false, true,  false, false, false},
    {"l.sw",    ExClass::None, false, true,  true,  true,  false, false, true,  false, false},
    {"l.sb",    ExClass::None, false, true,  true,  true,  false, false, true,  false, false},
    {"l.sh",    ExClass::None, false, true,  true,  true,  false, false, true,  false, false},
    {"l.add",   ExClass::Add,  true,  true,  true,  false, false, false, false, false, false},
    {"l.sub",   ExClass::Sub,  true,  true,  true,  false, false, false, false, false, false},
    {"l.and",   ExClass::And,  true,  true,  true,  false, false, false, false, false, false},
    {"l.or",    ExClass::Or,   true,  true,  true,  false, false, false, false, false, false},
    {"l.xor",   ExClass::Xor,  true,  true,  true,  false, false, false, false, false, false},
    {"l.mul",   ExClass::Mul,  true,  true,  true,  false, false, false, false, false, false},
    {"l.sll",   ExClass::Sll,  true,  true,  true,  false, false, false, false, false, false},
    {"l.srl",   ExClass::Srl,  true,  true,  true,  false, false, false, false, false, false},
    {"l.sra",   ExClass::Sra,  true,  true,  true,  false, false, false, false, false, false},
    {"l.addi",  ExClass::Add,  true,  true,  false, true,  false, false, false, false, false},
    {"l.andi",  ExClass::And,  true,  true,  false, true,  false, false, false, false, false},
    {"l.ori",   ExClass::Or,   true,  true,  false, true,  false, false, false, false, false},
    {"l.xori",  ExClass::Xor,  true,  true,  false, true,  false, false, false, false, false},
    {"l.muli",  ExClass::Mul,  true,  true,  false, true,  false, false, false, false, false},
    {"l.slli",  ExClass::Sll,  true,  true,  false, true,  false, false, false, false, false},
    {"l.srli",  ExClass::Srl,  true,  true,  false, true,  false, false, false, false, false},
    {"l.srai",  ExClass::Sra,  true,  true,  false, true,  false, false, false, false, false},
    {"l.sfeq",  ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfne",  ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfgtu", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfgeu", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfltu", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfleu", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfgts", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfges", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sflts", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfles", ExClass::Cmp,  false, true,  true,  false, false, false, false, true,  false},
    {"l.sfeqi", ExClass::Cmp,  false, true,  false, true,  false, false, false, true,  false},
    {"l.sfnei", ExClass::Cmp,  false, true,  false, true,  false, false, false, true,  false},
    {"l.sfgtui", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfgeui", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfltui", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfleui", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfgtsi", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfgesi", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sfltsi", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
    {"l.sflesi", ExClass::Cmp, false, true,  false, true,  false, false, false, true,  false},
}};

}  // namespace

const OpInfo& op_info(Op op) {
    const auto idx = static_cast<std::size_t>(op);
    assert(idx < kOpCount);
    return kOpTable[idx];
}

bool is_alu_fi_target(Op op) { return op_info(op).ex_class != ExClass::None; }

const char* ex_class_name(ExClass c) {
    switch (c) {
        case ExClass::None: return "none";
        case ExClass::Add: return "add";
        case ExClass::Sub: return "sub";
        case ExClass::And: return "and";
        case ExClass::Or: return "or";
        case ExClass::Xor: return "xor";
        case ExClass::Sll: return "sll";
        case ExClass::Srl: return "srl";
        case ExClass::Sra: return "sra";
        case ExClass::Mul: return "mul";
        case ExClass::Cmp: return "cmp";
        case ExClass::kCount: break;
    }
    return "?";
}

std::optional<ExClass> ex_class_from_name(const std::string& name) {
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const auto c = static_cast<ExClass>(i);
        if (name == ex_class_name(c)) return c;
    }
    return std::nullopt;
}

std::uint32_t alu_result(ExClass c, std::uint32_t a, std::uint32_t b) {
    switch (c) {
        case ExClass::Add: return a + b;
        case ExClass::Sub: return a - b;
        case ExClass::Cmp: return a - b;  // compare latches the difference
        case ExClass::And: return a & b;
        case ExClass::Or: return a | b;
        case ExClass::Xor: return a ^ b;
        case ExClass::Sll: return a << (b & 31u);
        case ExClass::Srl: return a >> (b & 31u);
        case ExClass::Sra:
            return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                              (b & 31u));
        case ExClass::Mul: return a * b;
        case ExClass::None:
        case ExClass::kCount: break;
    }
    assert(false && "alu_result called for non-ALU class");
    return 0;
}

CmpKind cmp_kind(Op op) {
    switch (op) {
        case Op::SFEQ: case Op::SFEQI: return CmpKind::Eq;
        case Op::SFNE: case Op::SFNEI: return CmpKind::Ne;
        case Op::SFGTU: case Op::SFGTUI: return CmpKind::Gtu;
        case Op::SFGEU: case Op::SFGEUI: return CmpKind::Geu;
        case Op::SFLTU: case Op::SFLTUI: return CmpKind::Ltu;
        case Op::SFLEU: case Op::SFLEUI: return CmpKind::Leu;
        case Op::SFGTS: case Op::SFGTSI: return CmpKind::Gts;
        case Op::SFGES: case Op::SFGESI: return CmpKind::Ges;
        case Op::SFLTS: case Op::SFLTSI: return CmpKind::Lts;
        case Op::SFLES: case Op::SFLESI: return CmpKind::Les;
        default:
            assert(false && "not a set-flag opcode");
            return CmpKind::Eq;
    }
}

bool compare_flag(Op op, std::uint32_t a, std::uint32_t b) {
    const bool eq = a == b;
    const bool lt_u = a < b;
    const bool lt_s = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
    return flag_from(cmp_kind(op), eq, lt_s, lt_u);
}

bool compare_flag_from_diff(Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t diff) {
    return compare_flag_from_diff_kind(cmp_kind(op), a, b, diff);
}

}  // namespace sfi
