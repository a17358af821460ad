#include "isa/encoding.hpp"

#include <array>
#include <stdexcept>
#include <string>

namespace sfi {

namespace {

std::uint32_t field_d(const Instr& i) { return (i.rd & 0x1fu) << 21; }
std::uint32_t field_a(const Instr& i) { return (i.ra & 0x1fu) << 16; }
std::uint32_t field_b(const Instr& i) { return (i.rb & 0x1fu) << 11; }

void check_range(std::int32_t v, std::int32_t lo, std::int32_t hi,
                 const char* what, const char* field) {
    if (v < lo || v > hi)
        throw std::out_of_range(std::string(what) + ": " + field);
}

void check_signed16(std::int32_t v, const char* what) {
    check_range(v, -32768, 32767, what, "signed 16-bit immediate overflow");
}

void check_unsigned16(std::int32_t v, const char* what) {
    check_range(v, 0, 0xffff, what, "unsigned 16-bit immediate overflow");
}

std::int32_t sext16(std::uint32_t v) {
    return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xffffu));
}

std::int32_t sext26(std::uint32_t v) {
    v &= 0x03ffffffu;
    if (v & 0x02000000u) v |= 0xfc000000u;
    return static_cast<std::int32_t>(v);
}

/// The opcode table grouped by primary opcode: the rows of opcode p are
/// ops[begin[p]] .. ops[begin[p + 1] - 1], in table order.
struct OpcodeBuckets {
    std::array<std::uint8_t, 65> begin{};
    std::array<Op, kOpCount> ops{};
};

constexpr OpcodeBuckets make_buckets() {
    OpcodeBuckets b;
    std::size_t n = 0;
    for (std::size_t opc = 0; opc < 64; ++opc) {
        b.begin[opc] = static_cast<std::uint8_t>(n);
        for (std::size_t i = 0; i < kOpCount; ++i)
            if (detail::kOpInfo[i].opcode == opc) b.ops[n++] = static_cast<Op>(i);
    }
    b.begin[64] = static_cast<std::uint8_t>(n);
    return b;
}

constexpr OpcodeBuckets kBuckets = make_buckets();

/// Extracts the operand fields of a word already matched to `op`.
Instr unpack(Op op, Form form, std::uint32_t word) {
    const auto rd = static_cast<std::uint8_t>((word >> 21) & 0x1f);
    const auto ra = static_cast<std::uint8_t>((word >> 16) & 0x1f);
    const auto rb = static_cast<std::uint8_t>((word >> 11) & 0x1f);
    const std::uint32_t k16 = word & 0xffffu;
    const auto k = static_cast<std::int32_t>(k16);
    switch (form) {
        case Form::Jump: return {op, 0, 0, 0, sext26(word)};
        case Form::JumpReg: return {op, 0, 0, rb, 0};
        case Form::Nop: return {op, 0, 0, 0, k};
        case Form::Movhi: return {op, rd, 0, 0, k};
        case Form::Load:
        case Form::AluImm: return {op, rd, ra, 0, sext16(k16)};
        case Form::Store:
            return {op, 0, ra, rb,
                    sext16((std::uint32_t{rd} << 11) | (word & 0x7ffu))};
        case Form::Alu: return {op, rd, ra, rb, 0};
        case Form::AluImmU: return {op, rd, ra, 0, k};
        case Form::ShiftImm:
            return {op, rd, ra, 0, static_cast<std::int32_t>(word & 0x3fu)};
        case Form::Cmp: return {op, 0, ra, rb, 0};
        case Form::CmpImm: return {op, 0, ra, 0, sext16(k16)};
    }
    throw std::logic_error("decode: invalid form");
}

}  // namespace

std::uint32_t encode(const Instr& i) {
    if (static_cast<std::size_t>(i.op) >= kOpCount)
        throw std::logic_error("encode: invalid opcode");
    const OpInfo& info = op_info(i.op);
    const char* what = info.mnemonic;
    const auto imm = static_cast<std::uint32_t>(i.imm);
    const std::uint32_t word = (std::uint32_t{info.opcode} << 26) | info.match;
    switch (info.form) {
        case Form::Jump:
            check_range(i.imm, -(1 << 25), (1 << 25) - 1, what,
                        "26-bit branch offset overflow");
            return word | (imm & 0x03ffffffu);
        case Form::JumpReg: return word | field_b(i);
        case Form::Nop:
            check_unsigned16(i.imm, what);
            return word | imm;
        case Form::Movhi:
            check_unsigned16(i.imm, what);
            return word | field_d(i) | imm;
        case Form::Load:
        case Form::AluImm:
            check_signed16(i.imm, what);
            return word | field_d(i) | field_a(i) | (imm & 0xffffu);
        case Form::Store:
            check_signed16(i.imm, what);
            return word | ((imm >> 11) & 0x1fu) << 21 | field_a(i) | field_b(i) |
                   (imm & 0x7ffu);
        case Form::Alu: return word | field_d(i) | field_a(i) | field_b(i);
        case Form::AluImmU:
            check_unsigned16(i.imm, what);
            return word | field_d(i) | field_a(i) | imm;
        case Form::ShiftImm:
            check_range(i.imm, 0, 31, what, "shift amount out of range");
            return word | field_d(i) | field_a(i) | imm;
        case Form::Cmp: return word | field_a(i) | field_b(i);
        case Form::CmpImm:
            check_signed16(i.imm, what);
            return word | field_a(i) | (imm & 0xffffu);
    }
    throw std::logic_error("encode: invalid form");
}

std::optional<Instr> decode(std::uint32_t word) {
    const std::uint32_t opc = word >> 26;
    for (std::size_t k = kBuckets.begin[opc]; k < kBuckets.begin[opc + 1]; ++k) {
        const Op op = kBuckets.ops[k];
        const OpInfo& info = op_info(op);
        if ((word & info.mask) == info.match) return unpack(op, info.form, word);
    }
    return std::nullopt;
}

}  // namespace sfi
