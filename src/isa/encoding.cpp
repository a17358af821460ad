#include "isa/encoding.hpp"

#include <stdexcept>
#include <string>

namespace sfi {

namespace {

constexpr std::uint32_t kOpcJ = 0x00, kOpcJal = 0x01, kOpcBnf = 0x03,
                        kOpcBf = 0x04, kOpcNop = 0x05, kOpcMovhi = 0x06,
                        kOpcJr = 0x11, kOpcJalr = 0x12, kOpcLwz = 0x21,
                        kOpcLbz = 0x23, kOpcLhz = 0x25, kOpcAddi = 0x27,
                        kOpcAndi = 0x29, kOpcOri = 0x2a, kOpcXori = 0x2b,
                        kOpcMuli = 0x2c, kOpcShifti = 0x2e, kOpcSfi = 0x2f,
                        kOpcSw = 0x35, kOpcSb = 0x36, kOpcSh = 0x37,
                        kOpcAlu = 0x38, kOpcSf = 0x39;

// Set-flag condition field values (bits [25:21]).
constexpr std::uint32_t kCondEq = 0x0, kCondNe = 0x1, kCondGtu = 0x2,
                        kCondGeu = 0x3, kCondLtu = 0x4, kCondLeu = 0x5,
                        kCondGts = 0xa, kCondGes = 0xb, kCondLts = 0xc,
                        kCondLes = 0xd;

std::uint32_t field_d(const Instr& i) { return (i.rd & 0x1fu) << 21; }
std::uint32_t field_a(const Instr& i) { return (i.ra & 0x1fu) << 16; }
std::uint32_t field_b(const Instr& i) { return (i.rb & 0x1fu) << 11; }

void check_signed16(std::int32_t v, const char* what) {
    if (v < -32768 || v > 32767)
        throw std::out_of_range(std::string(what) + ": signed 16-bit immediate overflow");
}

void check_unsigned16(std::int32_t v, const char* what) {
    if (v < 0 || v > 0xffff)
        throw std::out_of_range(std::string(what) + ": unsigned 16-bit immediate overflow");
}

void check_n26(std::int32_t v, const char* what) {
    if (v < -(1 << 25) || v >= (1 << 25))
        throw std::out_of_range(std::string(what) + ": 26-bit branch offset overflow");
}

void check_shamt(std::int32_t v, const char* what) {
    if (v < 0 || v > 31)
        throw std::out_of_range(std::string(what) + ": shift amount out of range");
}

std::uint32_t enc_n26(std::uint32_t opc, std::int32_t n) {
    return (opc << 26) | (static_cast<std::uint32_t>(n) & 0x03ffffffu);
}

std::uint32_t enc_imm16(std::uint32_t opc, const Instr& i) {
    return (opc << 26) | field_d(i) | field_a(i) |
           (static_cast<std::uint32_t>(i.imm) & 0xffffu);
}

std::uint32_t enc_store(std::uint32_t opc, const Instr& i) {
    const auto imm = static_cast<std::uint32_t>(i.imm);
    return (opc << 26) | ((imm >> 11) & 0x1fu) << 21 | field_a(i) | field_b(i) |
           (imm & 0x7ffu);
}

std::uint32_t enc_alu(const Instr& i, std::uint32_t op2, std::uint32_t op3,
                      std::uint32_t low) {
    return (kOpcAlu << 26) | field_d(i) | field_a(i) | field_b(i) |
           (op2 << 8) | (op3 << 6) | low;
}

std::uint32_t enc_sf(std::uint32_t opc, std::uint32_t cond, const Instr& i,
                     bool imm_form) {
    std::uint32_t word = (opc << 26) | (cond << 21) | field_a(i);
    if (imm_form)
        word |= static_cast<std::uint32_t>(i.imm) & 0xffffu;
    else
        word |= field_b(i);
    return word;
}

std::int32_t sext16(std::uint32_t v) {
    return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xffffu));
}

std::int32_t sext26(std::uint32_t v) {
    v &= 0x03ffffffu;
    if (v & 0x02000000u) v |= 0xfc000000u;
    return static_cast<std::int32_t>(v);
}

std::optional<Op> sf_op_from_cond(std::uint32_t cond, bool imm_form) {
    switch (cond) {
        case kCondEq: return imm_form ? Op::SFEQI : Op::SFEQ;
        case kCondNe: return imm_form ? Op::SFNEI : Op::SFNE;
        case kCondGtu: return imm_form ? Op::SFGTUI : Op::SFGTU;
        case kCondGeu: return imm_form ? Op::SFGEUI : Op::SFGEU;
        case kCondLtu: return imm_form ? Op::SFLTUI : Op::SFLTU;
        case kCondLeu: return imm_form ? Op::SFLEUI : Op::SFLEU;
        case kCondGts: return imm_form ? Op::SFGTSI : Op::SFGTS;
        case kCondGes: return imm_form ? Op::SFGESI : Op::SFGES;
        case kCondLts: return imm_form ? Op::SFLTSI : Op::SFLTS;
        case kCondLes: return imm_form ? Op::SFLESI : Op::SFLES;
        default: return std::nullopt;
    }
}

std::uint32_t sf_cond_of(Op op) {
    switch (op) {
        case Op::SFEQ: case Op::SFEQI: return kCondEq;
        case Op::SFNE: case Op::SFNEI: return kCondNe;
        case Op::SFGTU: case Op::SFGTUI: return kCondGtu;
        case Op::SFGEU: case Op::SFGEUI: return kCondGeu;
        case Op::SFLTU: case Op::SFLTUI: return kCondLtu;
        case Op::SFLEU: case Op::SFLEUI: return kCondLeu;
        case Op::SFGTS: case Op::SFGTSI: return kCondGts;
        case Op::SFGES: case Op::SFGESI: return kCondGes;
        case Op::SFLTS: case Op::SFLTSI: return kCondLts;
        case Op::SFLES: case Op::SFLESI: return kCondLes;
        default: throw std::logic_error("sf_cond_of: not a set-flag opcode");
    }
}

}  // namespace

std::uint32_t encode(const Instr& i) {
    switch (i.op) {
        case Op::J: check_n26(i.imm, "l.j"); return enc_n26(kOpcJ, i.imm);
        case Op::JAL: check_n26(i.imm, "l.jal"); return enc_n26(kOpcJal, i.imm);
        case Op::BNF: check_n26(i.imm, "l.bnf"); return enc_n26(kOpcBnf, i.imm);
        case Op::BF: check_n26(i.imm, "l.bf"); return enc_n26(kOpcBf, i.imm);
        case Op::NOP:
            check_unsigned16(i.imm, "l.nop");
            return (kOpcNop << 26) | (0x01u << 24) |
                   (static_cast<std::uint32_t>(i.imm) & 0xffffu);
        case Op::MOVHI:
            check_unsigned16(i.imm, "l.movhi");
            return (kOpcMovhi << 26) | field_d(i) |
                   (static_cast<std::uint32_t>(i.imm) & 0xffffu);
        case Op::JR: return (kOpcJr << 26) | field_b(i);
        case Op::JALR: return (kOpcJalr << 26) | field_b(i);
        case Op::LWZ: check_signed16(i.imm, "l.lwz"); return enc_imm16(kOpcLwz, i);
        case Op::LBZ: check_signed16(i.imm, "l.lbz"); return enc_imm16(kOpcLbz, i);
        case Op::LHZ: check_signed16(i.imm, "l.lhz"); return enc_imm16(kOpcLhz, i);
        case Op::SW: check_signed16(i.imm, "l.sw"); return enc_store(kOpcSw, i);
        case Op::SB: check_signed16(i.imm, "l.sb"); return enc_store(kOpcSb, i);
        case Op::SH: check_signed16(i.imm, "l.sh"); return enc_store(kOpcSh, i);
        case Op::ADDI: check_signed16(i.imm, "l.addi"); return enc_imm16(kOpcAddi, i);
        case Op::ANDI: check_unsigned16(i.imm, "l.andi"); return enc_imm16(kOpcAndi, i);
        case Op::ORI: check_unsigned16(i.imm, "l.ori"); return enc_imm16(kOpcOri, i);
        case Op::XORI: check_signed16(i.imm, "l.xori"); return enc_imm16(kOpcXori, i);
        case Op::MULI: check_signed16(i.imm, "l.muli"); return enc_imm16(kOpcMuli, i);
        case Op::SLLI:
            check_shamt(i.imm, "l.slli");
            return (kOpcShifti << 26) | field_d(i) | field_a(i) | (0u << 6) |
                   static_cast<std::uint32_t>(i.imm);
        case Op::SRLI:
            check_shamt(i.imm, "l.srli");
            return (kOpcShifti << 26) | field_d(i) | field_a(i) | (1u << 6) |
                   static_cast<std::uint32_t>(i.imm);
        case Op::SRAI:
            check_shamt(i.imm, "l.srai");
            return (kOpcShifti << 26) | field_d(i) | field_a(i) | (2u << 6) |
                   static_cast<std::uint32_t>(i.imm);
        case Op::ADD: return enc_alu(i, 0, 0, 0x0);
        case Op::SUB: return enc_alu(i, 0, 0, 0x2);
        case Op::AND: return enc_alu(i, 0, 0, 0x3);
        case Op::OR: return enc_alu(i, 0, 0, 0x4);
        case Op::XOR: return enc_alu(i, 0, 0, 0x5);
        case Op::MUL: return enc_alu(i, 3, 0, 0x6);
        case Op::SLL: return enc_alu(i, 0, 0, 0x8);
        case Op::SRL: return enc_alu(i, 0, 1, 0x8);
        case Op::SRA: return enc_alu(i, 0, 2, 0x8);
        case Op::SFEQ: case Op::SFNE: case Op::SFGTU: case Op::SFGEU:
        case Op::SFLTU: case Op::SFLEU: case Op::SFGTS: case Op::SFGES:
        case Op::SFLTS: case Op::SFLES:
            return enc_sf(kOpcSf, sf_cond_of(i.op), i, /*imm_form=*/false);
        case Op::SFEQI: case Op::SFNEI: case Op::SFGTUI: case Op::SFGEUI:
        case Op::SFLTUI: case Op::SFLEUI: case Op::SFGTSI: case Op::SFGESI:
        case Op::SFLTSI: case Op::SFLESI:
            check_signed16(i.imm, "l.sf*i");
            return enc_sf(kOpcSfi, sf_cond_of(i.op), i, /*imm_form=*/true);
        case Op::kCount: break;
    }
    throw std::logic_error("encode: invalid opcode");
}

std::optional<Instr> decode(std::uint32_t word) {
    const std::uint32_t opc = word >> 26;
    const auto rd = static_cast<std::uint8_t>((word >> 21) & 0x1f);
    const auto ra = static_cast<std::uint8_t>((word >> 16) & 0x1f);
    const auto rb = static_cast<std::uint8_t>((word >> 11) & 0x1f);
    const std::uint32_t imm16 = word & 0xffffu;

    Instr i;
    switch (opc) {
        case kOpcJ: return Instr{Op::J, 0, 0, 0, sext26(word)};
        case kOpcJal: return Instr{Op::JAL, 0, 0, 0, sext26(word)};
        case kOpcBnf: return Instr{Op::BNF, 0, 0, 0, sext26(word)};
        case kOpcBf: return Instr{Op::BF, 0, 0, 0, sext26(word)};
        case kOpcNop:
            if (((word >> 24) & 0x3u) != 0x1u) return std::nullopt;
            return Instr{Op::NOP, 0, 0, 0, static_cast<std::int32_t>(imm16)};
        case kOpcMovhi:
            if ((word >> 16) & 0x1u) return std::nullopt;  // l.macrc unsupported
            return Instr{Op::MOVHI, rd, 0, 0, static_cast<std::int32_t>(imm16)};
        case kOpcJr: return Instr{Op::JR, 0, 0, rb, 0};
        case kOpcJalr: return Instr{Op::JALR, 0, 0, rb, 0};
        case kOpcLwz: return Instr{Op::LWZ, rd, ra, 0, sext16(imm16)};
        case kOpcLbz: return Instr{Op::LBZ, rd, ra, 0, sext16(imm16)};
        case kOpcLhz: return Instr{Op::LHZ, rd, ra, 0, sext16(imm16)};
        case kOpcAddi: return Instr{Op::ADDI, rd, ra, 0, sext16(imm16)};
        case kOpcAndi:
            return Instr{Op::ANDI, rd, ra, 0, static_cast<std::int32_t>(imm16)};
        case kOpcOri:
            return Instr{Op::ORI, rd, ra, 0, static_cast<std::int32_t>(imm16)};
        case kOpcXori: return Instr{Op::XORI, rd, ra, 0, sext16(imm16)};
        case kOpcMuli: return Instr{Op::MULI, rd, ra, 0, sext16(imm16)};
        case kOpcShifti: {
            const std::uint32_t kind = (word >> 6) & 0x3u;
            const auto sh = static_cast<std::int32_t>(word & 0x3fu);
            if (sh > 31) return std::nullopt;
            switch (kind) {
                case 0: return Instr{Op::SLLI, rd, ra, 0, sh};
                case 1: return Instr{Op::SRLI, rd, ra, 0, sh};
                case 2: return Instr{Op::SRAI, rd, ra, 0, sh};
                default: return std::nullopt;
            }
        }
        case kOpcSfi: {
            const auto op = sf_op_from_cond((word >> 21) & 0x1f, true);
            if (!op) return std::nullopt;
            return Instr{*op, 0, ra, 0, sext16(imm16)};
        }
        case kOpcSf: {
            const auto op = sf_op_from_cond((word >> 21) & 0x1f, false);
            if (!op) return std::nullopt;
            return Instr{*op, 0, ra, rb, 0};
        }
        case kOpcSw: case kOpcSb: case kOpcSh: {
            const std::uint32_t imm =
                (((word >> 21) & 0x1fu) << 11) | (word & 0x7ffu);
            const Op op = opc == kOpcSw ? Op::SW : opc == kOpcSb ? Op::SB : Op::SH;
            return Instr{op, 0, ra, rb, sext16(imm)};
        }
        case kOpcAlu: {
            const std::uint32_t op2 = (word >> 8) & 0x3u;
            const std::uint32_t op3 = (word >> 6) & 0x3u;
            const std::uint32_t low = word & 0xfu;
            if (op2 == 3 && low == 0x6) return Instr{Op::MUL, rd, ra, rb, 0};
            if (op2 != 0) return std::nullopt;
            switch (low) {
                case 0x0: return Instr{Op::ADD, rd, ra, rb, 0};
                case 0x2: return Instr{Op::SUB, rd, ra, rb, 0};
                case 0x3: return Instr{Op::AND, rd, ra, rb, 0};
                case 0x4: return Instr{Op::OR, rd, ra, rb, 0};
                case 0x5: return Instr{Op::XOR, rd, ra, rb, 0};
                case 0x8:
                    switch (op3) {
                        case 0: return Instr{Op::SLL, rd, ra, rb, 0};
                        case 1: return Instr{Op::SRL, rd, ra, rb, 0};
                        case 2: return Instr{Op::SRA, rd, ra, rb, 0};
                        default: return std::nullopt;
                    }
                default: return std::nullopt;
            }
        }
        default: return std::nullopt;
    }
}

}  // namespace sfi
