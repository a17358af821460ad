#include "testing/disassemble.hpp"

namespace sfi::testing {

std::string reg_name(std::uint8_t r) { return "r" + std::to_string(r); }

std::string disassemble(const Instr& i) {
    const OpInfo& info = op_info(i.op);
    std::string out = info.mnemonic;
    auto imm_str = [&] { return std::to_string(i.imm); };
    switch (i.op) {
        case Op::J: case Op::JAL: case Op::BF: case Op::BNF:
            return out + " " + imm_str();
        case Op::JR: case Op::JALR:
            return out + " " + reg_name(i.rb);
        case Op::NOP:
            return i.imm == 0 ? out : out + " " + imm_str();
        case Op::MOVHI:
            return out + " " + reg_name(i.rd) + "," + imm_str();
        case Op::LWZ: case Op::LBZ: case Op::LHZ:
            return out + " " + reg_name(i.rd) + "," + imm_str() + "(" +
                   reg_name(i.ra) + ")";
        case Op::SW: case Op::SB: case Op::SH:
            return out + " " + imm_str() + "(" + reg_name(i.ra) + ")," +
                   reg_name(i.rb);
        default: break;
    }
    if (info.sets_flag) {
        out += " " + reg_name(i.ra) + ",";
        out += info.has_imm ? imm_str() : reg_name(i.rb);
        return out;
    }
    // Remaining: three-operand ALU ops (register or immediate form).
    out += " " + reg_name(i.rd) + "," + reg_name(i.ra) + ",";
    out += info.has_imm ? imm_str() : reg_name(i.rb);
    return out;
}

}  // namespace sfi::testing
