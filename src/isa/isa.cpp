#include "isa/isa.hpp"

namespace sfi {

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

}  // namespace sfi
