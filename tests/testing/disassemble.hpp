// Disassembler for the ORBIS32 subset (test tool): the inverse of the
// assembler's syntax, used to print and round-trip instructions in the
// ISA suites (tests/isa/). Nothing in the simulator prints instructions.
#pragma once

#include <cstdint>
#include <string>

#include "isa/isa.hpp"

namespace sfi::testing {

/// Register name "r0".."r31".
std::string reg_name(std::uint8_t r);

/// Disassembles one instruction to assembler syntax, e.g.
/// "l.addi r3,r4,-12" or "l.bf 8" (branch offsets in instruction words).
std::string disassemble(const Instr& instr);

}  // namespace sfi::testing
