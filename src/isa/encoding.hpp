// Binary encoder / decoder for the ORBIS32 subset.
//
// Encodings follow the OpenRISC 1000 architecture manual: primary opcode
// in bits [31:26]; D/A/B register fields at [25:21]/[20:16]/[15:11];
// stores split their 16-bit immediate across [25:21] and [10:0]; the
// register-register ALU group (0x38) selects the operation via bits
// [9:8], [7:6] and [3:0]; set-flag compares put the condition in [25:21].
#pragma once

#include <cstdint>
#include <optional>

#include "isa/isa.hpp"

namespace sfi {

/// Encodes an instruction into its 32-bit ORBIS32 word.
/// Immediates are range-checked; throws std::out_of_range on overflow.
std::uint32_t encode(const Instr& instr);

/// Decodes a 32-bit word. Returns std::nullopt for words outside the
/// implemented subset (the ISS raises an illegal-instruction fault).
std::optional<Instr> decode(std::uint32_t word);

}  // namespace sfi
