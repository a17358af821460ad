// Binary encoder / decoder for the ORBIS32 subset.
//
// Encodings follow the OpenRISC 1000 architecture manual. Each opcode's
// primary opcode ([31:26]) and the mask/match bits that pick it within
// that opcode come from its SFI_FORALL_OPS row (isa/isa.hpp); the
// operand fields follow from the row's Form: D/A/B register fields at
// [25:21]/[20:16]/[15:11], 16-bit immediates at [15:0] (stores split
// theirs across [25:21] and [10:0]), jump offsets at [25:0] and shift
// amounts at [5:0].
#pragma once

#include <cstdint>
#include <optional>

#include "isa/isa.hpp"

namespace sfi {

/// Encodes an instruction into its 32-bit ORBIS32 word. Fields its form
/// does not carry are ignored. Immediates are range-checked; throws
/// std::out_of_range on overflow.
std::uint32_t encode(const Instr& instr);

/// Decodes a 32-bit word. Returns std::nullopt for words outside the
/// implemented subset (the ISS raises an illegal-instruction fault).
std::optional<Instr> decode(std::uint32_t word);

}  // namespace sfi
