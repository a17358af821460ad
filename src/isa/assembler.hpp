// Two-pass text assembler for the ORBIS32 subset.
//
// Supported syntax (one statement per line, '#' or ';' start a comment):
//
//   .org   0x100          ; set location counter
//   .entry _start         ; program entry point (default: 0)
//   .equ   SIZE, 129      ; symbolic constant
//   .align 4              ; pad with zero bytes to a multiple of 4
//   .word  1, -2, 0x30    ; 32-bit little-endian data (symbols allowed)
//   .half  7, 8           ; 16-bit data
//   .byte  1, 2, 3        ; 8-bit data
//   .space 64             ; 64 zero bytes
//   loop:                 ; label
//     l.addi r3,r3,-1
//     l.sfeqi r3,0
//     l.bnf  loop         ; branch targets are labels or literal word offsets
//     l.movhi r4,hi(data) ; hi()/lo() split 32-bit addresses for movhi/ori
//     l.ori   r4,r4,lo(data)
//     l.lwz  r5,0(r4)
//     l.sw   4(r4),r5
//
// The benchmark generators in src/apps emit this syntax with their input
// data embedded as .word blocks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "isa/isa.hpp"

namespace sfi {

/// An assembled memory image: disjoint byte sections plus symbols.
struct Program {
    struct Section {
        std::uint32_t addr = 0;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<Section> sections;
    std::uint32_t entry = 0;
    std::map<std::string, std::uint32_t> symbols;
    /// Unique per assemble() call (0 for hand-built Programs). Lets
    /// consumers that cache per-program state (Cpu::reset's fast path)
    /// distinguish two distinct assemblies even when the object and its
    /// heap buffers land at recycled addresses.
    std::uint64_t build_id = 0;

    /// Total image size in bytes across all sections.
    std::size_t byte_size() const;
    /// Address of a symbol; throws std::out_of_range if undefined.
    std::uint32_t symbol(const std::string& name) const;
};

/// Thrown on any syntax / range / duplicate-label error. Message includes
/// the 1-based source line number.
struct AsmError : std::runtime_error {
    AsmError(std::size_t line, const std::string& message);
    std::size_t line;
};

/// Looks up an opcode by its "l.xxx" mnemonic.
std::optional<Op> op_from_mnemonic(const std::string& mnemonic);

/// Assembles `source` into a Program. Deterministic, no file I/O.
Program assemble(const std::string& source);

}  // namespace sfi
