// ORBIS32-subset instruction set used by the cycle-accurate ISS.
//
// The subset covers everything the four paper benchmarks need: integer
// ALU (add/sub/logic/shift/mul, register and immediate forms), set-flag
// compares, conditional/unconditional branches, loads/stores and l.nop
// control codes. Encodings follow the OpenRISC 1000 architecture manual
// (ORBIS32) so that binaries round-trip through encoder and decoder.
//
// Deviation from ORBIS32 documented in DESIGN.md: branches have NO delay
// slot (mor1kx "no-delay" variant); this affects cycle counts only, not
// fault-injection behaviour. Full subset reference: docs/ISA.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sfi {

/// Mnemonic-level opcode. Immediate and register forms are distinct
/// because they decode from different primary opcodes.
enum class Op : std::uint8_t {
    // Control
    J, JAL, JR, JALR, BF, BNF, NOP, MOVHI,
    // Memory
    LWZ, LBZ, LHZ, SW, SB, SH,
    // ALU register-register
    ADD, SUB, AND, OR, XOR, MUL, SLL, SRL, SRA,
    // ALU register-immediate
    ADDI, ANDI, ORI, XORI, MULI, SLLI, SRLI, SRAI,
    // Set-flag register-register
    SFEQ, SFNE, SFGTU, SFGEU, SFLTU, SFLEU, SFGTS, SFGES, SFLTS, SFLES,
    // Set-flag register-immediate
    SFEQI, SFNEI, SFGTUI, SFGEUI, SFLTUI, SFLEUI, SFGTSI, SFGESI, SFLTSI,
    SFLESI,
    kCount
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// Functional unit exercised in the EX stage. This is the granularity at
/// which dynamic timing analysis conditions the arrival-time statistics
/// (paper §3.4: "characterization is performed independently for different
/// instructions, even if they affect the same pipeline stage").
enum class ExClass : std::uint8_t {
    None,   ///< no EX-stage ALU activity (branches, loads, stores, nop)
    Add,    ///< adder, A + B
    Sub,    ///< adder in subtract mode, A - B
    And, Or, Xor,
    Sll, Srl, Sra,
    Mul,    ///< 32x32 -> low-32 multiplier
    Cmp,    ///< set-flag compares (subtract path + flag logic)
    kCount
};

constexpr std::size_t kExClassCount = static_cast<std::size_t>(ExClass::kCount);

/// l.nop control codes (or1ksim conventions plus two kernel markers used
/// by the FI framework to delimit the benchmark kernel, paper §2.2).
enum NopCode : std::uint16_t {
    kNopNop = 0x0000,          ///< plain no-operation
    kNopExit = 0x0001,         ///< terminate simulation, r3 = exit code
    kNopReport = 0x0002,       ///< report r3 to the simulator log
    kNopKernelBegin = 0x0010,  ///< enable fault injection (kernel entry)
    kNopKernelEnd = 0x0011,    ///< disable fault injection (kernel exit)
};

/// One decoded instruction. `imm` is stored sign- or zero-extended to
/// 32 bits exactly as the execution semantics consume it.
struct Instr {
    Op op = Op::NOP;
    std::uint8_t rd = 0;   ///< destination register (0..31)
    std::uint8_t ra = 0;   ///< source register A
    std::uint8_t rb = 0;   ///< source register B
    std::int32_t imm = 0;  ///< extended immediate / branch word-offset / nop code

    bool operator==(const Instr&) const = default;
};

/// Static properties of an opcode, used by the decoder, the pipeline model
/// and the fault-injection engine.
struct OpInfo {
    const char* mnemonic;
    ExClass ex_class;
    bool writes_rd;     ///< produces a GPR result
    bool reads_ra;
    bool reads_rb;
    bool has_imm;
    bool is_branch;     ///< changes control flow (incl. jumps)
    bool is_load;
    bool is_store;
    bool sets_flag;     ///< set-flag compare
    bool reads_flag;    ///< l.bf / l.bnf
};

/// Property lookup; total over all Op values.
const OpInfo& op_info(Op op);

/// True when the EX stage latches a 32-bit ALU result for this opcode and
/// the instruction is therefore a fault-injection target (paper §2.1:
/// only the 32 ALU endpoints of the execution stage are ever at risk).
bool is_alu_fi_target(Op op);

/// Human-readable ExClass name ("add", "mul", ...).
const char* ex_class_name(ExClass c);

/// Parses an ExClass name; returns std::nullopt for unknown names.
std::optional<ExClass> ex_class_from_name(const std::string& name);

// ---------------------------------------------------------------------------
// ALU reference semantics. These are the *functional* results; the
// gate-level netlist in src/circuits must agree bit-exactly (checked by
// equivalence tests), and the ISS uses them for golden execution.
// ---------------------------------------------------------------------------

/// Computes the 32-bit EX-stage result for an ALU-class operation.
/// For compares the result is the subtraction A - B (the value latched at
/// the ALU endpoints); the flag is derived separately via `compare_flag`.
std::uint32_t alu_result(ExClass c, std::uint32_t a, std::uint32_t b);

/// Compare predicate of a set-flag opcode, resolved once (the threaded
/// interpreter bakes it into the micro-op at lowering time so the hot
/// kernel never re-derives it from the opcode).
enum class CmpKind : std::uint8_t {
    Eq, Ne, Gtu, Geu, Ltu, Leu, Gts, Ges, Lts, Les
};

/// Maps a set-flag opcode to its predicate.
CmpKind cmp_kind(Op op);

/// Evaluates a predicate from the primitive comparison outcomes.
inline bool flag_from(CmpKind k, bool eq, bool lt_s, bool lt_u) {
    switch (k) {
        case CmpKind::Eq: return eq;
        case CmpKind::Ne: return !eq;
        case CmpKind::Gtu: return !lt_u && !eq;
        case CmpKind::Geu: return !lt_u;
        case CmpKind::Ltu: return lt_u;
        case CmpKind::Leu: return lt_u || eq;
        case CmpKind::Gts: return !lt_s && !eq;
        case CmpKind::Ges: return !lt_s;
        case CmpKind::Lts: return lt_s;
        case CmpKind::Les: return lt_s || eq;
    }
    return false;
}

/// Kind-resolved form of compare_flag_from_diff (inline: it sits in the
/// interpreter's compare kernel). The flag logic consumes the latched
/// difference plus the operand sign bits, so a corrupted diff yields
/// exactly the flag the hardware would compute from corrupted endpoints.
inline bool compare_flag_from_diff_kind(CmpKind k, std::uint32_t a,
                                        std::uint32_t b, std::uint32_t diff) {
    const bool eq = diff == 0;
    // Unsigned borrow reconstruction: for diff = a - b (mod 2^32) the
    // borrow occurred iff diff > a (wrap-around), which holds for the
    // correct diff and degrades consistently for a corrupted one.
    const bool lt_u = diff > a;
    const bool sign_a = (a >> 31) & 1u;
    const bool sign_b = (b >> 31) & 1u;
    const bool sign_d = (diff >> 31) & 1u;
    const bool overflow = (sign_a != sign_b) && (sign_d != sign_a);
    const bool lt_s = sign_d != overflow;
    return flag_from(k, eq, lt_s, lt_u);
}

/// Derives the compare flag for a set-flag opcode from operands.
bool compare_flag(Op op, std::uint32_t a, std::uint32_t b);

/// Derives the compare flag from the (possibly FI-corrupted) subtract
/// result plus the operand sign bits, mirroring how the flag logic sits
/// downstream of the ALU endpoints in the real datapath.
bool compare_flag_from_diff(Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t diff);

}  // namespace sfi
