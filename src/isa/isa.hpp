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

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace sfi {

// ---------------------------------------------------------------------------
// The opcode table: one row per instruction, and the only place that
// states per-opcode facts. Op, OpInfo, encode()/decode(), the assembler's
// operand parsing and the interpreter's micro-op lowering are expanded
// from it (docs/ISA.md, "Opcode table"). Columns:
//
//   name   Op enumerator. Forensic records store Op's numeric value, so
//          rows are appended, never reordered.
//   mnem   assembler mnemonic
//   form   operand Form: the word's fields, the operand syntax and the
//          registers read and written
//   opc    primary opcode, bits [31:26]
//   mask   the bits that pick the instruction within its primary opcode
//   match  their value; for l.sf* the condition field [25:21], whose
//          value is the CmpKind
//   cls    ExClass: the EX-stage unit, i.e. the fault-injection class
//   uop    the UopKind it lowers to (src/cpu/interp.hpp)
// ---------------------------------------------------------------------------
#define SFI_FORALL_OPS(X)                                                       \
    /* name   mnem        form      opc   mask        match       cls   uop */  \
    X(J,      "l.j",      Jump,     0x00, 0,          0,          None, J)      \
    X(JAL,    "l.jal",    Jump,     0x01, 0,          0,          None, Jal)    \
    X(JR,     "l.jr",     JumpReg,  0x11, 0,          0,          None, Jr)     \
    X(JALR,   "l.jalr",   JumpReg,  0x12, 0,          0,          None, Jalr)   \
    X(BF,     "l.bf",     Jump,     0x04, 0,          0,          None, Bf)     \
    X(BNF,    "l.bnf",    Jump,     0x03, 0,          0,          None, Bnf)    \
    X(NOP,    "l.nop",    Nop,      0x05, 0x03000000, 0x01000000, None, Nop)    \
    X(MOVHI,  "l.movhi",  Movhi,    0x06, 0x00010000, 0,          None, Movhi)  \
    X(LWZ,    "l.lwz",    Load,     0x21, 0,          0,          None, Lwz)    \
    X(LBZ,    "l.lbz",    Load,     0x23, 0,          0,          None, Lbz)    \
    X(LHZ,    "l.lhz",    Load,     0x25, 0,          0,          None, Lhz)    \
    X(SW,     "l.sw",     Store,    0x35, 0,          0,          None, Sw)     \
    X(SB,     "l.sb",     Store,    0x36, 0,          0,          None, Sb)     \
    X(SH,     "l.sh",     Store,    0x37, 0,          0,          None, Sh)     \
    X(ADD,    "l.add",    Alu,      0x38, 0x30f,      0x000,      Add,  AddReg) \
    X(SUB,    "l.sub",    Alu,      0x38, 0x30f,      0x002,      Sub,  SubReg) \
    X(AND,    "l.and",    Alu,      0x38, 0x30f,      0x003,      And,  AndReg) \
    X(OR,     "l.or",     Alu,      0x38, 0x30f,      0x004,      Or,   OrReg)  \
    X(XOR,    "l.xor",    Alu,      0x38, 0x30f,      0x005,      Xor,  XorReg) \
    X(MUL,    "l.mul",    Alu,      0x38, 0x30f,      0x306,      Mul,  MulReg) \
    X(SLL,    "l.sll",    Alu,      0x38, 0x3cf,      0x008,      Sll,  SllReg) \
    X(SRL,    "l.srl",    Alu,      0x38, 0x3cf,      0x048,      Srl,  SrlReg) \
    X(SRA,    "l.sra",    Alu,      0x38, 0x3cf,      0x088,      Sra,  SraReg) \
    X(ADDI,   "l.addi",   AluImm,   0x27, 0,          0,          Add,  AddImm) \
    X(ANDI,   "l.andi",   AluImmU,  0x29, 0,          0,          And,  AndImm) \
    X(ORI,    "l.ori",    AluImmU,  0x2a, 0,          0,          Or,   OrImm)  \
    X(XORI,   "l.xori",   AluImm,   0x2b, 0,          0,          Xor,  XorImm) \
    X(MULI,   "l.muli",   AluImm,   0x2c, 0,          0,          Mul,  MulImm) \
    X(SLLI,   "l.slli",   ShiftImm, 0x2e, 0x0e0,      0x000,      Sll,  SllImm) \
    X(SRLI,   "l.srli",   ShiftImm, 0x2e, 0x0e0,      0x040,      Srl,  SrlImm) \
    X(SRAI,   "l.srai",   ShiftImm, 0x2e, 0x0e0,      0x080,      Sra,  SraImm) \
    X(SFEQ,   "l.sfeq",   Cmp,      0x39, 0x1fu << 21, 0x0u << 21, Cmp, CmpReg) \
    X(SFNE,   "l.sfne",   Cmp,      0x39, 0x1fu << 21, 0x1u << 21, Cmp, CmpReg) \
    X(SFGTU,  "l.sfgtu",  Cmp,      0x39, 0x1fu << 21, 0x2u << 21, Cmp, CmpReg) \
    X(SFGEU,  "l.sfgeu",  Cmp,      0x39, 0x1fu << 21, 0x3u << 21, Cmp, CmpReg) \
    X(SFLTU,  "l.sfltu",  Cmp,      0x39, 0x1fu << 21, 0x4u << 21, Cmp, CmpReg) \
    X(SFLEU,  "l.sfleu",  Cmp,      0x39, 0x1fu << 21, 0x5u << 21, Cmp, CmpReg) \
    X(SFGTS,  "l.sfgts",  Cmp,      0x39, 0x1fu << 21, 0xau << 21, Cmp, CmpReg) \
    X(SFGES,  "l.sfges",  Cmp,      0x39, 0x1fu << 21, 0xbu << 21, Cmp, CmpReg) \
    X(SFLTS,  "l.sflts",  Cmp,      0x39, 0x1fu << 21, 0xcu << 21, Cmp, CmpReg) \
    X(SFLES,  "l.sfles",  Cmp,      0x39, 0x1fu << 21, 0xdu << 21, Cmp, CmpReg) \
    X(SFEQI,  "l.sfeqi",  CmpImm,   0x2f, 0x1fu << 21, 0x0u << 21, Cmp, CmpImm) \
    X(SFNEI,  "l.sfnei",  CmpImm,   0x2f, 0x1fu << 21, 0x1u << 21, Cmp, CmpImm) \
    X(SFGTUI, "l.sfgtui", CmpImm,   0x2f, 0x1fu << 21, 0x2u << 21, Cmp, CmpImm) \
    X(SFGEUI, "l.sfgeui", CmpImm,   0x2f, 0x1fu << 21, 0x3u << 21, Cmp, CmpImm) \
    X(SFLTUI, "l.sfltui", CmpImm,   0x2f, 0x1fu << 21, 0x4u << 21, Cmp, CmpImm) \
    X(SFLEUI, "l.sfleui", CmpImm,   0x2f, 0x1fu << 21, 0x5u << 21, Cmp, CmpImm) \
    X(SFGTSI, "l.sfgtsi", CmpImm,   0x2f, 0x1fu << 21, 0xau << 21, Cmp, CmpImm) \
    X(SFGESI, "l.sfgesi", CmpImm,   0x2f, 0x1fu << 21, 0xbu << 21, Cmp, CmpImm) \
    X(SFLTSI, "l.sfltsi", CmpImm,   0x2f, 0x1fu << 21, 0xcu << 21, Cmp, CmpImm) \
    X(SFLESI, "l.sflesi", CmpImm,   0x2f, 0x1fu << 21, 0xdu << 21, Cmp, CmpImm)

/// Mnemonic-level opcode, one per SFI_FORALL_OPS row. Immediate and
/// register forms are distinct because they decode from different primary
/// opcodes.
enum class Op : std::uint8_t {
#define SFI_OP_ENUM(name, ...) name,
    SFI_FORALL_OPS(SFI_OP_ENUM)
#undef SFI_OP_ENUM
    kCount
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// Operand shape of an instruction: the fields its word carries, how the
/// assembler spells its operands, and which registers it reads and
/// writes. Letters follow the ORBIS32 manual: D/A/B are the register
/// fields [25:21]/[20:16]/[15:11], I a signed and K an unsigned 16-bit
/// immediate, N a signed 26-bit word offset, L a shift amount.
enum class Form : std::uint8_t {
    Jump,      ///< l.j N
    JumpReg,   ///< l.jr rB
    Nop,       ///< l.nop [K]
    Movhi,     ///< l.movhi rD,K
    Load,      ///< l.lwz rD,I(rA)
    Store,     ///< l.sw I(rA),rB; I is split across [25:21] and [10:0]
    Alu,       ///< l.add rD,rA,rB
    AluImm,    ///< l.addi rD,rA,I
    AluImmU,   ///< l.andi rD,rA,K
    ShiftImm,  ///< l.slli rD,rA,L; L is [5:0] and at most 31
    Cmp,       ///< l.sfeq rA,rB
    CmpImm,    ///< l.sfeqi rA,I
};

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

/// Static properties of an opcode: its SFI_FORALL_OPS row, plus flags
/// that follow from the row's form.
struct OpInfo {
    const char* mnemonic;
    Form form;
    std::uint8_t opcode;  ///< primary opcode, bits [31:26]
    std::uint32_t mask;   ///< bits that pick the instruction within `opcode`
    std::uint32_t match;  ///< their value
    ExClass ex_class;
    bool writes_rd;  ///< writes the rD field's register (the l.jal/l.jalr
                     ///< link to r9 is implicit and not counted)
    bool reads_ra;
    bool reads_rb;
    bool has_imm;
    bool is_branch;  ///< changes control flow (incl. jumps)
    bool is_load;
    bool is_store;
    bool sets_flag;  ///< set-flag compare
};

namespace detail {

constexpr OpInfo make_op_info(const char* mnemonic, Form form,
                              std::uint8_t opcode, std::uint32_t mask,
                              std::uint32_t match, ExClass cls) {
    const bool alu = form == Form::Alu || form == Form::AluImm ||
                     form == Form::AluImmU || form == Form::ShiftImm;
    const bool cmp = form == Form::Cmp || form == Form::CmpImm;
    return OpInfo{
        mnemonic, form, opcode, mask, match, cls,
        /*writes_rd=*/alu || form == Form::Movhi || form == Form::Load,
        /*reads_ra=*/alu || cmp || form == Form::Load || form == Form::Store,
        /*reads_rb=*/form == Form::Alu || form == Form::Cmp ||
            form == Form::Store || form == Form::JumpReg,
        /*has_imm=*/form != Form::Alu && form != Form::Cmp &&
            form != Form::JumpReg,
        /*is_branch=*/form == Form::Jump || form == Form::JumpReg,
        /*is_load=*/form == Form::Load,
        /*is_store=*/form == Form::Store,
        /*sets_flag=*/cmp,
    };
}

inline constexpr OpInfo kOpInfo[] = {
#define SFI_OP_INFO(name, mnem, form, opc, mask, match, cls, uop) \
    make_op_info(mnem, Form::form, opc, mask, match, ExClass::cls),
    SFI_FORALL_OPS(SFI_OP_INFO)
#undef SFI_OP_INFO
};

/// A row's match lies inside its mask, no word matches two rows, and every
/// l.sf* row selects on exactly the condition field.
constexpr bool op_table_is_consistent() {
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const OpInfo& a = kOpInfo[i];
        if (a.opcode > 0x3f || (a.match & ~a.mask) != 0) return false;
        if (a.sets_flag && a.mask != 0x1fu << 21) return false;
        for (std::size_t j = i + 1; j < kOpCount; ++j) {
            const OpInfo& b = kOpInfo[j];
            if (a.opcode == b.opcode &&
                ((a.match ^ b.match) & a.mask & b.mask) == 0)
                return false;
        }
    }
    return true;
}
static_assert(op_table_is_consistent());

}  // namespace detail

/// Property lookup; total over all Op values.
inline const OpInfo& op_info(Op op) {
    const auto idx = static_cast<std::size_t>(op);
    assert(idx < kOpCount);
    return detail::kOpInfo[idx];
}

/// Human-readable ExClass name ("add", "mul", ...).
const char* ex_class_name(ExClass c);

// ---------------------------------------------------------------------------
// ALU reference semantics. These are the *functional* results; the
// gate-level netlist in src/circuits must agree bit-exactly (checked by
// equivalence tests), and the ISS uses them for golden execution.
// ---------------------------------------------------------------------------

/// Computes the 32-bit EX-stage result for an ALU-class operation.
/// For compares the result is the subtraction A - B (the value latched at
/// the ALU endpoints); the flag is derived separately via
/// `compare_flag_from_diff_kind`.
std::uint32_t alu_result(ExClass c, std::uint32_t a, std::uint32_t b);

/// Compare predicate of a set-flag opcode, resolved once (the threaded
/// interpreter bakes it into the micro-op at lowering time so the hot
/// kernel never re-derives it from the opcode). The values are the l.sf*
/// condition field, so the predicate is read off the opcode table.
enum class CmpKind : std::uint8_t {
    Eq = 0x0, Ne = 0x1, Gtu = 0x2, Geu = 0x3, Ltu = 0x4, Leu = 0x5,
    Gts = 0xa, Ges = 0xb, Lts = 0xc, Les = 0xd
};

/// Maps a set-flag opcode to its predicate.
inline CmpKind cmp_kind(Op op) {
    const OpInfo& info = op_info(op);
    assert(info.sets_flag && "not a set-flag opcode");
    return static_cast<CmpKind>(info.match >> 21);
}

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

/// Derives the compare flag from the (possibly FI-corrupted) subtract
/// result plus the operand sign bits, mirroring how the flag logic sits
/// downstream of the ALU endpoints in the real datapath (inline: it sits
/// in the interpreter's compare kernel). A corrupted diff yields exactly
/// the flag the hardware would compute from corrupted endpoints.
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

}  // namespace sfi
