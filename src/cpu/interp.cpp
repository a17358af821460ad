// Threaded-dispatch interpreter implementation (see interp.hpp for the
// design and the bit-identity contract against the reference interpreter
// in tests/testing/reference_cpu.hpp).
//
// The dispatch loop is a template over a hook policy so the five hook
// situations compile to five specialized loops:
//
//   NullHookPolicy    — no hook installed; pure architectural simulation.
//   CleanModelPolicy  — FaultModel with can_inject() == false: every EX
//                       result provably latches correctly, so per-op hook
//                       calls collapse into two O(1) batch calls at exit.
//   ModelPolicy       — injecting FaultModel: per-op on_ex_result (the
//                       corruption/RNG stream must match the reference
//                       exactly), cycle accounting batched at exit.
//   GenericHookPolicy — unknown ExFaultHook: the reference call sequence
//                       is reproduced verbatim (on_cycles at every spend
//                       site, on_ex_result per FI-active ALU op).
//   TracePolicy       — Cpu::set_trace callback, no hook: every dispatch
//                       goes through `top:`, which reports the pc, opcode
//                       and FI-window flag before the kernel runs.

#include "cpu/interp.hpp"

#include <cassert>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "cpu/cpu.hpp"
#include "fi/models.hpp"
#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "perf/perf.hpp"

// Computed goto (a GNU extension, also supported by Clang) removes the
// bounds check and the shared indirect-branch site a switch would emit.
// The switch fallback is semantically identical and covered in CI by the
// engine-equivalence job building with SFI_FORCE_SWITCH_DISPATCH.
#if defined(__GNUC__) && !defined(SFI_FORCE_SWITCH_DISPATCH)
#define SFI_COMPUTED_GOTO 1
#else
#define SFI_COMPUTED_GOTO 0
#endif

namespace sfi {

namespace {

inline void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
}

inline void fnv_u32(std::uint64_t& h, std::uint32_t value) {
    fnv_bytes(h, &value, sizeof value);
}

}  // namespace

std::uint64_t hash_program(const Program& program) {
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
    fnv_u32(h, program.entry);
    for (const auto& section : program.sections) {
        fnv_u32(h, section.addr);
        fnv_u32(h, static_cast<std::uint32_t>(section.bytes.size()));
        fnv_bytes(h, section.bytes.data(), section.bytes.size());
    }
    if (h == 0) h = 14695981039346656037ULL;  // 0 is the "unknown" sentinel
    return h;
}

namespace {

// The micro-op kind of each Op: the opcode table's uop column.
constexpr UopKind kUopKindOf[] = {
#define SFI_UOP_KIND(name, mnem, form, opc, mask, match, cls, uop) UopKind::uop,
    SFI_FORALL_OPS(SFI_UOP_KIND)
#undef SFI_UOP_KIND
};

/// Lowers one decoded instruction at byte address `pc` into `out`
/// (everything except the validity stamp).
void lower_uop(const Instr& instr, std::uint32_t pc, MicroOp& out) {
    const OpInfo& info = op_info(instr.op);
    out.kind = kUopKindOf[static_cast<std::size_t>(instr.op)];
    out.rd = instr.rd == 0 ? kUopRegSink : instr.rd;
    out.ra = instr.ra;
    out.rb = instr.rb;
    out.flags = static_cast<std::uint8_t>((info.reads_ra ? kUopReadsRa : 0) |
                                          (info.reads_rb ? kUopReadsRb : 0));
    out.op = instr.op;
    out.cls = info.ex_class;
    out.aux = 0;
    out.imm = instr.imm;
    out.target = pc + static_cast<std::uint32_t>(instr.imm) * 4;
    switch (out.kind) {
        case UopKind::Nop:
            // The kernel-begin marker compares the full immediate; exit
            // and kernel-end compare the low 16 bits (the ISA's l.nop
            // control codes, docs/ISA.md).
            if (instr.imm == kNopKernelBegin)
                out.kind = UopKind::NopKernelBegin;
            else if (static_cast<std::uint16_t>(instr.imm) == kNopExit)
                out.kind = UopKind::NopExit;
            else if (static_cast<std::uint16_t>(instr.imm) == kNopKernelEnd)
                out.kind = UopKind::NopKernelEnd;
            break;
        case UopKind::Movhi:
            // Pre-shift so the kernel is a plain register store.
            out.imm = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(instr.imm) << 16);
            break;
        case UopKind::J:
            if (instr.imm == 0) out.kind = UopKind::JSelfLoop;
            break;
        case UopKind::Bf:
            if (instr.imm == 0) out.kind = UopKind::BfSelfLoop;
            break;
        case UopKind::Bnf:
            if (instr.imm == 0) out.kind = UopKind::BnfSelfLoop;
            break;
        case UopKind::Jal:
            out.rd = 9;  // link register, fixed by the ISA
            break;
        case UopKind::CmpReg:
        case UopKind::CmpImm:
            // Resolve the predicate once; the compare kernel evaluates it
            // inline instead of re-deriving it from the opcode.
            out.aux = static_cast<std::uint8_t>(cmp_kind(instr.op));
            break;
        default:
            break;
    }
}

}  // namespace

InterpState& Cpu::ensure_interp() {
    if (!interp_) interp_ = std::make_unique<InterpState>();
    InterpState& state = *interp_;
    const std::size_t words = mem_.size() / 4;
    if (state.uops.size() != words) {
        state.uops = ZeroPages<MicroOp>(words);
        state.gen = 1;
        state.program_hash = 0;
        state.synced = false;
        state.store_seen = false;
        state.relower_risk = false;
        state.live_lo = ~std::uint32_t{0};
        state.live_hi = 0;
    }
    return state;
}

void Cpu::sync_interp_on_reset(const Program& program,
                               std::uint64_t program_hash) {
    InterpState& state = ensure_interp();
    // The caller (reset) hashes the program once and caches it; trials
    // re-resetting the same program pass the cached value instead of
    // paying an FNV pass over the whole image every reset.
    const std::uint64_t hash =
        program_hash != 0 ? program_hash : hash_program(program);
    // A hash change means a different program image altogether; a
    // re-lowered-after-store entry describes byte content this reset just
    // reverted. Either way the stream cannot be trusted.
    if (state.program_hash != hash || state.relower_risk) state.bump_gen();
    state.program_hash = hash;
    state.synced = true;
    state.store_seen = false;
    state.relower_risk = false;
    state.expected_write_gen = mem_.write_generation();
}

std::size_t Cpu::prime_decode(const Program& program) {
    InterpState& state = ensure_interp();
    const std::uint64_t hash = hash_program(program);
    if (state.program_hash == hash && !state.relower_risk) return 0;
    state.bump_gen();
    state.program_hash = hash;
    state.store_seen = false;
    state.relower_risk = false;
    // Lowered from the program image, not from memory, so priming is legal
    // before the first reset(). The stream stays untrusted (synced =
    // false) until a reset synchronizes memory with this image.
    state.synced = false;
    std::size_t lowered = 0;
    for (const auto& section : program.sections) {
        if (section.addr % 4 != 0) continue;  // words unreachable as PCs
        const std::size_t whole_words = section.bytes.size() / 4 * 4;
        for (std::size_t off = 0; off < whole_words; off += 4) {
            const auto addr = section.addr + static_cast<std::uint32_t>(off);
            const std::uint32_t index = addr / 4;
            if (index >= state.uops.size()) break;
            std::uint32_t word;
            std::memcpy(&word, section.bytes.data() + off, sizeof word);
            MicroOp& slot = state.uops[index];
            if (const auto decoded = decode(word)) {
                lower_uop(*decoded, addr, slot);
                slot.gen = state.gen;
                state.note_lowered(index);
            } else {
                // Undecodable words are never stamped valid — the dispatch
                // fast path relies on "gen match implies dispatchable" and
                // routes them through the slow path, which stops.
                slot.kind = UopKind::Illegal;
            }
            ++lowered;
        }
    }
    return lowered;
}

std::uint32_t Cpu::debug_interp_generation() const {
    return interp_ ? interp_->gen : 0;
}

void Cpu::debug_set_interp_generation(std::uint32_t gen) {
    ensure_interp().gen = gen;
}

namespace {

struct NullHookPolicy {
    static constexpr bool kWantsEx = false;
    static constexpr bool kNullSpend = true;
    static constexpr bool kTrace = false;
    static void spend(std::uint64_t, bool) {}
    static void clean_alu() {}
    static void window_begin() {}
    static void window_end() {}
    static void finish(std::uint64_t) {}
};

// can_inject() == false guarantees corrupt() returns `correct` for every
// possible draw (the same guarantee behind the zero-fault trial fast
// path), so on_ex_result reduces to alu_ops accounting and on_cycle to
// fi_cycles accounting — both pure accumulations, batched here into two
// calls at run exit. The model's RNG is not advanced where a per-op
// corrupt() would have drawn noise; that is unobservable because every
// Monte-Carlo trial reseeds the model before running.
struct CleanModelPolicy {
    FaultModel* model;
    // ALU ops are counted unconditionally (no per-op `if (fi)` branch);
    // the in-window share is folded at the same FI transitions as the
    // kernel cycle counters (see run_threaded_impl).
    std::uint64_t alu_total = 0;
    std::uint64_t alu_base = 0;
    std::uint64_t clean_ops = 0;
    static constexpr bool kWantsEx = false;
    static constexpr bool kNullSpend = true;
    static constexpr bool kTrace = false;
    static void spend(std::uint64_t, bool) {}
    void clean_alu() { ++alu_total; }
    void window_begin() { alu_base = alu_total; }
    void window_end() { clean_ops += alu_total - alu_base; }
    void finish(std::uint64_t kernel_cycles) {
        model->on_cycles(kernel_cycles, true);
        model->count_clean_ops(clean_ops);
    }
};

struct ModelPolicy {
    FaultModel* model;
    static constexpr bool kWantsEx = true;
    static constexpr bool kNullSpend = true;
    static constexpr bool kTrace = false;
    static void spend(std::uint64_t, bool) {}
    static void window_begin() {}
    static void window_end() {}
    std::uint32_t ex(const ExEvent& ev, std::uint32_t correct) {
        return model->on_ex_result(ev, correct);
    }
    void finish(std::uint64_t kernel_cycles) {
        model->on_cycles(kernel_cycles, true);
    }
};

struct GenericHookPolicy {
    ExFaultHook* hook;
    static constexpr bool kWantsEx = true;
    static constexpr bool kNullSpend = false;  // per-instruction on_cycles
    static constexpr bool kTrace = false;
    void spend(std::uint64_t n, bool fi) { hook->on_cycles(n, fi); }
    static void window_begin() {}
    static void window_end() {}
    std::uint32_t ex(const ExEvent& ev, std::uint32_t correct) {
        return hook->on_ex_result(ev, correct);
    }
    static void finish(std::uint64_t) {}
};

// Observation only, for fault-free runs (Cpu::run rejects a trace with a
// hook installed): `top:` reports each instruction before it executes.
struct TracePolicy {
    const Cpu::TraceFn* trace;
    static constexpr bool kWantsEx = false;
    static constexpr bool kNullSpend = true;
    static constexpr bool kTrace = true;
    static void spend(std::uint64_t, bool) {}
    static void clean_alu() {}
    static void window_begin() {}
    static void window_end() {}
    static void finish(std::uint64_t) {}
    void report(std::uint32_t pc, Op op, bool fi) const { (*trace)(pc, op, fi); }
};

}  // namespace

// Dispatch-loop helper macros. They reference the locals of
// run_threaded_impl by name and are #undef'd right after it.

// Kernel-window (FI) cycle/instruction accounting is *folded*, not
// accumulated: while fi is set, `kcyc_base`/`kin_base` remember the
// window entry values and every exit from the window (kernel-end marker,
// run exit) adds the delta. That keeps `if (fi)` bookkeeping out of the
// per-instruction path entirely.
#define SFI_SPEND(n)                       \
    do {                                   \
        const std::uint64_t spend_n = (n); \
        cycles += spend_n;                 \
        policy.spend(spend_n, fi);         \
    } while (0)

#define SFI_STOP(reason)        \
    do {                        \
        stop_reason = (reason); \
        goto done;              \
    } while (0)

#define SFI_RETIRE_LINEAR() \
    do {                    \
        ++instructions;     \
        pc += 4;            \
        SFI_NEXT();         \
    } while (0)

#define SFI_RETIRE_TAKEN(t) \
    do {                    \
        ++instructions;     \
        SFI_SPEND(flush);   \
        pc = (t);           \
        SFI_NEXT();         \
    } while (0)

// The hook is consulted for ALU results inside the FI window only;
// outside it (or with a provably clean model) the correct result stands.
#define SFI_EX(result_var, a_var, b_var)        \
    do {                                        \
        if constexpr (Policy::kWantsEx) {       \
            if (fi) {                           \
                ExEvent ev;                     \
                ev.op = up->op;                 \
                ev.cls = up->cls;               \
                ev.operand_a = (a_var);         \
                ev.operand_b = (b_var);         \
                ev.prev_result = prev;          \
                ev.cycle = cycles;              \
                ev.pc = pc;                     \
                ev.window = static_cast<std::uint32_t>(fi_windows); \
                result_var = policy.ex(ev, result_var); \
            }                                   \
        } else {                                \
            policy.clean_alu();                 \
        }                                       \
    } while (0)

#if SFI_COMPUTED_GOTO
#define SFI_KERNEL(name) K_##name:
// Replicated dispatch: every retire site carries its own fetch + indirect
// jump, so the branch predictor keys each jump on the *retiring* kernel
// and learns per-pair successor patterns — the actual win of threaded
// code over a switch, whose single shared dispatch site it otherwise
// degenerates into. Slow cases (lazy lowering) bail to the shared `top:`
// copy, which keeps these expansions small.
// `ld_dest >= 0` only ever holds at the dispatch immediately following a
// load kernel's retirement (or at run entry, which routes through `top:`)
// — every other kernel retires through this hazard-free fast form. The
// trace policy routes every dispatch through `top:`, where it reports.
#define SFI_NEXT()                                                    \
    do {                                                              \
        if constexpr (Policy::kTrace) goto top;                       \
        if (cycles >= max_cycles) SFI_STOP(StopReason::Watchdog);     \
        if ((pc & 3u) != 0u || pc >= mem_bytes) {                     \
            fault_addr_ = pc;                                         \
            SFI_STOP(StopReason::FetchFault);                         \
        }                                                             \
        up = &uops[pc / 4];                                           \
        /* Undecodable words are never stamped valid (see `top:`), so  \
           a gen match implies a dispatchable kind: the slow path owns \
           both lazy lowering and the IllegalInstr stop. */           \
        if (up->gen != gen) goto top;                                 \
        if constexpr (!Policy::kNullSpend) bubbles = 1;               \
        goto* kDispatchTable[static_cast<std::size_t>(up->kind)];     \
    } while (0)

// Load retirement: identical, plus the load-use hazard check against the
// instruction being dispatched.
#define SFI_NEXT_AFTER_LOAD()                                         \
    do {                                                              \
        if constexpr (Policy::kTrace) goto top;                       \
        if (cycles >= max_cycles) SFI_STOP(StopReason::Watchdog);     \
        if ((pc & 3u) != 0u || pc >= mem_bytes) {                     \
            fault_addr_ = pc;                                         \
            SFI_STOP(StopReason::FetchFault);                         \
        }                                                             \
        up = &uops[pc / 4];                                           \
        if (up->gen != gen) goto top;                                 \
        if constexpr (!Policy::kNullSpend) bubbles = 1;               \
        if (((up->flags & kUopReadsRa) && up->ra == ld_dest) ||       \
            ((up->flags & kUopReadsRb) && up->rb == ld_dest)) {       \
            /* Same cycle totals either way; only a per-instruction    \
               spend() observer needs the stall folded into bubbles. */\
            if constexpr (Policy::kNullSpend) cycles += stall;        \
            else bubbles += stall;                                    \
        }                                                             \
        ld_dest = -1;                                                 \
        goto* kDispatchTable[static_cast<std::size_t>(up->kind)];     \
    } while (0)
#else
#define SFI_KERNEL(name) case UopKind::name:
// The switch fallback has exactly one dispatch site by construction;
// `top:` carries the full prologue including the hazard check.
#define SFI_NEXT() goto top
#define SFI_NEXT_AFTER_LOAD() goto top
#endif

#define SFI_RETIRE_LINEAR_LOAD() \
    do {                         \
        ++instructions;          \
        pc += 4;                 \
        SFI_NEXT_AFTER_LOAD();   \
    } while (0)

#define SFI_LOAD_KERNEL(name, width, read_expr)                           \
    SFI_KERNEL(name) {                                                    \
        SFI_SPEND(bubbles);                                               \
        const std::uint32_t addr =                                        \
            r[up->ra] + static_cast<std::uint32_t>(up->imm);                  \
        if (!mem.access_ok(addr, width)) {                                \
            fault_addr_ = addr;                                           \
            SFI_STOP(StopReason::MemFault);                               \
        }                                                                 \
        r[up->rd] = (read_expr);                                            \
        ld_dest = up->rd;                                                   \
        SFI_RETIRE_LINEAR_LOAD();                                         \
    }

#define SFI_STORE_KERNEL(name, width, write_stmt)                         \
    SFI_KERNEL(name) {                                                    \
        SFI_SPEND(bubbles);                                               \
        const std::uint32_t addr =                                        \
            r[up->ra] + static_cast<std::uint32_t>(up->imm);                  \
        if (!mem.access_ok(addr, width)) {                                \
            fault_addr_ = addr;                                           \
            SFI_STOP(StopReason::MemFault);                               \
        }                                                                 \
        write_stmt;                                                       \
        invalidate_decode(addr);                                          \
        SFI_RETIRE_LINEAR();                                              \
    }

#define SFI_ALU_KERNEL(name, form, b_expr, expr) \
    SFI_KERNEL(name##form) {                     \
        SFI_SPEND(bubbles);                      \
        const std::uint32_t a = r[up->ra];         \
        const std::uint32_t b = (b_expr);        \
        std::uint32_t result = (expr);           \
        SFI_EX(result, a, b);                    \
        prev = result;                           \
        r[up->rd] = result;                        \
        SFI_RETIRE_LINEAR();                     \
    }

#define SFI_ALU_KERNEL_PAIR(name, expr)                                \
    SFI_ALU_KERNEL(name, Reg, r[up->rb], expr)                           \
    SFI_ALU_KERNEL(name, Imm, static_cast<std::uint32_t>(up->imm), expr)

#define SFI_CMP_KERNEL(form, b_expr)                         \
    SFI_KERNEL(Cmp##form) {                                  \
        SFI_SPEND(bubbles);                                  \
        const std::uint32_t a = r[up->ra];                     \
        const std::uint32_t b = (b_expr);                    \
        std::uint32_t result = a - b; /* ExClass::Cmp */     \
        SFI_EX(result, a, b);                                \
        prev = result;                                       \
        flag = compare_flag_from_diff_kind(                    \
            static_cast<CmpKind>(up->aux), a, b, result);      \
        SFI_RETIRE_LINEAR();                                 \
    }

#if SFI_COMPUTED_GOTO
// &&label / goto* are GNU extensions; -Wpedantic (werror CI job) and
// Clang's dedicated diagnostic must not reject them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
#ifdef __clang__
#pragma clang diagnostic ignored "-Wgnu-label-as-value"
#endif
#endif

template <typename Policy>
RunResult Cpu::run_threaded_impl(std::uint64_t max_cycles, Policy policy) {
    InterpState& state = *interp_;  // run() ensured it

#if SFI_COMPUTED_GOTO
    // Order must match UopKind exactly.
    static const void* const kDispatchTable[] = {
        &&K_Illegal, &&K_Nop, &&K_NopExit, &&K_NopKernelBegin,
        &&K_NopKernelEnd, &&K_Movhi, &&K_J, &&K_JSelfLoop, &&K_Jal, &&K_Jr,
        &&K_Jalr, &&K_Bf, &&K_BfSelfLoop, &&K_Bnf, &&K_BnfSelfLoop, &&K_Lwz,
        &&K_Lbz, &&K_Lhz, &&K_Sw, &&K_Sb, &&K_Sh,
        &&K_AddReg, &&K_SubReg, &&K_AndReg, &&K_OrReg, &&K_XorReg,
        &&K_SllReg, &&K_SrlReg, &&K_SraReg, &&K_MulReg,
        &&K_AddImm, &&K_AndImm, &&K_OrImm, &&K_XorImm,
        &&K_SllImm, &&K_SrlImm, &&K_SraImm, &&K_MulImm,
        &&K_CmpReg, &&K_CmpImm,
    };
    static_assert(sizeof(kDispatchTable) / sizeof(kDispatchTable[0]) ==
                  kUopKindCount);
#endif

    // Local mirrors of the architectural state: the dispatch loop runs on
    // locals and every exit path syncs them back at `done:`. Slot 32 of
    // the register file is the r0 write sink (see kUopRegSink).
    std::uint32_t r[33];
    std::memcpy(r, regs_.data(), sizeof(std::uint32_t) * 32);
    r[kUopRegSink] = 0;
    std::uint32_t pc = pc_;
    bool flag = flag_;
    std::uint32_t prev = prev_ex_result_;
    bool fi = fi_active_;
    std::uint64_t fi_windows = fi_windows_;
    std::uint64_t cycles = cycles_;
    std::uint64_t instructions = instructions_;
    std::uint64_t kcycles = kernel_cycles_;
    std::uint64_t kinstr = kernel_instructions_;
    const std::uint64_t kcycles_at_entry = kcycles;
    // FI-window fold bases (see the SFI_SPEND comment): meaningful only
    // while `fi` is set. A run can enter mid-window (a watchdog stop can
    // split a window across run() calls), so they are armed here too.
    std::uint64_t kcyc_base = cycles;
    std::uint64_t kin_base = instructions;

    // Load-use hazard state: destination slot of the previous retired
    // instruction iff it was a load, else -1. A load to r0 maps to the
    // sink slot, which can never match a raw source index — r0 never
    // creates a hazard.
    int ld_dest = pending_load_slot_;

    const std::uint64_t stall = timing_.load_use_stall;
    const std::uint64_t flush = timing_.taken_branch_flush;
    const std::uint32_t mem_words =
        static_cast<std::uint32_t>(state.uops.size());
    const std::uint32_t mem_bytes = mem_words * 4;
    const std::uint32_t gen = state.gen;
    MicroOp* const uops = state.uops.data();
    Memory& mem = mem_;

    std::uint64_t lazy_lowered = 0;
    StopReason stop_reason = StopReason::Halted;
    // Pointer into the uop stream: kernels only read it, and a store
    // kernel invalidating a slot touches nothing but its gen stamp, which
    // no kernel reads after dispatch — so no defensive copy is needed.
    const MicroOp* up = nullptr;
    // Constant 1 for policies with a no-op spend() (the stall premium goes
    // straight to `cycles` at dispatch); per-instruction otherwise.
    std::uint64_t bubbles = 1;

top:
    if (cycles >= max_cycles) SFI_STOP(StopReason::Watchdog);
    if ((pc & 3u) != 0u || pc >= mem_bytes) {
        fault_addr_ = pc;
        SFI_STOP(StopReason::FetchFault);
    }
    {
        MicroOp& slot = uops[pc / 4];
        if (slot.gen != gen) {
            if (const auto decoded = decode(mem.read_u32_unchecked(pc))) {
                lower_uop(*decoded, pc, slot);
            } else {
                slot.kind = UopKind::Illegal;
            }
            ++lazy_lowered;
            // Invariant the dispatch fast path relies on: an undecodable
            // word is never stamped valid, so every visit stops here —
            // pre-dispatch, like a faulting fetch, leaving the hazard
            // state untouched.
            if (slot.kind == UopKind::Illegal) {
                fault_addr_ = pc;
                SFI_STOP(StopReason::IllegalInstr);
            }
            slot.gen = gen;
            state.note_lowered(pc / 4);
            // Lowered from post-store memory: the entry must not survive
            // the next reset (which reverts to the pristine image).
            if (state.store_seen) state.relower_risk = true;
        } else if (slot.kind == UopKind::Illegal) {
            // Reachable only via the entry dispatch (the in-loop fast path
            // bails to the lowering branch above before this can match):
            // a stale-but-matching stamp cannot occur, but a prime_decode
            // stream predating this invariant could; stop identically.
            fault_addr_ = pc;
            SFI_STOP(StopReason::IllegalInstr);
        }
        up = &slot;
    }
    if constexpr (Policy::kTrace) policy.report(pc, up->op, fi);
    if constexpr (!Policy::kNullSpend) bubbles = 1;
    if (ld_dest >= 0) {
        if (((up->flags & kUopReadsRa) && up->ra == ld_dest) ||
            ((up->flags & kUopReadsRb) && up->rb == ld_dest)) {
            if constexpr (Policy::kNullSpend) cycles += stall;
            else bubbles += stall;
        }
        ld_dest = -1;
    }

#if SFI_COMPUTED_GOTO
    goto* kDispatchTable[static_cast<std::size_t>(up->kind)];
#else
    switch (up->kind) {
#endif

    SFI_KERNEL(Illegal) {
        // Unreachable: the prologue stops on Illegal before dispatch.
        fault_addr_ = pc;
        SFI_STOP(StopReason::IllegalInstr);
    }

    SFI_KERNEL(Nop) {
        SFI_SPEND(bubbles);
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(NopExit) {
        SFI_SPEND(bubbles);
        exit_code_ = r[3];
        ++instructions;  // before `done:` folds the window: counts inside
        SFI_STOP(StopReason::Halted);
    }

    SFI_KERNEL(NopKernelBegin) {
        if (!fi) {  // duplicate begin markers are no-ops
            fi = true;
            ++fi_windows;
            // Bases precede the spend and the retirement: the begin
            // marker's cycle and instruction both count inside the window.
            kcyc_base = cycles;
            kin_base = instructions;
            policy.window_begin();
        }
        SFI_SPEND(bubbles);
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(NopKernelEnd) {
        SFI_SPEND(bubbles);
        if (fi) {
            fi = false;
            // Folded after the spend (the end marker's cycle counts
            // inside) but before the retirement below (its instruction
            // does not) — the reference interpreter's accounting order.
            kcycles += cycles - kcyc_base;
            kinstr += instructions - kin_base;
            policy.window_end();
        }
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(Movhi) {
        SFI_SPEND(bubbles);
        r[up->rd] = static_cast<std::uint32_t>(up->imm);  // pre-shifted
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(J) {
        SFI_SPEND(bubbles);
        SFI_RETIRE_TAKEN(up->target);
    }

    SFI_KERNEL(JSelfLoop) {
        SFI_SPEND(bubbles);
        SFI_STOP(StopReason::SelfLoop);  // a self-loop does not retire
    }

    SFI_KERNEL(Jal) {
        SFI_SPEND(bubbles);
        r[up->rd] = pc + 4;  // rd lowered to the link register
        SFI_RETIRE_TAKEN(up->target);
    }

    SFI_KERNEL(Jr) {
        SFI_SPEND(bubbles);
        const std::uint32_t target = r[up->rb];
        if (target == pc) SFI_STOP(StopReason::SelfLoop);
        SFI_RETIRE_TAKEN(target);
    }

    SFI_KERNEL(Jalr) {
        SFI_SPEND(bubbles);
        r[9] = pc + 4;  // link written before rb is read (reference order)
        const std::uint32_t target = r[up->rb];
        if (target == pc) SFI_STOP(StopReason::SelfLoop);
        SFI_RETIRE_TAKEN(target);
    }

    SFI_KERNEL(Bf) {
        SFI_SPEND(bubbles);
        if (flag) SFI_RETIRE_TAKEN(up->target);
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(BfSelfLoop) {
        SFI_SPEND(bubbles);
        if (flag) SFI_STOP(StopReason::SelfLoop);
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(Bnf) {
        SFI_SPEND(bubbles);
        if (!flag) SFI_RETIRE_TAKEN(up->target);
        SFI_RETIRE_LINEAR();
    }

    SFI_KERNEL(BnfSelfLoop) {
        SFI_SPEND(bubbles);
        if (!flag) SFI_STOP(StopReason::SelfLoop);
        SFI_RETIRE_LINEAR();
    }

    SFI_LOAD_KERNEL(Lwz, 4, mem.read_u32_unchecked(addr))
    SFI_LOAD_KERNEL(Lbz, 1, mem.read_u8_unchecked(addr))
    SFI_LOAD_KERNEL(Lhz, 2, mem.read_u16_unchecked(addr))

    SFI_STORE_KERNEL(Sw, 4, mem.write_u32_unchecked(addr, r[up->rb]))
    SFI_STORE_KERNEL(Sb, 1,
                     mem.write_u8_unchecked(
                         addr, static_cast<std::uint8_t>(r[up->rb])))
    SFI_STORE_KERNEL(Sh, 2,
                     mem.write_u16_unchecked(
                         addr, static_cast<std::uint16_t>(r[up->rb])))

    SFI_ALU_KERNEL_PAIR(Add, a + b)
    SFI_ALU_KERNEL(Sub, Reg, r[up->rb], a - b)  // no l.subi
    SFI_ALU_KERNEL_PAIR(And, a & b)
    SFI_ALU_KERNEL_PAIR(Or, a | b)
    SFI_ALU_KERNEL_PAIR(Xor, a ^ b)
    SFI_ALU_KERNEL_PAIR(Sll, a << (b & 31u))
    SFI_ALU_KERNEL_PAIR(Srl, a >> (b & 31u))
    SFI_ALU_KERNEL_PAIR(
        Sra, static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                        (b & 31u)))
    SFI_ALU_KERNEL_PAIR(Mul, a * b)

    SFI_CMP_KERNEL(Reg, r[up->rb])
    SFI_CMP_KERNEL(Imm, static_cast<std::uint32_t>(up->imm))

#if !SFI_COMPUTED_GOTO
    default:
        assert(false && "unlowered micro-op kind");
        fault_addr_ = pc;
        SFI_STOP(StopReason::IllegalInstr);
    }
#endif

done:
    // Fold the open FI window (runs that stop mid-window resume it on the
    // next run() call via the entry-armed bases).
    if (fi) {
        kcycles += cycles - kcyc_base;
        kinstr += instructions - kin_base;
        policy.window_end();
    }
    std::memcpy(regs_.data(), r, sizeof(std::uint32_t) * 32);
    pc_ = pc;
    flag_ = flag;
    prev_ex_result_ = prev;
    fi_active_ = fi;
    fi_windows_ = fi_windows;
    cycles_ = cycles;
    instructions_ = instructions;
    kernel_cycles_ = kcycles;
    kernel_instructions_ = kinstr;
    pending_load_slot_ = ld_dest;

    policy.finish(kcycles - kcycles_at_entry);

    // Lazy re-lowering (store-to-code, unprimed streams) is charged by
    // item count; its wall time is interleaved with execution and not
    // separable without per-word clock reads, so priming carries the
    // measured decode seconds.
    if (lazy_lowered != 0 && profile_ != nullptr)
        profile_->add(perf::Phase::Decode, 0.0, lazy_lowered);

    RunResult result;
    result.stop = stop_reason;
    result.exit_code = exit_code_;
    result.cycles = cycles_;
    result.instructions = instructions_;
    result.kernel_cycles = kernel_cycles_;
    result.kernel_instructions = kernel_instructions_;
    result.fault_addr = fault_addr_;
    return result;
}

#if SFI_COMPUTED_GOTO
#pragma GCC diagnostic pop
#endif

#undef SFI_SPEND
#undef SFI_STOP
#undef SFI_RETIRE_LINEAR
#undef SFI_RETIRE_TAKEN
#undef SFI_EX
#undef SFI_KERNEL
#undef SFI_NEXT
#undef SFI_NEXT_AFTER_LOAD
#undef SFI_RETIRE_LINEAR_LOAD
#undef SFI_LOAD_KERNEL
#undef SFI_STORE_KERNEL
#undef SFI_ALU_KERNEL
#undef SFI_ALU_KERNEL_PAIR
#undef SFI_CMP_KERNEL

RunResult Cpu::run(std::uint64_t max_cycles) {
    if (trace_ && hook_ != nullptr)
        throw std::logic_error(
            "Cpu::run: a trace callback cannot run with a fault hook installed");
    if (max_cycles == 0) max_cycles = 100'000'000ULL;
    InterpState& state = ensure_interp();
    // The stream is only trustworthy when (a) a reset() synchronized
    // memory with the hashed program image and (b) every write since then
    // went through this Cpu (reset + one write-generation tick per
    // executed store). Anything else — priming without a reset, an
    // external Memory::write_* from test code — invalidates wholesale;
    // entries are then re-lowered lazily from current memory, which is
    // exactly what a decode-every-fetch interpreter reads.
    if (!state.synced || state.expected_write_gen != mem_.write_generation()) {
        state.bump_gen();
        state.program_hash = 0;
        state.synced = true;
        state.store_seen = false;
        state.relower_risk = false;
        state.expected_write_gen = mem_.write_generation();
    }

    if (trace_) return run_threaded_impl(max_cycles, TracePolicy{&trace_});
    if (hook_ == nullptr)
        return run_threaded_impl(max_cycles, NullHookPolicy{});
    if (auto* model = dynamic_cast<FaultModel*>(hook_)) {
        if (!model->can_inject())
            return run_threaded_impl(max_cycles, CleanModelPolicy{model});
        return run_threaded_impl(max_cycles, ModelPolicy{model});
    }
    return run_threaded_impl(max_cycles, GenericHookPolicy{hook_});
}

}  // namespace sfi
