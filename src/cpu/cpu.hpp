// Cycle-accurate instruction-set simulator of the case-study core:
// a 32-bit OpenRISC-style 6-stage in-order pipeline (IF1/IF2/ID/EX/MEM/WB)
// with single-cycle multiplication and single-cycle SRAMs (paper §2.1/2.2).
//
// Execution is functional (one instruction retired at a time) with an
// exact pipeline *timing* model layered on top: load-use hazards stall one
// cycle, taken branches flush the three fetch/decode stages. This yields
// the same per-cycle EX-stage occupancy as a stage-by-stage simulation —
// which is all the fault-injection models observe — at interpreter speed.
// The engine behind run() is the decode-once threaded interpreter of
// cpu/interp.hpp; the test oracles in tests/testing/ (a decode-every-fetch
// reference interpreter and a stage-by-stage pipeline model) pin its
// semantics.
//
// Fault injection (paper §2.2): an ExFaultHook receives one callback per
// simulated clock cycle plus one callback per ALU operation that computes
// in the EX stage while the benchmark kernel is active. The hook may
// corrupt the 32-bit EX result; corrupted compare results propagate into
// the flag via the same downstream logic as the hardware
// (compare_flag_from_diff_kind), so wrong branching behaviour emerges
// naturally.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "cpu/interp.hpp"
#include "cpu/memory.hpp"
#include "isa/isa.hpp"

namespace sfi {

namespace perf {
class PhaseProfile;  // perf/perf.hpp
}

/// One EX-stage ALU computation offered to the fault-injection hook.
struct ExEvent {
    Op op = Op::NOP;
    ExClass cls = ExClass::None;
    std::uint32_t operand_a = 0;
    std::uint32_t operand_b = 0;   ///< post-mux operand (immediate already selected)
    std::uint32_t prev_result = 0; ///< value latched at the ALU endpoints last time
    std::uint64_t cycle = 0;       ///< absolute cycle index of the EX computation
    std::uint32_t pc = 0;          ///< address of the computing instruction
    std::uint32_t window = 0;      ///< FI-window ordinal (Cpu::fi_windows())
};

/// Receives per-cycle and per-ALU-operation callbacks from the ISS.
class ExFaultHook {
public:
    virtual ~ExFaultHook() = default;

    /// Called once per simulated clock cycle (including stall/flush
    /// bubbles). `fi_active` is true inside the benchmark kernel window.
    virtual void on_cycle(bool fi_active) = 0;

    /// Batched form: must behave exactly like calling on_cycle(fi_active)
    /// `n` times, which is what the default does. Hooks whose per-cycle
    /// behavior is a pure accumulation (FaultModel, the golden-run
    /// counter) override it with O(1) arithmetic so the ISS can hand over
    /// a whole stall/flush group — or an entire run's kernel window — in
    /// one virtual call.
    virtual void on_cycles(std::uint64_t n, bool fi_active) {
        for (std::uint64_t i = 0; i < n; ++i) on_cycle(fi_active);
    }

    /// Called for every ALU-class instruction computing in EX during an
    /// FI-active cycle. Returns the (possibly corrupted) 32-bit result.
    virtual std::uint32_t on_ex_result(const ExEvent& ev,
                                       std::uint32_t correct) = 0;

protected:
    ExFaultHook() = default;
    // Copyable only through derived classes (FaultModel::clone()).
    ExFaultHook(const ExFaultHook&) = default;
    ExFaultHook& operator=(const ExFaultHook&) = default;
};

/// Why a run stopped.
enum class StopReason : std::uint8_t {
    Halted,        ///< l.nop 0x1 executed
    Watchdog,      ///< cycle limit exceeded (infinite-loop safeguard)
    SelfLoop,      ///< obvious fatal error: unconditional jump-to-self
    MemFault,      ///< out-of-range / misaligned data access
    FetchFault,    ///< PC left the memory image or was misaligned
    IllegalInstr,  ///< undecodable instruction word reached EX
};

const char* stop_reason_name(StopReason reason);

struct RunResult {
    StopReason stop = StopReason::Halted;
    std::uint32_t exit_code = 0;      ///< r3 at l.nop 0x1
    std::uint64_t cycles = 0;         ///< total simulated clock cycles
    std::uint64_t instructions = 0;   ///< retired instructions
    std::uint64_t kernel_cycles = 0;  ///< cycles inside the FI window
    std::uint64_t kernel_instructions = 0;
    std::uint32_t fault_addr = 0;     ///< for MemFault / FetchFault

    bool finished() const { return stop == StopReason::Halted; }
    double ipc() const {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/// Pipeline timing parameters (defaults model the case-study core).
struct PipelineTiming {
    unsigned load_use_stall = 1;   ///< bubbles between a load and a dependent use
    unsigned taken_branch_flush = 3;  ///< bubbles after a taken branch / jump
};

class Cpu {
public:
    explicit Cpu(Memory& memory, PipelineTiming timing = {});
    ~Cpu();  // out-of-line: InterpState is incomplete here

    /// Resets architectural state and loads `program` (entry -> PC).
    void reset(const Program& program);

    /// Installs / removes the fault-injection hook (may be null).
    void set_fault_hook(ExFaultHook* hook) { hook_ = hook; }

    /// Eagerly lowers every word of `program`'s sections into the
    /// micro-op stream (a no-op when the stream already matches the
    /// program's content hash). Returns the number of words lowered — the
    /// Phase::Decode item count. Safe to call before reset(): the stream
    /// is not trusted until a reset synchronizes memory with the program
    /// image.
    std::size_t prime_decode(const Program& program);

    /// Attaches a perf profile (null detaches); runs charge lazy micro-op
    /// lowering to Phase::Decode. Dispatch-thread only — give
    /// each worker Cpu its own profile (or none), never a shared one.
    void set_perf_profile(perf::PhaseProfile* profile) { profile_ = profile; }

    /// Runs until halt / fault / watchdog. `max_cycles` bounds total
    /// simulated cycles (0 means the built-in default of 100M). Throws
    /// std::logic_error when a trace callback and a fault hook are both
    /// installed (see set_trace).
    RunResult run(std::uint64_t max_cycles = 0);

    // Architectural state access (tests, benchmark result extraction).
    std::uint32_t reg(std::uint8_t index) const { return regs_[index]; }
    void set_reg(std::uint8_t index, std::uint32_t value);
    std::uint32_t pc() const { return pc_; }
    void set_pc(std::uint32_t pc) { pc_ = pc; }
    bool flag() const { return flag_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }
    bool fi_active() const { return fi_active_; }
    /// FI windows entered since reset (kernel-begin markers that actually
    /// opened a window); the ordinal stamped into ExEvent::window.
    std::uint64_t fi_windows() const { return fi_windows_; }
    Memory& memory() { return mem_; }
    const Memory& memory() const { return mem_; }

    /// Instruction trace: `fn` is called once per dispatched instruction,
    /// before it executes, with its pc, opcode and the FI-window flag at
    /// that point (a kernel-begin marker still sees the window closed, a
    /// kernel-end marker sees it open). Pass nullptr to disable. The trace
    /// is an observer of fault-free runs: run() refuses to start while a
    /// fault hook is also installed.
    using TraceFn = std::function<void(std::uint32_t pc, Op op, bool fi_active)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    // Generation-stamp debug hooks for the rollover test
    // (tests/cpu/test_decode_cache.cpp): the micro-op stream marks validity
    // with a monotone stamp and must survive it wrapping to 0, which no
    // realistic run reaches — the test fast-forwards it here.
    std::uint32_t debug_interp_generation() const;  // 0: no stream yet
    void debug_set_interp_generation(std::uint32_t gen);

private:
    // The dispatch loop (src/cpu/interp.cpp) is a template over the hook
    // policy (null / clean fault model / injecting fault model / generic
    // hook / trace) so each loop specializes away hook branches; all
    // instantiations live in interp.cpp.
    template <typename Policy>
    RunResult run_threaded_impl(std::uint64_t max_cycles, Policy policy);
    InterpState& ensure_interp();
    void sync_interp_on_reset(const Program& program,
                              std::uint64_t program_hash);

    Memory& mem_;
    PipelineTiming timing_;
    ExFaultHook* hook_ = nullptr;
    TraceFn trace_;
    perf::PhaseProfile* profile_ = nullptr;
    std::unique_ptr<InterpState> interp_;  // allocated on first reset/prime

    std::array<std::uint32_t, 32> regs_{};
    std::uint32_t pc_ = 0;
    bool flag_ = false;
    std::uint32_t prev_ex_result_ = 0;

    std::uint64_t cycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t kernel_cycles_ = 0;
    std::uint64_t kernel_instructions_ = 0;
    bool fi_active_ = false;
    std::uint64_t fi_windows_ = 0;

    // Exit bookkeeping for the current run.
    std::uint32_t exit_code_ = 0;
    std::uint32_t fault_addr_ = 0;

    // Load-use hazard state carried across run() calls (a watchdog stop
    // can split a load from its consumer): the interpreter register slot
    // the last retired instruction loaded, or -1 when it was no load.
    int pending_load_slot_ = -1;

    // reset() fast-path cache: the program of the previous reset, its
    // content hash (so the threaded stream's coherence check skips
    // re-hashing every trial) and an identity signature over the entry
    // point and every section's (addr, size, data pointer). A repeat
    // reset of the same program restores the checkpointed memory image
    // instead of clear+load. A rebuilt Program fails the signature (fresh
    // byte buffers give fresh data pointers) even at a reused object
    // address; the one uncovered case is overwriting section bytes in
    // place without reallocating — contract: don't mutate a Program's
    // bytes between resets (no in-tree caller does).
    std::uint64_t reset_identity_sig(const Program& program) const;
    const Program* reset_program_ = nullptr;
    std::uint64_t reset_program_hash_ = 0;
    std::uint64_t reset_program_sig_ = 0;

    // Inline: sits on the store kernels' per-instruction path, where an
    // out-of-line call per store is measurable.
    void invalidate_decode(std::uint32_t addr) {
        InterpState& state = *interp_;  // stores only run inside run()
        const std::uint32_t word = addr / 4;
        // Only words lowered at the *current* generation can hold a trusted
        // micro-op. Data stores — the overwhelming majority — land outside
        // that live span and skip the array entirely, instead of dirtying a
        // random cache line of a multi-MB vector on every store. (An empty
        // span has lo > hi, so the guarded indexing is always in bounds.)
        if (word >= state.live_lo && word <= state.live_hi)
            state.uops[word].gen = 0;
        // Track the store for the stream's coherence protocol:
        // expected_write_gen mirrors the one write-generation tick this
        // store produced, and store_seen arms the relower_risk check (a
        // word lowered from post-store content must not survive reset).
        state.store_seen = true;
        ++state.expected_write_gen;
    }
};

}  // namespace sfi
