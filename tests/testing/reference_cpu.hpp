// Reference interpreter (test oracle) for the ISS: the plainest fetch /
// decode / execute loop over the same ISA and pipeline timing model as
// sfi::Cpu (src/cpu/cpu.hpp).
//
// It decodes the word at pc on every fetch — no decode cache, no micro-op
// stream — so self-modifying code and external memory writes need no
// coherence protocol, and each instruction's semantics is one switch
// case. Cpu::run() must be bit-identical to it in everything observable
// (tests/cpu/test_differential.cpp): RunResult, architectural state,
// memory, FiStats, the generic hook's call sequence and the trace walk.
// Speed is a non-goal.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "cpu/cpu.hpp"
#include "cpu/memory.hpp"
#include "isa/isa.hpp"

namespace sfi::testing {

class ReferenceCpu {
public:
    explicit ReferenceCpu(Memory& memory, PipelineTiming timing = {});

    /// Clears memory, loads `program` and resets architectural state.
    void reset(const Program& program);

    /// Installs / removes the fault-injection hook (may be null). The
    /// hook sees one on_cycles call per cycle group — an instruction with
    /// its stall bubbles, then a taken branch's flush separately — and
    /// one on_ex_result per ALU operation inside the FI window.
    void set_fault_hook(ExFaultHook* hook) { hook_ = hook; }

    /// Called once per fetched instruction, before it executes, with its
    /// pc, the decoded instruction and the FI-window flag at that point:
    /// the walk Cpu::set_trace reports.
    using TraceFn =
        std::function<void(std::uint32_t pc, const Instr& instr, bool fi_active)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    /// Runs until halt / fault / watchdog (Cpu::run semantics).
    RunResult run(std::uint64_t max_cycles = 0);

    /// Executes exactly one instruction; returns the stop reason if the
    /// program terminated on this step.
    std::optional<StopReason> step();

    std::uint32_t reg(std::uint8_t index) const { return regs_[index]; }
    std::uint32_t pc() const { return pc_; }
    bool flag() const { return flag_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }
    std::uint64_t kernel_cycles() const { return kernel_cycles_; }
    bool fi_active() const { return fi_active_; }

private:
    void set_reg(std::uint8_t index, std::uint32_t value);
    void spend_cycles(std::uint64_t n);
    std::uint32_t exec_alu(const Instr& instr, std::uint32_t a, std::uint32_t b);

    Memory& mem_;
    PipelineTiming timing_;
    ExFaultHook* hook_ = nullptr;
    TraceFn trace_;

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

    std::uint32_t exit_code_ = 0;
    std::uint32_t fault_addr_ = 0;

    // Load-use hazard: destination of a load retired by the previous step.
    std::uint8_t last_load_dest_ = 0;
    bool last_was_load_ = false;
};

}  // namespace sfi::testing
