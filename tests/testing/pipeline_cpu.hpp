// Cycle-model test oracle: an explicit stage-by-stage model of the
// 6-stage in-order pipeline (IF1 / IF2 / ID / EX / MEM / WB), with result
// forwarding, a load-use interlock and EX-resolved branches.
//
// This is the reference microarchitecture behind the ISS in
// src/cpu/cpu.hpp, whose timing model folds the stages into per-
// instruction stall and flush counts: the two must agree on architectural
// results and — up to the constant 4-cycle fill of the stages in front of
// EX — on cycle counts (tests/cpu/test_pipeline.cpp,
// tests/cpu/test_random_programs.cpp). The fault-injection hook fires in
// the EX stage exactly as in the ISS, so fault-model RNG streams line up
// event-for-event between the two.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "cpu/cpu.hpp"
#include "cpu/memory.hpp"
#include "isa/isa.hpp"

namespace sfi::testing {

class PipelineCpu {
public:
    explicit PipelineCpu(Memory& memory);

    void reset(const Program& program);
    void set_fault_hook(ExFaultHook* hook) { hook_ = hook; }

    /// Runs to halt / fault / watchdog. Cycle counts include the pipeline
    /// fill (ISS cycles + 4 for identical programs).
    RunResult run(std::uint64_t max_cycles = 0);

    /// Advances the pipeline by one clock cycle; returns the stop reason
    /// when the program terminated on this cycle.
    std::optional<StopReason> step_cycle();

    std::uint32_t reg(std::uint8_t index) const { return regs_[index]; }
    bool flag() const { return flag_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }
    bool fi_active() const { return fi_active_; }

private:
    enum class Poison : std::uint8_t { None, Fetch, Illegal };

    struct If1Latch {
        bool valid = false;
        std::uint32_t pc = 0;
    };
    struct If2Latch {
        bool valid = false;
        std::uint32_t pc = 0;
        std::uint32_t word = 0;
        Poison poison = Poison::None;
    };
    struct IdLatch {
        bool valid = false;
        std::uint32_t pc = 0;
        Instr instr;
        Poison poison = Poison::None;
    };
    struct ExOut {  // EX -> MEM latch
        bool valid = false;
        Instr instr;
        std::uint8_t dest = 0;       ///< resolved destination (r9 for jal)
        bool writes = false;
        std::uint32_t result = 0;    ///< ALU result / link / movhi value
        std::uint32_t mem_addr = 0;
        std::uint32_t store_data = 0;
    };
    struct MemOut {  // MEM -> WB latch
        bool valid = false;
        std::uint8_t dest = 0;
        bool writes = false;
        std::uint32_t value = 0;
    };

    std::optional<StopReason> exec_ex(const IdLatch& id, ExOut& out,
                                      bool& flush, std::uint32_t& redirect);
    std::uint32_t read_operand(std::uint8_t reg, const MemOut& forwarding) const;

    Memory& mem_;
    ExFaultHook* hook_ = nullptr;

    std::array<std::uint32_t, 32> regs_{};
    bool flag_ = false;
    std::uint32_t prev_ex_result_ = 0;

    std::uint32_t fetch_pc_ = 0;
    If1Latch if1_;
    If2Latch if2_;
    IdLatch id_;
    IdLatch ex_;   // instruction currently in EX (same payload as ID latch)
    ExOut mem_stage_;
    MemOut wb_;

    std::uint64_t cycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t kernel_cycles_ = 0;
    std::uint64_t kernel_instructions_ = 0;
    bool fi_active_ = false;
    std::uint32_t exit_code_ = 0;
    std::uint32_t fault_addr_ = 0;
};

}  // namespace sfi::testing
