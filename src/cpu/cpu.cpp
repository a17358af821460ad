#include "cpu/cpu.hpp"

#include <cassert>

namespace sfi {

const char* stop_reason_name(StopReason reason) {
    switch (reason) {
        case StopReason::Halted: return "halted";
        case StopReason::Watchdog: return "watchdog";
        case StopReason::SelfLoop: return "self-loop";
        case StopReason::MemFault: return "mem-fault";
        case StopReason::FetchFault: return "fetch-fault";
        case StopReason::IllegalInstr: return "illegal-instr";
    }
    return "?";
}

Cpu::Cpu(Memory& memory, PipelineTiming timing) : mem_(memory), timing_(timing) {}

Cpu::~Cpu() = default;  // here: InterpState is complete in this TU

std::uint64_t Cpu::reset_identity_sig(const Program& program) const {
    // FNV-1a over the build id, entry point and each section's (addr,
    // size, data pointer). O(#sections), so it is cheap enough for every
    // reset — unlike hash_program, which walks all the bytes. The build
    // id is what makes this sound: a re-assembled program can land its
    // object AND heap buffers at recycled addresses, so pointers alone
    // cannot distinguish it from the cached one.
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t value) {
        h ^= value;
        h *= 1099511628211ULL;
    };
    mix(program.build_id);
    mix(program.entry);
    for (const auto& section : program.sections) {
        mix(section.addr);
        mix(section.bytes.size());
        mix(reinterpret_cast<std::uintptr_t>(section.bytes.data()));
    }
    return h;
}

void Cpu::reset(const Program& program) {
    // Fast path for the Monte-Carlo trial loop, which resets the same
    // program thousands of times: restore the checkpointed post-load
    // memory image (O(bytes written last run)) instead of clear+load, and
    // reuse the cached program hash instead of re-hashing the image for
    // the micro-op stream's coherence check.
    const std::uint64_t sig = reset_identity_sig(program);
    const bool same_program =
        reset_program_ == &program && reset_program_sig_ == sig;
    if (!(same_program && mem_.restore_image())) {
        mem_.clear();
        mem_.load(program);
        mem_.checkpoint_image();
        reset_program_ = &program;
        reset_program_sig_ = sig;
        reset_program_hash_ = hash_program(program);
    }
    regs_.fill(0);
    pc_ = program.entry;
    flag_ = false;
    prev_ex_result_ = 0;
    cycles_ = instructions_ = kernel_cycles_ = kernel_instructions_ = 0;
    fi_active_ = false;
    fi_windows_ = 0;
    exit_code_ = 0;
    fault_addr_ = 0;
    pending_load_slot_ = -1;
    sync_interp_on_reset(program, reset_program_hash_);
}

void Cpu::set_reg(std::uint8_t index, std::uint32_t value) {
    assert(index < 32);
    if (index != 0) regs_[index] = value;  // r0 is hardwired to zero
}

}  // namespace sfi
