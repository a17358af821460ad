#include "testing/reference_cpu.hpp"

#include <cassert>

#include "isa/encoding.hpp"

namespace sfi::testing {

ReferenceCpu::ReferenceCpu(Memory& memory, PipelineTiming timing)
    : mem_(memory), timing_(timing) {}

void ReferenceCpu::reset(const Program& program) {
    mem_.clear();
    mem_.load(program);
    regs_.fill(0);
    pc_ = program.entry;
    flag_ = false;
    prev_ex_result_ = 0;
    cycles_ = instructions_ = kernel_cycles_ = kernel_instructions_ = 0;
    fi_active_ = false;
    fi_windows_ = 0;
    exit_code_ = 0;
    fault_addr_ = 0;
    last_was_load_ = false;
    last_load_dest_ = 0;
}

void ReferenceCpu::set_reg(std::uint8_t index, std::uint32_t value) {
    assert(index < 32);
    if (index != 0) regs_[index] = value;  // r0 is hardwired to zero
}

void ReferenceCpu::spend_cycles(std::uint64_t n) {
    cycles_ += n;
    if (fi_active_) kernel_cycles_ += n;
    if (hook_) hook_->on_cycles(n, fi_active_);
}

std::uint32_t ReferenceCpu::exec_alu(const Instr& instr, std::uint32_t a,
                                     std::uint32_t b) {
    const ExClass cls = op_info(instr.op).ex_class;
    const std::uint32_t correct = alu_result(cls, a, b);
    std::uint32_t result = correct;
    if (hook_ && fi_active_) {
        ExEvent ev;
        ev.op = instr.op;
        ev.cls = cls;
        ev.operand_a = a;
        ev.operand_b = b;
        ev.prev_result = prev_ex_result_;
        ev.cycle = cycles_;
        ev.pc = pc_;
        ev.window = static_cast<std::uint32_t>(fi_windows_);
        result = hook_->on_ex_result(ev, correct);
    }
    prev_ex_result_ = result;
    return result;
}

std::optional<StopReason> ReferenceCpu::step() {
    if (pc_ % 4 != 0 || std::uint64_t{pc_} + 4 > mem_.size()) {
        fault_addr_ = pc_;
        return StopReason::FetchFault;
    }
    const std::optional<Instr> decoded = decode(mem_.read_u32(pc_));
    if (!decoded) {
        fault_addr_ = pc_;
        return StopReason::IllegalInstr;
    }
    const Instr instr = *decoded;
    const OpInfo& info = op_info(instr.op);

    if (trace_) trace_(pc_, instr, fi_active_);

    // Load-use hazard: one bubble when the previous instruction was a load
    // and this one consumes its destination (r0 never creates a hazard).
    std::uint64_t bubbles = 0;
    if (last_was_load_ && last_load_dest_ != 0) {
        const bool uses = (info.reads_ra && instr.ra == last_load_dest_) ||
                          (info.reads_rb && instr.rb == last_load_dest_);
        if (uses) bubbles += timing_.load_use_stall;
    }
    last_was_load_ = false;

    // Kernel-window toggling happens before the cycle is spent so the
    // marker's own cycle is attributed consistently (begin: inside).
    if (instr.op == Op::NOP && instr.imm == kNopKernelBegin) {
        if (!fi_active_) ++fi_windows_;
        fi_active_ = true;
    }

    spend_cycles(bubbles + 1);

    std::uint32_t next_pc = pc_ + 4;
    bool taken = false;

    switch (instr.op) {
        case Op::NOP:
            switch (static_cast<std::uint16_t>(instr.imm)) {
                case kNopExit:
                    exit_code_ = regs_[3];
                    ++instructions_;
                    if (fi_active_) ++kernel_instructions_;
                    return StopReason::Halted;
                case kNopKernelEnd:
                    fi_active_ = false;
                    break;
                default:
                    break;  // plain nop / report / begin (handled above)
            }
            break;
        case Op::MOVHI:
            set_reg(instr.rd, static_cast<std::uint32_t>(instr.imm) << 16);
            break;
        case Op::J:
            if (instr.imm == 0) return StopReason::SelfLoop;
            next_pc = pc_ + static_cast<std::uint32_t>(instr.imm) * 4;
            taken = true;
            break;
        case Op::JAL:
            set_reg(9, pc_ + 4);
            next_pc = pc_ + static_cast<std::uint32_t>(instr.imm) * 4;
            taken = true;
            break;
        case Op::JR:
            next_pc = regs_[instr.rb];
            if (next_pc == pc_) return StopReason::SelfLoop;
            taken = true;
            break;
        case Op::JALR:
            set_reg(9, pc_ + 4);
            next_pc = regs_[instr.rb];
            if (next_pc == pc_) return StopReason::SelfLoop;
            taken = true;
            break;
        case Op::BF:
        case Op::BNF: {
            const bool cond = (instr.op == Op::BF) ? flag_ : !flag_;
            if (cond) {
                if (instr.imm == 0) return StopReason::SelfLoop;
                next_pc = pc_ + static_cast<std::uint32_t>(instr.imm) * 4;
                taken = true;
            }
            break;
        }
        case Op::LWZ:
        case Op::LBZ:
        case Op::LHZ: {
            const std::uint32_t addr =
                regs_[instr.ra] + static_cast<std::uint32_t>(instr.imm);
            try {
                std::uint32_t value = 0;
                if (instr.op == Op::LWZ) value = mem_.read_u32(addr);
                else if (instr.op == Op::LHZ) value = mem_.read_u16(addr);
                else value = mem_.read_u8(addr);
                set_reg(instr.rd, value);
            } catch (const MemFault& fault) {
                fault_addr_ = fault.addr;
                return StopReason::MemFault;
            }
            last_was_load_ = true;
            last_load_dest_ = instr.rd;
            break;
        }
        case Op::SW:
        case Op::SB:
        case Op::SH: {
            const std::uint32_t addr =
                regs_[instr.ra] + static_cast<std::uint32_t>(instr.imm);
            try {
                if (instr.op == Op::SW)
                    mem_.write_u32(addr, regs_[instr.rb]);
                else if (instr.op == Op::SH)
                    mem_.write_u16(addr, static_cast<std::uint16_t>(regs_[instr.rb]));
                else
                    mem_.write_u8(addr, static_cast<std::uint8_t>(regs_[instr.rb]));
            } catch (const MemFault& fault) {
                fault_addr_ = fault.addr;
                return StopReason::MemFault;
            }
            break;
        }
        default: {
            // ALU-class instruction (register or immediate form).
            assert(info.ex_class != ExClass::None);
            const std::uint32_t a = regs_[instr.ra];
            const std::uint32_t b = info.has_imm
                                        ? static_cast<std::uint32_t>(instr.imm)
                                        : regs_[instr.rb];
            const std::uint32_t result = exec_alu(instr, a, b);
            if (info.sets_flag) {
                // Flag logic consumes the latched (possibly corrupted)
                // difference, exactly like the hardware downstream of the
                // 32 ALU endpoints.
                flag_ = compare_flag_from_diff_kind(cmp_kind(instr.op), a, b,
                                                    result);
            } else {
                set_reg(instr.rd, result);
            }
            break;
        }
    }

    ++instructions_;
    if (fi_active_) ++kernel_instructions_;

    if (taken) spend_cycles(timing_.taken_branch_flush);
    pc_ = next_pc;
    return std::nullopt;
}

RunResult ReferenceCpu::run(std::uint64_t max_cycles) {
    if (max_cycles == 0) max_cycles = 100'000'000ULL;
    std::optional<StopReason> stop;
    while (!stop) {
        if (cycles_ >= max_cycles) {
            stop = StopReason::Watchdog;
            break;
        }
        stop = step();
    }
    RunResult result;
    result.stop = *stop;
    result.exit_code = exit_code_;
    result.cycles = cycles_;
    result.instructions = instructions_;
    result.kernel_cycles = kernel_cycles_;
    result.kernel_instructions = kernel_instructions_;
    result.fault_addr = fault_addr_;
    return result;
}

}  // namespace sfi::testing
