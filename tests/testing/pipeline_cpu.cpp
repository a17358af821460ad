#include "testing/pipeline_cpu.hpp"

#include "isa/encoding.hpp"

namespace sfi::testing {

PipelineCpu::PipelineCpu(Memory& memory) : mem_(memory) {}

void PipelineCpu::reset(const Program& program) {
    mem_.clear();
    mem_.load(program);
    regs_.fill(0);
    flag_ = false;
    prev_ex_result_ = 0;
    fetch_pc_ = program.entry;
    if1_ = If1Latch{};
    if2_ = If2Latch{};
    id_ = IdLatch{};
    ex_ = IdLatch{};
    mem_stage_ = ExOut{};
    wb_ = MemOut{};
    cycles_ = instructions_ = kernel_cycles_ = kernel_instructions_ = 0;
    fi_active_ = false;
    exit_code_ = 0;
    fault_addr_ = 0;
}

std::uint32_t PipelineCpu::read_operand(std::uint8_t reg,
                                        const MemOut& forwarding) const {
    if (reg == 0) return 0;  // r0 hardwired
    if (forwarding.valid && forwarding.writes && forwarding.dest == reg)
        return forwarding.value;  // bypass from the instruction one ahead
    return regs_[reg];
}

std::optional<StopReason> PipelineCpu::exec_ex(const IdLatch& id, ExOut& out,
                                               bool& flush,
                                               std::uint32_t& redirect) {
    out = ExOut{};
    flush = false;
    if (!id.valid) return std::nullopt;
    if (id.poison == Poison::Fetch) {
        fault_addr_ = id.pc;
        return StopReason::FetchFault;
    }
    if (id.poison == Poison::Illegal) {
        fault_addr_ = id.pc;
        return StopReason::IllegalInstr;
    }
    const Instr& instr = id.instr;
    const OpInfo& info = op_info(instr.op);
    // `wb_` at this point holds the value of the instruction one ahead
    // (its MEM stage completed earlier in this cycle).
    const MemOut& fwd = wb_;

    out.valid = true;
    out.instr = instr;

    switch (instr.op) {
        case Op::NOP:
            switch (static_cast<std::uint16_t>(instr.imm)) {
                case kNopExit:
                    exit_code_ = read_operand(3, fwd);
                    ++instructions_;
                    if (fi_active_) ++kernel_instructions_;
                    return StopReason::Halted;
                case kNopKernelBegin: fi_active_ = true; break;
                case kNopKernelEnd: fi_active_ = false; break;
                default: break;
            }
            break;
        case Op::MOVHI:
            out.dest = instr.rd;
            out.writes = true;
            out.result = static_cast<std::uint32_t>(instr.imm) << 16;
            break;
        case Op::J:
        case Op::JAL:
            if (instr.op == Op::J && instr.imm == 0) return StopReason::SelfLoop;
            if (instr.op == Op::JAL) {
                out.dest = 9;
                out.writes = true;
                out.result = id.pc + 4;
            }
            flush = true;
            redirect = id.pc + static_cast<std::uint32_t>(instr.imm) * 4;
            break;
        case Op::JR:
        case Op::JALR: {
            const std::uint32_t target = read_operand(instr.rb, fwd);
            if (target == id.pc) return StopReason::SelfLoop;
            if (instr.op == Op::JALR) {
                out.dest = 9;
                out.writes = true;
                out.result = id.pc + 4;
            }
            flush = true;
            redirect = target;
            break;
        }
        case Op::BF:
        case Op::BNF: {
            const bool cond = (instr.op == Op::BF) ? flag_ : !flag_;
            if (cond) {
                if (instr.imm == 0) return StopReason::SelfLoop;
                flush = true;
                redirect = id.pc + static_cast<std::uint32_t>(instr.imm) * 4;
            }
            break;
        }
        case Op::LWZ:
        case Op::LBZ:
        case Op::LHZ:
            out.dest = instr.rd;
            out.writes = true;
            out.mem_addr =
                read_operand(instr.ra, fwd) + static_cast<std::uint32_t>(instr.imm);
            break;
        case Op::SW:
        case Op::SB:
        case Op::SH:
            out.mem_addr =
                read_operand(instr.ra, fwd) + static_cast<std::uint32_t>(instr.imm);
            out.store_data = read_operand(instr.rb, fwd);
            break;
        default: {
            // ALU-class instruction.
            const std::uint32_t a = read_operand(instr.ra, fwd);
            const std::uint32_t b = info.has_imm
                                        ? static_cast<std::uint32_t>(instr.imm)
                                        : read_operand(instr.rb, fwd);
            const ExClass cls = info.ex_class;
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
                result = hook_->on_ex_result(ev, correct);
            }
            prev_ex_result_ = result;
            if (info.sets_flag) {
                flag_ = compare_flag_from_diff_kind(cmp_kind(instr.op), a, b,
                                                    result);
            } else {
                out.dest = instr.rd;
                out.writes = true;
                out.result = result;
            }
            break;
        }
    }
    ++instructions_;
    if (fi_active_) ++kernel_instructions_;
    return std::nullopt;
}

std::optional<StopReason> PipelineCpu::step_cycle() {
    ++cycles_;
    if (fi_active_) ++kernel_cycles_;
    if (hook_) hook_->on_cycle(fi_active_);

    // ---- WB: commit the oldest instruction's value.
    if (wb_.valid && wb_.writes && wb_.dest != 0) regs_[wb_.dest] = wb_.value;

    // ---- MEM: data-memory access of the instruction after it.
    MemOut new_wb;
    if (mem_stage_.valid) {
        const Instr& instr = mem_stage_.instr;
        new_wb.valid = true;
        new_wb.dest = mem_stage_.dest;
        new_wb.writes = mem_stage_.writes;
        new_wb.value = mem_stage_.result;
        try {
            switch (instr.op) {
                case Op::LWZ: new_wb.value = mem_.read_u32(mem_stage_.mem_addr); break;
                case Op::LHZ: new_wb.value = mem_.read_u16(mem_stage_.mem_addr); break;
                case Op::LBZ: new_wb.value = mem_.read_u8(mem_stage_.mem_addr); break;
                case Op::SW:
                    mem_.write_u32(mem_stage_.mem_addr, mem_stage_.store_data);
                    break;
                case Op::SH:
                    mem_.write_u16(mem_stage_.mem_addr,
                                   static_cast<std::uint16_t>(mem_stage_.store_data));
                    break;
                case Op::SB:
                    mem_.write_u8(mem_stage_.mem_addr,
                                  static_cast<std::uint8_t>(mem_stage_.store_data));
                    break;
                default: break;
            }
        } catch (const MemFault& fault) {
            fault_addr_ = fault.addr;
            return StopReason::MemFault;
        }
    }
    wb_ = new_wb;

    // ---- EX: execute, resolve branches, run the FI hook.
    ExOut new_mem;
    bool flush = false;
    std::uint32_t redirect = 0;
    if (const auto stop = exec_ex(ex_, new_mem, flush, redirect)) {
        // On a clean halt the older instruction still in flight (its MEM
        // stage completed this cycle) must retire before the core stops;
        // faults abandon the pipeline as-is.
        if (*stop == StopReason::Halted && wb_.valid && wb_.writes &&
            wb_.dest != 0)
            regs_[wb_.dest] = wb_.value;
        return stop;
    }

    // ---- hazard: load in EX feeding the instruction waiting in ID.
    const bool ex_is_load = ex_.valid && ex_.poison == Poison::None &&
                            op_info(ex_.instr.op).is_load;
    bool stall = false;
    if (ex_is_load && ex_.instr.rd != 0 && id_.valid &&
        id_.poison == Poison::None) {
        const OpInfo& info = op_info(id_.instr.op);
        stall = (info.reads_ra && id_.instr.ra == ex_.instr.rd) ||
                (info.reads_rb && id_.instr.rb == ex_.instr.rd);
    }

    mem_stage_ = new_mem;

    if (flush) {
        // Taken branch resolved in EX: squash the three younger stages and
        // present the redirect PC to the fetch stage in the same cycle
        // (3 bubble cycles before the target reaches EX, as in the ISS's
        // timing model).
        ex_ = IdLatch{};
        id_ = IdLatch{};
        if2_ = If2Latch{};
        if1_ = If1Latch{true, redirect};
        fetch_pc_ = redirect + 4;
        return std::nullopt;
    }
    if (stall) {
        ex_ = IdLatch{};  // bubble; ID/IF latches and fetch PC hold
        return std::nullopt;
    }

    // ---- advance ID -> EX, IF2 -> ID, IF1 -> IF2, fetch -> IF1.
    ex_ = id_;
    id_ = IdLatch{};
    if (if2_.valid) {
        id_.valid = true;
        id_.pc = if2_.pc;
        id_.poison = if2_.poison;
        if (if2_.poison == Poison::None) {
            const auto decoded = decode(if2_.word);
            if (decoded)
                id_.instr = *decoded;
            else
                id_.poison = Poison::Illegal;
        }
    }
    if2_ = If2Latch{};
    if (if1_.valid) {
        if2_.valid = true;
        if2_.pc = if1_.pc;
        if (if1_.pc % 4 != 0 || if1_.pc + 4 > mem_.size())
            if2_.poison = Poison::Fetch;
        else
            if2_.word = mem_.read_u32(if1_.pc);
    }
    if1_ = If1Latch{true, fetch_pc_};
    fetch_pc_ += 4;
    return std::nullopt;
}

RunResult PipelineCpu::run(std::uint64_t max_cycles) {
    if (max_cycles == 0) max_cycles = 100'000'000ULL;
    std::optional<StopReason> stop;
    while (!stop) {
        if (cycles_ >= max_cycles) {
            stop = StopReason::Watchdog;
            break;
        }
        stop = step_cycle();
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
