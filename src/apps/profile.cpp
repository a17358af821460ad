#include "apps/profile.hpp"

#include <stdexcept>

#include "cpu/cpu.hpp"

namespace sfi {

double KernelProfile::fraction(ExClass cls) const {
    return instructions ? static_cast<double>(count(cls)) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double KernelProfile::alu_fraction() const {
    return instructions
               ? static_cast<double>(alu_ops) / static_cast<double>(instructions)
               : 0.0;
}

double KernelProfile::branch_fraction() const {
    return instructions
               ? static_cast<double>(branches) / static_cast<double>(instructions)
               : 0.0;
}

KernelProfile profile_kernel(const Benchmark& benchmark) {
    Memory memory;
    Cpu cpu(memory);
    KernelProfile profile;
    bool have_last_branch = false;
    std::uint32_t branch_pc = 0;
    cpu.set_trace([&](std::uint32_t pc, Op op, bool fi_active) {
        // Taken-branch detection: the previous instruction was a branch
        // and we did not fall through to pc+4.
        if (have_last_branch && fi_active && pc != branch_pc + 4)
            ++profile.taken_branches;
        have_last_branch = false;
        if (!fi_active) return;
        const OpInfo& info = op_info(op);
        ++profile.instructions;
        ++profile.per_op[static_cast<std::size_t>(op)];
        ++profile.per_class[static_cast<std::size_t>(info.ex_class)];
        if (info.ex_class != ExClass::None) ++profile.alu_ops;
        if (info.is_branch) {
            ++profile.branches;
            have_last_branch = true;
            branch_pc = pc;
        }
        if (info.is_load) ++profile.loads;
        if (info.is_store) ++profile.stores;
    });
    cpu.reset(benchmark.program());
    const RunResult run = cpu.run();
    if (!run.finished())
        throw std::logic_error("profile_kernel: fault-free run did not halt");
    profile.cycles = run.kernel_cycles;
    return profile;
}

}  // namespace sfi
