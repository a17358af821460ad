#include "apps/profile.hpp"

#include <ostream>
#include <stdexcept>

#include "cpu/cpu.hpp"
#include "util/table.hpp"

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

void print_profile(std::ostream& os, const std::string& name,
                   const KernelProfile& profile) {
    os << name << ": " << profile.instructions << " kernel instructions, "
       << profile.cycles << " cycles\n";
    TextTable table({"class", "count", "share"});
    for (std::size_t c = 0; c < kExClassCount; ++c) {
        const auto cls = static_cast<ExClass>(c);
        if (profile.count(cls) == 0) continue;
        table.add_row({ex_class_name(cls), std::to_string(profile.count(cls)),
                       fmt_pct(profile.fraction(cls))});
    }
    table.add_row({"(alu total)", std::to_string(profile.alu_ops),
                   fmt_pct(profile.alu_fraction())});
    table.add_row({"(branches)", std::to_string(profile.branches),
                   fmt_pct(profile.branch_fraction())});
    table.add_row({"(loads)", std::to_string(profile.loads), ""});
    table.add_row({"(stores)", std::to_string(profile.stores), ""});
    table.print(os);
}

}  // namespace sfi
