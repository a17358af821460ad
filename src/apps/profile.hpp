// Kernel instruction-mix profiling: quantifies the "compute" vs
// "control" characterization of Table 1 and explains the per-benchmark
// FI-rate differences of Fig. 6 (e.g. k-means' order-of-magnitude lower
// rate comes from its much smaller share of timing-critical multiplies).
#pragma once

#include <array>
#include <cstdint>

#include "apps/benchmark.hpp"
#include "isa/isa.hpp"

namespace sfi {

struct KernelProfile {
    std::array<std::uint64_t, kOpCount> per_op{};
    std::array<std::uint64_t, kExClassCount> per_class{};
    std::uint64_t instructions = 0;  ///< kernel instructions
    std::uint64_t cycles = 0;        ///< kernel cycles
    std::uint64_t alu_ops = 0;       ///< FI-target instructions
    std::uint64_t branches = 0;
    std::uint64_t taken_branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    std::uint64_t count(Op op) const {
        return per_op[static_cast<std::size_t>(op)];
    }
    std::uint64_t count(ExClass cls) const {
        return per_class[static_cast<std::size_t>(cls)];
    }
    /// Fraction of kernel instructions in `cls` (0 when empty).
    double fraction(ExClass cls) const;
    /// Fraction of kernel instructions that are FI targets.
    double alu_fraction() const;
    double branch_fraction() const;
};

/// Runs `benchmark` fault-free and collects its kernel profile.
KernelProfile profile_kernel(const Benchmark& benchmark);

}  // namespace sfi
