#include "apps/profile.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "testing/reference_cpu.hpp"

namespace sfi {
namespace {

TEST(Profile, MedianIsMultiplierFree) {
    const KernelProfile p = profile_kernel(*make_benchmark(BenchmarkId::Median));
    EXPECT_EQ(p.count(ExClass::Mul), 0u);
    EXPECT_GT(p.count(ExClass::Cmp), 1000u);  // sort compares dominate
    EXPECT_GT(p.branch_fraction(), 0.15);     // control-heavy (Table 1: "+")
}

TEST(Profile, MatMultIsMultiplyHeavy) {
    const KernelProfile p =
        profile_kernel(*make_benchmark(BenchmarkId::MatMult8));
    // One multiply per inner-loop iteration: 16^3 = 4096.
    EXPECT_EQ(p.count(ExClass::Mul), 4096u);
    EXPECT_GT(p.fraction(ExClass::Mul), 0.09);
    EXPECT_LT(p.branch_fraction(), 0.15);  // Table 1: control "-"
}

TEST(Profile, KMeansHasFarFewerMultipliesThanMatMult) {
    // Fig. 6(c): the k-means FI rate is almost an order of magnitude
    // below matmul's — because its share of critical multiplies is.
    const KernelProfile mm =
        profile_kernel(*make_benchmark(BenchmarkId::MatMult8));
    const KernelProfile km = profile_kernel(*make_benchmark(BenchmarkId::KMeans));
    ASSERT_GT(km.count(ExClass::Mul), 0u);
    EXPECT_LT(km.fraction(ExClass::Mul), mm.fraction(ExClass::Mul) / 4.0);
}

TEST(Profile, DijkstraIsControlDominatedAndMulFree) {
    const KernelProfile p =
        profile_kernel(*make_benchmark(BenchmarkId::Dijkstra));
    EXPECT_EQ(p.count(ExClass::Mul), 0u);
    EXPECT_GT(p.branch_fraction(), 0.2);  // Table 1: control "++"
}

TEST(Profile, CountsAreConsistent) {
    const KernelProfile p = profile_kernel(*make_benchmark(BenchmarkId::KMeans));
    std::uint64_t class_sum = 0;
    for (std::size_t c = 0; c < kExClassCount; ++c)
        class_sum += p.per_class[c];
    EXPECT_EQ(class_sum, p.instructions);
    std::uint64_t op_sum = 0;
    for (std::size_t o = 0; o < kOpCount; ++o) op_sum += p.per_op[o];
    EXPECT_EQ(op_sum, p.instructions);
    EXPECT_LE(p.taken_branches, p.branches);
    EXPECT_GT(p.taken_branches, 0u);
    EXPECT_LE(p.alu_ops, p.instructions);
    EXPECT_GT(p.cycles, p.instructions);  // stalls/flushes exist
}

// The kernel mix recounted step by step on the reference interpreter
// (tests/testing/reference_cpu.hpp): an instruction counts when the FI
// window is open as it is fetched, and a branch is taken when the next pc
// is not the fall-through.
KernelProfile reference_profile(const Benchmark& benchmark) {
    Memory memory;
    testing::ReferenceCpu cpu(memory);
    Instr instr;
    bool in_window = false;
    cpu.set_trace([&](std::uint32_t, const Instr& fetched, bool fi_active) {
        instr = fetched;
        in_window = fi_active;
    });
    cpu.reset(benchmark.program());
    KernelProfile profile;
    std::optional<StopReason> stop;
    while (!stop) {
        const std::uint32_t pc = cpu.pc();
        in_window = false;
        stop = cpu.step();
        if (!in_window) continue;
        const OpInfo& info = op_info(instr.op);
        ++profile.instructions;
        ++profile.per_op[static_cast<std::size_t>(instr.op)];
        ++profile.per_class[static_cast<std::size_t>(info.ex_class)];
        if (info.ex_class != ExClass::None) ++profile.alu_ops;
        if (info.is_branch) {
            ++profile.branches;
            if (!stop && cpu.pc() != pc + 4) ++profile.taken_branches;
        }
        if (info.is_load) ++profile.loads;
        if (info.is_store) ++profile.stores;
    }
    EXPECT_EQ(*stop, StopReason::Halted) << benchmark.name();
    profile.cycles = cpu.kernel_cycles();
    return profile;
}

TEST(Profile, MatchesTheReferenceInterpretersWalk) {
    for (const BenchmarkId id : all_benchmarks()) {
        const auto bench = make_benchmark(id);
        const KernelProfile want = reference_profile(*bench);
        const KernelProfile got = profile_kernel(*bench);
        const std::string ctx = bench->name();
        EXPECT_GT(want.instructions, 0u) << ctx;
        EXPECT_EQ(got.per_op, want.per_op) << ctx;
        EXPECT_EQ(got.per_class, want.per_class) << ctx;
        EXPECT_EQ(got.instructions, want.instructions) << ctx;
        EXPECT_EQ(got.cycles, want.cycles) << ctx;
        EXPECT_EQ(got.alu_ops, want.alu_ops) << ctx;
        EXPECT_EQ(got.branches, want.branches) << ctx;
        EXPECT_EQ(got.taken_branches, want.taken_branches) << ctx;
        EXPECT_EQ(got.loads, want.loads) << ctx;
        EXPECT_EQ(got.stores, want.stores) << ctx;
    }
}

}  // namespace
}  // namespace sfi
