#include "apps/benchmark.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <utility>

#include "cpu/cpu.hpp"
#include "cpu/interp.hpp"
#include "isa/isa.hpp"

namespace sfi {
namespace {

/// Runs a benchmark fault-free and returns the CPU for inspection.
struct FaultFreeRun {
    Memory memory{Memory::kDefaultSize};
    Cpu cpu{memory};
    RunResult result;

    explicit FaultFreeRun(const Benchmark& bench) {
        cpu.reset(bench.program());
        result = cpu.run();
    }
};

class BenchmarkContract : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(BenchmarkContract, FaultFreeRunReproducesGoldenOutput) {
    const auto bench = make_benchmark(GetParam());
    FaultFreeRun run(*bench);
    ASSERT_EQ(run.result.stop, StopReason::Halted) << bench->name();
    EXPECT_EQ(bench->read_output(run.memory), bench->golden_output());
    EXPECT_DOUBLE_EQ(bench->output_error(bench->read_output(run.memory)), 0.0);
}

TEST_P(BenchmarkContract, KernelDominatesRuntime) {
    // Paper §2.2: the kernel accounts for (nearly) all runtime cycles.
    const auto bench = make_benchmark(GetParam());
    FaultFreeRun run(*bench);
    EXPECT_GT(static_cast<double>(run.result.kernel_cycles),
              0.97 * static_cast<double>(run.result.cycles))
        << bench->name();
}

TEST_P(BenchmarkContract, DeterministicAcrossRuns) {
    const auto bench = make_benchmark(GetParam());
    FaultFreeRun first(*bench);
    FaultFreeRun second(*bench);
    EXPECT_EQ(first.result.cycles, second.result.cycles);
    EXPECT_EQ(first.result.instructions, second.result.instructions);
}

TEST_P(BenchmarkContract, SeedChangesInputData) {
    const auto a = make_benchmark(GetParam(), 42);
    const auto b = make_benchmark(GetParam(), 43);
    EXPECT_NE(a->golden_output(), b->golden_output());
}

TEST_P(BenchmarkContract, SameSeedSameProgram) {
    const auto a = make_benchmark(GetParam(), 7);
    const auto b = make_benchmark(GetParam(), 7);
    EXPECT_EQ(a->asm_source(), b->asm_source());
}

TEST_P(BenchmarkContract, Table1RowIsComplete) {
    const auto bench = make_benchmark(GetParam());
    const auto row = bench->table1_row();
    EXPECT_FALSE(row.type.empty());
    EXPECT_FALSE(row.compute.empty());
    EXPECT_FALSE(row.control.empty());
    EXPECT_FALSE(row.size.empty());
    EXPECT_FALSE(row.error_metric.empty());
    EXPECT_FALSE(bench->error_unit().empty());
}

TEST_P(BenchmarkContract, IpcIsReasonable) {
    const auto bench = make_benchmark(GetParam());
    FaultFreeRun run(*bench);
    EXPECT_GT(run.result.ipc(), 0.5) << bench->name();
    EXPECT_LE(run.result.ipc(), 1.0) << bench->name();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkContract,
                         ::testing::ValuesIn(all_benchmarks()),
                         [](const ::testing::TestParamInfo<BenchmarkId>& info) {
                             return benchmark_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Per-benchmark specifics
// ---------------------------------------------------------------------------

TEST(MedianBenchmark, GoldenIsTheSortedMiddle) {
    const auto bench = make_median(42, 129);
    const auto golden = bench->golden_output();
    ASSERT_EQ(golden.size(), 1u);
    EXPECT_GT(golden[0], 0u);
    EXPECT_LT(golden[0], 0x10000u);  // 16-bit value range
}

TEST(MedianBenchmark, ErrorIsRelativeAndCapped) {
    const auto bench = make_median(42, 129);
    const std::uint32_t golden = bench->golden_output()[0];
    EXPECT_DOUBLE_EQ(bench->output_error({golden}), 0.0);
    EXPECT_NEAR(bench->output_error({golden + golden / 10}), 10.0, 0.5);
    EXPECT_DOUBLE_EQ(bench->output_error({golden * 5}), 100.0);  // capped
}

TEST(MedianBenchmark, RejectsEvenCounts) {
    EXPECT_THROW(make_median(1, 128), std::invalid_argument);
    EXPECT_THROW(make_median(1, 1), std::invalid_argument);
}

TEST(MedianBenchmark, SmallerInstanceRunsFaster) {
    const auto small = make_median(42, 33);
    const auto large = make_median(42, 129);
    FaultFreeRun rs(*small), rl(*large);
    EXPECT_LT(rs.result.cycles * 4, rl.result.cycles);
}

TEST(MatMultBenchmark, ResultsTruncateToOperandWidth) {
    for (const unsigned bits : {8u, 16u}) {
        const auto bench = make_mat_mult(42, bits);
        const std::uint32_t mask = bits == 8 ? 0xffu : 0xffffu;
        for (const std::uint32_t v : bench->golden_output())
            EXPECT_EQ(v & ~mask, 0u) << bits;
    }
}

TEST(MatMultBenchmark, MseScalesWithOperandWidth) {
    // A single worst-case corrupted entry bounds the MSE by the container
    // width — the x10^3 / x10^6 axis split of Fig. 6(a)/(b).
    const auto b8 = make_mat_mult(42, 8);
    auto out8 = b8->golden_output();
    out8[0] ^= 0xffu;
    EXPECT_LE(b8->output_error(out8), 255.0 * 255.0 / 256.0 + 1.0);
    const auto b16 = make_mat_mult(42, 16);
    auto out16 = b16->golden_output();
    out16[0] ^= 0xffffu;
    EXPECT_GT(b16->output_error(out16), b8->output_error(out8));
}

TEST(MatMultBenchmark, MseIsMeanOfSquares) {
    const auto bench = make_mat_mult(42, 8);
    auto out = bench->golden_output();
    const double base = bench->output_error(out);
    EXPECT_DOUBLE_EQ(base, 0.0);
    out[3] = (out[3] + 10) & 0xffu;
    const double delta_sq =
        (static_cast<double>(out[3]) -
         static_cast<double>(bench->golden_output()[3])) *
        (static_cast<double>(out[3]) -
         static_cast<double>(bench->golden_output()[3]));
    EXPECT_NEAR(bench->output_error(out), delta_sq / 256.0, 1e-9);
}

TEST(MatMultBenchmark, RejectsBadConfig) {
    EXPECT_THROW(make_mat_mult(1, 12), std::invalid_argument);
    EXPECT_THROW(make_mat_mult(1, 8, 10), std::invalid_argument);
}

TEST(KMeansBenchmark, AssignmentsAreValidClusterIds) {
    const auto bench = make_kmeans(42);
    for (const std::uint32_t c : bench->golden_output()) EXPECT_LT(c, 2u);
}

TEST(KMeansBenchmark, BothClustersPopulated) {
    const auto bench = make_kmeans(42);
    const auto golden = bench->golden_output();
    EXPECT_TRUE(std::find(golden.begin(), golden.end(), 0u) != golden.end());
    EXPECT_TRUE(std::find(golden.begin(), golden.end(), 1u) != golden.end());
}

TEST(KMeansBenchmark, MembershipErrorIsPercentage) {
    const auto bench = make_kmeans(42);
    auto out = bench->golden_output();
    EXPECT_DOUBLE_EQ(bench->output_error(out), 0.0);
    out[0] ^= 1u;
    EXPECT_DOUBLE_EQ(bench->output_error(out), 100.0 / 8.0);
    auto flipped = bench->golden_output();
    for (auto& c : flipped) c ^= 1u;
    EXPECT_DOUBLE_EQ(bench->output_error(flipped), 100.0);
}

TEST(KMeansBenchmark, RejectsBadConfig) {
    EXPECT_THROW(make_kmeans(1, 2, 4), std::invalid_argument);
    EXPECT_THROW(make_kmeans(1, 8, 0), std::invalid_argument);
}

TEST(DijkstraBenchmark, DiagonalIsZeroAndAllPairsReachable) {
    const auto bench = make_dijkstra(42, 10);
    const auto golden = bench->golden_output();
    ASSERT_EQ(golden.size(), 100u);
    for (std::size_t s = 0; s < 10; ++s) {
        for (std::size_t v = 0; v < 10; ++v) {
            const std::uint32_t d = golden[s * 10 + v];
            if (s == v)
                EXPECT_EQ(d, 0u);
            else
                EXPECT_LT(d, 0x3fffffffu) << s << "->" << v;  // reachable
        }
    }
}

TEST(DijkstraBenchmark, TriangleInequalityHolds) {
    const auto bench = make_dijkstra(42, 10);
    const auto d = bench->golden_output();
    for (std::size_t a = 0; a < 10; ++a)
        for (std::size_t b = 0; b < 10; ++b)
            for (std::size_t c = 0; c < 10; ++c)
                EXPECT_LE(d[a * 10 + c], d[a * 10 + b] + d[b * 10 + c]);
}

TEST(DijkstraBenchmark, PairErrorIsPercentage) {
    const auto bench = make_dijkstra(42, 10);
    auto out = bench->golden_output();
    out[7] += 1;
    EXPECT_DOUBLE_EQ(bench->output_error(out), 1.0);
}

TEST(DijkstraBenchmark, KernelAvoidsMultiplier) {
    // Table 1: dijkstra is compute "-": the kernel must not execute any
    // multiply (row offsets are shift/add compositions).
    const auto bench = make_dijkstra(42, 10);
    Memory memory;
    Cpu cpu(memory);
    bool saw_mul = false;
    cpu.set_trace([&](std::uint32_t, Op op, bool fi_active) {
        if (op_info(op).ex_class == ExClass::Mul && fi_active) saw_mul = true;
    });
    cpu.reset(bench->program());
    cpu.run();
    EXPECT_FALSE(saw_mul);
}

// The assembled images at the default seed. The assembler and encoder
// read the opcode table, so these pins catch a row that changes what the
// benchmarks run even when encode and decode still agree with each other.
TEST(BenchmarkRegistry, ImagesArePinned) {
    const std::pair<BenchmarkId, std::uint64_t> pins[] = {
        {BenchmarkId::Median, 0x8bfa7d75648fcb98ull},
        {BenchmarkId::MatMult8, 0xcc92dc048dec70abull},
        {BenchmarkId::MatMult16, 0x3da51418ae333496ull},
        {BenchmarkId::KMeans, 0x4c82be99cdd1e7aeull},
        {BenchmarkId::Dijkstra, 0xea897b86dc6b2041ull},
    };
    ASSERT_EQ(std::size(pins), all_benchmarks().size());
    for (const auto& [id, hash] : pins)
        EXPECT_EQ(hash_program(make_benchmark(id, 42)->program()), hash)
            << benchmark_name(id);
}

TEST(BenchmarkRegistry, NamesAreUniqueAndStable) {
    std::set<std::string> names;
    for (const BenchmarkId id : all_benchmarks())
        EXPECT_TRUE(names.insert(benchmark_name(id)).second);
    EXPECT_EQ(names.count("median"), 1u);
    EXPECT_EQ(names.count("dijkstra"), 1u);
}

TEST(BenchmarkRegistry, MakeBenchmarkMatchesNames) {
    for (const BenchmarkId id : all_benchmarks())
        EXPECT_EQ(make_benchmark(id)->name(), benchmark_name(id));
}

}  // namespace
}  // namespace sfi
