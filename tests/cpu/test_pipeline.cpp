// Equivalence tests between the explicit stage-by-stage pipeline model
// (the cycle-model oracle in tests/testing/pipeline_cpu.hpp) and the ISS:
// identical architectural results, identical retired instruction counts,
// and cycle counts offset by exactly the 4-cycle fill of the stages in
// front of EX.
#include "testing/pipeline_cpu.hpp"

#include <gtest/gtest.h>

#include "apps/benchmark.hpp"
#include "fi/models.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::PipelineCpu;

constexpr std::uint64_t kFillCycles = 4;

struct BothEngines {
    Memory fast_mem{Memory::kDefaultSize};
    Memory pipe_mem{Memory::kDefaultSize};
    Cpu fast{fast_mem};
    PipelineCpu pipe{pipe_mem};

    std::pair<RunResult, RunResult> run(const Program& program,
                                        std::uint64_t max_cycles = 0) {
        fast.reset(program);
        pipe.reset(program);
        return {fast.run(max_cycles), pipe.run(max_cycles)};
    }
};

TEST(PipelineEquivalence, TrivialProgram) {
    BothEngines engines;
    const auto [fast, pipe] =
        engines.run(assemble("  l.addi r3,r0,42\n  l.nop 1\n"));
    EXPECT_EQ(pipe.stop, StopReason::Halted);
    EXPECT_EQ(pipe.exit_code, 42u);
    EXPECT_EQ(pipe.instructions, fast.instructions);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, ForwardingChain) {
    // Back-to-back dependent ALU ops exercise the EX->EX bypass.
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.addi r4,r0,1\n"
        "  l.add  r5,r4,r4\n"
        "  l.add  r6,r5,r5\n"
        "  l.add  r7,r6,r6\n"
        "  l.ori  r3,r7,0\n"
        "  l.nop 1\n"));
    EXPECT_EQ(pipe.exit_code, 8u);
    EXPECT_EQ(pipe.exit_code, fast.exit_code);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, LoadUseInterlock) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.movhi r4,hi(d)\n  l.ori r4,r4,lo(d)\n"
        "  l.lwz r5,0(r4)\n"
        "  l.add r3,r5,r5\n"   // immediate use: one interlock bubble
        "  l.nop 1\n"
        ".org 0x8000\n"
        "d: .word 21\n"));
    EXPECT_EQ(pipe.exit_code, 42u);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, LoadWithIndependentUseHasNoStall) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.lwz r5,0(r0)\n"
        "  l.addi r6,r0,1\n"  // independent: fills the delay
        "  l.add r3,r5,r6\n"
        "  l.nop 1\n"));
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, TakenBranchFlush) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.addi r4,r0,5\n"
        "loop:\n"
        "  l.addi r4,r4,-1\n"
        "  l.sfnei r4,0\n"
        "  l.bf loop\n"
        "  l.ori r3,r4,0\n"
        "  l.nop 1\n"));
    EXPECT_EQ(pipe.exit_code, 0u);
    EXPECT_EQ(pipe.instructions, fast.instructions);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, JumpAndLinkReturn) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.jal sub\n"
        "  l.ori r3,r11,0\n"
        "  l.nop 1\n"
        "sub:\n"
        "  l.addi r11,r0,55\n"
        "  l.jr r9\n"));
    EXPECT_EQ(pipe.exit_code, 55u);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
}

TEST(PipelineEquivalence, WrongPathIsSquashed) {
    // The instructions after a taken branch must never execute — if they
    // did, r3 would be clobbered.
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.addi r3,r0,7\n"
        "  l.j skip\n"
        "  l.addi r3,r0,1\n"
        "  l.addi r3,r0,2\n"
        "  l.addi r3,r0,3\n"
        "skip:\n"
        "  l.nop 1\n"));
    EXPECT_EQ(pipe.exit_code, 7u);
    EXPECT_EQ(pipe.instructions, fast.instructions);
}

TEST(PipelineEquivalence, WrongPathFetchFaultIsHarmless) {
    // Memory ends right after the program: fetch runs ahead into invalid
    // addresses, and the poisoned slots must be squashed by the halt
    // before they reach EX.
    Memory tiny(8);
    PipelineCpu pipe(tiny);
    pipe.reset(assemble("  l.addi r3,r0,1\n  l.nop 1\n"));
    const RunResult run = pipe.run();
    EXPECT_EQ(run.stop, StopReason::Halted);
    EXPECT_EQ(run.exit_code, 1u);
}

TEST(PipelineEquivalence, FaultsMatch) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble(
        "  l.movhi r4,0xffff\n"
        "  l.lwz r5,0(r4)\n"
        "  l.nop 1\n"));
    EXPECT_EQ(fast.stop, StopReason::MemFault);
    EXPECT_EQ(pipe.stop, StopReason::MemFault);
    EXPECT_EQ(pipe.fault_addr, fast.fault_addr);
}

TEST(PipelineEquivalence, SelfLoopDetected) {
    BothEngines engines;
    const auto [fast, pipe] = engines.run(assemble("spin:\n  l.j spin\n"));
    EXPECT_EQ(fast.stop, StopReason::SelfLoop);
    EXPECT_EQ(pipe.stop, StopReason::SelfLoop);
}

class PipelineBenchmarkEquivalence
    : public ::testing::TestWithParam<BenchmarkId> {};

TEST_P(PipelineBenchmarkEquivalence, FaultFreeRunsMatchCycleForCycle) {
    const auto bench = make_benchmark(GetParam());
    BothEngines engines;
    const auto [fast, pipe] = engines.run(bench->program());
    ASSERT_EQ(fast.stop, StopReason::Halted);
    ASSERT_EQ(pipe.stop, StopReason::Halted);
    EXPECT_EQ(pipe.instructions, fast.instructions);
    EXPECT_EQ(pipe.cycles, fast.cycles + kFillCycles);
    EXPECT_EQ(bench->read_output(engines.pipe_mem),
              bench->read_output(engines.fast_mem));
}

TEST_P(PipelineBenchmarkEquivalence, FaultInjectionOutcomesMatch) {
    // Same fault model, same seed: the EX-stage event sequence is
    // identical in both engines, so outcomes must agree exactly.
    const auto bench = make_benchmark(GetParam());
    auto model_fast = testing::shared_core().make_model_c();
    auto model_pipe = testing::shared_core().make_model_c();
    OperatingPoint point;
    point.freq_mhz = 790.0;
    point.vdd = 0.7;
    point.noise.sigma_mv = 10.0;
    model_fast->set_operating_point(point);
    model_pipe->set_operating_point(point);

    for (std::uint64_t trial = 0; trial < 3; ++trial) {
        BothEngines engines;
        model_fast->reseed(trial);
        model_fast->reset_stats();
        model_pipe->reseed(trial);
        model_pipe->reset_stats();
        engines.fast.set_fault_hook(model_fast.get());
        engines.pipe.set_fault_hook(model_pipe.get());
        const auto [fast, pipe] = engines.run(bench->program(), 5'000'000);
        EXPECT_EQ(fast.stop, pipe.stop) << trial;
        EXPECT_EQ(model_fast->stats().injections, model_pipe->stats().injections)
            << trial;
        if (fast.stop == StopReason::Halted) {
            EXPECT_EQ(bench->read_output(engines.pipe_mem),
                      bench->read_output(engines.fast_mem))
                << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, PipelineBenchmarkEquivalence,
                         ::testing::ValuesIn(all_benchmarks()),
                         [](const ::testing::TestParamInfo<BenchmarkId>& info) {
                             return benchmark_name(info.param);
                         });

}  // namespace
}  // namespace sfi
