#include "cpu/cpu.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "isa/encoding.hpp"

namespace sfi {
namespace {

struct CpuTest : ::testing::Test {
    Memory memory{1 << 16};
    Cpu cpu{memory};

    RunResult run(const std::string& source, std::uint64_t max_cycles = 0) {
        cpu.reset(assemble(source));
        return cpu.run(max_cycles);
    }
};

TEST_F(CpuTest, HaltReturnsExitCode) {
    const RunResult r = run(
        "  l.addi r3,r0,42\n"
        "  l.nop 1\n");
    EXPECT_EQ(r.stop, StopReason::Halted);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.exit_code, 42u);
    EXPECT_EQ(r.instructions, 2u);
}

TEST_F(CpuTest, R0IsHardwiredZero) {
    run(
        "  l.addi r0,r0,5\n"
        "  l.ori r3,r0,0\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(0), 0u);
    EXPECT_EQ(cpu.reg(3), 0u);
}

TEST_F(CpuTest, ArithmeticAndLogic) {
    run(
        "  l.addi r4,r0,100\n"
        "  l.addi r5,r0,7\n"
        "  l.add  r6,r4,r5\n"
        "  l.sub  r7,r4,r5\n"
        "  l.and  r8,r4,r5\n"
        "  l.or   r10,r4,r5\n"
        "  l.xor  r11,r4,r5\n"
        "  l.mul  r12,r4,r5\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(6), 107u);
    EXPECT_EQ(cpu.reg(7), 93u);
    EXPECT_EQ(cpu.reg(8), 100u & 7u);
    EXPECT_EQ(cpu.reg(10), 100u | 7u);
    EXPECT_EQ(cpu.reg(11), 100u ^ 7u);
    EXPECT_EQ(cpu.reg(12), 700u);
}

TEST_F(CpuTest, ShiftSemantics) {
    run(
        "  l.addi r4,r0,-16\n"
        "  l.slli r5,r4,2\n"
        "  l.srli r6,r4,2\n"
        "  l.srai r7,r4,2\n"
        "  l.addi r8,r0,33\n"   // shift amount masked to 1
        "  l.sll  r10,r4,r8\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(5), static_cast<std::uint32_t>(-64));
    EXPECT_EQ(cpu.reg(6), 0xfffffff0u >> 2);
    EXPECT_EQ(cpu.reg(7), static_cast<std::uint32_t>(-4));
    EXPECT_EQ(cpu.reg(10), static_cast<std::uint32_t>(-32));
}

TEST_F(CpuTest, MovhiOriBuildsConstants) {
    run(
        "  l.movhi r4,0xdead\n"
        "  l.ori r4,r4,0xbeef\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(4), 0xdeadbeefu);
}

TEST_F(CpuTest, LoadsAndStores) {
    run(
        "  l.movhi r4,hi(buf)\n"
        "  l.ori r4,r4,lo(buf)\n"
        "  l.movhi r5,0x1234\n"
        "  l.ori r5,r5,0x5678\n"
        "  l.sw 0(r4),r5\n"
        "  l.lwz r6,0(r4)\n"
        "  l.lbz r7,0(r4)\n"
        "  l.lhz r8,2(r4)\n"
        "  l.sb 4(r4),r5\n"
        "  l.sh 6(r4),r5\n"
        "  l.lwz r10,4(r4)\n"
        "  l.nop 1\n"
        ".org 0x8000\n"
        "buf: .space 16\n");
    EXPECT_EQ(cpu.reg(6), 0x12345678u);
    EXPECT_EQ(cpu.reg(7), 0x78u);
    EXPECT_EQ(cpu.reg(8), 0x1234u);
    EXPECT_EQ(cpu.reg(10), 0x78u | (0x5678u << 16));
}

TEST_F(CpuTest, CompareAndBranch) {
    const RunResult r = run(
        "  l.addi r4,r0,3\n"
        "  l.addi r5,r0,0\n"
        "loop:\n"
        "  l.addi r5,r5,10\n"
        "  l.addi r4,r4,-1\n"
        "  l.sfnei r4,0\n"
        "  l.bf loop\n"
        "  l.ori r3,r5,0\n"
        "  l.nop 1\n");
    EXPECT_EQ(r.exit_code, 30u);
}

TEST_F(CpuTest, SignedVsUnsignedCompare) {
    run(
        "  l.addi r4,r0,-1\n"      // 0xffffffff
        "  l.addi r5,r0,1\n"
        "  l.addi r6,r0,0\n"
        "  l.sfltu r4,r5\n"        // unsigned: max < 1 is false
        "  l.bf skip1\n"
        "  l.addi r6,r6,1\n"
        "skip1:\n"
        "  l.sflts r4,r5\n"        // signed: -1 < 1 is true
        "  l.bf skip2\n"
        "  l.addi r6,r6,100\n"
        "skip2:\n"
        "  l.ori r3,r6,0\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(3), 1u);
}

TEST_F(CpuTest, JumpAndLink) {
    const RunResult r = run(
        "  l.jal sub\n"
        "  l.ori r3,r11,0\n"
        "  l.nop 1\n"
        "sub:\n"
        "  l.addi r11,r0,55\n"
        "  l.jr r9\n");
    EXPECT_EQ(r.exit_code, 55u);
}

TEST_F(CpuTest, JalrLinksAndJumps) {
    const RunResult r = run(
        "  l.movhi r5,hi(dest)\n"
        "  l.ori r5,r5,lo(dest)\n"
        "  l.jalr r5\n"
        "  l.nop 1\n"             // returned here
        "dest:\n"
        "  l.addi r3,r0,9\n"
        "  l.jr r9\n");
    EXPECT_EQ(r.exit_code, 9u);
}

TEST_F(CpuTest, SelfLoopDetected) {
    const RunResult r = run(
        "spin:\n"
        "  l.j spin\n");
    EXPECT_EQ(r.stop, StopReason::SelfLoop);
    EXPECT_FALSE(r.finished());
}

TEST_F(CpuTest, ConditionalSelfLoopDetectedWhenTaken) {
    const RunResult r = run(
        "  l.sfeqi r0,0\n"
        "spin:\n"
        "  l.bf spin\n");
    EXPECT_EQ(r.stop, StopReason::SelfLoop);
}

TEST_F(CpuTest, WatchdogStopsRunawayLoop) {
    const RunResult r = run(
        "loop:\n"
        "  l.addi r4,r4,1\n"
        "  l.j loop\n",
        5000);
    EXPECT_EQ(r.stop, StopReason::Watchdog);
    EXPECT_GE(r.cycles, 5000u);
}

TEST_F(CpuTest, MemFaultOnWildLoad) {
    const RunResult r = run(
        "  l.movhi r4,0xffff\n"
        "  l.lwz r5,0(r4)\n"
        "  l.nop 1\n");
    EXPECT_EQ(r.stop, StopReason::MemFault);
    EXPECT_FALSE(r.finished());
}

TEST_F(CpuTest, MemFaultOnMisalignedStore) {
    const RunResult r = run(
        "  l.addi r4,r0,2\n"
        "  l.sw 0(r4),r4\n"
        "  l.nop 1\n");
    EXPECT_EQ(r.stop, StopReason::MemFault);
    EXPECT_EQ(r.fault_addr, 2u);
}

TEST_F(CpuTest, IllegalInstructionStops) {
    Memory& m = cpu.memory();
    cpu.reset(assemble("l.nop\n"));
    m.write_u32(0, 0xffffffffu);
    const RunResult r = cpu.run();
    EXPECT_EQ(r.stop, StopReason::IllegalInstr);
}

TEST_F(CpuTest, FetchFaultWhenPcEscapes) {
    const RunResult r = run(
        "  l.movhi r4,0x0100\n"   // beyond the 64 KiB test memory
        "  l.jr r4\n");
    EXPECT_EQ(r.stop, StopReason::FetchFault);
}

TEST_F(CpuTest, KernelMarkersToggleFiWindow) {
    run(
        "  l.addi r4,r0,1\n"
        "  l.nop 0x10\n"
        "  l.addi r4,r4,1\n"
        "  l.addi r4,r4,1\n"
        "  l.nop 0x11\n"
        "  l.addi r4,r4,1\n"
        "  l.nop 1\n");
    EXPECT_FALSE(cpu.fi_active());
}

TEST_F(CpuTest, KernelCycleCountingCoversOnlyWindow) {
    const RunResult r = run(
        "  l.addi r4,r0,1\n"
        "  l.nop 0x10\n"
        "  l.addi r4,r4,1\n"
        "  l.nop 0x11\n"
        "  l.addi r4,r4,1\n"
        "  l.nop 1\n");
    EXPECT_GT(r.kernel_cycles, 0u);
    EXPECT_LT(r.kernel_cycles, r.cycles);
    // begin marker + one addi retire inside the window; the end marker's
    // cycle is still inside but it retires after closing the window.
    EXPECT_EQ(r.kernel_instructions, 2u);
    EXPECT_EQ(r.kernel_cycles, 3u);
}

TEST_F(CpuTest, TakenBranchCostsFlushPenalty) {
    // not-taken path: sfeqi + bf + nop 1 -> 3 cycles
    const RunResult nt = run(
        "  l.sfeqi r0,1\n"
        "  l.bf away\n"
        "  l.nop 1\n"
        "away:\n"
        "  l.nop 1\n");
    // taken path adds the flush penalty
    const RunResult t = run(
        "  l.sfeqi r0,0\n"
        "  l.bf away\n"
        "  l.nop 1\n"
        "away:\n"
        "  l.nop 1\n");
    EXPECT_EQ(nt.cycles, 3u);
    EXPECT_EQ(t.cycles, 3u + PipelineTiming{}.taken_branch_flush);
}

TEST_F(CpuTest, LoadUseHazardAddsStall) {
    const RunResult dependent = run(
        "  l.lwz r4,0(r0)\n"
        "  l.add r5,r4,r4\n"
        "  l.nop 1\n");
    const RunResult independent = run(
        "  l.lwz r4,0(r0)\n"
        "  l.add r5,r6,r6\n"
        "  l.nop 1\n");
    EXPECT_EQ(dependent.cycles, independent.cycles + 1);
}

TEST_F(CpuTest, IpcIsCloseToOneForStraightLineAlu) {
    std::string source;
    for (int i = 0; i < 200; ++i) source += "  l.addi r4,r4,1\n";
    source += "  l.nop 1\n";
    const RunResult r = run(source);
    EXPECT_GT(r.ipc(), 0.99);
}

struct CountingHook final : ExFaultHook {
    std::uint64_t cycles = 0, fi_cycles = 0, alu_events = 0;
    std::vector<ExClass> classes;
    std::uint32_t force_value = 0;
    bool force = false;

    void on_cycle(bool fi_active) override {
        ++cycles;
        if (fi_active) ++fi_cycles;
    }
    std::uint32_t on_ex_result(const ExEvent& ev, std::uint32_t correct) override {
        ++alu_events;
        classes.push_back(ev.cls);
        return force ? force_value : correct;
    }
};

TEST_F(CpuTest, HookSeesOnlyKernelAluOps) {
    CountingHook hook;
    cpu.set_fault_hook(&hook);
    run(
        "  l.addi r4,r0,1\n"      // outside window: not offered
        "  l.nop 0x10\n"
        "  l.addi r4,r4,1\n"
        "  l.mul r5,r4,r4\n"
        "  l.lwz r6,0(r0)\n"      // load: never offered
        "  l.nop 0x11\n"
        "  l.addi r4,r4,1\n"      // outside again
        "  l.nop 1\n");
    EXPECT_EQ(hook.alu_events, 2u);
    ASSERT_EQ(hook.classes.size(), 2u);
    EXPECT_EQ(hook.classes[0], ExClass::Add);
    EXPECT_EQ(hook.classes[1], ExClass::Mul);
    EXPECT_EQ(hook.cycles, cpu.cycles());
}

TEST_F(CpuTest, HookCorruptionPropagatesToRegister) {
    CountingHook hook;
    hook.force = true;
    hook.force_value = 0x1234u;
    cpu.set_fault_hook(&hook);
    run(
        "  l.nop 0x10\n"
        "  l.addi r4,r0,1\n"
        "  l.nop 0x11\n"
        "  l.nop 1\n");
    EXPECT_EQ(cpu.reg(4), 0x1234u);
}

TEST_F(CpuTest, CorruptedCompareFlipsBranch) {
    CountingHook hook;
    hook.force = true;
    hook.force_value = 1;  // non-zero difference -> "not equal"
    cpu.set_fault_hook(&hook);
    const RunResult r = run(
        "  l.nop 0x10\n"
        "  l.sfeqi r0,0\n"        // truly equal, but diff corrupted to 1
        "  l.nop 0x11\n"
        "  l.bf good\n"
        "  l.addi r3,r0,7\n"      // branch not taken -> flag was corrupted
        "  l.nop 1\n"
        "good:\n"
        "  l.addi r3,r0,1\n"
        "  l.nop 1\n");
    EXPECT_EQ(r.exit_code, 7u);
}

TEST_F(CpuTest, TraceCallbackFires) {
    struct Step {
        std::uint32_t pc;
        Op op;
        bool fi;
    };
    std::vector<Step> steps;
    cpu.set_trace([&](std::uint32_t pc, Op op, bool fi) {
        steps.push_back({pc, op, fi});
    });
    run("  l.nop 0x10\n  l.addi r3,r0,1\n  l.nop 0x11\n  l.nop 1\n");
    ASSERT_EQ(steps.size(), 4u);
    const std::uint32_t pcs[] = {0, 4, 8, 12};
    // The flag is the window state before each instruction executes: the
    // begin marker still sees it closed, the end marker still open.
    const bool fis[] = {false, true, true, false};
    for (std::size_t i = 0; i < steps.size(); ++i) {
        EXPECT_EQ(steps[i].pc, pcs[i]) << i;
        EXPECT_EQ(steps[i].fi, fis[i]) << i;
    }
    EXPECT_EQ(steps[1].op, Op::ADDI);
    EXPECT_EQ(steps[3].op, Op::NOP);
}

TEST_F(CpuTest, TraceRefusesToRunWithAFaultHook) {
    CountingHook hook;
    cpu.set_fault_hook(&hook);
    cpu.set_trace([](std::uint32_t, Op, bool) {});
    cpu.reset(assemble("  l.nop 1\n"));
    EXPECT_THROW(cpu.run(), std::logic_error);
    cpu.set_trace(nullptr);
    EXPECT_EQ(cpu.run().stop, StopReason::Halted);
}

// reset() fast path: when the same Program is reset repeatedly (the MC
// trial loop), the checkpointed memory image is restored instead of a
// full clear+load. The contract is that a fast reset is observationally
// identical to a full one — these tests run programs whose OUTCOME
// depends on pristine initial memory, so a leaky reset changes exit
// codes rather than passing silently.

namespace {
// Increments an in-section counter word and exits with its new value:
// returns 1 on pristine memory, 2+ if a previous trial's write survived.
const char* const kCounterSource =
    "  l.movhi r4,hi(counter)\n"
    "  l.ori r4,r4,lo(counter)\n"
    "  l.lwz r3,0(r4)\n"
    "  l.addi r3,r3,1\n"
    "  l.sw 0(r4),r3\n"
    "  l.nop 1\n"
    "counter:\n"
    "  .word 0\n";
}  // namespace

TEST_F(CpuTest, RepeatedResetOfSameProgramRestoresInitialState) {
    const Program p = assemble(kCounterSource);
    cpu.reset(p);
    const RunResult first = cpu.run();
    ASSERT_EQ(first.stop, StopReason::Halted);
    ASSERT_EQ(first.exit_code, 1u);
    std::vector<std::uint32_t> regs_first(32);
    for (std::uint8_t i = 0; i < 32; ++i) regs_first[i] = cpu.reg(i);

    for (int trial = 0; trial < 3; ++trial) {
        cpu.reset(p);  // same Program object: eligible for the fast path
        const RunResult again = cpu.run();
        EXPECT_EQ(again.stop, StopReason::Halted) << "trial " << trial;
        EXPECT_EQ(again.exit_code, 1u) << "trial " << trial;
        EXPECT_EQ(again.cycles, first.cycles) << "trial " << trial;
        EXPECT_EQ(again.instructions, first.instructions) << "trial " << trial;
        for (std::uint8_t i = 0; i < 32; ++i)
            ASSERT_EQ(cpu.reg(i), regs_first[i])
                << "trial " << trial << " reg " << int(i);
    }
}

TEST_F(CpuTest, FastResetRevertsWritesOutsideProgramSections) {
    // The program also scribbles far beyond its own image; after a fast
    // reset, memory must be word-for-word what a fresh clear+load gives.
    const Program p = assemble(
        "  l.movhi r4,0x0000\n"
        "  l.ori r4,r4,0x8000\n"
        "  l.addi r5,r0,77\n"
        "  l.sw 0(r4),r5\n"
        "  l.sw 0x100(r4),r5\n"
        "  l.addi r3,r0,1\n"
        "  l.nop 1\n");
    cpu.reset(p);
    ASSERT_EQ(cpu.run().exit_code, 1u);
    cpu.reset(p);

    Memory pristine{1 << 16};
    pristine.load(p);
    for (std::uint32_t addr = 0; addr < (1u << 16); addr += 4)
        ASSERT_EQ(memory.read_u32(addr), pristine.read_u32(addr))
            << "addr " << addr;
}

TEST_F(CpuTest, ResetToADifferentProgramSwitchesCleanly) {
    const Program counter = assemble(kCounterSource);
    const Program other = assemble("  l.addi r3,r0,9\n  l.nop 1\n");
    cpu.reset(counter);
    EXPECT_EQ(cpu.run().exit_code, 1u);
    cpu.reset(other);
    EXPECT_EQ(cpu.run().exit_code, 9u);
    cpu.reset(counter);  // back again: still sees a zeroed counter word
    EXPECT_EQ(cpu.run().exit_code, 1u);
}

TEST_F(CpuTest, ReassembledProgramIsNotMistakenForTheCachedOne) {
    // Re-assigning a fresh assembly into the SAME Program object reuses
    // its address: the identity signature must look at contents, not the
    // pointer, or the stale checkpoint image would resurrect program A.
    Program p = assemble(kCounterSource);
    cpu.reset(p);
    EXPECT_EQ(cpu.run().exit_code, 1u);
    p = assemble("  l.addi r3,r0,33\n  l.nop 1\n");
    cpu.reset(p);
    EXPECT_EQ(cpu.run().exit_code, 33u);
}

TEST_F(CpuTest, SelfModifyingCodeInvalidatesDecodeCache) {
    // The instruction at `patch` (l.addi r3,r0,1) is executed once, then
    // overwritten with l.addi r3,r0,2 and executed again: a stale decode
    // cache would loop forever on r3 == 1.
    const std::uint32_t new_word = encode({Op::ADDI, 3, 0, 0, 2});
    const RunResult r = run(
        "  l.movhi r4,hi(patch)\n"
        "  l.ori r4,r4,lo(patch)\n"
        "  l.movhi r5," +
        std::to_string(new_word >> 16) +
        "\n"
        "  l.ori r5,r5," +
        std::to_string(new_word & 0xffffu) +
        "\n"
        "patch:\n"
        "  l.addi r3,r0,1\n"
        "  l.sfeqi r3,2\n"
        "  l.bf done\n"
        "  l.sw 0(r4),r5\n"       // patch the instruction, retry
        "  l.j patch\n"
        "done:\n"
        "  l.nop 1\n",
        10000);
    EXPECT_EQ(r.stop, StopReason::Halted);
    EXPECT_EQ(r.exit_code, 2u);
}

}  // namespace
}  // namespace sfi
