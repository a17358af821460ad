// Micro-op stream coherence edge cases:
//
//   * generation-stamp rollover — the stream marks validity with a
//     monotone stamp and must survive it wrapping (fast-forwarded via the
//     Cpu debug hooks; unreachable in real runs),
//   * self-modifying code — a store into the executed image must be
//     visible to the very next fetch of that word,
//   * external memory mutation between reset() and run() — writes and
//     Memory::clear() bypass the Cpu entirely and must still invalidate
//     the stream (write-generation coherence guard),
//   * prime_decode() — priming is idempotent and never makes a stale
//     stream trusted before a reset,
//   * footprint — the stream spans the whole image, but only the pages
//     of words a kernel actually lowers become resident.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <vector>

#include "cpu/cpu.hpp"
#include "isa/encoding.hpp"
#include "isa/isa.hpp"

namespace sfi {
namespace {

Program words_to_program(const std::vector<std::uint32_t>& words) {
    Program::Section code;
    code.addr = 0;
    for (const std::uint32_t w : words) {
        code.bytes.push_back(static_cast<std::uint8_t>(w));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 8));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 16));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 24));
    }
    Program p;
    p.sections.push_back(std::move(code));
    return p;
}

/// `ori r3, r0, value; l.nop exit` — exits with `value`.
Program exit_with(std::uint32_t value) {
    return words_to_program({
        encode({Op::ORI, 3, 0, 0, static_cast<std::int32_t>(value)}),
        encode({Op::NOP, 0, 0, 0, kNopExit}),
    });
}

// ---------------------------------------------------------------------------
// Generation-stamp rollover.
// ---------------------------------------------------------------------------

TEST(DecodeCache, ThreadedGenerationRolloverWipesStaleUops) {
    Memory mem(1 << 12);
    Cpu cpu(mem);

    cpu.reset(exit_with(7));
    EXPECT_EQ(cpu.run().exit_code, 7u);
    ASSERT_NE(cpu.debug_interp_generation(), 0u);

    // Stamp the lowered stream at the wrap boundary, then force a
    // wholesale invalidation (different program hash): bump_gen() must
    // wipe every micro-op back to the permanent-invalid stamp and restart
    // at 1 instead of letting stale uops alias the new program.
    cpu.debug_set_interp_generation(0xffffffffu);
    cpu.reset(exit_with(9));
    EXPECT_EQ(cpu.debug_interp_generation(), 1u);
    EXPECT_EQ(cpu.run().exit_code, 9u);

    cpu.reset(exit_with(11));
    EXPECT_EQ(cpu.run().exit_code, 11u);
}

// ---------------------------------------------------------------------------
// Self-modifying code: patch an already-executed instruction and loop
// back over it. A stale micro-op exits with the old value.
// ---------------------------------------------------------------------------

Program self_patching_program() {
    const std::uint32_t patch = encode({Op::ORI, 3, 0, 0, 5});
    return words_to_program({
        /*0*/ encode({Op::MOVHI, 4, 0, 0, static_cast<std::int32_t>(patch >> 16)}),
        /*1*/ encode({Op::ORI, 4, 4, 0, static_cast<std::int32_t>(patch & 0xffffu)}),
        /*2*/ encode({Op::ORI, 3, 0, 0, 1}),     // patched to ori r3,r0,5
        /*3*/ encode({Op::SFEQI, 0, 5, 0, 0}),   // pass 1: r5==0 -> flag set
        /*4*/ encode({Op::BNF, 0, 0, 0, 4}),     // pass 2: exit
        /*5*/ encode({Op::ORI, 5, 0, 0, 1}),
        /*6*/ encode({Op::SW, 0, 0, 4, 8}),      // mem[8] = r4 (patch word 2)
        /*7*/ encode({Op::J, 0, 0, 0, -5}),      // back to word 2
        /*8*/ encode({Op::NOP, 0, 0, 0, kNopExit}),
    });
}

TEST(DecodeCache, StoreToExecutedCodeIsVisible) {
    Memory mem(1 << 12);
    Cpu cpu(mem);
    cpu.reset(self_patching_program());
    const RunResult run = cpu.run(1000);
    EXPECT_EQ(int(run.stop), int(StopReason::Halted));
    EXPECT_EQ(run.exit_code, 5u);

    // reset() reverts memory to the pristine image; a micro-op lowered
    // from the patched bytes must not survive into the next run
    // (relower_risk protocol). The re-run must patch again, not start
    // from the patched decode.
    cpu.reset(self_patching_program());
    EXPECT_EQ(cpu.memory().read_u32(8), encode({Op::ORI, 3, 0, 0, 1}));
    EXPECT_EQ(cpu.run(1000).exit_code, 5u);
}

// ---------------------------------------------------------------------------
// External mutation between reset() and run(): the coherence guard keys
// on Memory's write generation, which every external write and clear()
// bumps.
// ---------------------------------------------------------------------------

TEST(DecodeCache, ExternalWriteAfterResetIsPickedUp) {
    Memory mem(1 << 12);
    Cpu cpu(mem);

    // Warm the stream with the original word first.
    cpu.reset(exit_with(1));
    EXPECT_EQ(cpu.run().exit_code, 1u);

    // Patch word 0 behind the Cpu's back, post-reset.
    cpu.reset(exit_with(1));
    mem.write_u32(0, encode({Op::ORI, 3, 0, 0, 9}));
    EXPECT_EQ(cpu.run().exit_code, 9u);
}

TEST(DecodeCache, ExternalClearAfterResetIsPickedUp) {
    Memory mem(1 << 12);
    Cpu cpu(mem);
    cpu.reset(exit_with(1));
    EXPECT_EQ(cpu.run().exit_code, 1u);

    // A cleared image is all zeroes, which decode as `l.j 0`: the run
    // must stop immediately as a self-loop at pc 0, not replay the
    // cached program.
    cpu.reset(exit_with(1));
    mem.clear();
    const RunResult run = cpu.run(100);
    EXPECT_EQ(int(run.stop), int(StopReason::SelfLoop));
    EXPECT_EQ(run.instructions, 0u);
}

// ---------------------------------------------------------------------------
// prime_decode(): idempotent, and never trusts the stream before a reset.
// ---------------------------------------------------------------------------

TEST(DecodeCache, PrimeDecodeIsIdempotentAndUntrustedUntilReset) {
    const Program program = exit_with(3);
    Memory mem(1 << 12);
    Cpu cpu(mem);

    EXPECT_EQ(cpu.prime_decode(program), 2u);  // both words lowered
    EXPECT_EQ(cpu.prime_decode(program), 0u);  // hash match: no re-lower

    // Priming must not let run() execute before any reset loaded memory:
    // the image is still all zeroes here, so a trusted-but-stale stream
    // would wrongly exit with 3.
    const RunResult unloaded = cpu.run(100);
    EXPECT_EQ(int(unloaded.stop), int(StopReason::SelfLoop));

    cpu.reset(program);
    EXPECT_EQ(cpu.run().exit_code, 3u);
    EXPECT_EQ(cpu.prime_decode(program), 0u);  // still current after runs

    // A different program re-primes in full.
    EXPECT_EQ(cpu.prime_decode(exit_with(4)), 2u);
    cpu.reset(exit_with(4));
    EXPECT_EQ(cpu.run().exit_code, 4u);
}

// ---------------------------------------------------------------------------
// Resident footprint.
// ---------------------------------------------------------------------------

/// The process's resident set in bytes, per /proc/self/statm.
std::int64_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::int64_t pages = 0;
    std::int64_t resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(DecodeCache, StreamOverAFullImageStaysOffTheResidentSet) {
    // One 20-byte micro-op per word of a 1 MiB image is a 5 MiB stream. A
    // two-instruction kernel lowers two words of it: the run may make a
    // page or two resident, never the stream.
    const std::int64_t before = resident_bytes();
    Memory mem;
    Cpu cpu(mem);
    cpu.reset(exit_with(7));
    EXPECT_EQ(cpu.run().exit_code, 7u);
    EXPECT_LT(resident_bytes() - before, std::int64_t{1} << 20);
}

}  // namespace
}  // namespace sfi
