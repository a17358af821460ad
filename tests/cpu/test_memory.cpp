#include "cpu/memory.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace sfi {
namespace {

TEST(Memory, ReadWriteWord) {
    Memory m(4096);
    m.write_u32(16, 0xdeadbeefu);
    EXPECT_EQ(m.read_u32(16), 0xdeadbeefu);
}

TEST(Memory, LittleEndianByteOrder) {
    Memory m(4096);
    m.write_u32(0, 0x04030201u);
    EXPECT_EQ(m.read_u8(0), 1u);
    EXPECT_EQ(m.read_u8(1), 2u);
    EXPECT_EQ(m.read_u8(2), 3u);
    EXPECT_EQ(m.read_u8(3), 4u);
    EXPECT_EQ(m.read_u16(0), 0x0201u);
    EXPECT_EQ(m.read_u16(2), 0x0403u);
}

TEST(Memory, HalfAndByteWrites) {
    Memory m(64);
    m.write_u16(8, 0xbeefu);
    m.write_u8(10, 0x7f);
    EXPECT_EQ(m.read_u16(8), 0xbeefu);
    EXPECT_EQ(m.read_u8(10), 0x7fu);
}

TEST(Memory, MisalignedWordThrows) {
    Memory m(64);
    EXPECT_THROW(m.read_u32(2), MemFault);
    EXPECT_THROW(m.write_u32(1, 0), MemFault);
    EXPECT_THROW(m.read_u16(1), MemFault);
}

TEST(Memory, OutOfRangeThrows) {
    Memory m(64);
    EXPECT_THROW(m.read_u32(64), MemFault);
    EXPECT_THROW(m.read_u32(0xfffffffcu), MemFault);
    EXPECT_THROW(m.write_u8(64, 0), MemFault);
    EXPECT_NO_THROW(m.read_u32(60));
}

TEST(Memory, FaultCarriesAddress) {
    Memory m(64);
    try {
        m.read_u32(100);
        FAIL();
    } catch (const MemFault& f) {
        EXPECT_EQ(f.addr, 100u);
    }
}

TEST(Memory, LoadProgramSections) {
    Memory m(0x10000);
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x8000\n"
        "  .word 0x12345678\n");
    m.load(p);
    EXPECT_EQ(m.read_u32(0x8000), 0x12345678u);
    EXPECT_NE(m.read_u32(0), 0u);  // the l.nop encoding
}

TEST(Memory, LoadOutOfRangeSectionThrows) {
    Memory m(64);
    const Program p = assemble(".org 0x8000\n  .word 1\n");
    EXPECT_THROW(m.load(p), MemFault);
}

TEST(Memory, WriteGenerationAdvances) {
    Memory m(64);
    const std::uint64_t g0 = m.write_generation();
    m.write_u32(0, 1);
    EXPECT_GT(m.write_generation(), g0);
}

TEST(Memory, ClearZeroes) {
    Memory m(64);
    m.write_u32(8, 42);
    m.clear();
    EXPECT_EQ(m.read_u32(8), 0u);
}

TEST(Memory, InvalidSizeThrows) {
    EXPECT_THROW(Memory(0), std::invalid_argument);
    EXPECT_THROW(Memory(10), std::invalid_argument);
}

// clear() is dirty-range based (O(footprint), the PR 5 trial-reset
// optimization); these tests pin its correctness invariant: after clear()
// EVERY byte reads zero, wherever the writes landed.

TEST(Memory, ClearZeroesScatteredWritesIncludingExtremes) {
    Memory m(4096);
    m.write_u8(0, 0xff);          // lowest byte
    m.write_u32(2048, 0x1234u);   // middle
    m.write_u8(4095, 0xee);       // highest byte
    m.clear();
    for (std::uint32_t addr = 0; addr < 4096; addr += 4)
        ASSERT_EQ(m.read_u32(addr), 0u) << "addr " << addr;
}

TEST(Memory, DirtyRangeTracksFootprintAndResets) {
    Memory m(4096);
    EXPECT_EQ(m.dirty_bytes(), 0u);  // fresh memory is all-zero already
    m.write_u16(100, 0xffffu);
    m.write_u8(110, 1);
    EXPECT_EQ(m.dirty_bytes(), 11u);  // [100, 111)
    m.clear();
    EXPECT_EQ(m.dirty_bytes(), 0u);
    EXPECT_EQ(m.read_u16(100), 0u);
    EXPECT_EQ(m.read_u8(110), 0u);
    // Re-dirty after a clear: the range restarts from the new write.
    m.write_u8(5, 9);
    EXPECT_EQ(m.dirty_bytes(), 1u);
    m.clear();
    EXPECT_EQ(m.read_u8(5), 0u);
}

TEST(Memory, LoadMarksProgramSectionsDirty) {
    Memory m(0x10000);
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x8000\n"
        "  .word 0x12345678\n");
    m.load(p);
    m.clear();
    EXPECT_EQ(m.read_u32(0), 0u);
    EXPECT_EQ(m.read_u32(0x8000), 0u);
}

// checkpoint_image() / restore_image(): the per-trial Cpu::reset fast
// path. The invariant is stronger than "looks restored": every byte must
// equal the checkpoint state, wherever later writes landed, and the write
// generation must only advance when contents actually changed.

TEST(Memory, RestoreImageRevertsEveryByte) {
    Memory m(4096);
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x800\n"
        "  .word 0x12345678\n");
    m.load(p);
    m.checkpoint_image();
    ASSERT_TRUE(m.has_image());

    // Writes inside the image span, beyond it, and at the extremes.
    m.write_u32(0x800, 0xdeadbeefu);
    m.write_u8(0, 0x55);
    m.write_u32(0xc00, 0x777u);  // past every program section
    m.write_u8(4095, 0xee);
    ASSERT_GT(m.bytes_since_checkpoint(), 0u);

    ASSERT_TRUE(m.restore_image());
    EXPECT_EQ(m.bytes_since_checkpoint(), 0u);
    EXPECT_EQ(m.read_u32(0x800), 0x12345678u);
    EXPECT_NE(m.read_u32(0), 0u);  // the l.nop encoding survived
    EXPECT_EQ(m.read_u32(0xc00), 0u);
    EXPECT_EQ(m.read_u8(4095), 0u);
}

TEST(Memory, RestoreImageEqualsClearPlusLoad) {
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x100\n"
        "  .word 0xcafef00d\n");
    Memory restored(4096);
    restored.load(p);
    restored.checkpoint_image();
    restored.write_u32(0x100, 1u);
    restored.write_u32(0x400, 2u);
    ASSERT_TRUE(restored.restore_image());

    Memory reloaded(4096);
    reloaded.load(p);
    for (std::uint32_t addr = 0; addr < 4096; addr += 4)
        ASSERT_EQ(restored.read_u32(addr), reloaded.read_u32(addr))
            << "addr " << addr;
}

TEST(Memory, RestoreImageAdvancesWriteGenOnlyOnChange) {
    Memory m(4096);
    m.write_u32(64, 0xabcdu);
    m.checkpoint_image();

    // Nothing written since the checkpoint: restore is a no-op and must
    // NOT advance the generation (the ISS's micro-op stream stays trusted).
    const std::uint64_t g0 = m.write_generation();
    ASSERT_TRUE(m.restore_image());
    EXPECT_EQ(m.write_generation(), g0);

    m.write_u32(128, 7u);
    const std::uint64_t g1 = m.write_generation();
    ASSERT_TRUE(m.restore_image());
    EXPECT_GT(m.write_generation(), g1);
    EXPECT_EQ(m.read_u32(128), 0u);
    EXPECT_EQ(m.read_u32(64), 0xabcdu);
}

TEST(Memory, RestoreImageSupportsRepeatedTrialCycles) {
    // The MC loop's pattern: checkpoint once, then write+restore per trial.
    Memory m(4096);
    const Program p = assemble("  l.nop\n  .word 41\n");
    m.load(p);
    m.checkpoint_image();
    for (int trial = 0; trial < 4; ++trial) {
        m.write_u32(512 + 4 * trial, 0x1000u + trial);
        m.write_u8(4000, static_cast<std::uint8_t>(trial));
        ASSERT_TRUE(m.restore_image()) << "trial " << trial;
        EXPECT_EQ(m.read_u32(4), 41u) << "trial " << trial;
        EXPECT_EQ(m.read_u32(512 + 4 * trial), 0u) << "trial " << trial;
        EXPECT_EQ(m.read_u8(4000), 0u) << "trial " << trial;
    }
}

TEST(Memory, ClearDiscardsTheImage) {
    Memory m(64);
    m.write_u32(8, 42u);
    m.checkpoint_image();
    m.clear();
    EXPECT_FALSE(m.has_image());
    EXPECT_FALSE(m.restore_image());  // no checkpoint: reports failure
    EXPECT_EQ(m.read_u32(8), 0u);
}

TEST(Memory, FreshMemoryHasNoImage) {
    Memory m(64);
    EXPECT_FALSE(m.has_image());
    EXPECT_FALSE(m.restore_image());
}

TEST(Memory, RepeatedLoadClearCyclesStayClean) {
    // The trial loop's access pattern: load -> run (writes) -> clear.
    Memory m(4096);
    const Program p = assemble("  l.nop\n  .word 7\n");
    for (int cycle = 0; cycle < 3; ++cycle) {
        m.clear();
        m.load(p);
        m.write_u32(512, 0xabcdef01u);
        EXPECT_EQ(m.read_u32(512), 0xabcdef01u);
        m.clear();
        for (std::uint32_t addr = 0; addr < 4096; addr += 4)
            ASSERT_EQ(m.read_u32(addr), 0u) << "cycle " << cycle;
    }
}

// The image lives on demand-zero pages (util/zero_pages.hpp) instead of a
// value-initialized vector: a fresh image must still read zero across the
// full default 1 MiB, and the dirty-range invariants must hold on it.

TEST(Memory, FreshDefaultImageReadsZeroEverywhere) {
    Memory m;
    ASSERT_EQ(m.size(), Memory::kDefaultSize);
    for (std::uint32_t addr = 0; addr < m.size(); addr += 4)
        ASSERT_EQ(m.read_u32(addr), 0u) << "addr " << addr;
    EXPECT_EQ(m.dirty_bytes(), 0u);
    // The last word is addressable and writable like any other.
    m.write_u32(m.size() - 4, 0x600dd00du);
    EXPECT_EQ(m.read_u32(m.size() - 4), 0x600dd00du);
}

TEST(Memory, IsPinnedForTheCpuThatBindsIt) {
    // A Cpu keeps a reference to its Memory: neither copies nor moves.
    static_assert(!std::is_copy_constructible_v<Memory>);
    static_assert(!std::is_copy_assignable_v<Memory>);
    static_assert(!std::is_move_constructible_v<Memory>);
    static_assert(!std::is_move_assignable_v<Memory>);
}

TEST(Memory, ClearAndRestoreSpanTheFullDefaultImage) {
    // Writes at both ends and in the middle of the 1 MiB image: restore
    // reverts them to the checkpoint, clear zeroes them, and every page
    // of the image reads as expected afterwards.
    Memory m;
    const std::uint32_t top = m.size() - 4;
    const Program p = assemble(
        "  l.nop\n"
        ".org 0x80000\n"
        "  .word 0x12345678\n");
    m.load(p);
    m.checkpoint_image();
    m.write_u32(0, 0xdeadbeefu);
    m.write_u32(0x80000, 0x1u);
    m.write_u32(top, 0xfeedfaceu);
    ASSERT_TRUE(m.restore_image());
    EXPECT_NE(m.read_u32(0), 0xdeadbeefu);
    EXPECT_EQ(m.read_u32(0x80000), 0x12345678u);
    EXPECT_EQ(m.read_u32(top), 0u);
    for (std::uint32_t addr = 4; addr < m.size(); addr += 4096)
        ASSERT_EQ(m.read_u32(addr), 0u) << "addr " << addr;  // one per page

    m.write_u32(top, 0xfeedfaceu);
    m.clear();
    for (std::uint32_t addr = 0; addr < m.size(); addr += 4)
        ASSERT_EQ(m.read_u32(addr), 0u) << "addr " << addr;
    EXPECT_FALSE(m.has_image());
}

}  // namespace
}  // namespace sfi
