// Flat byte-addressable memory modeling the single-cycle SRAM macros of
// the case-study core (paper §2.1). Accesses outside the configured size
// or with bad alignment raise MemFault, which the ISS turns into a
// "did not finish" program outcome.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "isa/assembler.hpp"
#include "util/zero_pages.hpp"

namespace sfi {

/// Thrown on out-of-range or misaligned accesses.
struct MemFault : std::runtime_error {
    MemFault(std::uint32_t addr, const char* what_kind);
    std::uint32_t addr;
};

class Memory {
public:
    /// Creates a zero-initialized memory of `size` bytes (word multiple).
    /// The image lives on demand-zero pages (util/zero_pages.hpp): only
    /// the pages a program writes become resident, and destruction hands
    /// them back to the OS — a 1 MiB image whose kernel touches a few KiB
    /// costs a few KiB.
    explicit Memory(std::uint32_t size = kDefaultSize);

    /// Pinned: a Cpu binds to its Memory by reference, so the image is
    /// neither copied nor moved.
    Memory(const Memory&) = delete;
    Memory& operator=(const Memory&) = delete;

    static constexpr std::uint32_t kDefaultSize = 1u << 20;  // 1 MiB

    std::uint32_t size() const { return static_cast<std::uint32_t>(bytes_.size()); }

    /// Copies all sections of an assembled program into memory.
    void load(const Program& program);

    // Little-endian accessors. Word/half accesses must be aligned.
    // Defined inline: they sit on the ISS's per-instruction path, where an
    // out-of-line call per load/store is measurable against the rest of
    // the interpreter loop.
    std::uint32_t read_u32(std::uint32_t addr) const {
        check(addr, 4);
        return read_u32_unchecked(addr);
    }
    std::uint16_t read_u16(std::uint32_t addr) const {
        check(addr, 2);
        return read_u16_unchecked(addr);
    }
    std::uint8_t read_u8(std::uint32_t addr) const {
        check(addr, 1);
        return bytes_[addr];
    }
    void write_u32(std::uint32_t addr, std::uint32_t value) {
        check(addr, 4);
        write_u32_unchecked(addr, value);
    }
    void write_u16(std::uint32_t addr, std::uint16_t value) {
        check(addr, 2);
        write_u16_unchecked(addr, value);
    }
    void write_u8(std::uint32_t addr, std::uint8_t value) {
        check(addr, 1);
        write_u8_unchecked(addr, value);
    }

    /// The validity predicate of check() without the throw: true iff an
    /// `n`-byte access at `addr` is in range and (for n > 1) aligned. The
    /// ISS's load/store kernels branch on this and fault via
    /// StopReason::MemFault with fault_addr = addr — exactly the address
    /// check() would have put in the thrown MemFault.
    bool access_ok(std::uint32_t addr, std::uint32_t n) const {
        return !(addr > bytes_.size() || bytes_.size() - addr < n) &&
               !(n > 1 && addr % n != 0);
    }

    // Unchecked forms for callers that already verified access_ok();
    // writes still maintain the dirty range and the write generation.
    std::uint32_t read_u32_unchecked(std::uint32_t addr) const {
        std::uint32_t v;
        std::memcpy(&v, bytes_.data() + addr, 4);
        return v;  // host is little-endian (static_assert in memory.cpp)
    }
    std::uint16_t read_u16_unchecked(std::uint32_t addr) const {
        std::uint16_t v;
        std::memcpy(&v, bytes_.data() + addr, 2);
        return v;
    }
    std::uint8_t read_u8_unchecked(std::uint32_t addr) const {
        return bytes_[addr];
    }
    void write_u32_unchecked(std::uint32_t addr, std::uint32_t value) {
        std::memcpy(bytes_.data() + addr, &value, 4);
        touch(addr, 4);
        ++write_gen_;
    }
    void write_u16_unchecked(std::uint32_t addr, std::uint16_t value) {
        std::memcpy(bytes_.data() + addr, &value, 2);
        touch(addr, 2);
        ++write_gen_;
    }
    void write_u8_unchecked(std::uint32_t addr, std::uint8_t value) {
        bytes_[addr] = value;
        touch(addr, 1);
        ++write_gen_;
    }

    /// Monotone counter bumped on every write; the ISS's micro-op stream
    /// uses it to detect writes that bypassed the Cpu.
    std::uint64_t write_generation() const { return write_gen_; }

    /// Resets contents to zero (keeps size). O(dirty footprint), not
    /// O(size): only the byte range touched since the last clear is
    /// re-zeroed — everything outside it is zero by the class invariant.
    /// This is what makes per-trial Cpu::reset cost proportional to the
    /// benchmark's working set instead of the full 1 MiB image.
    /// Also discards any checkpoint image (its bytes are gone).
    void clear();

    /// Snapshots the current contents as the restore image for
    /// restore_image() — in practice the post-load program image, taken
    /// by Cpu::reset. O(dirty footprint). Every later mutation funnels
    /// through touch(), which tracks the written range, so a restore can
    /// reconstruct this exact state from the deltas alone.
    void checkpoint_image();

    /// Reverts contents to the last checkpoint_image() state, in O(bytes
    /// written since the checkpoint) — zero the written range, re-copy
    /// the part of the image it overlapped. Returns false (doing
    /// nothing) when no checkpoint exists. The write generation advances
    /// only if memory actually changed. This is the per-trial fast path
    /// of Cpu::reset: trials re-running one program skip the full
    /// clear+load.
    bool restore_image();

    bool has_image() const { return has_image_; }

    /// Bytes the next clear() will re-zero (the dirty range; testing aid).
    std::uint32_t dirty_bytes() const { return dirty_hi_ - dirty_lo_; }

    /// Dirty-range bounds: bytes outside [dirty_lo(), dirty_hi()) are
    /// guaranteed zero, so a state diff only has to walk the union of two
    /// dirty ranges (fault forensics leans on this).
    std::uint32_t dirty_lo() const { return dirty_lo_; }
    std::uint32_t dirty_hi() const { return dirty_hi_; }

    /// Bytes written since the last checkpoint_image() (testing aid).
    std::uint32_t bytes_since_checkpoint() const { return sc_hi_ - sc_lo_; }

private:
    void check(std::uint32_t addr, std::uint32_t n) const {
        if (addr > bytes_.size() || bytes_.size() - addr < n)
            throw MemFault(addr, "out-of-range access");
        if (n > 1 && addr % n != 0) throw MemFault(addr, "misaligned access");
    }

    /// Extends the dirty range (and the since-checkpoint range) to cover
    /// [addr, addr + n). Every mutation of bytes_ must pass through here
    /// to uphold the clear() and restore_image() invariants.
    void touch(std::uint32_t addr, std::uint32_t n) {
        if (dirty_lo_ == dirty_hi_) {
            dirty_lo_ = addr;
            dirty_hi_ = addr + n;
        } else {
            if (addr < dirty_lo_) dirty_lo_ = addr;
            if (addr + n > dirty_hi_) dirty_hi_ = addr + n;
        }
        if (sc_lo_ == sc_hi_) {
            sc_lo_ = addr;
            sc_hi_ = addr + n;
        } else {
            if (addr < sc_lo_) sc_lo_ = addr;
            if (addr + n > sc_hi_) sc_hi_ = addr + n;
        }
    }

    ZeroPages<std::uint8_t> bytes_;
    std::uint64_t write_gen_ = 0;
    // Invariant: bytes_ outside [dirty_lo_, dirty_hi_) are all zero.
    std::uint32_t dirty_lo_ = 0;
    std::uint32_t dirty_hi_ = 0;
    // Invariant: while has_image_, bytes_ outside [sc_lo_, sc_hi_) are
    // unchanged since checkpoint_image() — clear() is the one mutation
    // that bypasses touch(), and it drops the image.
    std::uint32_t sc_lo_ = 0;
    std::uint32_t sc_hi_ = 0;
    bool has_image_ = false;
    std::vector<std::uint8_t> image_;  // copy of [image_lo_, image_hi_)
    std::uint32_t image_lo_ = 0;
    std::uint32_t image_hi_ = 0;
};

}  // namespace sfi
