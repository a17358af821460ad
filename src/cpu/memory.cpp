#include "cpu/memory.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace sfi {

MemFault::MemFault(std::uint32_t fault_addr, const char* what_kind)
    : std::runtime_error(std::string(what_kind) + " at address 0x" +
                         [](std::uint32_t a) {
                             char buf[16];
                             std::snprintf(buf, sizeof buf, "%08x", a);
                             return std::string(buf);
                         }(fault_addr)),
      addr(fault_addr) {}

namespace {
std::uint32_t checked_size(std::uint32_t size) {
    if (size == 0 || size % 4 != 0)
        throw std::invalid_argument("Memory size must be a positive word multiple");
    return size;
}
}  // namespace

Memory::Memory(std::uint32_t size) : bytes_(checked_size(size)) {}

void Memory::load(const Program& program) {
    for (const auto& section : program.sections) {
        if (section.bytes.empty()) continue;
        const auto n = static_cast<std::uint32_t>(section.bytes.size());
        if (section.addr > bytes_.size() || bytes_.size() - section.addr < n)
            throw MemFault(section.addr, "program section outside memory");
        std::memcpy(bytes_.data() + section.addr, section.bytes.data(),
                    section.bytes.size());
        touch(section.addr, n);
    }
    ++write_gen_;
}

void Memory::clear() {
    std::fill(bytes_.data() + dirty_lo_, bytes_.data() + dirty_hi_, 0);
    dirty_lo_ = dirty_hi_ = 0;
    sc_lo_ = sc_hi_ = 0;
    has_image_ = false;
    image_.clear();
    ++write_gen_;
}

void Memory::checkpoint_image() {
    image_lo_ = dirty_lo_;
    image_hi_ = dirty_hi_;
    image_.assign(bytes_.data() + image_lo_, bytes_.data() + image_hi_);
    sc_lo_ = sc_hi_ = 0;
    has_image_ = true;
}

bool Memory::restore_image() {
    if (!has_image_) return false;
    if (sc_lo_ != sc_hi_) {
        // Everything written since the checkpoint: zero it, then put back
        // the slice of the image it overlapped. Bytes outside the written
        // range are unchanged since the checkpoint by the touch()
        // invariant, so this reconstructs the checkpoint state exactly.
        std::fill(bytes_.data() + sc_lo_, bytes_.data() + sc_hi_, 0);
        const std::uint32_t lo = std::max(sc_lo_, image_lo_);
        const std::uint32_t hi = std::min(sc_hi_, image_hi_);
        if (lo < hi)
            std::memcpy(bytes_.data() + lo, image_.data() + (lo - image_lo_),
                        hi - lo);
        ++write_gen_;
        sc_lo_ = sc_hi_ = 0;
    }
    dirty_lo_ = image_lo_;
    dirty_hi_ = image_hi_;
    return true;
}

static_assert(std::endian::native == std::endian::little,
              "sfi assumes a little-endian host for memcpy-based accessors");

}  // namespace sfi
