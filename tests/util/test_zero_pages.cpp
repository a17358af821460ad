#include "util/zero_pages.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace sfi {
namespace {

/// Resident pages of [data, data + bytes) per mincore(2).
std::size_t resident_pages(const void* data, std::size_t bytes) {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> flags((bytes + page - 1) / page);
    if (::mincore(const_cast<void*>(data), bytes, flags.data()) != 0)
        return static_cast<std::size_t>(-1);
    std::size_t resident = 0;
    for (const unsigned char flag : flags) resident += flag & 1u;
    return resident;
}

TEST(ZeroPages, StartsZeroAndHoldsWrites) {
    ZeroPages<std::uint32_t> words(1000);
    ASSERT_EQ(words.size(), 1000u);
    for (std::size_t i = 0; i < words.size(); ++i) ASSERT_EQ(words[i], 0u);
    words[0] = 7;
    words[999] = 9;
    EXPECT_EQ(words.data()[0], 7u);
    EXPECT_EQ(words[999], 9u);
}

TEST(ZeroPages, EmptyArrayMapsNothing) {
    ZeroPages<std::uint8_t> none;
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.data(), nullptr);
    ZeroPages<std::uint8_t> zero(0);
    EXPECT_EQ(zero.data(), nullptr);
}

TEST(ZeroPages, MoveTransfersTheMapping) {
    ZeroPages<std::uint8_t> a(64);
    a[3] = 42;
    const std::uint8_t* mapping = a.data();
    ZeroPages<std::uint8_t> b(std::move(a));
    EXPECT_EQ(b.data(), mapping);
    EXPECT_EQ(b[3], 42u);
    EXPECT_EQ(a.size(), 0u);  // the moved-from array is empty
    EXPECT_EQ(a.data(), nullptr);
    ZeroPages<std::uint8_t> c(16);
    c = std::move(b);
    EXPECT_EQ(c.data(), mapping);
    EXPECT_EQ(c.size(), 64u);
}

TEST(ZeroPages, OnlyWrittenPagesBecomeResident) {
    // The point of the type: a 1 MiB array whose user writes two bytes
    // costs two pages, not 256.
    const std::size_t bytes = 1u << 20;
    ZeroPages<std::uint8_t> image(bytes);
    ASSERT_EQ(resident_pages(image.data(), bytes), 0u);
    image[0] = 1;
    image[bytes / 2] = 2;
    EXPECT_EQ(resident_pages(image.data(), bytes), 2u);
}

}  // namespace
}  // namespace sfi
