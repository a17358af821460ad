// Zero-filled arrays backed by anonymous pages. A page costs resident
// memory only once it is written (reads of an untouched page see the
// kernel's shared zero page), and destruction unmaps the whole range, so
// the memory goes back to the OS instead of staying parked in the heap.
// Memory's 1 MiB SRAM image (kernels touch a few KiB of it), the ISS
// micro-op stream over that image (one 20-byte entry per word, lowered
// only where a kernel executes) and model C's per-point violation-count
// memo (filled lazily, row by row) are the users.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace sfi {

namespace detail {
/// mmap(2) of `bytes` zero-filled, private anonymous bytes (throws
/// std::bad_alloc on failure); `bytes` must be positive.
void* map_zero_pages(std::size_t bytes);
void unmap_zero_pages(void* data, std::size_t bytes);
}  // namespace detail

/// Fixed-size array of `size` T on demand-zero pages. Elements start as
/// all-zero bytes, not as T's default member initializers, so a T made of
/// zero bytes must be a valid value to its owner. Move-only: the owner
/// decides what a copy means (see ModelC's memo).
template <typename T>
class ZeroPages {
    static_assert(std::is_trivially_copyable_v<T>,
                  "T's lifetime must start in the mapped bytes and no "
                  "destructor may run");

public:
    ZeroPages() = default;
    explicit ZeroPages(std::size_t size)
        : data_(size ? static_cast<T*>(detail::map_zero_pages(size * sizeof(T)))
                     : nullptr),
          size_(size) {}
    ~ZeroPages() { release(); }

    ZeroPages(ZeroPages&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)) {}
    ZeroPages& operator=(ZeroPages&& other) noexcept {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }
    ZeroPages(const ZeroPages&) = delete;
    ZeroPages& operator=(const ZeroPages&) = delete;

    T* data() { return data_; }
    const T* data() const { return data_; }
    std::size_t size() const { return size_; }
    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }

private:
    void release() {
        if (data_ != nullptr) detail::unmap_zero_pages(data_, size_ * sizeof(T));
        data_ = nullptr;
        size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace sfi
