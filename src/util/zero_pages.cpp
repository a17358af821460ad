#include "util/zero_pages.hpp"

#include <sys/mman.h>

#include <new>

namespace sfi::detail {

void* map_zero_pages(std::size_t bytes) {
    void* data = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) throw std::bad_alloc();
    return data;
}

void unmap_zero_pages(void* data, std::size_t bytes) { ::munmap(data, bytes); }

}  // namespace sfi::detail
