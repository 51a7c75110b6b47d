#include "alloc_counter.hh"

#include <cstdlib>
#include <new>

namespace
{

thread_local long allocations = 0;

void *
allocate(std::size_t size)
{
    ++allocations;
    if (size == 0)
        size = 1;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    ++allocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    if (void *p = std::aligned_alloc(alignment,
                                     rounded == 0 ? alignment : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace camsbench
{

long
threadAllocations()
{
    return allocations;
}

} // namespace camsbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return allocate(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return allocateAligned(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
