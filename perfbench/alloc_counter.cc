#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void
Count(std::size_t size)
{
    if (!g_counting.load(std::memory_order_relaxed)) return;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void*
Allocate(std::size_t size)
{
    Count(size);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void*
AllocateAligned(std::size_t size, std::align_val_t align)
{
    Count(size);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void
SetAllocCounting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

bool
AllocCounting()
{
    return g_counting.load(std::memory_order_relaxed);
}

AllocCounts
AllocCountsNow()
{
    return AllocCounts{g_allocs.load(std::memory_order_relaxed),
                       g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::Allocate(size); }
void* operator new[](std::size_t size) { return perfbench::Allocate(size); }

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return perfbench::Allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return perfbench::Allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return perfbench::AllocateAligned(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return perfbench::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
