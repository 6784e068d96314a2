/**
 * @file
 * Resident footprint of a simulated server: the heap bytes one server
 * costs the fleet engine once built, and the object sizes behind them.
 *
 * A server is four objects — the SimServer, its DynamoAgent, the leaf
 * controller's roster entry, and the agent's slots in the transport
 * (name, index slot, handler) — and the engine is memory-bound, so
 * their bytes are a budget. perfbench measures peak RSS on the full
 * workloads but does not run in CI; this test is the guard. The binary
 * replaces the global operator new/delete with versions that keep a
 * running total of live heap bytes (malloc's usable size, so rounding
 * counts), builds a one-shard ShardedFleet, and divides the growth by
 * its server count.
 */
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/agent.h"
#include "fleet/sharding.h"
#include "server/sim_server.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void*
Track(void* p)
{
    if (p == nullptr) throw std::bad_alloc();
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
}

void*
TrackedAlloc(std::size_t size)
{
    return Track(std::malloc(size == 0 ? 1 : size));
}

void*
TrackedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    return Track(
        std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a));
}

void
TrackedFree(void* p) noexcept
{
    if (p == nullptr) return;
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return TrackedAlloc(size); }
void* operator new[](std::size_t size) { return TrackedAlloc(size); }

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return TrackedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return TrackedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return TrackedAlignedAlloc(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return TrackedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { TrackedFree(p); }
void operator delete[](void* p) noexcept { TrackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { TrackedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { TrackedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { TrackedFree(p); }

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    TrackedFree(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    TrackedFree(p);
}

namespace dynamo {
namespace {

TEST(FleetFootprint, ServerAndAgentObjectsStayInBudget)
{
    EXPECT_LE(sizeof(server::SimServer), 464u);
    EXPECT_LE(sizeof(core::DynamoAgent), 96u);
}

TEST(FleetFootprint, BuiltShardedFleetCostsAtMost900HeapBytesPerServer)
{
    // One worker shard: eight leaves of 240 servers under one SB.
    constexpr std::size_t kServers =
        fleet::kShardServersPerLeaf * fleet::kShardLeavesPerSb;
    fleet::ShardedFleetConfig config;
    config.n_servers = kServers;

    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    auto fleet = std::make_unique<fleet::ShardedFleet>(config);
    const std::int64_t grown =
        g_live_bytes.load(std::memory_order_relaxed) - before;
    ASSERT_EQ(fleet->shard_count(), 1u);

    const double per_server =
        static_cast<double>(grown) / static_cast<double>(kServers);
    EXPECT_LE(per_server, 900.0)
        << grown << " live heap bytes for " << kServers << " servers";
    RecordProperty("heap_bytes_per_server", static_cast<int>(per_server));
}

}  // namespace
}  // namespace dynamo
