/**
 * @file
 * Per-pull cost budget of the simulated control plane: in steady state
 * an agent read is one kernel event and no heap allocation.
 *
 * perfbench prices a pull on the full workloads (`--trace 1`:
 * sim.events_per_pull, fleet.allocs_per_pull), but perfbench does not
 * run in CI, so this test is the guard that keeps the one-event,
 * allocation-free call path from quietly regressing. The binary
 * replaces the global operator new with a counting one and drives a
 * 240-agent SimTransport leaf world (one rack under a slack breaker,
 * so it pulls and aggregates but never caps) past warm-up, then
 * divides the kernel events and heap allocations of twenty leaf
 * cycles by the agent reads they served.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/agent.h"
#include "core/controller_builder.h"
#include "core/leaf_controller.h"
#include "power/topology.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void*
CountedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void*
CountedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc needs a size that is a multiple of the alignment.
    void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return CountedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return CountedAlloc(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return CountedAlignedAlloc(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return CountedAlignedAlloc(size, align);
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

namespace dynamo {
namespace {

constexpr std::size_t kAgents = 240;

TEST(PullBudget, SteadyStateReadIsOneEventAndNoAllocation)
{
    sim::Simulation sim;
    rpc::SimTransport transport(sim, /*seed=*/1);

    // Short server names: a read copies the name into the result's
    // `source`, which stays inside the string's small buffer.
    Rng rng(7);
    const workload::ServiceType services[] = {
        workload::ServiceType::kWeb, workload::ServiceType::kCache,
        workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    Watts draw = 0.0;
    for (std::size_t i = 0; i < kAgents; ++i) {
        server::SimServer::Config config;
        config.name = "s" + std::to_string(i);
        config.service = services[i % 4];
        config.seed = rng.NextU64();
        workload::LoadProcessParams params =
            workload::LoadProcessParams::For(config.service);
        params.spike_rate_per_hour = 0.0;
        servers.push_back(std::make_unique<server::SimServer>(config, params));
        draw += servers.back()->PowerAt(0);
        agents.push_back(std::make_unique<core::DynamoAgent>(
            sim, transport, *servers.back(), "agent:" + config.name));
    }
    auto device = power::BuildRpp("rpp0", 2.0 * draw, 1.9 * draw);
    core::ControllerBuilder builder(sim, transport);
    builder.Endpoint("ctl:rpp0").ForDevice(*device);
    for (std::size_t i = 0; i < kAgents; ++i) {
        core::AgentInfo info;
        info.endpoint = agents[i]->endpoint();
        info.service = servers[i]->service();
        builder.Agent(std::move(info));
    }
    auto leaf = builder.BuildLeaf();
    leaf->Activate(3000);

    // Warm-up grows every slab (events, call records, scratch) to its
    // steady size.
    sim.RunFor(30000);
    auto reads = [&] {
        std::uint64_t n = 0;
        for (const auto& agent : agents) n += agent->reads_served();
        return n;
    };
    const std::uint64_t reads_before = reads();
    const std::uint64_t events_before = sim.events_executed();
    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);

    sim.RunFor(20 * 3000);

    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t events = sim.events_executed() - events_before;
    const std::uint64_t served = reads() - reads_before;
    ASSERT_EQ(served, 20 * kAgents);
    EXPECT_TRUE(leaf->last_valid());
    EXPECT_EQ(leaf->estimated_readings(), 0u);

    const double events_per_read =
        static_cast<double>(events) / static_cast<double>(served);
    const double allocs_per_read =
        static_cast<double>(allocs) / static_cast<double>(served);
    EXPECT_LE(events_per_read, 1.05)
        << events << " kernel events for " << served << " reads";
    EXPECT_LE(allocs_per_read, 0.1)
        << allocs << " heap allocations for " << served << " reads";
}

}  // namespace
}  // namespace dynamo
