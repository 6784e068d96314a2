/**
 * @file
 * Per-pull cost budget of the control plane: in steady state an agent
 * read is one kernel event and no heap allocation when simulated, and
 * no heap allocation over a socket.
 *
 * perfbench prices a pull on the full workloads (`--trace 1`:
 * sim.events_per_pull, fleet.allocs_per_pull,
 * rpc.socket_allocs_per_pull), but perfbench does not run in CI, so
 * this test is the guard that keeps both call paths from quietly
 * regressing. The binary replaces the global operator new with a
 * counting one and drives a 240-agent leaf world (one rack under a
 * slack breaker, so it pulls and aggregates but never caps) past
 * warm-up, then divides the kernel events and heap allocations of
 * twenty leaf cycles by the agent reads they served. The simulated arm
 * runs it on one SimTransport; the socket arm runs the agents and the
 * leaf on two SocketTransports joined by a unix socket, pumped in a
 * closed loop the way perfbench's socket-leaf workload does.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
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
#include "rpc/socket_transport.h"
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
constexpr SimTime kCycleMs = 3000;

std::uint64_t
Allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

/**
 * 240 agents serving on `agent_side` and one leaf controller pulling
 * them over `leaf_side` (the same transport when simulated).
 */
struct LeafWorld
{
    LeafWorld(sim::Simulation& sim, rpc::Transport& agent_side,
              rpc::Transport& leaf_side)
    {
        // Short server names: a read copies the name into the result's
        // `source`, which stays inside the string's small buffer.
        Rng rng(7);
        const workload::ServiceType services[] = {
            workload::ServiceType::kWeb, workload::ServiceType::kCache,
            workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};
        Watts draw = 0.0;
        for (std::size_t i = 0; i < kAgents; ++i) {
            server::SimServer::Config config;
            config.name = "s" + std::to_string(i);
            config.service = services[i % 4];
            config.seed = rng.NextU64();
            workload::LoadProcessParams params =
                workload::LoadProcessParams::For(config.service);
            params.spike_rate_per_hour = 0.0;
            servers.push_back(
                std::make_unique<server::SimServer>(config, params));
            draw += servers.back()->PowerAt(0);
            agents.push_back(std::make_unique<core::DynamoAgent>(
                sim, agent_side, *servers.back(), "agent:" + config.name));
        }
        device = power::BuildRpp("rpp0", 2.0 * draw, 1.9 * draw);
        core::ControllerBuilder builder(sim, leaf_side);
        builder.Endpoint("ctl:rpp0").ForDevice(*device);
        for (std::size_t i = 0; i < kAgents; ++i) {
            core::AgentInfo info;
            info.endpoint = agents[i]->endpoint();
            info.service = servers[i]->service();
            builder.Agent(std::move(info));
        }
        leaf = builder.BuildLeaf();
        leaf->Activate(kCycleMs);
    }

    std::uint64_t reads() const
    {
        std::uint64_t n = 0;
        for (const auto& agent : agents) n += agent->reads_served();
        return n;
    }

    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    std::unique_ptr<power::PowerDevice> device;
    std::unique_ptr<core::LeafController> leaf;
};

TEST(PullBudget, SteadyStateReadIsOneEventAndNoAllocation)
{
    sim::Simulation sim;
    rpc::SimTransport transport(sim, /*seed=*/1);
    LeafWorld world(sim, transport, transport);

    // Warm-up grows every slab (events, call records, scratch) to its
    // steady size.
    sim.RunFor(10 * kCycleMs);
    const std::uint64_t reads_before = world.reads();
    const std::uint64_t events_before = sim.events_executed();
    const std::uint64_t allocs_before = Allocations();

    sim.RunFor(20 * kCycleMs);

    const std::uint64_t allocs = Allocations() - allocs_before;
    const std::uint64_t events = sim.events_executed() - events_before;
    const std::uint64_t served = world.reads() - reads_before;
    ASSERT_EQ(served, 20 * kAgents);
    EXPECT_TRUE(world.leaf->last_valid());
    EXPECT_EQ(world.leaf->estimated_readings(), 0u);

    const double events_per_read =
        static_cast<double>(events) / static_cast<double>(served);
    const double allocs_per_read =
        static_cast<double>(allocs) / static_cast<double>(served);
    EXPECT_LE(events_per_read, 1.05)
        << events << " kernel events for " << served << " reads";
    EXPECT_LE(allocs_per_read, 0.1)
        << allocs << " heap allocations for " << served << " reads";
}

TEST(PullBudget, SteadyStateSocketReadAllocatesNothing)
{
    char dir[] = "/tmp/dynamo_pull_budget_XXXXXX";
    ASSERT_NE(::mkdtemp(dir), nullptr);
    const rpc::SocketAddress address =
        rpc::SocketAddress::Parse(std::string("unix:") + dir + "/agents.sock");

    sim::Simulation sim;
    rpc::SocketTransport agent_side;
    agent_side.Listen(address);
    rpc::SocketTransport leaf_side;
    LeafWorld world(sim, agent_side, leaf_side);
    for (const auto& agent : world.agents) {
        leaf_side.AddRoute(agent->endpoint(), address);
    }

    // One leaf cycle: fire RunCycle's pulls, then pump both transports
    // until the last reply lands.
    SimTime now = 0;
    bool stuck = false;
    auto cycle = [&] {
        now += kCycleMs;
        sim.RunUntil(now);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(2);
        while (leaf_side.pending_calls() > 0) {
            leaf_side.PollOnce(0);
            agent_side.PollOnce(0);
            if (std::chrono::steady_clock::now() > deadline) {
                stuck = true;
                return;
            }
        }
    };

    // Warm-up grows the connection buffers and tables to their steady
    // size.
    for (int i = 0; i < 30; ++i) cycle();
    const std::uint64_t reads_before = world.reads();
    const std::uint64_t allocs_before = Allocations();

    for (int i = 0; i < 20; ++i) cycle();

    const std::uint64_t allocs = Allocations() - allocs_before;
    const std::uint64_t served = world.reads() - reads_before;
    ::unlink(address.path.c_str());
    ::rmdir(dir);
    ASSERT_FALSE(stuck) << "replies missing after the pump deadline";
    ASSERT_EQ(served, 20 * kAgents);
    EXPECT_TRUE(world.leaf->last_valid());
    EXPECT_EQ(world.leaf->estimated_readings(), 0u);
    EXPECT_EQ(leaf_side.calls_failed(), 0u);

    const double allocs_per_read =
        static_cast<double>(allocs) / static_cast<double>(served);
    EXPECT_LE(allocs_per_read, 0.5)
        << allocs << " heap allocations for " << served << " reads";
}

}  // namespace
}  // namespace dynamo
