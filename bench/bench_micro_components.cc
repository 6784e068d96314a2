/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot components: the event
 * kernel, the capping planner at production roster sizes, the lazy
 * server advance, one breaker-monitor tick over an SB's servers, the
 * breaker integrator, and the DYNW codec of one socket pull. These
 * bound how many servers one consolidated controller binary can
 * handle — the paper runs ~100 controller instances in one binary per
 * suite.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/allocation.h"
#include "core/api.h"
#include "fleet/fleet.h"
#include "power/breaker.h"
#include "rpc/wire.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "workload/load_process.h"

using namespace dynamo;

namespace {

void
BM_EventKernelScheduleRun(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sim::Simulation sim;
        int counter = 0;
        for (int i = 0; i < n; ++i) {
            sim.ScheduleAt((i * 7919) % 100000, [&counter]() { ++counter; });
        }
        sim.RunAll();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventKernelScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_CappingPlan(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(5);
    std::vector<core::ServerPowerInfo> servers;
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        core::ServerPowerInfo s;
        s.name = "s" + std::to_string(i);
        s.power = 150.0 + 200.0 * rng.Uniform();
        s.priority_group = static_cast<int>(rng.UniformInt(3));
        s.sla_min_cap = 140.0;
        total += s.power;
        servers.push_back(s);
    }
    for (auto _ : state) {
        const core::CappingPlan plan =
            core::ComputeCappingPlan(servers, total * 0.05, 20.0);
        benchmark::DoNotOptimize(plan.planned_cut);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CappingPlan)->Arg(100)->Arg(1000)->Arg(10000);

void
BM_OffenderPlan(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    Rng rng(6);
    std::vector<core::ChildPowerInfo> children;
    for (int i = 0; i < n; ++i) {
        core::ChildPowerInfo c;
        c.name = "c" + std::to_string(i);
        c.power = 100e3 + 80e3 * rng.Uniform();
        c.quota = 130e3;
        c.floor = 60e3;
        children.push_back(c);
    }
    for (auto _ : state) {
        const core::OffenderPlan plan =
            core::ComputeOffenderPlan(children, 50e3, 2000.0);
        benchmark::DoNotOptimize(plan.planned_cut);
    }
}
BENCHMARK(BM_OffenderPlan)->Arg(8)->Arg(64);

void
BM_ServerLazyAdvance(benchmark::State& state)
{
    server::SimServer::Config config;
    config.name = "s";
    config.seed = 3;
    server::SimServer srv(
        config, workload::LoadProcessParams::For(workload::ServiceType::kWeb));
    SimTime t = 0;
    for (auto _ : state) {
        t += Seconds(3);
        benchmark::DoNotOptimize(srv.PowerAt(t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerLazyAdvance);

/**
 * One breaker-monitor tick of the serial fleet: the whole-tree power
 * walk that reads every server once per simulated second, over one SB
 * of 8 RPPs x 240 servers with the default diurnal traffic and no
 * control plane.
 */
void
BM_MonitorTick(benchmark::State& state)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.with_dynamo = false;
    fleet::Fleet fleet(spec);
    SimTime t = 0;
    for (auto _ : state) {
        t += Seconds(1);
        benchmark::DoNotOptimize(fleet.root().TotalPower(t));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(fleet.servers().size()));
}
BENCHMARK(BM_MonitorTick);

void
BM_BreakerAdvance(benchmark::State& state)
{
    power::BreakerModel breaker(
        1000.0, power::BreakerCurve::ForLevel(power::DeviceLevel::kRpp));
    for (auto _ : state) {
        breaker.Advance(990.0, 1000);
        benchmark::DoNotOptimize(breaker.stress());
    }
}
BENCHMARK(BM_BreakerAdvance);

/** An agent's answer to one pull, with the values perfbench's wire
 *  probe sends. */
rpc::Payload
PullResult()
{
    api::PowerReadResult result;
    result.source = "srv123";
    result.power = 212.5;
    result.service = workload::ServiceType::kCache;
    result.power_limit = 250.0;
    result.cpu_power = 120.25;
    result.memory_power = 30.5;
    result.other_power = 45.0;
    result.conversion_loss = 16.75;
    return result;
}

/**
 * One socket pull's two frames, as SocketTransport queues them: the
 * leaf's PowerReadRequest and the agent's PowerReadResult, appended
 * into a reused write buffer.
 */
void
BM_WireAppendPull(benchmark::State& state)
{
    const rpc::Payload request = api::PowerReadRequest{};
    const rpc::Payload response = PullResult();
    std::string buffer;
    std::uint64_t call_id = 0;
    for (auto _ : state) {
        buffer.clear();
        ++call_id;
        rpc::wire::AppendFrame(buffer, rpc::wire::FrameKind::kRequest, 0,
                               call_id, "agent:srv123", &request);
        rpc::wire::AppendFrame(buffer, rpc::wire::FrameKind::kResponse, 0,
                               call_id, {}, &response);
        benchmark::DoNotOptimize(buffer.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buffer.size()));
}
BENCHMARK(BM_WireAppendPull);

/** The same two frames parsed in place and their bodies decoded, as
 *  SocketTransport reads them. */
void
BM_WireParsePull(benchmark::State& state)
{
    const rpc::Payload request = api::PowerReadRequest{};
    const rpc::Payload response = PullResult();
    std::string frames[2];
    rpc::wire::AppendFrame(frames[0], rpc::wire::FrameKind::kRequest, 0, 1,
                           "agent:srv123", &request);
    rpc::wire::AppendFrame(frames[1], rpc::wire::FrameKind::kResponse, 0, 1,
                           {}, &response);
    for (auto _ : state) {
        for (const std::string& bytes : frames) {
            const rpc::wire::FrameView frame = rpc::wire::ParseFrame(bytes);
            rpc::Payload body =
                rpc::wire::DecodeBody(frame.type, frame.payload);
            benchmark::DoNotOptimize(body);
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(frames[0].size() + frames[1].size()));
}
BENCHMARK(BM_WireParsePull);

}  // namespace

BENCHMARK_MAIN();
