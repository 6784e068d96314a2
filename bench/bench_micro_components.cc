/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot components: the event
 * kernel, the capping planner at production roster sizes, the lazy
 * server advance, one breaker-monitor tick over an SB's servers, and
 * the breaker integrator. These bound how many
 * servers one consolidated controller binary can handle — the paper
 * runs ~100 controller instances in one binary per suite.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/allocation.h"
#include "fleet/fleet.h"
#include "power/breaker.h"
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

}  // namespace

BENCHMARK_MAIN();
