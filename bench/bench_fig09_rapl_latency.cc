/**
 * @file
 * Figure 9: single-server power capping/uncapping dynamics through the
 * Dynamo agent and RAPL.
 *
 * Reproduces the paper's trace: a web server drawing ~235 W is capped
 * to 165 W at t=4.65 s and uncapped at t=12.067 s. The key result is
 * that both transitions take about two seconds to settle — the reason
 * the leaf controller's pull cycle must exceed 2 s.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "core/agent.h"
#include "core/api.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"

using namespace dynamo;

namespace {

constexpr SimTime kCapTime = 4650;
constexpr SimTime kUncapTime = 12067;
constexpr Watts kCap = 165.0;
constexpr SimTime kStep = 50;

/** First time after `from` the trace stays within `tol` of `target`. */
double
SettleSeconds(const std::vector<std::pair<SimTime, Watts>>& trace, SimTime from,
              Watts target, Watts tol)
{
    for (const auto& [t, p] : trace) {
        if (t < from) continue;
        if (std::abs(p - target) <= tol) return ToSeconds(t - from);
    }
    return -1.0;
}

}  // namespace

int
main()
{
    bench::Banner("Fig. 9", "single-server RAPL capping/uncapping latency");

    sim::Simulation sim;
    rpc::SimTransport transport(sim, 9);
    server::SimServer::Config config;
    config.name = "web0";
    config.seed = 4;
    // Pick the utilization whose demand is ~235 W like the figure.
    server::SimServer srv(config, bench::SteadyLoad(0.62));
    core::DynamoAgent agent(sim, transport, srv, "agent:web0");

    sim.ScheduleAt(kCapTime, [&]() {
        transport.Call("agent:web0", api::CapRequest{kCap}, {});
    });
    sim.ScheduleAt(kUncapTime, [&]() {
        transport.Call("agent:web0", api::CapRequest{std::nullopt}, {});
    });

    // Record the fine-grained trace while the simulation runs.
    std::vector<std::pair<SimTime, Watts>> trace;
    for (SimTime t = 0; t <= Seconds(18); t += kStep) {
        sim.RunUntil(t);
        trace.emplace_back(t, srv.PowerAt(t));
    }

    std::printf("%10s %12s\n", "t(s)", "power(W)");
    for (const auto& [t, p] : trace) {
        if (t % 500 == 0) std::printf("%10.1f %12.1f\n", ToSeconds(t), p);
    }

    const Watts demand = trace.front().second;
    const double cap_settle = SettleSeconds(trace, kCapTime, kCap, 3.0);
    const double uncap_settle = SettleSeconds(trace, kUncapTime, demand, 3.0);

    std::printf("\nHeadline comparison:\n");
    bench::Compare("uncapped power level", 235.0, demand, "W");
    bench::Compare("cap settle time (\"about two seconds\")", 2.0, cap_settle,
                   "s");
    bench::Compare("uncap settle time (\"about two seconds\")", 2.0,
                   uncap_settle, "s");
    return 0;
}
