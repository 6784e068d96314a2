/**
 * @file
 * Layer probes for the traced run: each times direct calls into one
 * layer's public functions, with inputs shaped like the workload's, so
 * a per-layer cost can be compared against the end-to-end run.
 */
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "core/agent.h"
#include "core/api.h"
#include "core/controller_builder.h"
#include "fleet/fleet.h"
#include "fleet/spec_parser.h"
#include "policy/capping_policy.h"
#include "power/topology.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "server/sim_server.h"
#include "sim/simulation.h"

namespace perfbench {
namespace {

using namespace dynamo;

constexpr std::size_t kLeafAgents = 240;

/** Keeps a computed value alive past the optimizer. */
volatile double g_sink = 0.0;

double
NsPer(Clock::time_point start, std::uint64_t n)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
               .count() /
           static_cast<double>(std::max<std::uint64_t>(n, 1));
}

/**
 * sim: `chains` self-rescheduling no-op events, each re-arming after
 * the delay that gives the workload's events per simulated ms. Each
 * event costs one Schedule plus one Execute, as a pull's events do.
 */
double
EventProbe(const ProbeShape& shape, std::uint64_t events)
{
    struct Chains
    {
        sim::Simulation sim;
        SimTime delay = 1;
        std::uint64_t remaining = 0;

        void Arm(SimTime delay_ms)
        {
            sim.ScheduleAfter(delay_ms, [this] {
                if (remaining == 0) return;
                --remaining;
                Arm(delay);
            });
        }
    };
    Chains chains;
    const int n = std::max(shape.event_chains, 1);
    chains.delay = std::max<SimTime>(
        1, static_cast<SimTime>(n / std::max(shape.events_per_sim_ms, 1e-9)));
    chains.remaining = events;
    for (int i = 0; i < n; ++i) chains.Arm(1 + i % chains.delay);
    const Clock::time_point start = Clock::now();
    chains.sim.RunAll();
    return NsPer(start, chains.sim.events_executed());
}

/**
 * rpc: a 240-agent SimTransport leaf world (the pull's kernel events,
 * transport call, agent read and server physics, plus the leaf's
 * aggregation) run for `cycles` leaf cycles; ns per agent read.
 */
double
PullProbe(std::uint64_t seed, int cycles)
{
    sim::Simulation sim;
    rpc::SimTransport transport(sim, seed);
    auto servers = MakeLeafServers(seed, kLeafAgents);
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    Watts draw = 0.0;
    for (const auto& server : servers) {
        draw += server->PowerAt(0);
        agents.push_back(std::make_unique<core::DynamoAgent>(
            sim, transport, *server, "agent:" + server->name()));
    }
    auto device = power::BuildRpp("rpp0", 2.0 * draw, 1.9 * draw);
    core::ControllerBuilder builder(sim, transport);
    builder.Endpoint("ctl:rpp0").ForDevice(*device);
    for (std::size_t i = 0; i < kLeafAgents; ++i) {
        core::AgentInfo info;
        info.endpoint = agents[i]->endpoint();
        info.service = servers[i]->service();
        builder.Agent(std::move(info));
    }
    auto leaf = builder.BuildLeaf();
    leaf->Activate(3000);
    sim.RunFor(30000);

    auto reads = [&] {
        std::uint64_t n = 0;
        for (const auto& agent : agents) n += agent->reads_served();
        return n;
    };
    const std::uint64_t before = reads();
    const Clock::time_point start = Clock::now();
    sim.RunFor(static_cast<SimTime>(cycles) * 3000);
    return NsPer(start, reads() - before);
}

/** rpc: DYNW frames of one pull (request + result), encode and decode. */
void
WireProbe(std::uint64_t iterations, ProbeResults* out)
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
    const rpc::Payload request = api::PowerReadRequest{};
    const rpc::Payload response = result;

    auto encode = [](const rpc::Payload& message, rpc::wire::FrameKind kind,
                     const char* target) {
        rpc::wire::Frame frame;
        frame.kind = kind;
        frame.type = rpc::wire::TypeOf(message);
        frame.call_id = 42;
        frame.target = target;
        frame.payload = rpc::wire::EncodeBody(message);
        return rpc::wire::EncodeFrame(frame);
    };

    std::size_t bytes = 0;
    Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        bytes = encode(request, rpc::wire::FrameKind::kRequest, "agent:srv123")
                    .size() +
                encode(response, rpc::wire::FrameKind::kResponse, "").size();
    }
    out->wire_encode_ns = NsPer(start, iterations);
    out->wire_bytes_per_pull = static_cast<double>(bytes);

    const std::string request_bytes =
        encode(request, rpc::wire::FrameKind::kRequest, "agent:srv123");
    const std::string response_bytes =
        encode(response, rpc::wire::FrameKind::kResponse, "");
    std::size_t decoded = 0;
    start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        for (const std::string* bytes_in : {&request_bytes, &response_bytes}) {
            const rpc::wire::Frame frame = rpc::wire::DecodeFrame(*bytes_in);
            const rpc::Payload body = rpc::wire::DecodeBody(frame.type, frame.payload);
            decoded += frame.payload.size();
            (void)body;
        }
    }
    out->wire_decode_ns = NsPer(start, iterations);
    g_sink = static_cast<double>(decoded);
}

/** policy: the default brain's plan for a 240-server roster. */
double
PlanProbe(std::uint64_t seed, double cut_w, int iterations)
{
    auto servers = MakeLeafServers(seed, kLeafAgents);
    std::vector<core::ServerPowerInfo> roster(kLeafAgents);
    Watts total = 0.0;
    for (std::size_t i = 0; i < kLeafAgents; ++i) {
        roster[i].power = servers[i]->PowerAt(3000);
        roster[i].priority_group = static_cast<int>(i % 3);
        roster[i].sla_min_cap = 70.0 + static_cast<double>(i % 3) * 15.0;
        total += roster[i].power;
    }
    const Watts cut = cut_w > 0.0 ? cut_w : 0.03 * total;
    policy::PolicyContext ctx;
    ctx.aggregated = total;
    ctx.limit = total - cut / 2.0;
    ctx.target = total - cut;
    ctx.now = 3000;
    auto brain = policy::MakeCappingPolicy(policy::PolicyKind::kThreeBand);
    core::CappingWorkspace workspace;
    core::CappingPlan plan;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < iterations; ++i) {
        brain->PlanServerCuts(roster, cut, ctx, workspace, &plan);
    }
    g_sink = plan.planned_cut;
    return NsPer(start, static_cast<std::uint64_t>(iterations)) / 1000.0;
}

/** server: SensorRead + BreakdownAt at 3 s steps over a leaf domain. */
double
ReadProbe(std::uint64_t seed, int steps)
{
    auto servers = MakeLeafServers(seed, kLeafAgents);
    double sum = 0.0;
    const Clock::time_point start = Clock::now();
    for (int step = 1; step <= steps; ++step) {
        const SimTime now = static_cast<SimTime>(step) * 3000;
        for (const auto& server : servers) {
            sum += server->SensorRead(now) + server->BreakdownAt(now).cpu;
        }
    }
    g_sink = sum;
    return NsPer(start, static_cast<std::uint64_t>(steps) * kLeafAgents);
}

/** power: TotalPower walks of the msb-surge tree at monitor ticks. */
double
WalkProbe(const std::string& spec_text, int walks)
{
    fleet::Fleet fleet(fleet::ParseFleetSpecString(spec_text));
    double sum = 0.0;
    const Clock::time_point start = Clock::now();
    for (int i = 1; i <= walks; ++i) {
        sum += fleet.root().TotalPower(static_cast<SimTime>(i) * 1000);
    }
    g_sink = sum;
    return NsPer(start, static_cast<std::uint64_t>(walks)) / 1000.0;
}

}  // namespace

ProbeResults
RunProbes(const ProbeShape& shape, std::uint64_t seed, bool quick)
{
    const int scale = quick ? 1 : 10;
    ProbeResults r;
    r.event_ns = EventProbe(shape, 200000ULL * scale);
    r.pull_ns = PullProbe(seed, 40 * scale);
    WireProbe(20000ULL * scale, &r);
    r.plan_us = PlanProbe(seed, shape.cut_w, 2000 * scale);
    r.read_ns = ReadProbe(seed, 40 * scale);
    const std::string spec =
        shape.msb_spec.empty()
            ? MsbSpecText(seed, quick ? 24 : 240, 1e9, 1e9, 1e9, false)
            : shape.msb_spec;
    r.walk_us = WalkProbe(spec, 100 * scale);
    return r;
}

}  // namespace perfbench
