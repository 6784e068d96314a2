// Integration-style tests of the leaf power controller against real
// agents and simulated servers.
#include "core/controller_builder.h"
#include "core/leaf_controller.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/agent.h"
#include "core/deployment.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/trace.h"

namespace dynamo::core {
namespace {

workload::LoadProcessParams
SteadyLoad(double util)
{
    workload::LoadProcessParams p;
    p.base_util = util;
    p.ou_sigma = 0.0;
    p.spike_rate_per_hour = 0.0;
    return p;
}

/** A row of steady servers under one RPP with a leaf controller. */
class LeafRig
{
  public:
    LeafRig(Watts rpp_rated, int n_web, int n_cache, double util = 0.6,
            Watts bucket_size = 20.0)
        : transport(sim, 5),
          device("rpp0", power::DeviceLevel::kRpp, rpp_rated, rpp_rated)
    {
        for (int i = 0; i < n_web + n_cache; ++i) {
            server::SimServer::Config config;
            config.name = "s" + std::to_string(i);
            config.service = i < n_web ? workload::ServiceType::kWeb
                                       : workload::ServiceType::kCache;
            config.seed = 100 + static_cast<std::uint64_t>(i);
            servers.push_back(
                std::make_unique<server::SimServer>(config, SteadyLoad(util)));
            device.AttachLoad(servers.back().get());
            agents.push_back(std::make_unique<DynamoAgent>(
                sim, transport, *servers.back(),
                Deployment::AgentEndpoint(servers.back()->name())));
        }
        LeafController::Config config;
        config.bucket_size = bucket_size;
        ControllerBuilder builder(sim, transport);
        builder.Endpoint("ctl:rpp0")
            .ForDevice(device)
            .LeafConfig(config)
            .Log(&log)
            .Telemetry(nullptr, &traces);
        for (const auto& srv : servers) builder.Agent(AgentInfoFor(*srv));
        controller = builder.BuildLeaf();
        controller->Activate();
    }

    Watts TruePower() { return device.TotalPower(sim.Now()); }

    sim::Simulation sim;
    rpc::SimTransport transport;
    power::PowerDevice device;
    telemetry::EventLog log;
    telemetry::TraceLog traces;
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<DynamoAgent>> agents;
    std::unique_ptr<LeafController> controller;
};

TEST(LeafController, AggregatesAgentReadings)
{
    LeafRig rig(/*rated=*/10000.0, /*web=*/8, /*cache=*/2);
    rig.sim.RunFor(Seconds(5));  // one full pull + aggregate
    ASSERT_TRUE(rig.controller->last_valid());
    EXPECT_NEAR(rig.controller->last_aggregated_power(), rig.TruePower(),
                rig.TruePower() * 0.03);
    EXPECT_EQ(rig.controller->aggregations(), 1u);
}

TEST(LeafController, NoCappingBelowThreshold)
{
    LeafRig rig(/*rated=*/10000.0, 8, 2);
    rig.sim.RunFor(Minutes(2));
    EXPECT_FALSE(rig.controller->capping());
    EXPECT_EQ(rig.controller->capped_count(), 0u);
    EXPECT_EQ(rig.log.CountOf(telemetry::EventKind::kCapStart), 0u);
}

TEST(LeafController, CapsAboveThresholdAndSettlesAtTarget)
{
    // 10 steady servers draw ~2.3 KW; rate the breaker at 2.2 KW so the
    // row starts over threshold.
    LeafRig rig(/*rated=*/2200.0, 10, 0);
    rig.sim.RunFor(Minutes(1));
    EXPECT_TRUE(rig.controller->capping());
    EXPECT_GT(rig.controller->capped_count(), 0u);
    // Fig. 11: power is held slightly below the capping target band.
    const Watts target = 0.95 * 2200.0;
    const Watts threshold = 0.99 * 2200.0;
    EXPECT_LE(rig.TruePower(), threshold);
    EXPECT_NEAR(rig.TruePower(), target, 0.04 * 2200.0);
    EXPECT_GE(rig.log.CountOf(telemetry::EventKind::kCapStart), 1u);
}

TEST(LeafController, ZeroBucketTracesRecordNoBucketIndex)
{
    // bucket_size = 0 water-fills the group: there are no buckets, so
    // every traced allocation must say n/a (-1).
    LeafRig rig(/*rated=*/2200.0, 10, 0, 0.6, /*bucket_size=*/0.0);
    rig.sim.RunFor(Minutes(1));
    ASSERT_TRUE(rig.controller->capping());
    std::size_t allocs = 0;
    for (const telemetry::TraceSpan& span : rig.traces.spans()) {
        for (const telemetry::TraceAllocation& alloc : span.allocs) {
            EXPECT_EQ(alloc.bucket, -1) << alloc.target;
            ++allocs;
        }
    }
    EXPECT_GT(allocs, 0u);
}

TEST(LeafController, CappingIsFast)
{
    // Fig. 11: "throttled power to a safe level within about 6 s".
    LeafRig rig(/*rated=*/2200.0, 10, 0);
    rig.sim.RunFor(Seconds(10));  // two pull cycles + RAPL settling
    EXPECT_LT(rig.TruePower(), 0.99 * 2200.0);
}

TEST(LeafController, UncapsWhenLoadDrops)
{
    LeafRig rig(/*rated=*/2200.0, 10, 0);
    rig.sim.RunFor(Minutes(1));
    ASSERT_TRUE(rig.controller->capping());
    // Load drops: traffic shifted away.
    for (auto& srv : rig.servers) srv->load().set_balancer_factor(0.6);
    rig.sim.RunFor(Minutes(1));
    EXPECT_FALSE(rig.controller->capping());
    EXPECT_EQ(rig.controller->capped_count(), 0u);
    EXPECT_GE(rig.log.CountOf(telemetry::EventKind::kUncap), 1u);
    for (auto& srv : rig.servers) EXPECT_FALSE(srv->capped());
}

TEST(LeafController, HigherPriorityCacheServersSpared)
{
    // Web absorbs the cut; cache (higher priority group) is untouched
    // as in Fig. 15.
    LeafRig rig(/*rated=*/2250.0, 8, 2);
    rig.sim.RunFor(Minutes(1));
    ASSERT_TRUE(rig.controller->capping());
    for (auto& srv : rig.servers) {
        if (srv->service() == workload::ServiceType::kCache) {
            EXPECT_FALSE(srv->capped()) << srv->name();
        }
    }
    EXPECT_GT(rig.controller->capped_count(), 0u);
}

TEST(LeafController, CapsNeverBelowSlaFloor)
{
    LeafRig rig(/*rated=*/1900.0, 10, 0);  // deep cut needed
    rig.sim.RunFor(Minutes(2));
    for (auto& srv : rig.servers) {
        if (srv->capped()) {
            EXPECT_GE(srv->power_limit(), SlaMinCapFor(*srv) - 1e-6);
        }
    }
}

TEST(LeafController, FailedPullsAreEstimatedFromNeighbors)
{
    LeafRig rig(/*rated=*/10000.0, 10, 0);
    rig.sim.RunFor(Seconds(5));
    const Watts baseline = rig.controller->last_aggregated_power();

    // One agent (10 %) fails: below the 20 % alarm threshold, so the
    // aggregation proceeds with an estimate.
    rig.agents[0]->Crash();
    rig.sim.RunFor(Seconds(6));
    EXPECT_TRUE(rig.controller->last_valid());
    EXPECT_EQ(rig.controller->last_failure_count(), 1u);
    EXPECT_GT(rig.controller->estimated_readings(), 0u);
    EXPECT_NEAR(rig.controller->last_aggregated_power(), baseline,
                baseline * 0.05);
}

TEST(LeafController, TooManyFailuresRaiseAlarmInsteadOfActing)
{
    LeafRig rig(/*rated=*/2200.0, 10, 0);  // over threshold
    // 3 of 10 agents down: 30 % > 20 % -> invalid aggregation.
    rig.agents[0]->Crash();
    rig.agents[1]->Crash();
    rig.agents[2]->Crash();
    rig.sim.RunFor(Seconds(5));
    EXPECT_FALSE(rig.controller->last_valid());
    EXPECT_GT(rig.controller->invalid_aggregations(), 0u);
    EXPECT_GE(rig.log.CountOf(telemetry::EventKind::kAlarm), 1u);
    // Crucially, no capping was attempted on bad data.
    EXPECT_FALSE(rig.controller->capping());
    EXPECT_EQ(rig.controller->capped_count(), 0u);
}

TEST(LeafController, ContractualLimitTriggersCapping)
{
    LeafRig rig(/*rated=*/10000.0, 10, 0);  // physically comfortable
    rig.sim.RunFor(Seconds(10));
    ASSERT_FALSE(rig.controller->capping());
    const Watts aggregated = rig.controller->last_aggregated_power();

    // Parent squeezes us: contractual limit below current draw.
    rig.controller->SetContractualLimit(aggregated * 0.9);
    EXPECT_NEAR(rig.controller->EffectiveLimit(), aggregated * 0.9, 1e-6);
    rig.sim.RunFor(Minutes(1));
    EXPECT_TRUE(rig.controller->capping());
    EXPECT_LE(rig.TruePower(), aggregated * 0.9);

    rig.controller->ClearContractualLimit();
    EXPECT_DOUBLE_EQ(rig.controller->EffectiveLimit(), 10000.0);
    rig.sim.RunFor(Minutes(1));
    EXPECT_FALSE(rig.controller->capping());
}

TEST(LeafController, NonCappableLoadCountsTowardAggregate)
{
    LeafRig rig(/*rated=*/10000.0, 5, 0);
    power::FixedLoad tor(500.0);
    rig.device.AttachLoad(&tor);
    rig.sim.RunFor(Seconds(5));
    Watts server_sum = 0.0;
    for (auto& srv : rig.servers) server_sum += srv->PowerAt(rig.sim.Now());
    EXPECT_NEAR(rig.controller->last_aggregated_power(), server_sum + 500.0,
                server_sum * 0.03);
}

TEST(LeafController, FloorIsSlaSum)
{
    LeafRig rig(/*rated=*/10000.0, 4, 0);
    Watts expected = 0.0;
    for (auto& srv : rig.servers) expected += SlaMinCapFor(*srv);
    EXPECT_NEAR(rig.controller->Floor(), expected, 1.0);
}

TEST(LeafController, DeactivateStopsCycles)
{
    LeafRig rig(/*rated=*/10000.0, 4, 0);
    rig.sim.RunFor(Seconds(5));
    const auto count = rig.controller->aggregations();
    rig.controller->Deactivate();
    rig.sim.RunFor(Minutes(1));
    EXPECT_EQ(rig.controller->aggregations(), count);
}

TEST(LeafController, ServesParentReadEndpoint)
{
    LeafRig rig(/*rated=*/10000.0, 4, 0);
    rig.sim.RunFor(Seconds(5));
    api::PowerReadResult read;
    rig.transport.Call("ctl:rpp0", api::PowerReadRequest{},
                       [&](const rpc::Reply& reply) {
                           ASSERT_TRUE(reply.ok());
                           read = std::get<api::PowerReadResult>(
                               reply.response());
                       });
    rig.sim.RunFor(Seconds(1));
    EXPECT_TRUE(read.status.ok());
    EXPECT_EQ(read.source, "ctl:rpp0");
    EXPECT_NEAR(read.power, rig.controller->last_aggregated_power(), 1e-6);
    EXPECT_DOUBLE_EQ(read.quota, 10000.0);
}

}  // namespace
}  // namespace dynamo::core
