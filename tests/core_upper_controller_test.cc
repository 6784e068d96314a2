// Tests for upper-level controllers: aggregation over children,
// punish-offender-first coordination via contractual limits, and the
// recursive cap propagation of Section III-D.
#include "core/controller_builder.h"
#include "core/upper_controller.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/agent.h"
#include "core/deployment.h"
#include "core/leaf_controller.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"

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

/**
 * An SB with two RPP children running steady web servers, a leaf
 * controller per RPP, and one upper controller over both.
 */
class SbRig
{
  public:
    SbRig(Watts sb_rated, Watts rpp_quota, int servers_rpp0, int servers_rpp1)
        : transport(sim, 6),
          sb("sb0", power::DeviceLevel::kSb, sb_rated, sb_rated)
    {
        rpp0 = sb.AddChild(std::make_unique<power::PowerDevice>(
            "rpp0", power::DeviceLevel::kRpp, 3000.0, rpp_quota));
        rpp1 = sb.AddChild(std::make_unique<power::PowerDevice>(
            "rpp1", power::DeviceLevel::kRpp, 3000.0, rpp_quota));
        MakeRow(*rpp0, servers_rpp0, 0);
        MakeRow(*rpp1, servers_rpp1, 100);

        upper = ControllerBuilder(sim, transport)
                    .Endpoint("ctl:sb0")
                    .ForDevice(sb)
                    .Child("ctl:rpp0")
                    .Child("ctl:rpp1")
                    .Log(&log)
                    .BuildUpper();
        upper->Activate();
    }

    void MakeRow(power::PowerDevice& rpp, int n, int seed_base)
    {
        for (int i = 0; i < n; ++i) {
            server::SimServer::Config config;
            config.name = rpp.name() + "/s" + std::to_string(i);
            config.service = workload::ServiceType::kWeb;
            config.seed = 200 + static_cast<std::uint64_t>(seed_base + i);
            servers.push_back(
                std::make_unique<server::SimServer>(config, SteadyLoad(0.6)));
            rpp.AttachLoad(servers.back().get());
            agents.push_back(std::make_unique<DynamoAgent>(
                sim, transport, *servers.back(),
                Deployment::AgentEndpoint(servers.back()->name())));
        }
        ControllerBuilder builder(sim, transport);
        builder.Endpoint(Deployment::ControllerEndpoint(rpp.name()))
            .ForDevice(rpp)
            .Log(&log);
        for (power::PowerLoad* load : rpp.loads()) {
            builder.Agent(AgentInfoFor(*static_cast<server::SimServer*>(load)));
        }
        leaves.push_back(builder.BuildLeaf());
        leaves.back()->Activate();
    }

    Watts SbPower() { return sb.TotalPower(sim.Now()); }

    sim::Simulation sim;
    rpc::SimTransport transport;
    power::PowerDevice sb;
    power::PowerDevice* rpp0 = nullptr;
    power::PowerDevice* rpp1 = nullptr;
    telemetry::EventLog log;
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<DynamoAgent>> agents;
    std::vector<std::unique_ptr<LeafController>> leaves;
    std::unique_ptr<UpperController> upper;
};

TEST(UpperController, AggregatesChildControllers)
{
    SbRig rig(/*sb_rated=*/10000.0, /*rpp_quota=*/3000.0, 10, 6);
    rig.sim.RunFor(Seconds(15));  // leaf cycles + one upper cycle
    ASSERT_TRUE(rig.upper->last_valid());
    EXPECT_NEAR(rig.upper->last_aggregated_power(), rig.SbPower(),
                rig.SbPower() * 0.05);
    EXPECT_EQ(rig.upper->child_count(), 2u);
}

TEST(UpperController, NoActionWhenComfortable)
{
    SbRig rig(10000.0, 3000.0, 10, 6);
    rig.sim.RunFor(Minutes(2));
    EXPECT_FALSE(rig.upper->capping());
    EXPECT_EQ(rig.upper->contracted_count(), 0u);
}

TEST(UpperController, PunishesOffenderWithContractualLimit)
{
    // rpp0 (10 servers, ~2.3 KW) is over its 1.75 KW quota; rpp1
    // (6 servers, ~1.4 KW) is under. SB rated 3.5 KW is over-threshold,
    // so the cut must land on rpp0 alone — the paper's worked example.
    SbRig rig(/*sb_rated=*/3500.0, /*rpp_quota=*/1750.0, 10, 6);
    rig.sim.RunFor(Minutes(1));
    EXPECT_TRUE(rig.upper->capping());
    EXPECT_EQ(rig.upper->contracted_count(), 1u);
    EXPECT_TRUE(rig.leaves[0]->contractual_limit().has_value());
    EXPECT_FALSE(rig.leaves[1]->contractual_limit().has_value());
    // The leaf folds the contract into min(physical, contractual).
    EXPECT_LT(rig.leaves[0]->EffectiveLimit(), 3000.0);
}

TEST(UpperController, CapPropagatesToServersAndHoldsSbBelowLimit)
{
    SbRig rig(3500.0, 1750.0, 10, 6);
    rig.sim.RunFor(Minutes(2));
    // Only rpp0's servers got capped.
    bool any_rpp0_capped = false;
    for (auto& srv : rig.servers) {
        if (srv->name().rfind("rpp0", 0) == 0 && srv->capped()) {
            any_rpp0_capped = true;
        }
        if (srv->name().rfind("rpp1", 0) == 0) {
            EXPECT_FALSE(srv->capped());
        }
    }
    EXPECT_TRUE(any_rpp0_capped);
    EXPECT_LE(rig.SbPower(), 0.99 * 3500.0);
}

TEST(UpperController, UncapClearsContracts)
{
    SbRig rig(3500.0, 1750.0, 10, 6);
    rig.sim.RunFor(Minutes(2));
    ASSERT_TRUE(rig.upper->capping());
    for (auto& srv : rig.servers) srv->load().set_balancer_factor(0.45);
    rig.sim.RunFor(Minutes(2));
    EXPECT_FALSE(rig.upper->capping());
    EXPECT_EQ(rig.upper->contracted_count(), 0u);
    EXPECT_FALSE(rig.leaves[0]->contractual_limit().has_value());
    // And the leaf eventually uncaps its servers too.
    for (auto& srv : rig.servers) EXPECT_FALSE(srv->capped());
}

TEST(UpperController, ChildControllerFailureUsesLastKnown)
{
    SbRig rig(10000.0, 3000.0, 10, 6);
    rig.sim.RunFor(Seconds(15));
    const Watts before = rig.upper->last_aggregated_power();
    rig.leaves[1]->Deactivate();  // child endpoint goes dark
    rig.sim.RunFor(Seconds(20));
    // One of two children failing is 50 % > 34 % -> alarm path.
    EXPECT_GT(rig.upper->invalid_aggregations(), 0u);
    EXPECT_GE(rig.log.CountOf(telemetry::EventKind::kAlarm), 1u);
    (void)before;
}

TEST(UpperController, ThreeChildrenToleratesOneFailure)
{
    SbRig rig(10000.0, 3000.0, 6, 6);
    // Add a third row.
    auto* rpp2 = rig.sb.AddChild(std::make_unique<power::PowerDevice>(
        "rpp2", power::DeviceLevel::kRpp, 3000.0, 3000.0));
    rig.MakeRow(*rpp2, 6, 300);
    rig.upper->AddChild("ctl:rpp2");

    rig.sim.RunFor(Seconds(15));
    ASSERT_TRUE(rig.upper->last_valid());
    const Watts before = rig.upper->last_aggregated_power();
    rig.leaves[2]->Deactivate();
    rig.sim.RunFor(Seconds(20));
    // 1/3 failures < 34 %: still valid, using the child's last value.
    EXPECT_TRUE(rig.upper->last_valid());
    EXPECT_NEAR(rig.upper->last_aggregated_power(), before, before * 0.1);
}

TEST(UpperController, ReportsToItsOwnParentEndpoint)
{
    SbRig rig(10000.0, 3000.0, 6, 6);
    rig.sim.RunFor(Seconds(15));
    api::PowerReadResult read;
    rig.transport.Call("ctl:sb0", api::PowerReadRequest{},
                       [&](const rpc::Reply& reply) {
                           ASSERT_TRUE(reply.ok());
                           read = std::get<api::PowerReadResult>(
                               reply.response());
                       });
    rig.sim.RunFor(Seconds(1));
    EXPECT_TRUE(read.status.ok());
    EXPECT_GT(read.power, 0.0);
    // Floor aggregates the children's floors.
    EXPECT_GT(read.floor, 0.0);
}

TEST(UpperController, LastChildResponseExposesQuota)
{
    SbRig rig(10000.0, 1750.0, 6, 6);
    rig.sim.RunFor(Seconds(15));
    const auto resp = rig.upper->LastChildResponse("ctl:rpp0");
    ASSERT_TRUE(resp.has_value());
    EXPECT_DOUBLE_EQ(resp->quota, 1750.0);
    EXPECT_EQ(rig.upper->LastChildResponse("ctl:nope"), std::nullopt);
}

TEST(UpperController, MidCycleRemoveChildKeepsEachReadingWithItsChild)
{
    SbRig rig(10000.0, 3000.0, 6, 6);
    auto* rpp2 = rig.sb.AddChild(std::make_unique<power::PowerDevice>(
        "rpp2", power::DeviceLevel::kRpp, 3000.0, 2500.0));
    rig.MakeRow(*rpp2, 6, 300);
    rig.upper->AddChild("ctl:rpp2");

    // The upper's first cycle issues its three pulls at 9 s; drop the
    // middle child 1 ms later, before any response can land.
    rig.sim.RunUntil(Seconds(9) + 1);
    ASSERT_EQ(rig.upper->LastChildResponse("ctl:rpp0"), std::nullopt);
    ASSERT_TRUE(rig.upper->RemoveChild("ctl:rpp1"));
    rig.sim.RunFor(Seconds(2));  // responses + the upper's aggregation

    for (const char* child : {"ctl:rpp0", "ctl:rpp2"}) {
        const auto resp = rig.upper->LastChildResponse(child);
        ASSERT_TRUE(resp.has_value()) << child;
        EXPECT_EQ(resp->source, child);
    }
    EXPECT_DOUBLE_EQ(rig.upper->LastChildResponse("ctl:rpp2")->quota, 2500.0);
    EXPECT_EQ(rig.upper->LastChildResponse("ctl:rpp1"), std::nullopt);
}

}  // namespace
}  // namespace dynamo::core
