// Tests for the deployment builder: controller hierarchy mirrors the
// power hierarchy, agents cover all servers, metadata is derived from
// service traits.
#include "core/deployment.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "power/topology.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "workload/load_process.h"

namespace dynamo::core {
namespace {

struct Rig
{
    Rig()
        : transport(sim, 4)
    {
        power::TopologySpec spec;
        spec.sbs_per_msb = 2;
        spec.rpps_per_sb = 2;
        root = power::BuildMsbTree(spec);
        // Two servers on every RPP.
        int counter = 0;
        for (power::PowerDevice* rpp :
             root->DevicesAtLevel(power::DeviceLevel::kRpp)) {
            for (int i = 0; i < 2; ++i) {
                server::SimServer::Config config;
                config.name = "srv" + std::to_string(counter);
                config.service = counter % 2 == 0
                                     ? workload::ServiceType::kWeb
                                     : workload::ServiceType::kCache;
                config.seed = static_cast<std::uint64_t>(500 + counter);
                ++counter;
                servers.push_back(std::make_unique<server::SimServer>(
                    config,
                    workload::LoadProcessParams::For(config.service)));
                rpp->AttachLoad(servers.back().get());
            }
        }
    }

    sim::Simulation sim;
    rpc::SimTransport transport;
    std::unique_ptr<power::PowerDevice> root;
    std::vector<std::unique_ptr<server::SimServer>> servers;
};

TEST(Deployment, HierarchyMirrorsPowerTree)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    // 2 SBs x 2 RPPs: 4 leaf controllers, 2 SB uppers + 1 MSB upper.
    EXPECT_EQ(deployment->leaf_controllers().size(), 4u);
    EXPECT_EQ(deployment->upper_controllers().size(), 3u);
    EXPECT_EQ(deployment->agents().size(), rig.servers.size());
    EXPECT_NE(deployment->FindUpper("ctl:msb0"), nullptr);
    EXPECT_NE(deployment->FindUpper("ctl:msb0/sb1"), nullptr);
    EXPECT_NE(deployment->FindLeaf("ctl:msb0/sb0/rpp1"), nullptr);
    EXPECT_EQ(deployment->FindLeaf("ctl:nope"), nullptr);
}

TEST(Deployment, UppersWiredToTheirChildren)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    EXPECT_EQ(deployment->FindUpper("ctl:msb0")->child_count(), 2u);
    EXPECT_EQ(deployment->FindUpper("ctl:msb0/sb0")->child_count(), 2u);
}

TEST(Deployment, LeafRostersCoverTheirServers)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    for (const auto& leaf : deployment->leaf_controllers()) {
        EXPECT_EQ(leaf->agent_count(), 2u);
    }
}

TEST(Deployment, AgentsServeReads)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    DynamoAgent* agent = deployment->FindAgent("agent:srv0");
    ASSERT_NE(agent, nullptr);
    EXPECT_TRUE(agent->alive());
    rig.sim.RunFor(Seconds(10));
    // The leaf controllers have been pulling this agent.
    EXPECT_GT(agent->reads_served(), 0u);
}

TEST(Deployment, FindsAgentsByEndpointThroughRemoveAndAdopt)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    for (const auto& server : rig.servers) {
        DynamoAgent* agent =
            deployment->FindAgent(Deployment::AgentEndpoint(server->name()));
        ASSERT_NE(agent, nullptr) << server->name();
        EXPECT_EQ(&agent->server(), server.get());
    }
    // An interned name that is no agent's, and a name never interned.
    EXPECT_EQ(deployment->FindAgent("ctl:msb0"), nullptr);
    EXPECT_EQ(deployment->FindAgent("agent:nope"), nullptr);

    const rpc::EndpointId id =
        deployment->FindAgent("agent:srv0")->endpoint_id();
    ASSERT_TRUE(deployment->RemoveAgent("agent:srv0", rig.transport));
    EXPECT_EQ(deployment->FindAgent("agent:srv0"), nullptr);
    EXPECT_FALSE(deployment->RemoveAgent("agent:srv0", rig.transport));

    // A newly provisioned server takes the released id.
    server::SimServer::Config fresh;
    fresh.name = "srv_new";
    server::SimServer server(
        fresh, workload::LoadProcessParams::For(fresh.service));
    DynamoAgent* adopted =
        deployment->AdoptServer(rig.sim, rig.transport, server);
    EXPECT_EQ(adopted->endpoint_id(), id);
    EXPECT_EQ(deployment->FindAgent("agent:srv_new"), adopted);
    EXPECT_EQ(deployment->FindAgent("agent:srv0"), nullptr);
    EXPECT_EQ(deployment->agents().size(), rig.servers.size());
}

TEST(Deployment, WatchdogCoversAllAgents)
{
    Rig rig;
    DeploymentConfig config;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    ASSERT_NE(deployment->watchdog(), nullptr);
    EXPECT_EQ(deployment->watchdog()->watched_count(),
              deployment->agents().size());
    deployment->FindAgent("agent:srv0")->Crash();
    rig.sim.RunFor(Minutes(1));
    EXPECT_TRUE(deployment->FindAgent("agent:srv0")->alive());
}

TEST(Deployment, NoWatchdogWhenDisabled)
{
    Rig rig;
    DeploymentConfig config;
    config.with_watchdog = false;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    EXPECT_EQ(deployment->watchdog(), nullptr);
}

TEST(Deployment, BackupControllersWhenRequested)
{
    Rig rig;
    DeploymentConfig config;
    config.with_backup_controllers = true;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    // One failover manager per controller (4 leaves + 3 uppers).
    EXPECT_EQ(deployment->failovers().size(), 7u);
    // Crash a leaf; its backup takes over and keeps serving the
    // endpoint.
    LeafController* leaf = deployment->FindLeaf("ctl:msb0/sb0/rpp0");
    leaf->Crash();
    rig.sim.RunFor(Minutes(1));
    EXPECT_TRUE(rig.transport.IsRegistered("ctl:msb0/sb0/rpp0"));
}

TEST(Deployment, LeafLevelConfigurable)
{
    Rig rig;
    DeploymentConfig config;
    config.leaf_level = power::DeviceLevel::kSb;
    auto deployment =
        BuildDeployment(rig.sim, rig.transport, *rig.root, config);
    // Leaves now sit at SB level; only the MSB gets an upper.
    EXPECT_EQ(deployment->leaf_controllers().size(), 2u);
    EXPECT_EQ(deployment->upper_controllers().size(), 1u);
    EXPECT_EQ(deployment->leaf_controllers()[0]->agent_count(), 4u);
}

TEST(SlaMinCap, DerivedFromTraitsAndSpec)
{
    server::SimServer::Config config;
    config.name = "x";
    config.service = workload::ServiceType::kCache;
    config.seed = 1;
    server::SimServer srv(
        config, workload::LoadProcessParams::For(config.service));
    const Watts sla = SlaMinCapFor(srv);
    EXPECT_GT(sla, srv.spec().idle);
    EXPECT_LT(sla, srv.spec().peak);
    const AgentInfo info = AgentInfoFor(srv);
    EXPECT_EQ(info.endpoint, "agent:x");
    EXPECT_EQ(info.priority_group,
              workload::TraitsFor(workload::ServiceType::kCache).priority_group);
    EXPECT_DOUBLE_EQ(info.sla_min_cap, sla);
    EXPECT_GT(info.nominal_power, 0.0);
}

}  // namespace
}  // namespace dynamo::core
