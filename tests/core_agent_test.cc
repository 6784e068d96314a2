// Tests for the Dynamo agent: read paths, cap/uncap execution, crash
// and restart semantics.
#include "core/agent.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "core/api.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"

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

class AgentTest : public ::testing::Test
{
  protected:
    AgentTest()
        : transport_(sim_, 3),
          server_(MakeConfig(), SteadyLoad(0.6)),
          agent_(sim_, transport_, server_, "agent:s0")
    {
    }

    static server::SimServer::Config MakeConfig(bool sensor = true)
    {
        server::SimServer::Config config;
        config.name = "s0";
        config.service = workload::ServiceType::kCache;
        config.has_sensor = sensor;
        config.seed = 8;
        return config;
    }

    api::PowerReadResult ReadPower()
    {
        api::PowerReadResult out;
        bool done = false;
        transport_.Call("agent:s0", api::PowerReadRequest{},
                        [&](const rpc::Reply& reply) {
                            ASSERT_TRUE(reply.ok()) << reply.error();
                            out = std::get<api::PowerReadResult>(
                                reply.response());
                            done = true;
                        });
        sim_.RunFor(Seconds(1));
        EXPECT_TRUE(done);
        return out;
    }

    sim::Simulation sim_;
    rpc::SimTransport transport_;
    server::SimServer server_;
    DynamoAgent agent_;
};

TEST_F(AgentTest, PowerReadReturnsSensorValue)
{
    sim_.RunFor(Seconds(10));
    const api::PowerReadResult resp = ReadPower();
    EXPECT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.source, "s0");
    EXPECT_EQ(resp.service, workload::ServiceType::kCache);
    EXPECT_FALSE(resp.estimated);
    EXPECT_FALSE(resp.capped);
    const Watts truth = server_.PowerAt(sim_.Now());
    EXPECT_NEAR(resp.power, truth, truth * 0.05);
    EXPECT_EQ(agent_.reads_served(), 1u);
}

TEST_F(AgentTest, BreakdownIsConsistent)
{
    sim_.RunFor(Seconds(10));
    const api::PowerReadResult resp = ReadPower();
    EXPECT_NEAR(resp.cpu_power + resp.memory_power + resp.other_power +
                    resp.conversion_loss,
                server_.PowerAt(sim_.Now()), 1.0);
}

TEST_F(AgentTest, SetCapAppliesRaplLimit)
{
    sim_.RunFor(Seconds(10));
    const Watts before = server_.PowerAt(sim_.Now());
    bool acked = false;
    transport_.Call("agent:s0", api::CapRequest{before - 40.0},
                    [&](const rpc::Reply& reply) {
                        if (!reply.ok()) return;
                        acked = std::get<api::CapResult>(reply.response())
                                    .status.ok();
                    });
    sim_.RunFor(Seconds(5));
    EXPECT_TRUE(acked);
    EXPECT_TRUE(server_.capped());
    EXPECT_NEAR(server_.PowerAt(sim_.Now()), before - 40.0, 3.0);
    EXPECT_EQ(agent_.caps_applied(), 1u);
}

TEST_F(AgentTest, UncapClearsLimit)
{
    sim_.RunFor(Seconds(10));
    const Watts before = server_.PowerAt(sim_.Now());
    transport_.Call("agent:s0", api::CapRequest{before - 40.0}, {});
    sim_.RunFor(Seconds(5));
    transport_.Call("agent:s0", api::CapRequest{std::nullopt}, {});
    sim_.RunFor(Seconds(5));
    EXPECT_FALSE(server_.capped());
    EXPECT_NEAR(server_.PowerAt(sim_.Now()), before, 3.0);
    EXPECT_EQ(agent_.uncaps_applied(), 1u);
}

TEST_F(AgentTest, CapStatusReflectedInReads)
{
    sim_.RunFor(Seconds(10));
    transport_.Call("agent:s0", api::CapRequest{150.0}, {});
    sim_.RunFor(Seconds(5));
    const api::PowerReadResult resp = ReadPower();
    EXPECT_TRUE(resp.capped);
    EXPECT_DOUBLE_EQ(resp.power_limit, 150.0);
}

TEST_F(AgentTest, UnknownRequestIsNacked)
{
    bool nacked = false;
    // A daemon status probe is an api message agents do not serve.
    transport_.Call("agent:s0", api::StatusRequest{},
                    [&](const rpc::Reply& reply) {
                        if (!reply.ok()) return;
                        const auto& r =
                            std::get<api::CapResult>(reply.response());
                        nacked =
                            r.status.code == api::StatusCode::kUnimplemented;
                    });
    sim_.RunFor(Seconds(1));
    EXPECT_TRUE(nacked);
}

TEST_F(AgentTest, CrashStopsServingAndRestartResumes)
{
    agent_.Crash();
    EXPECT_FALSE(agent_.alive());
    bool failed = false;
    transport_.Call("agent:s0", api::PowerReadRequest{},
                    [&](const rpc::Reply& reply) {
                        EXPECT_FALSE(reply.ok());
                        failed = !reply.ok();
                    });
    sim_.RunFor(Seconds(2));
    EXPECT_TRUE(failed);

    agent_.Restart();
    EXPECT_TRUE(agent_.alive());
    const api::PowerReadResult resp = ReadPower();
    EXPECT_GT(resp.power, 0.0);
}

TEST(AgentSensorless, SensorlessServerReportsEstimated)
{
    sim::Simulation sim;
    rpc::SimTransport transport(sim, 3);
    server::SimServer::Config config;
    config.name = "s1";
    config.has_sensor = false;
    config.seed = 9;
    server::SimServer srv(config, SteadyLoad(0.5));
    DynamoAgent agent(sim, transport, srv, "agent:s1");

    sim.RunFor(Seconds(10));
    bool estimated = false;
    Watts power = 0.0;
    transport.Call("agent:s1", api::PowerReadRequest{},
                   [&](const rpc::Reply& reply) {
                       if (!reply.ok()) return;
                       const auto& r =
                           std::get<api::PowerReadResult>(reply.response());
                       estimated = r.estimated;
                       power = r.power;
                   });
    sim.RunFor(Seconds(1));
    EXPECT_TRUE(estimated);
    const Watts truth = srv.PowerAt(sim.Now());
    EXPECT_NEAR(power, truth, truth * 0.3);
}

}  // namespace
}  // namespace dynamo::core
