/**
 * @file
 * An agent daemon hosts exactly the servers the simulator builds from
 * the same spec text: same names, generations, sensors and state
 * bytes, GPU training nodes and sensorless servers included. A daemon
 * that derived its servers by a walk of its own would drift from
 * fleet::Fleet the first time a spec field changed the draw order.
 */
#include <stdlib.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/archive.h"
#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "fleet/spec_parser.h"

namespace dynamo {
namespace {

/** One SB of 2 RPPs x 48 servers, with both optional RNG draws on. */
constexpr const char* kSpecText = R"(
scope = sb
rpps_per_sb = 2
servers_per_rpp = 48
gpu_fraction = 0.25
sensorless_fraction = 0.1
seed = 23
)";

std::string
SnapshotBytes(const server::SimServer& srv)
{
    Archive ar;
    srv.Snapshot(ar);
    return ar.bytes();
}

class DaemonRoster : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/dynamo_roster_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
    }

    void TearDown() override
    {
        if (!dir_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(dir_, ignored);
        }
    }

    std::string dir_;
};

TEST_F(DaemonRoster, AgentDaemonHostsTheServersTheSimulatorBuilds)
{
    daemon::Daemon::Options options;
    options.role = daemon::Daemon::Role::kAgent;
    options.spec_text = kSpecText;
    options.device = "sb0";
    options.listen = "unix:" + dir_ + "/agents.sock";
    const daemon::Daemon agentd(std::move(options));

    fleet::Fleet twin(fleet::ParseFleetSpecString(kSpecText));
    const std::vector<server::SimServer*> want = twin.ServersUnder("sb0");
    ASSERT_EQ(want.size(), 96u);
    ASSERT_EQ(agentd.agents().size(), want.size());

    std::size_t gpu = 0;
    std::size_t sensorless = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const server::SimServer& got = agentd.agents()[i]->server();
        SCOPED_TRACE(want[i]->name());
        EXPECT_EQ(got.name(), want[i]->name());
        EXPECT_EQ(got.generation(), want[i]->generation());
        EXPECT_EQ(got.has_sensor(), want[i]->has_sensor());
        EXPECT_EQ(SnapshotBytes(got), SnapshotBytes(*want[i]));
        if (want[i]->generation() == server::ServerGeneration::kGpuTrain2024) {
            ++gpu;
        }
        if (!want[i]->has_sensor()) ++sensorless;
    }
    // Both populations exist, so the comparison covers both draws.
    EXPECT_GT(gpu, 0u);
    EXPECT_GT(sensorless, 0u);
}

}  // namespace
}  // namespace dynamo
