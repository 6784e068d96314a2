/**
 * @file
 * Multi-process deployment-mode integration test: boots a real mini
 * fleet — one upper controller daemon, two leaf controller daemons,
 * and two agent daemons (10 servers each) — over Unix-domain sockets,
 * drives a capping episode, SIGKILLs a leaf controller mid-capping,
 * and asserts the survivors converge:
 *
 *   - the upper controller's degraded-mode FSM leaves NORMAL once its
 *     child stops answering (1 of 2 children failing exceeds the 0.34
 *     upper failure fraction for the configured entry cycles);
 *   - a restarted leaf adopts the in-flight RAPL caps its predecessor
 *     left on the servers (caps_adopted > 0) instead of stranding
 *     them;
 *   - the upper recovers to NORMAL once the child answers again.
 *
 * The test talks to the daemons the same way they talk to each other:
 * a client SocketTransport issuing api::StatusRequest calls against
 * each daemon's "<endpoint>.status" handler.
 *
 * Daemon binary paths come from the build (DYNAMO_AGENTD_PATH /
 * DYNAMO_CONTROLLERD_PATH compile definitions).
 */
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "core/api.h"
#include "rpc/socket_transport.h"

namespace dynamo {
namespace {

using Clock = std::chrono::steady_clock;

/** The shared spec: over-subscribed RPPs (10 web servers on a 2 kW
 *  breaker) so capping starts within the first few 300 ms cycles. */
constexpr const char* kSpecText = R"(
scope = sb
rpps_per_sb = 2
servers_per_rpp = 10
rpp_rated_kw = 2
mix = web
diurnal_amplitude = 0
seed = 23
leaf_pull_cycle_ms = 300
upper_pull_cycle_ms = 900
response_wait_ms = 150
rpc_timeout_ms = 120
)";

struct ChildProcess
{
    pid_t pid = -1;
    std::string name;
};

class DaemonFleet : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/dynamo_itest_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;

        spec_path_ = dir_ + "/fleet.conf";
        std::ofstream spec(spec_path_);
        spec << kSpecText;
        ASSERT_TRUE(spec.good());

        client_.AddRoute("ctl:sb0/rpp0.status", Addr("l0"));
        client_.AddRoute("ctl:sb0/rpp1.status", Addr("l1"));
        client_.AddRoute("ctl:sb0.status", Addr("u0"));
        client_.AddRoute("agentd:sb0/rpp0.status", Addr("a0"));
        client_.AddRoute("agentd:sb0/rpp1.status", Addr("a1"));
    }

    void TearDown() override
    {
        for (ChildProcess& child : children_) {
            if (child.pid > 0) {
                ::kill(child.pid, SIGKILL);
                ::waitpid(child.pid, nullptr, 0);
            }
        }
        // The children are gone, so nothing still serves on the
        // sockets: drop the spec, the sockets and the directory.
        if (!dir_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(dir_, ignored);
        }
    }

    rpc::SocketAddress Addr(const std::string& tag) const
    {
        return rpc::SocketAddress::Parse("unix:" + dir_ + "/" + tag + ".sock");
    }

    pid_t Spawn(const std::string& name, const char* binary,
                std::vector<std::string> args)
    {
        std::vector<char*> argv;
        std::vector<std::string> storage;
        storage.push_back(binary);
        storage.push_back("--spec");
        storage.push_back(spec_path_);
        for (std::string& a : args) storage.push_back(std::move(a));
        for (std::string& s : storage) argv.push_back(s.data());
        argv.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
            // Quiet the child (its boot banner interleaves with gtest).
            std::freopen("/dev/null", "w", stderr);
            ::execv(binary, argv.data());
            _exit(127);
        }
        if (pid > 0) children_.push_back(ChildProcess{pid, name});
        return pid;
    }

    pid_t SpawnAgentd(const std::string& tag, const std::string& device)
    {
        return Spawn("agentd:" + device, DYNAMO_AGENTD_PATH,
                     {"--device", device, "--listen", Addr(tag).ToString()});
    }

    pid_t SpawnLeaf(const std::string& tag, const std::string& device,
                    const std::string& agents_tag)
    {
        return Spawn("leaf:" + device, DYNAMO_CONTROLLERD_PATH,
                     {"--level", "leaf", "--device", device, "--listen",
                      Addr(tag).ToString(), "--agents",
                      Addr(agents_tag).ToString()});
    }

    pid_t SpawnUpper(const std::string& tag, const std::string& device)
    {
        return Spawn("upper:" + device, DYNAMO_CONTROLLERD_PATH,
                     {"--level", "upper", "--device", device, "--listen",
                      Addr(tag).ToString(), "--child",
                      "sb0/rpp0=" + Addr("l0").ToString(), "--child",
                      "sb0/rpp1=" + Addr("l1").ToString()});
    }

    void KillHard(const std::string& name)
    {
        for (ChildProcess& child : children_) {
            if (child.name == name && child.pid > 0) {
                ASSERT_EQ(::kill(child.pid, SIGKILL), 0);
                ::waitpid(child.pid, nullptr, 0);
                child.pid = -1;
                return;
            }
        }
        FAIL() << "no child named " << name;
    }

    /** One blocking status call; nullopt on error/timeout. */
    std::optional<api::StatusResult> Status(const std::string& endpoint)
    {
        std::optional<api::StatusResult> result;
        bool done = false;
        client_.Call(
            endpoint + ".status", api::StatusRequest{},
            [&](const rpc::Reply& reply) {
                if (const auto* r = reply.get<api::StatusResult>()) {
                    result = *r;
                }
                done = true;
            },
            /*timeout_ms=*/1000);
        const auto deadline = Clock::now() + std::chrono::milliseconds(1500);
        while (!done && Clock::now() < deadline) client_.PollOnce(20);
        return result;
    }

    /**
     * Poll `endpoint`'s status until `pred` holds. Daemons may still
     * be binding their sockets on the first probes, so call failures
     * count as "not yet", not as test failures.
     */
    template <typename Pred>
    std::optional<api::StatusResult> WaitFor(const std::string& endpoint,
                                             Pred pred, int timeout_ms,
                                             const char* what)
    {
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(timeout_ms);
        while (Clock::now() < deadline) {
            std::optional<api::StatusResult> status = Status(endpoint);
            if (status.has_value() && pred(*status)) return status;
            ::usleep(100 * 1000);
        }
        ADD_FAILURE() << "timed out waiting for " << what << " on "
                      << endpoint;
        return std::nullopt;
    }

    std::string dir_;
    std::string spec_path_;
    std::vector<ChildProcess> children_;
    rpc::SocketTransport client_;
};

TEST_F(DaemonFleet, CappingEpisodeSurvivesLeafControllerKill)
{
    // Generous wall-clock budgets: the suite runs under ASan in CI.
    constexpr int kBootMs = 20000;
    constexpr int kConvergeMs = 30000;

    ASSERT_GT(SpawnAgentd("a0", "sb0/rpp0"), 0);
    ASSERT_GT(SpawnAgentd("a1", "sb0/rpp1"), 0);
    ASSERT_GT(SpawnLeaf("l0", "sb0/rpp0", "a0"), 0);
    ASSERT_GT(SpawnLeaf("l1", "sb0/rpp1", "a1"), 0);
    ASSERT_GT(SpawnUpper("u0", "sb0"), 0);

    // Phase 1: the fleet boots and the over-subscribed leaves start a
    // genuine capping episode from real agent readings over sockets.
    const auto capping = WaitFor(
        "ctl:sb0/rpp0",
        [](const api::StatusResult& s) {
            return s.cycles >= 2 && s.capping && s.power > 0.0;
        },
        kBootMs, "leaf capping episode");
    ASSERT_TRUE(capping.has_value());
    EXPECT_EQ(capping->health, "normal");

    const auto agents = WaitFor(
        "agentd:sb0/rpp0",
        [](const api::StatusResult& s) { return s.cycles > 0; }, kBootMs,
        "agent reads served");
    ASSERT_TRUE(agents.has_value());
    EXPECT_GT(agents->power, 0.0);

    // The upper must be aggregating its two children.
    const auto upper_up = WaitFor(
        "ctl:sb0",
        [](const api::StatusResult& s) {
            return s.cycles >= 1 && s.health == "normal" && s.power > 0.0;
        },
        kBootMs, "upper aggregation");
    ASSERT_TRUE(upper_up.has_value());

    // Phase 2: SIGKILL one leaf controller mid-capping. The upper's
    // pulls to ctl:sb0/rpp0 now fail; 1 of 2 children > 34 % failure
    // fraction, so after degraded_entry_cycles consecutive invalid
    // aggregations the upper drops out of NORMAL and freezes releases.
    KillHard("leaf:sb0/rpp0");
    const auto degraded = WaitFor(
        "ctl:sb0",
        [](const api::StatusResult& s) { return s.health != "normal"; },
        kConvergeMs, "upper leaving NORMAL after leaf kill");
    ASSERT_TRUE(degraded.has_value());
    EXPECT_EQ(degraded->health, "degraded");

    // The agents (and their in-force RAPL caps) are still alive — the
    // kill took out the controller, not the servers.
    const auto orphaned = Status("agentd:sb0/rpp0");
    ASSERT_TRUE(orphaned.has_value());
    EXPECT_GT(orphaned->power, 0.0);

    // Phase 3: restart the leaf controller daemon. The new instance
    // must adopt its predecessor's in-flight caps (servers report
    // capped=true with a limit this instance never issued) and the
    // upper must ride the recovery hysteresis back to NORMAL.
    ASSERT_GT(SpawnLeaf("l0", "sb0/rpp0", "a0"), 0);
    const auto adopted = WaitFor(
        "ctl:sb0/rpp0",
        [](const api::StatusResult& s) { return s.caps_adopted > 0; },
        kConvergeMs, "restarted leaf adopting in-flight caps");
    ASSERT_TRUE(adopted.has_value());
    EXPECT_TRUE(adopted->capping);

    const auto recovered = WaitFor(
        "ctl:sb0",
        [](const api::StatusResult& s) { return s.health == "normal"; },
        kConvergeMs, "upper recovering to NORMAL");
    ASSERT_TRUE(recovered.has_value());
    EXPECT_GE(recovered->cycles, upper_up->cycles);
}

}  // namespace
}  // namespace dynamo
