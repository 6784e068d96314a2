/**
 * @file
 * Deployment-mode daemon harness: the piece that runs the *unchanged*
 * Agent / LeafController / UpperController classes as real processes
 * over SocketTransport (tools/dynamo_agentd, tools/dynamo_controllerd).
 *
 * Each daemon loads the same fleet spec and builds the fleet::Fleet it
 * describes with the control plane off (`with_dynamo = false`): the
 * simulator's own topology walk and server draws, so a daemon hosts
 * exactly the servers its simulated twin does. That fleet's kernel
 * and SimTransport stay idle; the daemon instantiates only the
 * component it hosts, on its own clock and socket transport:
 *
 *   - an **agent daemon** hosts the simulated servers of one leaf
 *     device and their DynamoAgents (in production the "server" is the
 *     host hardware; here the SimServer stands in for it);
 *   - a **leaf controller daemon** hosts one LeafController whose
 *     agent roster (endpoints, services, SLA floors) is derived from
 *     the shared spec, with pulls routed to the agent daemon;
 *   - an **upper controller daemon** hosts one UpperController whose
 *     children route to the leaf daemons.
 *
 * Because every daemon builds its fleet from the same spec text, no
 * discovery protocol is needed: endpoint names are the deterministic
 * "agent:<server>" / "ctl:<device>" names the simulator uses, and
 * routing is explicit (--route / --agents / --child flags).
 *
 * The run loop bridges wall time onto the simulation clock: controllers
 * schedule their 3 s / 9 s cycles on `sim::Simulation` as always, and
 * the daemon advances the sim clock to elapsed wall milliseconds
 * between socket poll passes, so the same control logic that runs
 * simulated runs in real time.
 *
 * Each hosted controller also serves "<endpoint>.status" (an
 * api::StatusRequest -> api::StatusResult handler) so operators and
 * the multi-process integration test can observe health, capping, and
 * adoption counters without adding any surface to the controllers.
 */
#ifndef DYNAMO_DAEMON_DAEMON_H_
#define DYNAMO_DAEMON_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/deployment.h"
#include "fleet/fleet.h"
#include "rpc/socket_transport.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace dynamo::daemon {

/** One Dynamo deployment-mode process. */
class Daemon
{
  public:
    enum class Role { kAgent, kLeaf, kUpper };

    struct Options
    {
        Role role = Role::kAgent;

        /** Fleet spec text (the canonical contract shared by peers). */
        std::string spec_text;

        /** Device subtree this daemon serves ("sb0/rpp0", "sb0"). */
        std::string device;

        /** Listen address ("unix:/run/a.sock" / "tcp:127.0.0.1:7100"). */
        std::string listen;

        /** Explicit endpoint routes (endpoint -> address text). */
        std::vector<std::pair<std::string, std::string>> routes;

        /** Leaf: address serving every agent under `device`. */
        std::string agents_at;

        /** Upper: child device -> address of the leaf daemon. */
        std::vector<std::pair<std::string, std::string>> children;

        /** Fleet-spec epoch stamped into outgoing frames. */
        std::uint64_t epoch = 0;

        /** poll(2) budget per loop pass, ms (sim clock granularity). */
        int poll_budget_ms = 10;
    };

    /**
     * Build the daemon: build the spec's fleet, bind the listen socket,
     * construct + activate the hosted component, register the status
     * endpoint. Throws on a bad spec, unknown device, or bind failure.
     */
    explicit Daemon(Options options);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /**
     * One loop pass: poll sockets, then advance the sim clock to the
     * wall-clock milliseconds elapsed since construction. Returns the
     * number of frames dispatched.
     */
    std::size_t Step();

    /**
     * Pump Step() until `run_for_ms` wall milliseconds have elapsed
     * (0 = until StopRequested(), i.e. SIGTERM/SIGINT after
     * InstallSignalHandlers).
     */
    void Run(std::int64_t run_for_ms = 0);

    /** Install SIGTERM/SIGINT handlers that make Run() return. */
    static void InstallSignalHandlers();

    /** True once a termination signal was received. */
    static bool StopRequested();

    rpc::SocketTransport& transport() { return transport_; }
    sim::Simulation& sim() { return sim_; }

    /** Hosted agents, one per server under `device` (agent daemons). */
    const std::vector<std::unique_ptr<core::DynamoAgent>>& agents() const
    {
        return agents_;
    }

    /** Hosted controller endpoint name ("" for agent daemons). */
    const std::string& controller_endpoint() const { return endpoint_; }

  private:
    void BuildAgentRole();
    void BuildLeafRole();
    void BuildUpperRole();
    void RegisterStatusEndpoint();
    rpc::Payload HandleStatus(const rpc::Payload& request);

    /** Device by name; throws std::invalid_argument when unknown. */
    power::PowerDevice& Device(const std::string& device_name);

    Options options_;
    sim::Simulation sim_;
    rpc::SocketTransport transport_;
    telemetry::MetricsRegistry metrics_;

    /** The spec's fleet, control plane off: devices and servers only. */
    fleet::Fleet fleet_;

    /** Hosted components (per role; the others stay empty). */
    std::vector<std::unique_ptr<core::DynamoAgent>> agents_;
    std::unique_ptr<core::LeafController> leaf_;
    std::unique_ptr<core::UpperController> upper_;

    std::string endpoint_;  // controller endpoint or "agentd:<device>"
    std::chrono::steady_clock::time_point start_;
};

/**
 * Shared main() body for the two daemon binaries: parse flags, build
 * the daemon, install signal handlers, run. `fixed_role` pins agentd;
 * controllerd passes nullopt and requires --level leaf|upper.
 * Returns the process exit code; prints usage/errors to stderr.
 */
int DaemonMain(int argc, char** argv, const char* binary_name,
               std::optional<Daemon::Role> fixed_role);

}  // namespace dynamo::daemon

#endif  // DYNAMO_DAEMON_DAEMON_H_
