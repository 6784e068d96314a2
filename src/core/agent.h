/**
 * @file
 * The Dynamo agent (Section III-B).
 *
 * A deliberately thin request-handler daemon on every server: it reads
 * host power (sensor firmware if present, estimation model otherwise)
 * and executes cap/uncap commands through RAPL. All intelligence lives
 * in the controllers; agents never talk to each other. The agent can
 * be crashed and restarted to exercise the watchdog and the
 * controller's pull-failure estimation paths.
 */
#ifndef DYNAMO_CORE_AGENT_H_
#define DYNAMO_CORE_AGENT_H_

#include <cstdint>
#include <string>

#include "common/archive.h"
#include "core/api.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"

namespace dynamo::telemetry {
class Counter;
class MetricsRegistry;
}  // namespace dynamo::telemetry

namespace dynamo::core {

/** One server's Dynamo agent. */
class DynamoAgent
{
  public:
    /**
     * @param sim        Simulation clock (reads are timestamped on it).
     * @param transport  RPC transport to register on.
     * @param server     Host server (not owned; must outlive the agent).
     * @param endpoint   Transport endpoint name, unique per server.
     *                   Interned in `transport`, which keeps the only
     *                   copy; the agent holds its id.
     */
    DynamoAgent(sim::Simulation& sim, rpc::Transport& transport,
                server::SimServer& server, const std::string& endpoint);

    ~DynamoAgent();

    DynamoAgent(const DynamoAgent&) = delete;
    DynamoAgent& operator=(const DynamoAgent&) = delete;

    /** Endpoint name, read from the transport's intern table. */
    const std::string& endpoint() const
    {
        return transport_.endpoints().Name(endpoint_id_);
    }

    /** Interned id of this agent's endpoint (hot-path RPC key). */
    rpc::EndpointId endpoint_id() const { return endpoint_id_; }
    server::SimServer& server() { return server_; }

    /** Simulate an agent crash: stop serving requests. */
    void Crash();

    /** Restart after a crash (what the watchdog does). */
    void Restart();

    bool alive() const { return alive_; }

    std::uint64_t reads_served() const { return reads_served_; }
    std::uint64_t caps_applied() const { return caps_applied_; }
    std::uint64_t uncaps_applied() const { return uncaps_applied_; }
    std::uint64_t tunes_applied() const { return tunes_applied_; }

    /**
     * Wire fleet-wide agent counters (`agent.reads`, `agent.caps`,
     * `agent.uncaps`, `agent.tunes`) into `registry`; every agent
     * shares the same instruments, so cardinality stays O(1). Pass
     * nullptr to detach.
     */
    void AttachMetrics(telemetry::MetricsRegistry* registry);

    /** Serialize liveness and served-command counters (canonical). */
    void Snapshot(Archive& ar) const
    {
        ar.Str(endpoint());
        ar.Bool(alive_);
        ar.U64(reads_served_);
        ar.U64(caps_applied_);
        ar.U64(uncaps_applied_);
        ar.U64(tunes_applied_);
    }

  private:
    rpc::Payload Handle(const rpc::Payload& request);

    sim::Simulation& sim_;
    rpc::Transport& transport_;
    server::SimServer& server_;
    rpc::EndpointId endpoint_id_ = rpc::kInvalidEndpoint;
    bool alive_ = false;
    std::uint64_t reads_served_ = 0;
    std::uint64_t caps_applied_ = 0;
    std::uint64_t uncaps_applied_ = 0;
    std::uint64_t tunes_applied_ = 0;

    /** Cached metric handles; null when no registry is attached. */
    telemetry::Counter* m_reads_ = nullptr;
    telemetry::Counter* m_caps_ = nullptr;
    telemetry::Counter* m_uncaps_ = nullptr;
    telemetry::Counter* m_tunes_ = nullptr;
};

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_AGENT_H_
