/**
 * @file
 * Dynamo deployment builder.
 *
 * Constructs the full control plane over a power-delivery tree: one
 * agent per server, one leaf controller per device at the configured
 * leaf level (RPP/PDU breaker in Facebook's production setup, which
 * skips rack-level monitoring), and upper-level controllers mirroring
 * the device hierarchy above, each wired to its children. Optionally
 * adds a per-controller backup with failover management, and a
 * watchdog over all agents.
 */
#ifndef DYNAMO_CORE_DEPLOYMENT_H_
#define DYNAMO_CORE_DEPLOYMENT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent.h"
#include "core/early_warning.h"
#include "core/failover.h"
#include "core/leaf_controller.h"
#include "core/upper_controller.h"
#include "core/watchdog.h"
#include "power/device.h"
#include "rpc/transport.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dynamo::core {

/** Knobs for BuildDeployment. */
struct DeploymentConfig
{
    LeafController::Config leaf;
    UpperController::Config upper;

    /** Hierarchy level that gets leaf controllers. */
    power::DeviceLevel leaf_level = power::DeviceLevel::kRpp;

    /** Create standby controller instances plus failover managers. */
    bool with_backup_controllers = false;

    /** Create the agent watchdog. */
    bool with_watchdog = true;

    /**
     * Stagger controller cycle phases so consolidated instances (the
     * paper runs ~100 per binary) don't issue their pull broadcasts in
     * lock-step. Off by default for reproducible single-controller
     * experiments.
     */
    bool stagger_cycles = false;

    /** Create the early-warning monitor over every controller. */
    bool with_early_warning = false;

    /**
     * Wire the deployment's metrics registry and decision-trace log
     * into every controller and agent. On by default; the scale bench
     * turns it off to measure instrumentation overhead.
     */
    bool with_telemetry = true;

    /** Decision-trace ring capacity (spans retained). */
    std::size_t trace_capacity = telemetry::TraceLog::kDefaultCapacity;

    EarlyWarningMonitor::Config early_warning;

    SimTime watchdog_period = 30000;
    SimTime failover_check_period = 5000;
    int failover_miss_threshold = 3;
};

/** The constructed control plane; owns agents, controllers, log. */
class Deployment
{
  public:
    Deployment() = default;
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    telemetry::EventLog& event_log() { return log_; }

    /**
     * Fleet-wide metrics registry. Always present; instruments only
     * record when the config wired them in (with_telemetry).
     */
    telemetry::MetricsRegistry& metrics() { return metrics_; }

    /** Hierarchical decision-trace ring shared by every controller. */
    telemetry::TraceLog& trace_log() { return traces_; }

    const std::vector<std::unique_ptr<DynamoAgent>>& agents() const
    {
        return agents_;
    }

    const std::vector<std::unique_ptr<LeafController>>& leaf_controllers() const
    {
        return leaves_;
    }

    const std::vector<std::unique_ptr<UpperController>>& upper_controllers() const
    {
        return uppers_;
    }

    /** Standby leaf controllers (empty unless backups configured). */
    const std::vector<std::unique_ptr<LeafController>>& leaf_backups() const
    {
        return leaf_backups_;
    }

    /** Standby upper controllers (empty unless backups configured). */
    const std::vector<std::unique_ptr<UpperController>>& upper_backups() const
    {
        return upper_backups_;
    }

    const std::vector<std::unique_ptr<FailoverManager>>& failovers() const
    {
        return failovers_;
    }

    Watchdog* watchdog() { return watchdog_.get(); }

    /** Early-warning monitor; nullptr unless configured. */
    EarlyWarningMonitor* early_warning() { return early_warning_.get(); }

    /** Agent by endpoint ("agent:<server>"); nullptr if absent. The
     *  name resolves through the transport's intern table. */
    DynamoAgent* FindAgent(const std::string& endpoint);

    /** Leaf controller by endpoint ("ctl:<device>"); nullptr if absent. */
    LeafController* FindLeaf(const std::string& endpoint);

    /** Upper controller by endpoint ("ctl:<device>"); nullptr if absent. */
    UpperController* FindUpper(const std::string& endpoint);

    /** Standby leaf instance for a logical endpoint; nullptr if none. */
    LeafController* FindLeafBackup(const std::string& endpoint);

    /** Standby upper instance for a logical endpoint; nullptr if none. */
    UpperController* FindUpperBackup(const std::string& endpoint);

    /**
     * Failover manager guarding a logical endpoint (matched against the
     * manager's primary); nullptr if the endpoint has no standby.
     */
    FailoverManager* FindFailover(const std::string& endpoint);

    /**
     * Planned warm restart of the controller serving `endpoint`: the
     * standby inherits the primary's standing contractual limit (and
     * the span that set it) *before* activating, so the device never
     * sees an uncontracted instant — the difference from an unplanned
     * failover, where the promoted backup must re-learn the contract
     * through reaffirmation. Consumes the standby (the failover
     * manager is marked switched). Returns false when the endpoint has
     * no unswitched standby.
     */
    bool SwapController(const std::string& endpoint);

    /**
     * Adopt a newly provisioned server into the control plane: create
     * and activate its agent, wire the shared metrics (when telemetry
     * was built in), and add it to the watchdog roster. The caller
     * wires the agent into its leaf controller(s) via AddAgent.
     */
    DynamoAgent* AdoptServer(sim::Simulation& sim,
                             rpc::Transport& transport,
                             server::SimServer& server);

    /**
     * Decommission one agent: off the watchdog roster, destroyed, and
     * its transport endpoint deregistered (name released, id
     * recycled). Returns false if unknown.
     */
    bool RemoveAgent(const std::string& endpoint,
                     rpc::Transport& transport);

    /**
     * Decommission a leaf controller: deactivates primary and standby
     * (and retires them, see retired_), destroys their failover
     * manager, drops them from the early-warning roster, and
     * deregisters the logical endpoint. Returns false if unknown.
     */
    bool RemoveLeaf(const std::string& endpoint,
                    rpc::Transport& transport);

    /** Conventional endpoint names. */
    static std::string AgentEndpoint(const std::string& server_name)
    {
        return "agent:" + server_name;
    }

    static std::string ControllerEndpoint(const std::string& device_name)
    {
        return "ctl:" + device_name;
    }

    /**
     * Serialize the whole control plane: every agent, leaf and upper
     * controller (including standbys), and the decision-trace ring.
     * Wall-clock metrics (cycle-duration histograms) are deliberately
     * excluded — they are nondeterministic across runs.
     */
    void Snapshot(Archive& ar) const;

  private:
    friend class DeploymentBuilder;

    /** File `agent` under its endpoint id in agent_by_id_. */
    void IndexAgent(DynamoAgent* agent);

    telemetry::EventLog log_;
    telemetry::MetricsRegistry metrics_;
    telemetry::TraceLog traces_;
    std::vector<std::unique_ptr<DynamoAgent>> agents_;
    std::vector<std::unique_ptr<LeafController>> leaves_;
    std::vector<std::unique_ptr<UpperController>> uppers_;
    std::vector<std::unique_ptr<LeafController>> leaf_backups_;
    std::vector<std::unique_ptr<UpperController>> upper_backups_;
    std::vector<std::unique_ptr<FailoverManager>> failovers_;

    /**
     * Decommissioned controllers, deactivated but kept alive: pulls
     * they issued may still complete, and those callbacks hold `this`.
     * Not part of the snapshot.
     */
    std::vector<std::unique_ptr<Controller>> retired_;

    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<EarlyWarningMonitor> early_warning_;

    /** The transport's intern table: the only copy of agent names. */
    const rpc::EndpointTable* endpoints_ = nullptr;

    /** Agent per EndpointId; nullptr where the id names no agent. */
    std::vector<DynamoAgent*> agent_by_id_;
    std::unordered_map<std::string, LeafController*> leaf_by_endpoint_;
    std::unordered_map<std::string, UpperController*> upper_by_endpoint_;

    /** True when BuildDeployment wired metrics/traces (with_telemetry). */
    bool telemetry_wired_ = false;
};

/**
 * Build and activate the control plane for the subtree under `root`.
 * Servers are discovered as SimServer loads attached to devices in
 * each leaf-level subtree. The returned deployment must not outlive
 * `sim`, `transport`, `root`, or the servers.
 */
std::unique_ptr<Deployment> BuildDeployment(sim::Simulation& sim,
                                            rpc::Transport& transport,
                                            power::PowerDevice& root,
                                            const DeploymentConfig& config);

/** The SLA minimum power cap for a server per its service traits. */
Watts SlaMinCapFor(const server::SimServer& server);

/** AgentInfo for a server, using its spec and service traits. */
AgentInfo AgentInfoFor(const server::SimServer& server);

/** Every SimServer attached in `device`'s subtree, in pre-order. */
std::vector<server::SimServer*> ServersUnder(power::PowerDevice& device);

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_DEPLOYMENT_H_
