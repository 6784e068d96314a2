/**
 * @file
 * End-to-end fleet harness.
 *
 * Builds a complete simulated data-center slice from a declarative
 * spec: the power-delivery tree, servers with per-service workloads on
 * a shared traffic model (diurnal curve × scriptable scenario curve),
 * top-of-rack switches as non-cappable loads, breaker integration, and
 * (optionally) the full Dynamo control plane. This is the object the
 * experiments and examples drive.
 */
#ifndef DYNAMO_FLEET_FLEET_H_
#define DYNAMO_FLEET_FLEET_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <functional>

#include "common/rng.h"
#include "core/deployment.h"
#include "core/load_shed.h"
#include "fleet/reconfig.h"
#include "power/breaker_monitor.h"
#include "power/breaker_telemetry.h"
#include "power/device.h"
#include "power/topology.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "workload/service.h"
#include "workload/traffic.h"

namespace dynamo::fleet {

/** Proportions of services across a fleet's servers. */
struct ServiceMix
{
    struct Share
    {
        workload::ServiceType service;
        double weight;
    };

    std::vector<Share> shares;

    /** Every server runs `service`. */
    static ServiceMix Single(workload::ServiceType service)
    {
        return ServiceMix{{{service, 1.0}}};
    }

    /** The paper's front-end row: web + cache + feed (Fig. 15 ratios). */
    static ServiceMix FrontEndRow()
    {
        return ServiceMix{{{workload::ServiceType::kWeb, 200.0},
                           {workload::ServiceType::kCache, 200.0},
                           {workload::ServiceType::kNewsfeed, 40.0}}};
    }

    /** A varied data-center mix over all six services. */
    static ServiceMix Datacenter()
    {
        return ServiceMix{{{workload::ServiceType::kWeb, 0.30},
                           {workload::ServiceType::kCache, 0.15},
                           {workload::ServiceType::kHadoop, 0.20},
                           {workload::ServiceType::kDatabase, 0.10},
                           {workload::ServiceType::kNewsfeed, 0.10},
                           {workload::ServiceType::kF4Storage, 0.15}}};
    }
};

/** How much of the hierarchy to instantiate. */
enum class FleetScope { kRpp, kSb, kMsb };

/** Declarative description of a simulated fleet. */
struct FleetSpec
{
    FleetScope scope = FleetScope::kSb;

    /** Device shape/ratings (rpps-per-SB etc. read from here). */
    power::TopologySpec topology;

    /** Servers attached to each RPP (leaf domain size). */
    std::size_t servers_per_rpp = 240;

    ServiceMix mix = ServiceMix::Datacenter();

    /** Fraction of 2015-generation (Haswell) servers; rest are 2011. */
    double haswell_fraction = 0.7;

    /** Fraction of servers without a power sensor (agent estimates). */
    double sensorless_fraction = 0.02;

    /**
     * Fraction of GPU training nodes (kGpuTrain2024). Drawn before the
     * CPU-generation split; 0 (the default) draws nothing, so existing
     * seeds keep their exact RNG streams.
     */
    double gpu_fraction = 0.0;

    /** Turbo Boost enabled fleet-wide (Section IV-B experiments). */
    bool turbo_enabled = false;

    /** Optional per-server power-spec override (custom SKU). */
    std::optional<server::ServerPowerSpec> spec_override;

    /** Non-cappable switch power attached to each RPP. */
    Watts tor_switch_power = 300.0;

    /** Diurnal traffic amplitude (0 disables the diurnal component). */
    double diurnal_amplitude = 0.25;

    std::uint64_t seed = 42;

    /** Build the Dynamo control plane (false = uncontrolled baseline). */
    bool with_dynamo = true;

    /**
     * Attach coarse breaker telemetry to every leaf controller so
     * aggregations are validated and sensorless servers' estimation
     * models are dynamically tuned (Section VI lessons).
     */
    bool with_breaker_validation = false;

    /**
     * Wire a traffic shedder to every leaf controller: when capping
     * bottoms out at the SLA floors, the controller drains part of its
     * domain's traffic instead of letting the breaker trip.
     */
    bool with_load_shedding = false;

    core::DeploymentConfig deployment;

    SimTime breaker_monitor_period = 1000;

    /**
     * Default replay scenario for this spec, as a scenario-spec string
     * ("grid-dr(drop_frac=0.2)"). The fleet itself never reads it —
     * replay-layer tools (replay_cli, benches) resolve it against the
     * scenario catalog; the parser only validates the structure.
     * Empty = no default (tools fall back to their own).
     */
    std::string scenario;
};

/** The instantiated fleet; owns everything it builds. */
class Fleet
{
  public:
    explicit Fleet(FleetSpec spec);

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    sim::Simulation& sim() { return sim_; }
    rpc::SimTransport& transport() { return transport_; }
    power::PowerDevice& root() { return *root_; }
    power::BreakerMonitor& breaker_monitor() { return *monitor_; }

    /** Dynamo control plane; nullptr when spec.with_dynamo is false. */
    core::Deployment* dynamo() { return deployment_.get(); }

    /** Event log (empty when Dynamo is disabled). */
    telemetry::EventLog* event_log()
    {
        return deployment_ ? &deployment_->event_log() : nullptr;
    }

    /** Metrics registry (nullptr when Dynamo is disabled). */
    telemetry::MetricsRegistry* metrics()
    {
        return deployment_ ? &deployment_->metrics() : nullptr;
    }

    /** Decision-trace log (nullptr when Dynamo is disabled). */
    telemetry::TraceLog* trace_log()
    {
        return deployment_ ? &deployment_->trace_log() : nullptr;
    }

    const FleetSpec& spec() const { return spec_; }

    /** All servers (owned by the fleet), in construction order. */
    const std::vector<std::unique_ptr<server::SimServer>>& servers() const
    {
        return servers_;
    }

    /** Servers attached under a given device subtree. */
    std::vector<server::SimServer*> ServersUnder(const std::string& device_name);

    /** Servers of one service. */
    std::vector<server::SimServer*> ServersOf(workload::ServiceType service);

    /**
     * Campaign hooks: RPC endpoint rosters for a device subtree, so
     * chaos campaigns can target correlated faults ("partition this
     * RPP's agents", "storm this SB's controllers") without knowing
     * how the fleet names things.
     */
    std::vector<std::string> AgentEndpointsUnder(const std::string& device_name);

    /** Controller endpoints (leaf + upper) in a device subtree. */
    std::vector<std::string> ControllerEndpointsUnder(
        const std::string& device_name);

    /** Breaker telemetry feeds (empty unless with_breaker_validation). */
    const std::vector<std::unique_ptr<power::BreakerTelemetry>>&
    breaker_telemetry()
    {
        return breaker_telemetry_;
    }

    /**
     * The scriptable scenario traffic curve shared by every server;
     * add breakpoints to drive load tests and surges.
     */
    workload::PiecewiseTraffic& scenario() { return scenario_; }

    /**
     * Multiplier applied by an external (global) load balancer on top
     * of the diurnal and scenario curves — the knob a cross-data-center
     * balancer turns when it shifts traffic between sites.
     */
    void set_global_traffic_factor(double factor) { balancer_.set_factor(factor); }

    double global_traffic_factor() const { return balancer_.factor(); }

    /**
     * Current fleet-spec epoch: 0 at boot, bumped once per committed
     * reconfiguration transaction. Controllers observe it through
     * AttachEpoch and reject contract traffic from older epochs.
     */
    std::uint64_t spec_epoch() const { return spec_epoch_; }

    /**
     * Validate `txn` against the current topology and schedule it to
     * commit atomically at the next upper-cycle window barrier (the
     * next multiple of the upper pull cycle, 9 s by default). Ops in
     * one transaction apply in order with no control cycle in between;
     * the spec epoch bumps exactly once per transaction.
     *
     * @throws std::invalid_argument on a structurally invalid
     *         transaction (unknown device, wrong level, re-parent onto
     *         itself, restart without a standby, ...). Validation runs
     *         against the *current* topology; a transaction invalidated
     *         by an earlier pending one fails at commit with
     *         std::runtime_error instead.
     */
    void ScheduleReconfig(ReconfigTxn txn);

    /** Observer invoked after each committed transaction (journaling). */
    using ReconfigObserver = std::function<void(
        std::uint64_t epoch, SimTime time, const std::string& description)>;

    void set_reconfig_observer(ReconfigObserver observer)
    {
        reconfig_observer_ = std::move(observer);
    }

    /** Reconfiguration transactions committed so far (== spec_epoch). */
    std::uint64_t reconfigs_applied() const { return spec_epoch_; }

    /** Total draw at the root right now. */
    Watts TotalPower() { return root_->TotalPower(sim_.Now()); }

    /** Breaker trips observed so far (outages). */
    std::size_t outage_count() const { return monitor_->trip_count(); }

    /** Advance the simulation. */
    void RunFor(SimTime duration) { sim_.RunFor(duration); }

    /**
     * Serialize the complete fleet state into `ar`: the simulation
     * kernel counters, transport/failure-injector RNG position, every
     * breaker's thermal state (deterministic pre-order device walk),
     * every server (workload position, RAPL, work accounting, RNG),
     * the global balancer factor, and the full control plane. The
     * resulting byte string — and its FNV digest — is bit-exact across
     * runs of the same seed, which is what replay checkpoints compare.
     */
    void Snapshot(Archive& ar) const;

  private:
    void BuildServersFor(power::PowerDevice& rpp, Rng& rng);

    /**
     * Draw one server's settings from `rng` and attach it under `rpp`.
     * Boot-time building and add-servers both come here, so this is
     * the only place a FleetSpec turns into servers.
     */
    server::SimServer& DrawServer(power::PowerDevice& rpp, std::string name,
                                  workload::ServiceType service, Rng& rng);

    void ValidateReconfig(const ReconfigTxn& txn) const;
    void ApplyReconfig(const ReconfigTxn& txn);
    void ApplyAddServers(const ReconfigOp& op);
    void ApplyRemoveSubtree(const ReconfigOp& op);
    void ApplyReparent(const ReconfigOp& op);
    void ApplyRestartController(const ReconfigOp& op);
    void ApplyPromoteUpper(const ReconfigOp& op);

    /** Fleet-side LoadShedder: scales shed factors of a domain's servers. */
    class Shedder : public core::LoadShedder
    {
      public:
        explicit Shedder(Fleet& fleet) : fleet_(fleet) {}

        void RequestShed(const std::string& domain, double fraction) override;
        void ClearShed(const std::string& domain) override;

      private:
        Fleet& fleet_;
    };

    FleetSpec spec_;
    sim::Simulation sim_;
    rpc::SimTransport transport_;
    workload::DiurnalTraffic diurnal_;
    workload::PiecewiseTraffic scenario_;
    workload::ConstantTraffic balancer_{1.0};
    workload::CompositeTraffic traffic_;
    std::unique_ptr<power::PowerDevice> root_;
    std::vector<std::unique_ptr<server::SimServer>> servers_;
    std::vector<std::unique_ptr<power::FixedLoad>> switches_;
    std::unique_ptr<power::BreakerMonitor> monitor_;
    std::unique_ptr<core::Deployment> deployment_;
    std::vector<std::unique_ptr<power::BreakerTelemetry>> breaker_telemetry_;
    std::unique_ptr<Shedder> shedder_;

    /** Bumped once per committed reconfiguration transaction. */
    std::uint64_t spec_epoch_ = 0;

    ReconfigObserver reconfig_observer_;

    /**
     * Decommissioned subtrees are detached from the tree but kept
     * alive: attached FixedLoads (and any breaker-telemetry samplers)
     * still point into them, and keeping the objects dormant is
     * cheaper and safer than chasing every reference.
     */
    std::vector<std::unique_ptr<power::PowerDevice>> retired_devices_;
};

}  // namespace dynamo::fleet

#endif  // DYNAMO_FLEET_FLEET_H_
