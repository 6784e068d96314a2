/**
 * @file
 * The leaf power controller (Section III-C).
 *
 * One leaf controller protects one lowest-level power device (an RPP
 * or PDU breaker in Facebook's deployment) and is the only controller
 * type that talks to agents. Every pull cycle (3 s — fast enough per
 * the variation study, slower than the 2 s RAPL settling) it
 * broadcasts power pulls to all downstream agents, aggregates,
 * estimates readings for failed pulls from same-service neighbours
 * (alarming instead of acting when more than 20 % fail), runs the
 * three-band algorithm against min(physical, contractual) limit, and
 * when capping distributes the total-power-cut priority-group-first /
 * high-bucket-first and pushes per-server RAPL caps.
 */
#ifndef DYNAMO_CORE_LEAF_CONTROLLER_H_
#define DYNAMO_CORE_LEAF_CONTROLLER_H_

#include <optional>
#include <string>
#include <vector>

#include <memory>

#include "core/allocation.h"
#include "core/controller.h"
#include "core/load_shed.h"
#include "policy/capping_policy.h"
#include "power/breaker_telemetry.h"
#include "power/device.h"
#include "workload/service.h"

namespace dynamo::core {

/**
 * Static metadata of one downstream agent, as handed to AddAgent. The
 * controller interns `endpoint` in its transport and keeps the id, not
 * the string.
 */
struct AgentInfo
{
    std::string endpoint;
    workload::ServiceType service = workload::ServiceType::kWeb;

    /** Priority group (lower = capped first). */
    int priority_group = 0;

    /** SLA: lowest power cap allowed for this server. */
    Watts sla_min_cap = 0.0;

    /** Fallback power when no reading or history exists. */
    Watts nominal_power = 150.0;
};

/** Leaf power controller. */
class LeafController : public Controller
{
  public:
    struct Config
    {
        ControllerBaseConfig base{/*pull_cycle=*/3000, /*response_wait=*/1000,
                                  /*rpc_timeout=*/900, ThreeBandConfig{},
                                  /*max_failure_fraction=*/0.2};

        /**
         * High-bucket-first width; the paper uses 20 W (10–30 W ok).
         * 0 makes each priority group a pure water-fill.
         */
        Watts bucket_size = 20.0;

        /**
         * Capping brain computing the cut split (the policy lab).
         * three_band is the paper's planner and the default; see
         * policy/capping_policy.h for the alternatives.
         */
        policy::PolicyKind capping_policy = policy::PolicyKind::kThreeBand;

        /**
         * Safety margin on emergency shed requests: the requested
         * traffic reduction is the unsatisfied cut fraction times
         * this factor.
         */
        double shed_margin = 1.5;

        /**
         * Relative disagreement between the server-side aggregation
         * and the breaker's own (coarse) reading that raises an alarm
         * when breaker telemetry is attached.
         */
        double mismatch_alarm_frac = 0.15;

        /** Mismatch below which no estimator tuning is attempted. */
        double tune_deadband_frac = 0.02;
    };

    /** Add one downstream agent to the roster (before or after Activate). */
    void AddAgent(const AgentInfo& info);

    std::size_t agent_count() const { return agents_.size(); }

    /** Endpoint name of roster entry `i`, read from the transport. */
    const std::string& agent_endpoint(std::size_t i) const
    {
        return transport_.endpoints().Name(agents_[i].id);
    }

    /** Number of servers currently capped by this controller. */
    std::size_t capped_count() const;

    /** Pull failures observed in the most recent aggregation. */
    std::size_t last_failure_count() const { return last_failure_count_; }

    /** Readings replaced by estimates so far (failed pulls). */
    std::uint64_t estimated_readings() const { return estimated_readings_; }

    /**
     * Failed pulls patched with the agent's own last-known-good
     * reading while still within the TTL (subset of
     * estimated_readings).
     */
    std::uint64_t cache_hits() const { return cache_hits_; }

    /**
     * Caps found already in force on servers but not issued by this
     * instance (predecessor's event surviving failover, or a lost
     * uncap command) and adopted into the local capping state.
     */
    std::uint64_t caps_adopted() const { return caps_adopted_; }

    /** Device power used for validation, as the paper's breaker check. */
    power::PowerDevice& device() { return device_; }

    /**
     * Attach the breaker's own coarse power readings; when present,
     * every aggregation is validated against the latest reading and
     * sensorless servers' estimation models are dynamically tuned.
     */
    void AttachBreakerTelemetry(const power::BreakerTelemetry* telemetry)
    {
        breaker_telemetry_ = telemetry;
    }

    /**
     * Attach an emergency traffic shedder (not owned). When a capping
     * plan cannot satisfy the needed cut within SLA floors, the
     * controller requests a proportional traffic reduction for its
     * domain and clears it on uncap.
     */
    void SetLoadShedder(LoadShedder* shedder) { shedder_ = shedder; }

    /** True while an emergency shed request is outstanding. */
    bool shedding() const { return shedding_; }

    /** Shed requests issued so far. */
    std::uint64_t sheds_requested() const { return sheds_requested_; }

    /** Estimator tuning commands sent so far. */
    std::uint64_t tunes_sent() const { return tunes_sent_; }

    /** Validation mismatches that crossed the alarm threshold. */
    std::uint64_t validation_alarms() const { return validation_alarms_; }

    /** Most recent breaker-vs-aggregation relative mismatch. */
    double last_validation_mismatch() const { return last_mismatch_; }

    /** The capping brain in force (for tests and status surfaces). */
    policy::PolicyKind capping_policy() const { return policy_->kind(); }

    Watts Floor() const override;

    const Config& config() const { return leaf_config_; }

    /** Base state plus the per-agent reading cache and issued caps. */
    void Snapshot(Archive& ar) const override;

  protected:
    /**
     * Construction goes through ControllerBuilder (the one validated
     * path); kept protected so tests and benchmarks may still
     * subclass.
     *
     * @param device  The protected power device (rating, quota,
     *                non-cappable loads); not owned.
     */
    LeafController(sim::Simulation& sim, rpc::Transport& transport,
                   std::string endpoint, power::PowerDevice& device,
                   Config config, telemetry::EventLog* log);

    void RunCycle() override;

    std::size_t ControlledCount() const override { return capped_count(); }

    const char* MetricPrefix() const override { return "leaf"; }

  private:
    friend class ControllerBuilder;

    /** The fields of an agent's PowerReadResult that the leaf reads. */
    struct Reading
    {
        Watts power = 0.0;
        Watts power_limit = 0.0;
        bool estimated = false;
        bool capped = false;
    };

    /**
     * One roster entry: AgentInfo's numbers plus the agent's interned
     * endpoint id. The name stays in the transport's intern table; an
     * id is released only after its agent and every roster entry that
     * holds it are gone, so it always names this entry's agent.
     */
    struct AgentState
    {
        /** Interned endpoint id, resolved once in AddAgent. */
        rpc::EndpointId id = rpc::kInvalidEndpoint;
        workload::ServiceType service = workload::ServiceType::kWeb;
        int priority_group = 0;
        bool have_last = false;
        bool capped = false;
        Watts sla_min_cap = 0.0;
        Watts nominal_power = 0.0;

        /**
         * This cycle's reading; nullopt covers "no response yet",
         * "pull failed" and "agent reported a non-ok status" alike.
         */
        std::optional<Reading> current;
        Watts last_power = 0.0;
        SimTime last_time = 0;  ///< When last_power was read (TTL check).
        Watts cap = 0.0;
    };

    void Aggregate();

    /** Validate `aggregated` against breaker telemetry; tune estimators. */
    void ValidateAgainstBreaker(Watts aggregated);

    /**
     * Substitute a failed agent's reading: its own last-known-good
     * value while fresh (within the TTL), then same-service neighbour
     * estimation, then the stale cache, then nominal power.
     */
    Watts EstimateFor(AgentState& agent);

    void ExecuteCapPlan(const CappingPlan& plan);
    void ExecuteUncap();

    power::PowerDevice& device_;
    Config leaf_config_;

    /** The selected capping brain (never null). */
    std::unique_ptr<policy::CappingPolicy> policy_;

    std::vector<AgentState> agents_;

    /** Per-cycle scratch, reused so aggregation is allocation-free. */
    std::vector<Watts> powers_;
    std::vector<ServerPowerInfo> infos_;
    CappingWorkspace capping_ws_;
    CappingPlan capping_plan_;

    std::size_t last_failure_count_ = 0;
    std::uint64_t estimated_readings_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t caps_adopted_ = 0;
    Watts last_noncappable_ = 0.0;
    const power::BreakerTelemetry* breaker_telemetry_ = nullptr;
    LoadShedder* shedder_ = nullptr;
    bool shedding_ = false;
    double shed_fraction_ = 0.0;
    std::uint64_t sheds_requested_ = 0;
    std::uint64_t tunes_sent_ = 0;
    std::uint64_t validation_alarms_ = 0;
    double last_mismatch_ = 0.0;
};

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_LEAF_CONTROLLER_H_
