/**
 * @file
 * Upper-level power controllers (Section III-D).
 *
 * One upper-level controller protects each non-leaf power device (SB,
 * MSB). It pulls aggregated power from its child controllers on a
 * cycle 3× the leaf cycle (9 s, to stay slower than downstream
 * settling per control-theory practice), runs the same three-band
 * algorithm against min(physical, contractual) limit, and coordinates
 * with its children through *punish-offender-first*: children over
 * their planned-peak quota absorb the cut first, expressed as
 * contractual power limits that the children fold into their own
 * decisions (recursively, for multi-level hierarchies).
 */
#ifndef DYNAMO_CORE_UPPER_CONTROLLER_H_
#define DYNAMO_CORE_UPPER_CONTROLLER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "core/controller.h"
#include "policy/capping_policy.h"

namespace dynamo::core {

/** Upper-level (SB/MSB) power controller. */
class UpperController : public Controller
{
  public:
    struct Config
    {
        ControllerBaseConfig base{/*pull_cycle=*/9000, /*response_wait=*/1000,
                                  /*rpc_timeout=*/900, ThreeBandConfig{},
                                  /*max_failure_fraction=*/0.34};

        /** High-bucket-first width for child cuts (KW scale). */
        Watts bucket_size = 2000.0;

        /**
         * Capping brain computing the child-limit split (the policy
         * lab). three_band is the paper's punish-offender-first
         * planner and the default.
         */
        policy::PolicyKind capping_policy = policy::PolicyKind::kThreeBand;
    };

    /** Register one child controller endpoint. */
    void AddChild(const std::string& endpoint);

    /**
     * Drop one child from the roster (reconfiguration: the subtree was
     * decommissioned or re-parented). Any standing contract bookkeeping
     * for it goes with it — the new parent re-learns the child's
     * contract through adoption. Returns false if unknown.
     */
    bool RemoveChild(const std::string& endpoint);

    std::size_t child_count() const { return children_.size(); }

    /** Children currently under a contractual limit from us. */
    std::size_t contracted_count() const;

    /** Contract re-issues sent to already-contracted children. */
    std::uint64_t contracts_reaffirmed() const { return contracts_reaffirmed_; }

    /**
     * Child-reported contracts this instance adopted without having
     * issued them — a predecessor's limits surviving promotion, or an
     * uncap command lost in flight. The upper-level analogue of a leaf
     * adopting orphaned RAPL caps.
     */
    std::uint64_t contracts_adopted() const { return contracts_adopted_; }

    /** Quota/floor data discovered from a child (for tests). */
    std::optional<api::PowerReadResult> LastChildResponse(
        const std::string& endpoint) const;

    /** The capping brain in force (for tests and status surfaces). */
    policy::PolicyKind capping_policy() const { return policy_->kind(); }

    Watts Floor() const override;

    const Config& config() const { return upper_config_; }

    /** Base state plus the per-child contract cache. */
    void Snapshot(Archive& ar) const override;

  protected:
    /**
     * Construction goes through ControllerBuilder (the one validated
     * path); kept protected so tests and benchmarks may still
     * subclass.
     */
    UpperController(sim::Simulation& sim, rpc::Transport& transport,
                    std::string endpoint, Watts physical_limit, Watts quota,
                    Config config, telemetry::EventLog* log);

    void RunCycle() override;

    std::size_t ControlledCount() const override { return contracted_count(); }

    const char* MetricPrefix() const override { return "upper"; }

  private:
    friend class ControllerBuilder;

    struct ChildState
    {
        std::string endpoint;

        /** Interned endpoint id, resolved once in AddChild. */
        rpc::EndpointId id = rpc::kInvalidEndpoint;

        std::optional<api::PowerReadResult> current;
        api::PowerReadResult last;
        bool have_last = false;
        SimTime last_time = 0;  ///< When `last` was read (TTL check).
        bool contracted = false;
        Watts limit = 0.0;

        /** Decision span that set the standing contract (or kNoSpan). */
        telemetry::SpanId span = telemetry::kNoSpan;
    };

    void Aggregate();
    void ExecutePlan(const OffenderPlan& plan, telemetry::SpanId span_id);

    /**
     * Re-send standing contractual limits to contracted children.
     * Children keep no durable state across failover, so a promoted
     * backup only learns its outstanding contract when the parent
     * repeats it; re-issuing every settled cycle bounds that window
     * to one pull period.
     */
    void ReaffirmContracts();

    void ClearContracts();

    Config upper_config_;

    /** The selected capping brain (never null). */
    std::unique_ptr<policy::CappingPolicy> policy_;

    std::vector<ChildState> children_;

    /**
     * Per-cycle scratch, reused so aggregation is allocation-free.
     * `fresh_child_[i]` maps infos_[i] (fresh children only) back to
     * its index in children_, letting plan limits address children by
     * index without name lookups.
     */
    std::vector<ChildPowerInfo> infos_;
    std::vector<std::uint32_t> fresh_child_;
    CappingWorkspace offender_ws_;
    OffenderPlan offender_plan_;

    std::size_t last_failure_count_ = 0;
    std::uint64_t contracts_reaffirmed_ = 0;
    std::uint64_t contracts_adopted_ = 0;
};

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_UPPER_CONTROLLER_H_
