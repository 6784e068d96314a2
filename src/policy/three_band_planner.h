/**
 * @file
 * The paper's brain behind the CappingPolicy interface.
 *
 * A pure delegation shim: PlanServerCuts forwards to the arena
 * planner's workspace entry point with the context's bucket size,
 * PlanChildLimits to the punish-offender-first planner. No state, no observations, zero Snapshot bytes — the
 * refactored call path is bit-identical to the pre-interface one,
 * which the committed golden journals pin.
 */
#ifndef DYNAMO_POLICY_THREE_BAND_PLANNER_H_
#define DYNAMO_POLICY_THREE_BAND_PLANNER_H_

#include "policy/capping_policy.h"

namespace dynamo::policy {

/** `three_band`: priority-group-first / high-bucket-first (paper). */
class ThreeBandPlanner final : public CappingPolicy
{
  public:
    PolicyKind kind() const override { return PolicyKind::kThreeBand; }

    void PlanServerCuts(const std::vector<core::ServerPowerInfo>& servers,
                        Watts cut, const PolicyContext& ctx,
                        core::CappingWorkspace& ws,
                        core::CappingPlan* plan) override;

    void PlanChildLimits(const std::vector<core::ChildPowerInfo>& children,
                         Watts cut, const PolicyContext& ctx,
                         core::CappingWorkspace& ws,
                         core::OffenderPlan* plan) override;
};

}  // namespace dynamo::policy

#endif  // DYNAMO_POLICY_THREE_BAND_PLANNER_H_
