#include "policy/three_band_planner.h"

namespace dynamo::policy {

void
ThreeBandPlanner::PlanServerCuts(
    const std::vector<core::ServerPowerInfo>& servers, Watts cut,
    const PolicyContext& ctx, core::CappingWorkspace& ws,
    core::CappingPlan* plan)
{
    core::ComputeCappingPlan(servers, cut, ctx.bucket_size, ws, plan);
}

void
ThreeBandPlanner::PlanChildLimits(
    const std::vector<core::ChildPowerInfo>& children, Watts cut,
    const PolicyContext& ctx, core::CappingWorkspace& ws,
    core::OffenderPlan* plan)
{
    core::ComputeOffenderPlan(children, cut, ctx.bucket_size, ws, plan);
}

}  // namespace dynamo::policy
