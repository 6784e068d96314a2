#include "policy/predictive_planner.h"

namespace dynamo::policy {
namespace {

/** One Holt update pass over a roster's powers, in roster order. */
template <typename Roster, typename GetPower>
void
HoltUpdate(const Roster& roster, GetPower power_of, std::vector<double>* level,
           std::vector<double>* slope)
{
    const std::size_t n = roster.size();
    if (level->size() != n) {
        // Roster changed (reconfiguration, fresh-set churn): restart
        // the forecast from the current readings with zero trend. A
        // cold forecast predicts exactly the measured power, so the
        // brain degrades to reactive until the trend re-learns.
        level->assign(n, 0.0);
        slope->assign(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            (*level)[i] = power_of(roster[i]);
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double p = power_of(roster[i]);
        const double prev_level = (*level)[i];
        (*level)[i] = PredictivePlanner::kAlpha * p +
                      (1.0 - PredictivePlanner::kAlpha) *
                          (prev_level + (*slope)[i]);
        (*slope)[i] =
            PredictivePlanner::kBeta * ((*level)[i] - prev_level) +
            (1.0 - PredictivePlanner::kBeta) * (*slope)[i];
    }
}

/** cut + max(0, predicted-next-window aggregate − measured aggregate). */
template <typename Roster, typename GetPower>
Watts
WidenedCut(const Roster& roster, GetPower power_of,
           const std::vector<double>& level, const std::vector<double>& slope,
           Watts cut)
{
    if (level.size() != roster.size()) return cut;
    double predicted = 0.0;
    double measured = 0.0;
    for (std::size_t i = 0; i < roster.size(); ++i) {
        predicted += level[i] + slope[i];
        measured += power_of(roster[i]);
    }
    const double anticipatory = predicted - measured;
    if (anticipatory > 0.0) return cut + anticipatory;
    return cut;
}

}  // namespace

void
PredictivePlanner::ObserveServers(
    const std::vector<core::ServerPowerInfo>& servers, const PolicyContext&)
{
    HoltUpdate(
        servers, [](const core::ServerPowerInfo& s) { return s.power; },
        &level_, &slope_);
}

void
PredictivePlanner::ObserveChildren(
    const std::vector<core::ChildPowerInfo>& children, const PolicyContext&)
{
    HoltUpdate(
        children, [](const core::ChildPowerInfo& c) { return c.power; },
        &child_level_, &child_slope_);
}

void
PredictivePlanner::PlanServerCuts(
    const std::vector<core::ServerPowerInfo>& servers, Watts cut,
    const PolicyContext& ctx, core::CappingWorkspace& ws,
    core::CappingPlan* plan)
{
    const Watts eff = WidenedCut(
        servers, [](const core::ServerPowerInfo& s) { return s.power; },
        level_, slope_, cut);
    core::ComputeCappingPlan(servers, eff, ctx.bucket_size, ws, plan);
}

void
PredictivePlanner::PlanChildLimits(
    const std::vector<core::ChildPowerInfo>& children, Watts cut,
    const PolicyContext& ctx, core::CappingWorkspace& ws,
    core::OffenderPlan* plan)
{
    const Watts eff = WidenedCut(
        children, [](const core::ChildPowerInfo& c) { return c.power; },
        child_level_, child_slope_, cut);
    core::ComputeOffenderPlan(children, eff, ctx.bucket_size, ws, plan);
}

void
PredictivePlanner::Reset()
{
    level_.clear();
    slope_.clear();
    child_level_.clear();
    child_slope_.clear();
}

void
PredictivePlanner::Snapshot(Archive& ar) const
{
    ar.U64(level_.size());
    for (std::size_t i = 0; i < level_.size(); ++i) {
        ar.F64(level_[i]);
        ar.F64(slope_[i]);
    }
    ar.U64(child_level_.size());
    for (std::size_t i = 0; i < child_level_.size(); ++i) {
        ar.F64(child_level_[i]);
        ar.F64(child_slope_[i]);
    }
}

}  // namespace dynamo::policy
