/**
 * @file
 * By-value reference oracles for every capping planner.
 *
 * Each oracle is a plain, allocation-happy implementation of the same
 * math with the same floating-point operation order as the planner it
 * pins, so equivalence tests can use exact EXPECT_EQ on every double —
 * any drift between a planner and its oracle (reordered sums, a
 * "clever" refactor changing rounding) fails loudly instead of
 * silently invalidating recorded journals.
 *
 * - The arena planners (core/allocation.h): the original clarity-first
 *   BucketedEvenCut / ComputeCappingPlan / ComputeOffenderPlan, with a
 *   std::map for priority grouping, per-group array copies and rebuilt
 *   water-fill active sets. three_band delegates to these planners, so
 *   it needs no oracle of its own.
 * - The waterfill and fairshare brains.
 * - The predictive brain's Holt forecast.
 *
 * Not for production use: every oracle allocates per call.
 */
#ifndef DYNAMO_POLICY_POLICY_REFERENCE_H_
#define DYNAMO_POLICY_POLICY_REFERENCE_H_

#include <vector>

#include "core/allocation.h"

namespace dynamo::policy::reference {

/** Oracle for core::BucketedEvenCut. */
std::vector<Watts> BucketedEvenCut(const std::vector<Watts>& powers,
                                   const std::vector<Watts>& floors, Watts cut,
                                   Watts bucket_size);

/** Oracle for core::ComputeCappingPlan (names filled). */
core::CappingPlan ComputeCappingPlan(
    const std::vector<core::ServerPowerInfo>& servers, Watts total_power_cut,
    Watts bucket_size = 20.0);

/** Oracle for core::ComputeOffenderPlan (names filled). */
core::OffenderPlan ComputeOffenderPlan(
    const std::vector<core::ChildPowerInfo>& children, Watts total_power_cut,
    Watts bucket_size = 2000.0);

/** Oracle for WaterfillPlanner::PlanServerCuts. */
core::CappingPlan WaterfillServerPlan(
    const std::vector<core::ServerPowerInfo>& servers, Watts cut);

/** Oracle for WaterfillPlanner::PlanChildLimits. */
core::OffenderPlan WaterfillChildPlan(
    const std::vector<core::ChildPowerInfo>& children, Watts cut);

/** Oracle for FairSharePlanner::PlanServerCuts. */
core::CappingPlan FairShareServerPlan(
    const std::vector<core::ServerPowerInfo>& servers, Watts cut);

/** Oracle for FairSharePlanner::PlanChildLimits. */
core::OffenderPlan FairShareChildPlan(
    const std::vector<core::ChildPowerInfo>& children, Watts cut);

/**
 * Oracle for the PredictivePlanner forecast: feed it the same power
 * sequences and it reproduces the brain's Holt state and cut widening
 * bit for bit. The brain then delegates the split to the arena
 * planner, so PredictivePlanner::PlanServerCuts must equal
 * core::ComputeCappingPlan(servers, WidenedCut(powers, cut)) exactly.
 */
struct HoltForecast
{
    std::vector<double> level;
    std::vector<double> slope;

    /** One observation pass (mirrors the brain's per-cycle update). */
    void Observe(const std::vector<double>& powers);

    /** cut + max(0, predicted aggregate − measured aggregate). */
    Watts WidenedCut(const std::vector<double>& powers, Watts cut) const;
};

}  // namespace dynamo::policy::reference

#endif  // DYNAMO_POLICY_POLICY_REFERENCE_H_
