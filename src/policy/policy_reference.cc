#include "policy/policy_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "policy/fairshare_planner.h"
#include "policy/predictive_planner.h"
#include "policy/waterfill_planner.h"

namespace dynamo::policy::reference {
namespace {

constexpr Watts kEpsilon = 1e-6;

/** Even water-fill of `cut` across items bounded by per-item headroom. */
void
EvenWaterFill(const std::vector<std::size_t>& included,
              const std::vector<Watts>& headroom, Watts cut,
              std::vector<Watts>* cuts)
{
    std::vector<std::size_t> active;
    for (std::size_t i : included) {
        if (headroom[i] - (*cuts)[i] > kEpsilon) active.push_back(i);
    }
    Watts left = cut;
    while (left > kEpsilon && !active.empty()) {
        const Watts per = left / static_cast<double>(active.size());
        std::vector<std::size_t> next;
        for (std::size_t i : active) {
            const Watts avail = headroom[i] - (*cuts)[i];
            const Watts take = std::min(per, avail);
            (*cuts)[i] += take;
            left -= take;
            if (headroom[i] - (*cuts)[i] > kEpsilon) next.push_back(i);
        }
        if (next.size() == active.size()) break;  // everyone took `per`; done
        active = std::move(next);
    }
}

/** Mirrors SolveWaterfill in waterfill_planner.cc, by value. */
std::vector<double>
ReferenceWaterfill(const std::vector<double>& headroom,
                   const std::vector<double>& weight, Watts cut,
                   double* planned_out)
{
    const std::size_t n = headroom.size();
    std::vector<double> cuts(n, 0.0);
    double total_headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) total_headroom += headroom[i];
    if (total_headroom <= cut) {
        for (std::size_t i = 0; i < n; ++i) cuts[i] = headroom[i];
        *planned_out = total_headroom;
        return cuts;
    }
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double top = weight[i] * headroom[i];
        if (top > hi) hi = top;
    }
    for (int iter = 0; iter < 64 && hi - lo > 1e-9; ++iter) {
        const double mid = 0.5 * (lo + hi);
        double alloc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double c = mid / weight[i];
            alloc += c < headroom[i] ? c : headroom[i];
        }
        if (alloc < cut) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    double planned = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double c = hi / weight[i];
        cuts[i] = c < headroom[i] ? c : headroom[i];
        planned += cuts[i];
    }
    *planned_out = planned;
    return cuts;
}

/** Mirrors SolveFairShare in fairshare_planner.cc, by value. */
std::vector<double>
ReferenceFairShare(const std::vector<double>& headroom,
                   const std::vector<double>& weight, Watts cut,
                   bool* satisfied)
{
    const std::size_t n = headroom.size();
    std::vector<double> cuts(n, 0.0);
    double total_headroom = 0.0;
    for (std::size_t i = 0; i < n; ++i) total_headroom += headroom[i];
    *satisfied = total_headroom >= cut;
    if (total_headroom <= cut) {
        for (std::size_t i = 0; i < n; ++i) cuts[i] = headroom[i];
        return cuts;
    }
    std::vector<std::uint32_t> active;
    for (std::size_t i = 0; i < n; ++i) {
        if (headroom[i] > 0.0) active.push_back(static_cast<std::uint32_t>(i));
    }
    double remaining = cut;
    for (std::size_t round = 0;
         round <= n && remaining > 1e-12 && !active.empty(); ++round) {
        double basis = 0.0;
        for (const std::uint32_t idx : active) {
            basis += weight[idx] * (headroom[idx] - cuts[idx]);
        }
        if (basis <= 0.0) break;
        bool clipped = false;
        double given = 0.0;
        std::vector<std::uint32_t> survivors;
        for (const std::uint32_t idx : active) {
            const double room = headroom[idx] - cuts[idx];
            double share = remaining * (weight[idx] * room) / basis;
            if (share >= room) {
                share = room;
                clipped = true;
            } else {
                survivors.push_back(idx);
            }
            cuts[idx] += share;
            given += share;
        }
        remaining -= given;
        active.swap(survivors);
        if (!clipped) break;
    }
    return cuts;
}

core::CappingPlan
ServerPlanFromCuts(const std::vector<core::ServerPowerInfo>& servers,
                   const std::vector<double>& cuts, bool satisfied)
{
    core::CappingPlan plan;
    plan.satisfied = satisfied;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (cuts[i] <= 0.0) continue;
        core::CapAssignment assignment;
        assignment.index = i;
        assignment.cap = servers[i].power - cuts[i];
        assignment.cut = cuts[i];
        plan.planned_cut += cuts[i];
        plan.assignments.push_back(std::move(assignment));
    }
    return plan;
}

core::OffenderPlan
ChildPlanFromCuts(const std::vector<core::ChildPowerInfo>& children,
                  const std::vector<double>& cuts, bool satisfied)
{
    core::OffenderPlan plan;
    plan.satisfied = satisfied;
    for (std::size_t i = 0; i < children.size(); ++i) {
        if (cuts[i] <= 0.0) continue;
        core::ChildLimit limit;
        limit.index = i;
        limit.contractual_limit = children[i].power - cuts[i];
        limit.cut = cuts[i];
        plan.planned_cut += cuts[i];
        plan.limits.push_back(std::move(limit));
    }
    return plan;
}

}  // namespace

std::vector<Watts>
BucketedEvenCut(const std::vector<Watts>& powers, const std::vector<Watts>& floors,
                Watts cut, Watts bucket_size)
{
    std::vector<Watts> cuts(powers.size(), 0.0);
    if (cut <= kEpsilon || powers.empty()) return cuts;

    const Watts max_power = *std::max_element(powers.begin(), powers.end());

    // Degenerate bucket: pure water-filling — find the level L such
    // that shaving every item down to max(L, floor) yields the cut.
    if (bucket_size <= kEpsilon) {
        Watts lo = *std::min_element(floors.begin(), floors.end());
        Watts hi = max_power;
        auto capacity_at = [&](Watts level) {
            Watts c = 0.0;
            for (std::size_t i = 0; i < powers.size(); ++i) {
                c += std::max(0.0, powers[i] - std::max(level, floors[i]));
            }
            return c;
        };
        if (capacity_at(lo) <= cut) {
            hi = lo;  // cut exceeds headroom: shave to the floors
        }
        for (int iter = 0; iter < 64 && hi - lo > 1e-9; ++iter) {
            const Watts mid = 0.5 * (lo + hi);
            (capacity_at(mid) > cut ? lo : hi) = mid;
        }
        for (std::size_t i = 0; i < powers.size(); ++i) {
            cuts[i] = std::max(0.0, powers[i] - std::max(hi, floors[i]));
        }
        return cuts;
    }

    Watts bucket_floor = std::floor(max_power / bucket_size) * bucket_size;

    // Expand the included bucket range downward until the headroom
    // above max(bucket floor, item floor) covers the cut or everything
    // is included down to the item floors.
    while (true) {
        std::vector<std::size_t> included;
        std::vector<Watts> headroom(powers.size(), 0.0);
        Watts capacity = 0.0;
        Watts min_floor = std::numeric_limits<Watts>::infinity();
        for (std::size_t i = 0; i < powers.size(); ++i) {
            min_floor = std::min(min_floor, floors[i]);
            const Watts eff_floor = std::max(bucket_floor, floors[i]);
            if (powers[i] > eff_floor + kEpsilon) {
                included.push_back(i);
                headroom[i] = powers[i] - eff_floor;
                capacity += headroom[i];
            }
        }
        if (capacity >= cut - kEpsilon || bucket_floor <= min_floor) {
            EvenWaterFill(included, headroom, std::min(cut, capacity), &cuts);
            return cuts;
        }
        bucket_floor -= bucket_size;
    }
}

core::CappingPlan
ComputeCappingPlan(const std::vector<core::ServerPowerInfo>& servers,
                   Watts total_power_cut, Watts bucket_size)
{
    core::CappingPlan plan;
    if (total_power_cut <= kEpsilon) {
        plan.satisfied = true;
        return plan;
    }

    // Partition by priority group, lowest (capped first) to highest.
    std::map<int, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < servers.size(); ++i) {
        groups[servers[i].priority_group].push_back(i);
    }

    std::vector<Watts> cuts(servers.size(), 0.0);
    Watts remaining = total_power_cut;
    for (const auto& [priority, members] : groups) {
        (void)priority;
        if (remaining <= kEpsilon) break;
        std::vector<Watts> powers;
        std::vector<Watts> floors;
        powers.reserve(members.size());
        floors.reserve(members.size());
        for (std::size_t i : members) {
            powers.push_back(servers[i].power);
            floors.push_back(servers[i].sla_min_cap);
        }
        const std::vector<Watts> group_cuts =
            BucketedEvenCut(powers, floors, remaining, bucket_size);
        for (std::size_t k = 0; k < members.size(); ++k) {
            cuts[members[k]] = group_cuts[k];
            remaining -= group_cuts[k];
        }
    }

    for (std::size_t i = 0; i < servers.size(); ++i) {
        if (cuts[i] > kEpsilon) {
            core::CapAssignment assignment;
            assignment.index = i;
            assignment.name = servers[i].name;
            assignment.cap = servers[i].power - cuts[i];
            assignment.cut = cuts[i];
            plan.assignments.push_back(std::move(assignment));
            plan.planned_cut += cuts[i];
        }
    }
    plan.satisfied = remaining <= 1e-3;
    return plan;
}

core::OffenderPlan
ComputeOffenderPlan(const std::vector<core::ChildPowerInfo>& children,
                    Watts total_power_cut, Watts bucket_size)
{
    core::OffenderPlan plan;
    if (total_power_cut <= kEpsilon) {
        plan.satisfied = true;
        return plan;
    }

    std::vector<Watts> cuts(children.size(), 0.0);
    Watts remaining = total_power_cut;

    // Stage 1: punish the offenders (power above quota), never pushing
    // them below quota, high-bucket-first among them.
    {
        std::vector<std::size_t> offenders;
        std::vector<Watts> powers;
        std::vector<Watts> floors;
        for (std::size_t i = 0; i < children.size(); ++i) {
            if (children[i].power > children[i].quota + kEpsilon) {
                offenders.push_back(i);
                powers.push_back(children[i].power);
                // Quota is the stage-1 floor, but never contract a
                // child below the floor it can actually honor.
                floors.push_back(std::max(children[i].quota, children[i].floor));
            }
        }
        if (!offenders.empty()) {
            const std::vector<Watts> stage_cuts =
                BucketedEvenCut(powers, floors, remaining, bucket_size);
            for (std::size_t k = 0; k < offenders.size(); ++k) {
                cuts[offenders[k]] += stage_cuts[k];
                remaining -= stage_cuts[k];
            }
        }
    }

    // Stage 2: if the offenders' excess was not enough, spread the
    // remainder across all children down to their floors.
    if (remaining > kEpsilon) {
        std::vector<Watts> powers;
        std::vector<Watts> floors;
        powers.reserve(children.size());
        floors.reserve(children.size());
        for (std::size_t i = 0; i < children.size(); ++i) {
            powers.push_back(children[i].power - cuts[i]);
            floors.push_back(children[i].floor);
        }
        const std::vector<Watts> stage_cuts =
            BucketedEvenCut(powers, floors, remaining, bucket_size);
        for (std::size_t i = 0; i < children.size(); ++i) {
            cuts[i] += stage_cuts[i];
            remaining -= stage_cuts[i];
        }
    }

    for (std::size_t i = 0; i < children.size(); ++i) {
        if (cuts[i] > kEpsilon) {
            core::ChildLimit limit;
            limit.index = i;
            limit.name = children[i].name;
            limit.contractual_limit = children[i].power - cuts[i];
            limit.cut = cuts[i];
            plan.limits.push_back(std::move(limit));
            plan.planned_cut += cuts[i];
        }
    }
    plan.satisfied = remaining <= 1e-3;
    return plan;
}

core::CappingPlan
WaterfillServerPlan(const std::vector<core::ServerPowerInfo>& servers,
                    Watts cut)
{
    const std::size_t n = servers.size();
    if (n == 0 || cut <= 0.0) {
        core::CappingPlan plan;
        plan.satisfied = cut <= 0.0;
        return plan;
    }
    std::vector<double> headroom(n);
    std::vector<double> weight(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = servers[i].power - servers[i].sla_min_cap;
        headroom[i] = h > 0.0 ? h : 0.0;
        double w = 1.0 + static_cast<double>(servers[i].priority_group);
        if (w < 1.0) w = 1.0;
        weight[i] = w;
    }
    double planned = 0.0;
    const std::vector<double> cuts =
        ReferenceWaterfill(headroom, weight, cut, &planned);
    return ServerPlanFromCuts(servers, cuts, planned >= cut);
}

core::OffenderPlan
WaterfillChildPlan(const std::vector<core::ChildPowerInfo>& children,
                   Watts cut)
{
    const std::size_t n = children.size();
    if (n == 0 || cut <= 0.0) {
        core::OffenderPlan plan;
        plan.satisfied = cut <= 0.0;
        return plan;
    }
    std::vector<double> headroom(n);
    std::vector<double> weight(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = children[i].power - children[i].floor;
        headroom[i] = h > 0.0 ? h : 0.0;
        weight[i] = children[i].power > children[i].quota
                        ? 1.0
                        : WaterfillPlanner::kInnocentWeight;
    }
    double planned = 0.0;
    const std::vector<double> cuts =
        ReferenceWaterfill(headroom, weight, cut, &planned);
    return ChildPlanFromCuts(children, cuts, planned >= cut);
}

core::CappingPlan
FairShareServerPlan(const std::vector<core::ServerPowerInfo>& servers,
                    Watts cut)
{
    const std::size_t n = servers.size();
    if (n == 0 || cut <= 0.0) {
        core::CappingPlan plan;
        plan.satisfied = cut <= 0.0;
        return plan;
    }
    std::vector<double> headroom(n);
    std::vector<double> weight(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = servers[i].power - servers[i].sla_min_cap;
        headroom[i] = h > 0.0 ? h : 0.0;
        double group = static_cast<double>(servers[i].priority_group);
        if (group < 0.0) group = 0.0;
        weight[i] = 1.0 / (1.0 + group);
    }
    bool satisfied = false;
    const std::vector<double> cuts =
        ReferenceFairShare(headroom, weight, cut, &satisfied);
    return ServerPlanFromCuts(servers, cuts, satisfied);
}

core::OffenderPlan
FairShareChildPlan(const std::vector<core::ChildPowerInfo>& children,
                   Watts cut)
{
    const std::size_t n = children.size();
    if (n == 0 || cut <= 0.0) {
        core::OffenderPlan plan;
        plan.satisfied = cut <= 0.0;
        return plan;
    }
    std::vector<double> headroom(n);
    std::vector<double> weight(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double h = children[i].power - children[i].floor;
        headroom[i] = h > 0.0 ? h : 0.0;
        weight[i] = children[i].power > children[i].quota
                        ? FairSharePlanner::kOffenderWeight
                        : 1.0;
    }
    bool satisfied = false;
    const std::vector<double> cuts =
        ReferenceFairShare(headroom, weight, cut, &satisfied);
    return ChildPlanFromCuts(children, cuts, satisfied);
}

void
HoltForecast::Observe(const std::vector<double>& powers)
{
    const std::size_t n = powers.size();
    if (level.size() != n) {
        level.assign(n, 0.0);
        slope.assign(n, 0.0);
        for (std::size_t i = 0; i < n; ++i) level[i] = powers[i];
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double p = powers[i];
        const double prev_level = level[i];
        level[i] = PredictivePlanner::kAlpha * p +
                   (1.0 - PredictivePlanner::kAlpha) * (prev_level + slope[i]);
        slope[i] = PredictivePlanner::kBeta * (level[i] - prev_level) +
                   (1.0 - PredictivePlanner::kBeta) * slope[i];
    }
}

Watts
HoltForecast::WidenedCut(const std::vector<double>& powers, Watts cut) const
{
    if (level.size() != powers.size()) return cut;
    double predicted = 0.0;
    double measured = 0.0;
    for (std::size_t i = 0; i < powers.size(); ++i) {
        predicted += level[i] + slope[i];
        measured += powers[i];
    }
    const double anticipatory = predicted - measured;
    if (anticipatory > 0.0) return cut + anticipatory;
    return cut;
}

}  // namespace dynamo::policy::reference
