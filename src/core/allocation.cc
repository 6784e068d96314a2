#include "core/allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dynamo::core {
namespace {

constexpr Watts kEpsilon = 1e-6;

/**
 * Even water-fill of `cut` across `included` items bounded by
 * per-item headroom, accumulating into `cuts`. The active set is
 * compacted in place each round instead of rebuilt; the arithmetic
 * (iteration order, per-round split, exit condition) is identical to
 * the reference implementation, so results are bit-equal.
 */
void
WaterFillInPlace(std::vector<std::uint32_t>& active,
                 const std::vector<std::uint32_t>& included,
                 const Watts* headroom, Watts cut, Watts* cuts)
{
    active.clear();
    for (std::uint32_t i : included) {
        if (headroom[i] - cuts[i] > kEpsilon) active.push_back(i);
    }
    std::size_t n_active = active.size();
    Watts left = cut;
    while (left > kEpsilon && n_active > 0) {
        const Watts per = left / static_cast<double>(n_active);
        std::size_t keep = 0;
        for (std::size_t r = 0; r < n_active; ++r) {
            const std::uint32_t i = active[r];
            const Watts avail = headroom[i] - cuts[i];
            const Watts take = std::min(per, avail);
            cuts[i] += take;
            left -= take;
            if (headroom[i] - cuts[i] > kEpsilon) active[keep++] = i;
        }
        if (keep == n_active) break;  // everyone took `per`; done
        n_active = keep;
    }
}

/**
 * Core of BucketedEvenCut over an index subset: items[0..n) select
 * rows of powers/floors, per-item cuts land in cuts[items[r]] (which
 * must be zero on entry for those rows). Scratch comes from `ws`.
 */
void
BucketedEvenCutInto(const Watts* powers, const Watts* floors,
                    const std::uint32_t* item_indices, std::size_t n, Watts cut,
                    Watts bucket_size, CappingWorkspace& ws, Watts* cuts)
{
    if (cut <= kEpsilon || n == 0) return;

    Watts max_power = powers[item_indices[0]];
    for (std::size_t r = 1; r < n; ++r) {
        max_power = std::max(max_power, powers[item_indices[r]]);
    }

    // Degenerate bucket: pure water-filling — find the level L such
    // that shaving every item down to max(L, floor) yields the cut.
    if (bucket_size <= kEpsilon) {
        Watts lo = floors[item_indices[0]];
        for (std::size_t r = 1; r < n; ++r) {
            lo = std::min(lo, floors[item_indices[r]]);
        }
        Watts hi = max_power;
        auto capacity_at = [&](Watts level) {
            Watts c = 0.0;
            for (std::size_t r = 0; r < n; ++r) {
                const std::uint32_t i = item_indices[r];
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
        for (std::size_t r = 0; r < n; ++r) {
            const std::uint32_t i = item_indices[r];
            cuts[i] = std::max(0.0, powers[i] - std::max(hi, floors[i]));
        }
        return;
    }

    Watts bucket_floor = std::floor(max_power / bucket_size) * bucket_size;
    Watts* headroom = ws.headroom.data();

    // Expand the included bucket range downward until the headroom
    // above max(bucket floor, item floor) covers the cut or everything
    // is included down to the item floors.
    while (true) {
        ws.included.clear();
        Watts capacity = 0.0;
        Watts min_floor = std::numeric_limits<Watts>::infinity();
        for (std::size_t r = 0; r < n; ++r) {
            const std::uint32_t i = item_indices[r];
            min_floor = std::min(min_floor, floors[i]);
            const Watts eff_floor = std::max(bucket_floor, floors[i]);
            if (powers[i] > eff_floor + kEpsilon) {
                ws.included.push_back(i);
                headroom[i] = powers[i] - eff_floor;
                capacity += headroom[i];
            }
        }
        const bool fully_expanded = bucket_floor <= min_floor;
        if (capacity >= cut - kEpsilon || fully_expanded) {
            WaterFillInPlace(ws.active, ws.included, headroom,
                             std::min(cut, capacity), cuts);
            return;
        }
        bucket_floor -= bucket_size;
    }
}

}  // namespace

void
CappingWorkspace::Prepare(std::size_t n)
{
    powers.resize(n);
    floors.resize(n);
    headroom.resize(n);
    cuts.resize(n);
    stage.resize(n);
    order.resize(n);
    items.reserve(n);
    included.reserve(n);
    active.reserve(n);
}

void
BucketedEvenCut(const std::vector<Watts>& powers,
                const std::vector<Watts>& floors, Watts cut, Watts bucket_size,
                CappingWorkspace& ws)
{
    const std::size_t n = powers.size();
    ws.Prepare(n);
    std::fill(ws.cuts.begin(), ws.cuts.end(), 0.0);
    std::iota(ws.order.begin(), ws.order.end(), 0u);
    BucketedEvenCutInto(powers.data(), floors.data(), ws.order.data(), n, cut,
                        bucket_size, ws, ws.cuts.data());
}

std::vector<Watts>
BucketedEvenCut(const std::vector<Watts>& powers, const std::vector<Watts>& floors,
                Watts cut, Watts bucket_size)
{
    CappingWorkspace ws;
    BucketedEvenCut(powers, floors, cut, bucket_size, ws);
    return ws.cuts;
}

int
BucketIndex(Watts power, Watts bucket_size)
{
    if (bucket_size <= kEpsilon) return -1;
    const double index = power / bucket_size;
    if (!(std::abs(index) < std::numeric_limits<int>::max())) return -1;
    return static_cast<int>(index);
}

void
ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                   Watts total_power_cut, Watts bucket_size,
                   CappingWorkspace& ws, CappingPlan* plan)
{
    plan->assignments.clear();
    plan->planned_cut = 0.0;
    plan->satisfied = false;
    if (total_power_cut <= kEpsilon) {
        plan->satisfied = true;
        return;
    }

    const std::size_t n = servers.size();
    ws.Prepare(n);
    bool single_group = true;
    for (std::size_t i = 0; i < n; ++i) {
        ws.powers[i] = servers[i].power;
        ws.floors[i] = servers[i].sla_min_cap;
        ws.cuts[i] = 0.0;
        single_group = single_group &&
                       servers[i].priority_group == servers[0].priority_group;
    }

    // Priority grouping as one sort-index pass: a stable sort on the
    // group key yields contiguous runs per group, lowest first, with
    // members in input order inside each run — the same member order a
    // per-group map of index lists would produce. The common
    // one-group roster skips the sort entirely.
    std::iota(ws.order.begin(), ws.order.end(), 0u);
    if (!single_group) {
        std::stable_sort(ws.order.begin(), ws.order.end(),
                         [&servers](std::uint32_t a, std::uint32_t b) {
                             return servers[a].priority_group <
                                    servers[b].priority_group;
                         });
    }

    Watts remaining = total_power_cut;
    std::size_t start = 0;
    while (start < n) {
        if (remaining <= kEpsilon) break;
        std::size_t end = start + 1;
        const int group = servers[ws.order[start]].priority_group;
        while (end < n && servers[ws.order[end]].priority_group == group) {
            ++end;
        }
        BucketedEvenCutInto(ws.powers.data(), ws.floors.data(),
                            ws.order.data() + start, end - start, remaining,
                            bucket_size, ws, ws.cuts.data());
        for (std::size_t r = start; r < end; ++r) {
            remaining -= ws.cuts[ws.order[r]];
        }
        start = end;
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (ws.cuts[i] > kEpsilon) {
            CapAssignment assignment;
            assignment.index = i;
            assignment.cap = servers[i].power - ws.cuts[i];
            assignment.cut = ws.cuts[i];
            plan->assignments.push_back(std::move(assignment));
            plan->planned_cut += ws.cuts[i];
        }
    }
    plan->satisfied = remaining <= 1e-3;
}

CappingPlan
ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                   Watts total_power_cut, Watts bucket_size)
{
    CappingWorkspace ws;
    CappingPlan plan;
    ComputeCappingPlan(servers, total_power_cut, bucket_size, ws, &plan);
    for (CapAssignment& assignment : plan.assignments) {
        assignment.name = servers[assignment.index].name;
    }
    return plan;
}

void
ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                    Watts total_power_cut, Watts bucket_size,
                    CappingWorkspace& ws, OffenderPlan* plan)
{
    plan->limits.clear();
    plan->planned_cut = 0.0;
    plan->satisfied = false;
    if (total_power_cut <= kEpsilon) {
        plan->satisfied = true;
        return;
    }

    const std::size_t n = children.size();
    ws.Prepare(n);
    std::fill(ws.cuts.begin(), ws.cuts.end(), 0.0);
    Watts remaining = total_power_cut;

    // Stage 1: punish the offenders (power above quota), never pushing
    // them below quota, high-bucket-first among them.
    ws.items.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (children[i].power > children[i].quota + kEpsilon) {
            ws.items.push_back(static_cast<std::uint32_t>(i));
            ws.powers[i] = children[i].power;
            // Quota is the stage-1 floor, but never contract a child
            // below the floor it can actually honor.
            ws.floors[i] = std::max(children[i].quota, children[i].floor);
            ws.stage[i] = 0.0;
        }
    }
    if (!ws.items.empty()) {
        BucketedEvenCutInto(ws.powers.data(), ws.floors.data(), ws.items.data(),
                            ws.items.size(), remaining, bucket_size, ws,
                            ws.stage.data());
        for (std::uint32_t i : ws.items) {
            ws.cuts[i] += ws.stage[i];
            remaining -= ws.stage[i];
        }
    }

    // Stage 2: if the offenders' excess was not enough, spread the
    // remainder across all children down to their floors.
    if (remaining > kEpsilon) {
        std::iota(ws.order.begin(), ws.order.end(), 0u);
        for (std::size_t i = 0; i < n; ++i) {
            ws.powers[i] = children[i].power - ws.cuts[i];
            ws.floors[i] = children[i].floor;
            ws.stage[i] = 0.0;
        }
        BucketedEvenCutInto(ws.powers.data(), ws.floors.data(), ws.order.data(),
                            n, remaining, bucket_size, ws, ws.stage.data());
        for (std::size_t i = 0; i < n; ++i) {
            ws.cuts[i] += ws.stage[i];
            remaining -= ws.stage[i];
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (ws.cuts[i] > kEpsilon) {
            ChildLimit limit;
            limit.index = i;
            limit.contractual_limit = children[i].power - ws.cuts[i];
            limit.cut = ws.cuts[i];
            plan->limits.push_back(std::move(limit));
            plan->planned_cut += ws.cuts[i];
        }
    }
    plan->satisfied = remaining <= 1e-3;
}

OffenderPlan
ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                    Watts total_power_cut, Watts bucket_size)
{
    CappingWorkspace ws;
    OffenderPlan plan;
    ComputeOffenderPlan(children, total_power_cut, bucket_size, ws, &plan);
    for (ChildLimit& limit : plan.limits) {
        limit.name = children[limit.index].name;
    }
    return plan;
}

}  // namespace dynamo::core
