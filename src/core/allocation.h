/**
 * @file
 * Performance-aware power-cut allocation (Sections III-C3 and III-D).
 *
 * Two pure allocation algorithms, kept free of I/O so they are
 * directly unit- and property-testable:
 *
 * 1. ComputeCappingPlan — the leaf controller's server-level policy.
 *    Services are pre-assigned to priority groups; the total-power-cut
 *    is absorbed by the lowest priority group first. Within a group a
 *    *high-bucket-first* rule applies: servers are bucketed by current
 *    power (default 20 W buckets, the paper recommends 10–30 W); the
 *    highest bucket absorbs the cut first, split evenly, expanding
 *    into lower buckets only as needed, and never capping a server
 *    below its group's SLA floor. The cap sent to a server is its
 *    current power minus its allocated cut (Fig. 16).
 *
 * 2. ComputeOffenderPlan — the upper-level controller's
 *    *punish-offender-first* policy. Children whose power exceeds
 *    their quota (planned peak) absorb the cut first, high-bucket-
 *    first among offenders and never below their quota; only if the
 *    offenders' excess cannot cover the cut is the remainder spread
 *    over all children down to their floors. The result is expressed
 *    as contractual power limits (power minus cut).
 *
 * These run every capping cycle on every controller, so the primary
 * entry points are allocation-free on the steady path: callers own a
 * `CappingWorkspace` whose buffers are reused across cycles, priority
 * grouping is a sort-index pass (no per-group map or array copies),
 * and plans identify servers by *index* into the input vector — names
 * are only materialized by the legacy by-value wrappers. The optimized
 * paths are pinned bit-identical to the originals by equivalence tests
 * against the by-value oracles in policy/policy_reference.h.
 */
#ifndef DYNAMO_CORE_ALLOCATION_H_
#define DYNAMO_CORE_ALLOCATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"

namespace dynamo::core {

/** Leaf-controller view of one downstream server. */
struct ServerPowerInfo
{
    /** Display name; may be empty on the hot path (plans carry indices). */
    std::string name;

    /** Latest power reading (or estimate). */
    Watts power = 0.0;

    /** Priority group; lower groups are capped first. */
    int priority_group = 0;

    /** SLA: the lowest power cap allowed for this server. */
    Watts sla_min_cap = 0.0;
};

/** One server's assignment in a capping plan. */
struct CapAssignment
{
    /** Position of the server in the input vector. */
    std::size_t index = 0;

    /** Name copied from the input (empty in workspace-API plans). */
    std::string name;

    Watts cap = 0.0;
    Watts cut = 0.0;
};

/** Result of a leaf capping allocation. */
struct CappingPlan
{
    std::vector<CapAssignment> assignments;

    /** Total cut actually allocated. */
    Watts planned_cut = 0.0;

    /** True if the full requested cut was allocated within SLA floors. */
    bool satisfied = false;
};

/**
 * Caller-owned scratch arena for the allocation entry points.
 *
 * All buffers grow to the fleet size on first use and are reused on
 * every subsequent call, so a controller that computes a plan per
 * cycle performs no heap allocation in steady state. A workspace may
 * be shared by any number of sequential calls but not concurrent ones.
 */
struct CappingWorkspace
{
    std::vector<Watts> powers;
    std::vector<Watts> floors;
    std::vector<Watts> headroom;
    std::vector<Watts> cuts;
    std::vector<Watts> stage;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> items;
    std::vector<std::uint32_t> included;
    std::vector<std::uint32_t> active;

    /** Resize every per-item buffer for `n` items. */
    void Prepare(std::size_t n);
};

/**
 * Allocate `total_power_cut` watts of cut across `servers`.
 *
 * @param servers          Current readings plus capping metadata.
 * @param total_power_cut  Aggregated power minus the capping target.
 * @param bucket_size      High-bucket-first bucket width in watts
 *                         (<= 0 degenerates to pure water-filling).
 */
CappingPlan ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                               Watts total_power_cut, Watts bucket_size = 20.0);

/**
 * Allocation-free variant: scratch lives in `ws`, the result in
 * `plan` (its assignment vector is reused), and assignments carry only
 * indices into `servers` — names are not copied.
 */
void ComputeCappingPlan(const std::vector<ServerPowerInfo>& servers,
                        Watts total_power_cut, Watts bucket_size,
                        CappingWorkspace& ws, CappingPlan* plan);

/** Upper-controller view of one child controller/device. */
struct ChildPowerInfo
{
    /** Display name; may be empty on the hot path (plans carry indices). */
    std::string name;

    /** Child's last aggregated power. */
    Watts power = 0.0;

    /** Child's power quota (planned peak). Offender iff power > quota. */
    Watts quota = 0.0;

    /** Lowest contractual limit the child can honor. */
    Watts floor = 0.0;
};

/** One child's assignment: the contractual limit to send. */
struct ChildLimit
{
    /** Position of the child in the input vector. */
    std::size_t index = 0;

    /** Name copied from the input (empty in workspace-API plans). */
    std::string name;

    Watts contractual_limit = 0.0;
    Watts cut = 0.0;
};

/** Result of an upper-level allocation. */
struct OffenderPlan
{
    std::vector<ChildLimit> limits;
    Watts planned_cut = 0.0;
    bool satisfied = false;
};

/**
 * Allocate `total_power_cut` across children, offenders first.
 *
 * @param bucket_size  High-bucket-first width in watts; upper levels
 *                     use a larger bucket (KW scale) than leaves.
 */
OffenderPlan ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                                 Watts total_power_cut,
                                 Watts bucket_size = 2000.0);

/** Allocation-free variant of ComputeOffenderPlan (see above). */
void ComputeOffenderPlan(const std::vector<ChildPowerInfo>& children,
                         Watts total_power_cut, Watts bucket_size,
                         CappingWorkspace& ws, OffenderPlan* plan);

/**
 * Shared primitive: distribute `cut` over items high-bucket-first.
 *
 * Items are bucketed by power; buckets are included from the top until
 * their combined headroom (power minus max(bucket floor, item floor))
 * covers the cut, then the cut is split evenly (water-filled) among
 * included items. Exposed for direct testing.
 *
 * @returns per-item cuts, aligned with `powers`; the sum is
 *          min(cut, total headroom above floors).
 */
std::vector<Watts> BucketedEvenCut(const std::vector<Watts>& powers,
                                   const std::vector<Watts>& floors, Watts cut,
                                   Watts bucket_size);

/** Workspace variant of BucketedEvenCut; cuts land in `ws.cuts[0..n)`. */
void BucketedEvenCut(const std::vector<Watts>& powers,
                     const std::vector<Watts>& floors, Watts cut,
                     Watts bucket_size, CappingWorkspace& ws);

/**
 * High-bucket-first bucket index of `power`, as decision traces record
 * it: -1 ("n/a") when `bucket_size` is degenerate (pure water-filling
 * has no buckets) or the index would not fit in an int.
 */
int BucketIndex(Watts power, Watts bucket_size);

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_ALLOCATION_H_
