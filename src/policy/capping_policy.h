/**
 * @file
 * Pluggable capping brains (the policy lab).
 *
 * The paper ships exactly one brain: three-band hysteresis plus the
 * high-bucket-first arena planner (core/allocation.*). ROADMAP
 * item 3 asks for competing brains judged side by side, so the plan
 * computation is carved out behind this strategy interface:
 *
 *   three_band  — the paper's planner, verbatim (delegates to the
 *                 arena entry points; bit-identical to the pre-
 *                 interface call path, pinned by the golden journals).
 *   predictive  — Holt-style level+slope demand predictor; when
 *                 demand is rising it widens the cut to where power
 *                 is *about to be* next window, damping the cap →
 *                 release → re-cap flapping of a purely reactive
 *                 controller. Never cuts less than reactive.
 *   waterfill   — nvPAX-style constrained allocator: the cut split is
 *                 the exact KKT solution of a small quadratic program
 *                 with per-server SLA floors as box constraints and
 *                 priority groups as weights, solved by water-level
 *                 bisection.
 *   fairshare   — FastCap-style proportional fairness: every server
 *                 absorbs cut in proportion to its cappable headroom
 *                 (equalizing relative slowdown), priority-weighted,
 *                 with iterative redistribution when floors clip.
 *
 * Contract, shared by all brains:
 *  - allocation-free on the steady path (scratch in the caller's
 *    CappingWorkspace or brain-owned reused vectors);
 *  - deterministic: same inputs in the same order → bit-identical
 *    plans (no RNG, no wall clock), so DYNJRNL1 journals stay
 *    byte-identical across --threads;
 *  - floors are hard: no plan caps a server below sla_min_cap or
 *    contracts a child below its floor;
 *  - each brain has a by-value reference oracle
 *    (policy/policy_reference.h) pinned bit-identical by tests.
 *
 * The brain is selected per controller via ControllerBuilder::Policy
 * or fleet-wide via the `capping_policy` spec key; the name rides in
 * the canonical fleet spec and therefore in every recorded journal,
 * so replay and bisection reconstruct under the same brain.
 */
#ifndef DYNAMO_POLICY_CAPPING_POLICY_H_
#define DYNAMO_POLICY_CAPPING_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/archive.h"
#include "common/units.h"
#include "core/allocation.h"

namespace dynamo::policy {

/** The selectable capping brains. */
enum class PolicyKind {
    kThreeBand,
    kPredictive,
    kWaterfill,
    kFairShare,
};

/** Canonical spec-key token ("three_band", "predictive", ...). */
const char* PolicyKindName(PolicyKind kind);

/**
 * Parse a spec-key token; returns false (leaving *out untouched) on an
 * unknown name. Callers that need a diagnostic add their own context
 * (the spec parser names the key and line).
 */
bool ParsePolicyKind(const std::string& name, PolicyKind* out);

/** All brains, in spec-token order (for judges and test sweeps). */
std::vector<PolicyKind> AllPolicyKinds();

/**
 * Per-decision context handed to a brain alongside the roster. All
 * fields are derived from controller state the pre-interface planner
 * already saw implicitly; none of them aliases the workspace.
 */
struct PolicyContext
{
    /**
     * High-bucket-first width for the arena planner (three_band and
     * predictive; waterfill and fairshare ignore it). 0 water-fills.
     */
    Watts bucket_size = 20.0;

    /** This cycle's aggregated power (sum over the roster view). */
    Watts aggregated = 0.0;

    /** The controller's effective limit min(physical, contractual). */
    Watts limit = 0.0;

    /** Band target the cut aims at (0 during observation calls). */
    Watts target = 0.0;

    /** Simulation now, ms. */
    SimTime now = 0;

    /** The controller's pull cycle, ms (prediction horizon). */
    SimTime cycle_ms = 3000;
};

/**
 * Strategy interface: one instance lives inside each controller and
 * computes the cut split whenever the band decision says kCap.
 *
 * Observation hooks fire on every *valid* aggregation (not just while
 * capping) so stateful brains can track demand between episodes —
 * but only when WantsObservations() is true, so stateless brains pay
 * nothing extra on the hot path (the leaf skips building its roster
 * view on non-capping cycles, exactly as before the interface).
 */
class CappingPolicy
{
  public:
    virtual ~CappingPolicy() = default;

    virtual PolicyKind kind() const = 0;

    /** True if Observe* must run every valid cycle (stateful brains). */
    virtual bool WantsObservations() const { return false; }

    /** Leaf-level demand observation (roster view, every valid cycle). */
    virtual void ObserveServers(
        const std::vector<core::ServerPowerInfo>& servers,
        const PolicyContext& ctx)
    {
        (void)servers;
        (void)ctx;
    }

    /** Upper-level demand observation (fresh children, every valid cycle). */
    virtual void ObserveChildren(
        const std::vector<core::ChildPowerInfo>& children,
        const PolicyContext& ctx)
    {
        (void)children;
        (void)ctx;
    }

    /**
     * Split `cut` watts across `servers` (leaf level). Scratch lives
     * in `ws`; the result lands in `plan` (vectors reused; assignments
     * carry indices into `servers`, names stay empty). Must allocate
     * nothing in steady state.
     */
    virtual void PlanServerCuts(
        const std::vector<core::ServerPowerInfo>& servers, Watts cut,
        const PolicyContext& ctx, core::CappingWorkspace& ws,
        core::CappingPlan* plan) = 0;

    /** Split `cut` across child controllers (upper level). */
    virtual void PlanChildLimits(
        const std::vector<core::ChildPowerInfo>& children, Watts cut,
        const PolicyContext& ctx, core::CappingWorkspace& ws,
        core::OffenderPlan* plan) = 0;

    /** Drop accumulated state (controller deactivation / adoption). */
    virtual void Reset() {}

    /**
     * Serialize brain state into a controller checkpoint. The default
     * writes nothing — deliberately: the three_band brain must keep
     * controller Snapshot bytes identical to the pre-interface layout
     * so the committed golden journals replay byte-exactly.
     */
    virtual void Snapshot(Archive& ar) const { (void)ar; }
};

/** Factory: the one place a PolicyKind becomes a brain instance. */
std::unique_ptr<CappingPolicy> MakeCappingPolicy(PolicyKind kind);

}  // namespace dynamo::policy

#endif  // DYNAMO_POLICY_CAPPING_POLICY_H_
