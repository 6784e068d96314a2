// Planner equivalence tests: every allocation-free capping planner is
// pinned *bit-identical* to its by-value reference oracle
// (policy/policy_reference.h) — exact EXPECT_EQ on doubles, with the
// workspace shared across iterations so stale arena state would show.
// Covers the core arena planners (core/allocation.h) and every brain,
// plus the brain name registry / factory round-trip and the three_band
// brain's delegation to the arena planner.
#include "policy/capping_policy.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/allocation.h"
#include "policy/policy_reference.h"
#include "policy/predictive_planner.h"

namespace dynamo::policy {
namespace {

std::vector<core::ServerPowerInfo>
RandomServers(Rng& rng, std::size_t n, int groups)
{
    std::vector<core::ServerPowerInfo> servers;
    servers.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::ServerPowerInfo info;
        info.name = "srv" + std::to_string(i);
        info.power = rng.Uniform(80.0, 450.0);
        info.priority_group = static_cast<int>(rng.UniformInt(
            static_cast<std::uint64_t>(groups)));
        info.sla_min_cap = rng.Uniform(40.0, 120.0);
        servers.push_back(std::move(info));
    }
    return servers;
}

std::vector<core::ChildPowerInfo>
RandomChildren(Rng& rng, std::size_t n)
{
    std::vector<core::ChildPowerInfo> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        core::ChildPowerInfo info;
        info.name = "child" + std::to_string(i);
        info.quota = rng.Uniform(50'000.0, 200'000.0);
        // Mix offenders (power > quota) and compliant children.
        info.power = info.quota * rng.Uniform(0.7, 1.4);
        info.floor = info.quota * rng.Uniform(0.3, 0.7);
        children.push_back(std::move(info));
    }
    return children;
}

void
ExpectSamePlan(const core::CappingPlan& got, const core::CappingPlan& want)
{
    EXPECT_EQ(got.satisfied, want.satisfied);
    EXPECT_EQ(got.planned_cut, want.planned_cut);
    ASSERT_EQ(got.assignments.size(), want.assignments.size());
    for (std::size_t i = 0; i < got.assignments.size(); ++i) {
        EXPECT_EQ(got.assignments[i].index, want.assignments[i].index) << i;
        EXPECT_EQ(got.assignments[i].cap, want.assignments[i].cap) << i;
        EXPECT_EQ(got.assignments[i].cut, want.assignments[i].cut) << i;
    }
}

void
ExpectSamePlan(const core::OffenderPlan& got, const core::OffenderPlan& want)
{
    EXPECT_EQ(got.satisfied, want.satisfied);
    EXPECT_EQ(got.planned_cut, want.planned_cut);
    ASSERT_EQ(got.limits.size(), want.limits.size());
    for (std::size_t i = 0; i < got.limits.size(); ++i) {
        EXPECT_EQ(got.limits[i].index, want.limits[i].index) << i;
        EXPECT_EQ(got.limits[i].contractual_limit,
                  want.limits[i].contractual_limit)
            << i;
        EXPECT_EQ(got.limits[i].cut, want.limits[i].cut) << i;
    }
}

PolicyContext
ServerContext()
{
    PolicyContext ctx;
    ctx.bucket_size = 20.0;
    return ctx;
}

PolicyContext
ChildContext()
{
    PolicyContext ctx;
    ctx.bucket_size = 2000.0;
    return ctx;
}

// --- Arena planners: exact-FP equivalence with the oracles -------------

TEST(CappingArenaEquivalence, CappingPlanMatchesReferenceAcrossPolicies)
{
    core::CappingWorkspace ws;  // deliberately shared across all iterations
    core::CappingPlan plan;
    Rng rng(0xcafe);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);

        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        // Cuts from trivial to unsatisfiable.
        const Watts cut = total * rng.Uniform(0.01, 0.9);
        // Bucket 0 water-fills each priority group.
        const Watts bucket = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(5.0, 40.0);

        const core::CappingPlan want =
            reference::ComputeCappingPlan(servers, cut, bucket);
        core::ComputeCappingPlan(servers, cut, bucket, ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(CappingArenaEquivalence, LegacyWrapperFillsNames)
{
    Rng rng(7);
    const auto servers = RandomServers(rng, 12, 2);
    const core::CappingPlan by_value =
        core::ComputeCappingPlan(servers, 500.0, 20.0);
    const core::CappingPlan want =
        reference::ComputeCappingPlan(servers, 500.0, 20.0);
    ExpectSamePlan(by_value, want);
    for (const core::CapAssignment& a : by_value.assignments) {
        EXPECT_EQ(a.name, servers[a.index].name);
    }
}

TEST(CappingArenaEquivalence, OffenderPlanMatchesReference)
{
    core::CappingWorkspace ws;
    core::OffenderPlan plan;
    Rng rng(0xbeef);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.6);
        const Watts bucket = rng.Uniform(500.0, 5000.0);

        const core::OffenderPlan want =
            reference::ComputeOffenderPlan(children, cut, bucket);
        core::ComputeOffenderPlan(children, cut, bucket, ws, &plan);
        ExpectSamePlan(plan, want);

        const core::OffenderPlan by_value =
            core::ComputeOffenderPlan(children, cut, bucket);
        ExpectSamePlan(by_value, want);
        for (const core::ChildLimit& limit : by_value.limits) {
            EXPECT_EQ(limit.name, children[limit.index].name);
        }
    }
}

TEST(CappingArenaEquivalence, WorkspaceReuseDoesNotLeakStateBetweenCalls)
{
    // A big call followed by a small one: stale entries in the arena
    // beyond the small call's item count must not influence the result.
    core::CappingWorkspace ws;
    core::CappingPlan plan;
    Rng rng(3);
    const auto big = RandomServers(rng, 64, 3);
    core::ComputeCappingPlan(big, 5000.0, 20.0, ws, &plan);

    const auto small = RandomServers(rng, 3, 1);
    const core::CappingPlan want =
        reference::ComputeCappingPlan(small, 120.0, 20.0);
    core::ComputeCappingPlan(small, 120.0, 20.0, ws, &plan);
    ExpectSamePlan(plan, want);
}

// --- BucketedEvenCut edge cases (each pinned to the oracle too) --------

void
ExpectSameCuts(const std::vector<Watts>& powers,
               const std::vector<Watts>& floors, Watts cut, Watts bucket)
{
    const std::vector<Watts> want =
        reference::BucketedEvenCut(powers, floors, cut, bucket);
    const std::vector<Watts> got =
        core::BucketedEvenCut(powers, floors, cut, bucket);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << i;
    }

    core::CappingWorkspace ws;
    core::BucketedEvenCut(powers, floors, cut, bucket, ws);
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(ws.cuts[i], want[i]) << i;
    }
}

TEST(BucketedEvenCutEdges, EmptyInputYieldsEmptyCuts)
{
    ExpectSameCuts({}, {}, 100.0, 20.0);
    EXPECT_TRUE(core::BucketedEvenCut({}, {}, 100.0, 20.0).empty());
}

TEST(BucketedEvenCutEdges, CutExceedingHeadroomClampsToFloors)
{
    const std::vector<Watts> powers = {300.0, 250.0, 180.0};
    const std::vector<Watts> floors = {150.0, 140.0, 120.0};
    // Total headroom is 320 W; ask for far more.
    ExpectSameCuts(powers, floors, 10'000.0, 20.0);

    const auto cuts = core::BucketedEvenCut(powers, floors, 10'000.0, 20.0);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        // Every server is driven exactly to its floor, never below.
        EXPECT_DOUBLE_EQ(powers[i] - cuts[i], floors[i]) << i;
    }
}

TEST(BucketedEvenCutEdges, AllAtSlaFloorAllocatesNothing)
{
    const std::vector<Watts> powers = {150.0, 140.0, 120.0};
    const std::vector<Watts> floors = {150.0, 140.0, 120.0};
    ExpectSameCuts(powers, floors, 500.0, 20.0);

    const auto cuts = core::BucketedEvenCut(powers, floors, 500.0, 20.0);
    for (const Watts c : cuts) EXPECT_EQ(c, 0.0);
}

TEST(BucketedEvenCutEdges, BucketWiderThanPowerSpreadActsAsOneBucket)
{
    // Spread is 30 W; a 500 W bucket puts everyone in the top bucket,
    // so the cut is water-filled evenly across all servers at once.
    const std::vector<Watts> powers = {310.0, 300.0, 290.0, 280.0};
    const std::vector<Watts> floors = {100.0, 100.0, 100.0, 100.0};
    ExpectSameCuts(powers, floors, 200.0, 500.0);

    const auto cuts = core::BucketedEvenCut(powers, floors, 200.0, 500.0);
    Watts total = 0.0;
    for (const Watts c : cuts) total += c;
    EXPECT_NEAR(total, 200.0, 1e-6);
    // One bucket, ample headroom everywhere: the cut splits evenly
    // across all servers (200 W / 4 = 50 W each) in a single round.
    for (std::size_t i = 0; i < cuts.size(); ++i) {
        EXPECT_NEAR(cuts[i], 50.0, 1e-9) << i;
    }
}

TEST(BucketedEvenCutEdges, RandomizedInputsMatchReference)
{
    Rng rng(0xfeed);
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 1 + rng.UniformInt(50);
        std::vector<Watts> powers;
        std::vector<Watts> floors;
        for (std::size_t i = 0; i < n; ++i) {
            powers.push_back(rng.Uniform(50.0, 500.0));
            // Occasionally floor >= power (no headroom at all).
            floors.push_back(rng.Bernoulli(0.1) ? powers.back()
                                                : rng.Uniform(20.0, 200.0));
        }
        Watts total = 0.0;
        for (const Watts p : powers) total += p;
        const Watts cut = total * rng.Uniform(0.0, 0.8);
        const Watts bucket = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(1.0, 100.0);
        ExpectSameCuts(powers, floors, cut, bucket);
    }
}


// --- Name registry and factory ---------------------------------------

TEST(PolicyRegistry, NamesRoundTripThroughParse)
{
    for (PolicyKind kind : AllPolicyKinds()) {
        PolicyKind parsed = PolicyKind::kThreeBand;
        ASSERT_TRUE(ParsePolicyKind(PolicyKindName(kind), &parsed))
            << PolicyKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
}

TEST(PolicyRegistry, UnknownNameLeavesOutputUntouched)
{
    PolicyKind parsed = PolicyKind::kWaterfill;
    EXPECT_FALSE(ParsePolicyKind("three-band", &parsed));  // not the token
    EXPECT_FALSE(ParsePolicyKind("", &parsed));
    EXPECT_FALSE(ParsePolicyKind("PREDICTIVE", &parsed));  // case-sensitive
    EXPECT_EQ(parsed, PolicyKind::kWaterfill);
}

TEST(PolicyRegistry, FactoryProducesTheRequestedBrain)
{
    for (PolicyKind kind : AllPolicyKinds()) {
        const auto brain = MakeCappingPolicy(kind);
        ASSERT_NE(brain, nullptr);
        EXPECT_EQ(brain->kind(), kind);
    }
}

// --- three_band: delegation to the arena planner ----------------------

TEST(ThreeBandPlanner, MatchesArenaPlannerExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kThreeBand);
    core::CappingWorkspace ws;
    core::CappingWorkspace arena_ws;
    core::CappingPlan plan;
    core::CappingPlan want;
    Rng rng(0x3b);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.UniformInt(50);
        const auto servers = RandomServers(rng, n, 3);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        const Watts cut = total * rng.Uniform(0.05, 0.8);

        PolicyContext ctx = ServerContext();
        brain->PlanServerCuts(servers, cut, ctx, ws, &plan);
        core::ComputeCappingPlan(servers, cut, ctx.bucket_size, arena_ws,
                                 &want);
        ExpectSamePlan(plan, want);
    }
}

TEST(ThreeBandPlanner, ChildPlanMatchesOffenderPlannerExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kThreeBand);
    core::CappingWorkspace ws;
    core::CappingWorkspace arena_ws;
    core::OffenderPlan plan;
    core::OffenderPlan want;
    Rng rng(0x3c);
    for (int round = 0; round < 20; ++round) {
        const std::size_t n = 1 + rng.UniformInt(20);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.02, 0.5);

        PolicyContext ctx = ChildContext();
        brain->PlanChildLimits(children, cut, ctx, ws, &plan);
        core::ComputeOffenderPlan(children, cut, ctx.bucket_size, arena_ws,
                                  &want);
        ExpectSamePlan(plan, want);
    }
}

// --- waterfill: exact-FP equivalence with its oracle -------------------

TEST(WaterfillPlanner, ServerPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    core::CappingWorkspace ws;  // shared: allocation-free reuse must not leak
    core::CappingPlan plan;
    Rng rng(0xf111);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        // From trivial to unsatisfiable (forces the saturation branch).
        const Watts cut = total * rng.Uniform(0.01, 0.95);

        const core::CappingPlan want =
            reference::WaterfillServerPlan(servers, cut);
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(WaterfillPlanner, ChildPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    core::CappingWorkspace ws;
    core::OffenderPlan plan;
    Rng rng(0xf112);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.7);

        const core::OffenderPlan want =
            reference::WaterfillChildPlan(children, cut);
        brain->PlanChildLimits(children, cut, ChildContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(WaterfillPlanner, RespectsSlaFloorsAndCoversCutWhenFeasible)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kWaterfill);
    core::CappingWorkspace ws;
    core::CappingPlan plan;
    Rng rng(0xf113);
    for (int round = 0; round < 20; ++round) {
        const auto servers = RandomServers(rng, 30, 3);
        Watts headroom = 0.0;
        for (const auto& s : servers) {
            headroom += std::max(0.0, s.power - s.sla_min_cap);
        }
        const Watts cut = headroom * 0.6;  // feasible by construction
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        EXPECT_TRUE(plan.satisfied);
        EXPECT_GE(plan.planned_cut, cut - 1e-6);
        for (const auto& a : plan.assignments) {
            EXPECT_GE(a.cap, servers[a.index].sla_min_cap - 1e-9) << a.index;
            EXPECT_GT(a.cut, 0.0);
        }
    }
}

// --- fairshare: exact-FP equivalence with its oracle -------------------

TEST(FairSharePlanner, ServerPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    core::CappingWorkspace ws;
    core::CappingPlan plan;
    Rng rng(0xfa1);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const int groups = 1 + static_cast<int>(rng.UniformInt(4));
        const auto servers = RandomServers(rng, n, groups);
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        const Watts cut = total * rng.Uniform(0.01, 0.95);

        const core::CappingPlan want =
            reference::FairShareServerPlan(servers, cut);
        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(FairSharePlanner, ChildPlanMatchesOracleExactly)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    core::CappingWorkspace ws;
    core::OffenderPlan plan;
    Rng rng(0xfa2);
    for (int round = 0; round < 40; ++round) {
        const std::size_t n = 1 + rng.UniformInt(24);
        const auto children = RandomChildren(rng, n);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        const Watts cut = total * rng.Uniform(0.01, 0.7);

        const core::OffenderPlan want =
            reference::FairShareChildPlan(children, cut);
        brain->PlanChildLimits(children, cut, ChildContext(), ws, &plan);
        ExpectSamePlan(plan, want);
    }
}

TEST(FairSharePlanner, OneGroupSplitIsProportionalToHeadroom)
{
    // One priority group means one weight, so the first round already
    // gives every server cut * h_i / sum(h) and nothing clips.
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    core::CappingWorkspace ws;
    core::CappingPlan plan;
    Rng rng(0xfa4);
    for (int round = 0; round < 500; ++round) {
        const std::size_t n = 1 + rng.UniformInt(60);
        const auto servers = RandomServers(rng, n, 1);
        std::vector<Watts> headroom(n);
        Watts total = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            headroom[i] =
                std::max(0.0, servers[i].power - servers[i].sla_min_cap);
            total += headroom[i];
        }
        if (total <= 0.0) continue;
        // Feasible cuts, and unsatisfiable ones that floor everyone.
        const bool feasible = !rng.Bernoulli(0.2);
        const Watts cut = total * (feasible ? rng.Uniform(0.01, 0.99)
                                            : rng.Uniform(1.01, 1.5));

        brain->PlanServerCuts(servers, cut, ServerContext(), ws, &plan);
        EXPECT_EQ(plan.satisfied, feasible);
        std::size_t k = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (headroom[i] <= 0.0) continue;
            ASSERT_LT(k, plan.assignments.size());
            const core::CapAssignment& a = plan.assignments[k++];
            EXPECT_EQ(a.index, i);
            const Watts want =
                feasible ? cut * headroom[i] / total : headroom[i];
            EXPECT_NEAR(a.cut, want, 1e-12 * want) << i;
        }
        EXPECT_EQ(k, plan.assignments.size());
    }
}

TEST(FairSharePlanner, NeverContractsChildBelowFloor)
{
    const auto brain = MakeCappingPolicy(PolicyKind::kFairShare);
    core::CappingWorkspace ws;
    core::OffenderPlan plan;
    Rng rng(0xfa3);
    for (int round = 0; round < 20; ++round) {
        const auto children = RandomChildren(rng, 12);
        Watts total = 0.0;
        for (const auto& c : children) total += c.power;
        brain->PlanChildLimits(children, total * 0.9, ChildContext(), ws,
                               &plan);
        for (const auto& l : plan.limits) {
            EXPECT_GE(l.contractual_limit, children[l.index].floor - 1e-9)
                << l.index;
        }
    }
}

// --- predictive: Holt forecast equivalence -----------------------------

TEST(PredictivePlanner, PlanEqualsArenaPlanOfOracleWidenedCut)
{
    PredictivePlanner brain;
    reference::HoltForecast oracle;
    core::CappingWorkspace ws;
    core::CappingWorkspace arena_ws;
    core::CappingPlan plan;
    core::CappingPlan want;
    Rng rng(0x9d);

    auto servers = RandomServers(rng, 24, 3);
    std::vector<double> powers(servers.size());
    PolicyContext ctx = ServerContext();

    for (int cycle = 0; cycle < 30; ++cycle) {
        // Drift every server's power (an upward trend half the time,
        // so the widening branch actually fires).
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i].power *= rng.Uniform(0.97, 1.06);
            powers[i] = servers[i].power;
        }
        Watts total = 0.0;
        for (const auto& s : servers) total += s.power;
        ctx.aggregated = total;

        brain.ObserveServers(servers, ctx);
        oracle.Observe(powers);

        const Watts cut = total * rng.Uniform(0.05, 0.4);
        brain.PlanServerCuts(servers, cut, ctx, ws, &plan);

        const Watts widened = oracle.WidenedCut(powers, cut);
        EXPECT_GE(widened, cut);  // never cuts less than reactive
        core::ComputeCappingPlan(servers, widened, ctx.bucket_size, arena_ws,
                                 &want);
        ExpectSamePlan(plan, want);
    }
}

TEST(PredictivePlanner, ForecastResetsOnRosterSizeChange)
{
    PredictivePlanner brain;
    reference::HoltForecast oracle;
    core::CappingWorkspace ws;
    core::CappingWorkspace arena_ws;
    core::CappingPlan plan;
    core::CappingPlan want;
    Rng rng(0x9e);
    PolicyContext ctx = ServerContext();

    auto servers = RandomServers(rng, 16, 2);
    std::vector<double> powers;
    for (int cycle = 0; cycle < 6; ++cycle) {
        powers.resize(servers.size());
        for (std::size_t i = 0; i < servers.size(); ++i) {
            servers[i].power *= rng.Uniform(0.98, 1.05);
            powers[i] = servers[i].power;
        }
        brain.ObserveServers(servers, ctx);
        oracle.Observe(powers);
        if (cycle == 3) {
            // Reconfiguration: roster shrinks; both forecasters reset.
            servers.resize(10);
            oracle = reference::HoltForecast{};
        }
    }
    Watts total = 0.0;
    for (const auto& s : servers) total += s.power;
    const Watts cut = total * 0.2;
    brain.PlanServerCuts(servers, cut, ctx, ws, &plan);
    powers.resize(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
        powers[i] = servers[i].power;
    }
    core::ComputeCappingPlan(servers, oracle.WidenedCut(powers, cut),
                             ctx.bucket_size, arena_ws, &want);
    ExpectSamePlan(plan, want);
}

TEST(PredictivePlanner, ResetDropsForecastState)
{
    PredictivePlanner brain;
    core::CappingWorkspace ws;
    core::CappingWorkspace arena_ws;
    core::CappingPlan plan;
    core::CappingPlan want;
    Rng rng(0x9f);
    PolicyContext ctx = ServerContext();

    auto servers = RandomServers(rng, 12, 2);
    // Build up a rising trend, then Reset: the next plan must equal
    // the plain reactive plan (no widening from stale slope).
    for (int cycle = 0; cycle < 5; ++cycle) {
        for (auto& s : servers) s.power *= 1.08;
        brain.ObserveServers(servers, ctx);
    }
    brain.Reset();
    Watts total = 0.0;
    for (const auto& s : servers) total += s.power;
    const Watts cut = total * 0.25;
    brain.PlanServerCuts(servers, cut, ctx, ws, &plan);
    core::ComputeCappingPlan(servers, cut, ctx.bucket_size, arena_ws, &want);
    ExpectSamePlan(plan, want);
}

}  // namespace
}  // namespace dynamo::policy
