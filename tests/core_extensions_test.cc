// Tests for the future-work extensions: alternative leaf cut splits,
// emergency load shedding, and controller cycle staggering.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "core/allocation.h"
#include "fleet/fleet.h"
#include "fleet/spec_parser.h"
#include "policy/capping_policy.h"
#include "telemetry/event_log.h"

namespace dynamo::core {
namespace {

std::vector<ServerPowerInfo>
Roster(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<ServerPowerInfo> servers;
    for (int i = 0; i < n; ++i) {
        ServerPowerInfo s;
        s.name = "s" + std::to_string(i);
        s.power = 160.0 + 150.0 * rng.Uniform();
        s.priority_group = 0;
        s.sla_min_cap = 140.0;
        servers.push_back(s);
    }
    return servers;
}

/** One leaf cut split by `kind` at `bucket_size`, on a fresh brain. */
CappingPlan
SplitWith(policy::PolicyKind kind, const std::vector<ServerPowerInfo>& servers,
          Watts cut, Watts bucket_size = 20.0)
{
    const auto brain = policy::MakeCappingPolicy(kind);
    policy::PolicyContext ctx;
    ctx.bucket_size = bucket_size;
    CappingWorkspace ws;
    CappingPlan plan;
    brain->PlanServerCuts(servers, cut, ctx, ws, &plan);
    return plan;
}

class CutSplitTest : public ::testing::TestWithParam<policy::PolicyKind>
{
};

TEST_P(CutSplitTest, ConservesCutAndRespectsFloors)
{
    const auto servers = Roster(100, 3);
    const Watts cut = 2000.0;
    const CappingPlan plan = SplitWith(GetParam(), servers, cut);
    EXPECT_TRUE(plan.satisfied);
    EXPECT_NEAR(plan.planned_cut, cut, 1e-3);
    for (const auto& a : plan.assignments) {
        EXPECT_GE(a.cap, 140.0 - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBrains, CutSplitTest, ::testing::ValuesIn(policy::AllPolicyKinds()),
    [](const ::testing::TestParamInfo<policy::PolicyKind>& info) {
        return std::string(policy::PolicyKindName(info.param));
    });

TEST(CutSplit, FairShareTouchesEveryoneLightly)
{
    const auto servers = Roster(100, 3);
    const CappingPlan plan =
        SplitWith(policy::PolicyKind::kFairShare, servers, 2000.0);
    // Everyone with headroom gets a (small) cut.
    EXPECT_EQ(plan.assignments.size(), servers.size());
    double max_cut = 0.0;
    for (const auto& a : plan.assignments) max_cut = std::max(max_cut, a.cut);
    EXPECT_LT(max_cut, 2000.0 / 20.0);  // no single deep victim
}

TEST(CutSplit, BucketZeroLevelsTheTop)
{
    const auto servers = Roster(100, 3);
    const CappingPlan plan = ComputeCappingPlan(servers, 2000.0, 0.0);
    EXPECT_TRUE(plan.satisfied);
    EXPECT_NEAR(plan.planned_cut, 2000.0, 1e-3);
    // Water-filling produces a common cap level for everyone touched.
    double level = -1.0;
    for (const auto& a : plan.assignments) {
        if (level < 0.0) level = a.cap;
        EXPECT_NEAR(a.cap, level, 1.0);
        EXPECT_GE(a.cap, 140.0 - 1e-6);
    }
    EXPECT_LT(plan.assignments.size(), servers.size());
}

TEST(CutSplit, ThreeBandTouchesFewerThanFairShare)
{
    const auto servers = Roster(100, 3);
    const auto three_band =
        SplitWith(policy::PolicyKind::kThreeBand, servers, 2000.0);
    const auto fairshare =
        SplitWith(policy::PolicyKind::kFairShare, servers, 2000.0);
    EXPECT_LT(three_band.assignments.size(), fairshare.assignments.size());
}

fleet::FleetSpec
SlaBoundRow(bool with_shedding)
{
    // A cache-only row: SLA floors protect half the dynamic range, so
    // deep cuts are unsatisfiable by RAPL alone.
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.topology.rpp_rated = 52e3;
    spec.servers_per_rpp = 280;
    spec.mix = fleet::ServiceMix::Single(workload::ServiceType::kCache);
    spec.diurnal_amplitude = 0.0;
    spec.with_load_shedding = with_shedding;
    spec.seed = 47;
    return spec;
}

TEST(LoadShedding, KicksInWhenCapsBottomOut)
{
    fleet::Fleet fleet(SlaBoundRow(/*with_shedding=*/true));
    // Surge far past what SLA-floored capping can absorb.
    fleet.scenario().AddPoint(0, 1.0);
    fleet.scenario().AddPoint(Minutes(2), 2.2);
    fleet.scenario().AddPoint(Minutes(40), 2.2);
    fleet.RunFor(Minutes(20));

    auto& leaf = *fleet.dynamo()->leaf_controllers()[0];
    EXPECT_TRUE(leaf.shedding());
    EXPECT_GT(leaf.sheds_requested(), 0u);
    EXPECT_GE(fleet.event_log()->CountOf(telemetry::EventKind::kLoadShed), 1u);
    // Shedding + capping held the breaker.
    EXPECT_EQ(fleet.outage_count(), 0u);
    // Servers actually had traffic drained.
    bool any_shed = false;
    for (const auto& srv : fleet.servers()) {
        if (srv->load().shed_factor() < 1.0) any_shed = true;
    }
    EXPECT_TRUE(any_shed);
}

TEST(LoadShedding, WithoutShedderTheRowTrips)
{
    fleet::Fleet fleet(SlaBoundRow(/*with_shedding=*/false));
    fleet.scenario().AddPoint(0, 1.0);
    fleet.scenario().AddPoint(Minutes(2), 2.2);
    fleet.scenario().AddPoint(Minutes(40), 2.2);
    fleet.RunFor(Minutes(30));
    EXPECT_GE(fleet.outage_count(), 1u);
}

TEST(LoadShedding, ClearsOnUncap)
{
    fleet::Fleet fleet(SlaBoundRow(true));
    fleet.scenario().AddPoint(0, 1.0);
    fleet.scenario().AddPoint(Minutes(2), 2.2);
    fleet.scenario().AddPoint(Minutes(15), 2.2);
    fleet.scenario().AddPoint(Minutes(18), 0.7);
    fleet.RunFor(Minutes(30));
    auto& leaf = *fleet.dynamo()->leaf_controllers()[0];
    EXPECT_FALSE(leaf.shedding());
    for (const auto& srv : fleet.servers()) {
        EXPECT_DOUBLE_EQ(srv->load().shed_factor(), 1.0);
    }
}

TEST(Stagger, SpreadsLeafCyclesAcrossThePeriod)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.topology.rpps_per_sb = 4;
    spec.servers_per_rpp = 20;
    spec.deployment.stagger_cycles = true;
    spec.seed = 3;
    fleet::Fleet fleet(spec);
    // Phases land at 1, 998, 1995, 2992 ms; aggregation follows each
    // by the 1000 ms response wait. At t=3050 the last controller has
    // not aggregated yet.
    fleet.RunFor(3050);
    std::size_t done = 0;
    for (const auto& leaf : fleet.dynamo()->leaf_controllers()) {
        if (leaf->aggregations() > 0) ++done;
    }
    EXPECT_GT(done, 0u);
    EXPECT_LT(done, 4u);
    // Eventually everyone cycles at the same rate.
    fleet.RunFor(Minutes(1));
    for (const auto& leaf : fleet.dynamo()->leaf_controllers()) {
        EXPECT_GT(leaf->aggregations(), 15u);
    }
}

TEST(Stagger, SpecParserKeyRoundTrips)
{
    const fleet::FleetSpec spec =
        fleet::ParseFleetSpecString("with_load_shedding = true\n");
    EXPECT_TRUE(spec.with_load_shedding);
}

}  // namespace
}  // namespace dynamo::core
