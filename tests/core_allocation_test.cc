// Unit and property tests for the allocation algorithms:
// high-bucket-first, priority groups, SLA floors (leaf), and
// punish-offender-first with contractual limits (upper).
#include "core/allocation.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dynamo::core {
namespace {

double
TotalCut(const CappingPlan& plan)
{
    double sum = 0.0;
    for (const auto& a : plan.assignments) sum += a.cut;
    return sum;
}

TEST(BucketedEvenCut, ZeroCutIsNoop)
{
    const auto cuts = BucketedEvenCut({100.0, 200.0}, {0.0, 0.0}, 0.0, 20.0);
    EXPECT_EQ(cuts, (std::vector<Watts>{0.0, 0.0}));
}

TEST(BucketedEvenCut, HighestBucketAbsorbsSmallCut)
{
    // Servers at 300 and 220: a 30 W cut fits entirely in the 300 W
    // server's top bucket [280, 300); the 220 W server is untouched.
    const auto cuts = BucketedEvenCut({300.0, 220.0}, {0.0, 0.0}, 15.0, 20.0);
    EXPECT_NEAR(cuts[0], 15.0, 1e-9);
    EXPECT_DOUBLE_EQ(cuts[1], 0.0);
}

TEST(BucketedEvenCut, ExpandsToLowerBucketsWhenNeeded)
{
    const auto cuts = BucketedEvenCut({300.0, 220.0}, {0.0, 0.0}, 100.0, 20.0);
    EXPECT_NEAR(cuts[0] + cuts[1], 100.0, 1e-6);
    EXPECT_GT(cuts[0], cuts[1]);  // the hotter server is punished more
    EXPECT_GT(cuts[1], 0.0);      // but the cut reached the second server
}

TEST(BucketedEvenCut, EvenSplitWithinSameBucket)
{
    // Two servers in the same bucket share the cut evenly.
    const auto cuts = BucketedEvenCut({295.0, 293.0}, {0.0, 0.0}, 10.0, 20.0);
    EXPECT_NEAR(cuts[0], 5.0, 1e-9);
    EXPECT_NEAR(cuts[1], 5.0, 1e-9);
}

TEST(BucketedEvenCut, RespectsFloors)
{
    const auto cuts =
        BucketedEvenCut({300.0, 280.0}, {290.0, 270.0}, 1000.0, 20.0);
    EXPECT_NEAR(cuts[0], 10.0, 1e-6);
    EXPECT_NEAR(cuts[1], 10.0, 1e-6);
}

TEST(BucketedEvenCut, ZeroBucketDegeneratesToWaterFill)
{
    const auto cuts = BucketedEvenCut({300.0, 200.0}, {0.0, 0.0}, 100.0, 0.0);
    EXPECT_NEAR(cuts[0] + cuts[1], 100.0, 1e-6);
    // Water-filling brings the top down toward the rest first.
    EXPECT_GT(cuts[0], 99.0);
}

TEST(BucketIndex, NotApplicableWithoutBuckets)
{
    EXPECT_EQ(BucketIndex(215.0, 20.0), 10);
    EXPECT_EQ(BucketIndex(1.5e6, 2000.0), 750);
    EXPECT_EQ(BucketIndex(215.0, 0.0), -1);  // pure water-fill
    EXPECT_EQ(BucketIndex(1.5e6, 1e-5), -1);  // index past INT_MAX
}

TEST(ComputeCappingPlan, ZeroOrNegativeCutIsSatisfiedNoop)
{
    const std::vector<ServerPowerInfo> servers = {{"a", 200.0, 0, 100.0}};
    EXPECT_TRUE(ComputeCappingPlan(servers, 0.0).satisfied);
    EXPECT_TRUE(ComputeCappingPlan(servers, -5.0).satisfied);
    EXPECT_TRUE(ComputeCappingPlan(servers, 0.0).assignments.empty());
}

TEST(ComputeCappingPlan, CapEqualsPowerMinusCut)
{
    const std::vector<ServerPowerInfo> servers = {{"a", 250.0, 0, 100.0}};
    const CappingPlan plan = ComputeCappingPlan(servers, 30.0);
    ASSERT_EQ(plan.assignments.size(), 1u);
    EXPECT_DOUBLE_EQ(plan.assignments[0].cap, 220.0);
    EXPECT_DOUBLE_EQ(plan.assignments[0].cut, 30.0);
    EXPECT_TRUE(plan.satisfied);
}

TEST(ComputeCappingPlan, LowestPriorityGroupCappedFirst)
{
    // Fig. 15: web (group 1) and feed (group 1) get capped while cache
    // (group 2) is untouched — here group 0 vs group 1.
    const std::vector<ServerPowerInfo> servers = {
        {"low1", 250.0, 0, 120.0},
        {"low2", 240.0, 0, 120.0},
        {"high", 260.0, 1, 120.0},
    };
    const CappingPlan plan = ComputeCappingPlan(servers, 60.0);
    EXPECT_TRUE(plan.satisfied);
    for (const auto& a : plan.assignments) {
        EXPECT_NE(a.name, "high") << "higher priority group was capped";
    }
}

TEST(ComputeCappingPlan, SpillsToNextGroupWhenExhausted)
{
    const std::vector<ServerPowerInfo> servers = {
        {"low", 200.0, 0, 180.0},   // only 20 W available
        {"high", 250.0, 1, 150.0},  // must absorb the rest
    };
    const CappingPlan plan = ComputeCappingPlan(servers, 60.0);
    EXPECT_TRUE(plan.satisfied);
    ASSERT_EQ(plan.assignments.size(), 2u);
    double low_cut = 0.0;
    double high_cut = 0.0;
    for (const auto& a : plan.assignments) {
        (a.name == "low" ? low_cut : high_cut) = a.cut;
    }
    EXPECT_NEAR(low_cut, 20.0, 1e-6);
    EXPECT_NEAR(high_cut, 40.0, 1e-6);
}

TEST(ComputeCappingPlan, UnsatisfiableReportsAndCapsToFloors)
{
    const std::vector<ServerPowerInfo> servers = {
        {"a", 200.0, 0, 190.0},
        {"b", 210.0, 0, 200.0},
    };
    const CappingPlan plan = ComputeCappingPlan(servers, 500.0);
    EXPECT_FALSE(plan.satisfied);
    EXPECT_NEAR(plan.planned_cut, 20.0, 1e-6);
    for (const auto& a : plan.assignments) {
        const auto& s = a.name == "a" ? servers[0] : servers[1];
        EXPECT_NEAR(a.cap, s.sla_min_cap, 1e-6);
    }
}

TEST(ComputeCappingPlan, Fig16FloorBehaviour)
{
    // Fig. 16: with the expansion reaching the [210 W, 300 W] range,
    // every web server at 210 W or more is capped and no cap value is
    // below 210 W.
    std::vector<ServerPowerInfo> servers;
    Rng rng(4);
    for (int i = 0; i < 200; ++i) {
        servers.push_back(ServerPowerInfo{
            "w" + std::to_string(i), 180.0 + 130.0 * rng.Uniform(), 0, 150.0});
    }
    // Pick a cut that forces expansion well below the top bucket.
    const CappingPlan plan = ComputeCappingPlan(servers, 3000.0, 20.0);
    EXPECT_TRUE(plan.satisfied);
    // Find the effective floor: the minimum cap assigned.
    double floor = 1e9;
    for (const auto& a : plan.assignments) floor = std::min(floor, a.cap);
    // Every server above the floor got capped; none below it did.
    for (std::size_t i = 0; i < servers.size(); ++i) {
        bool assigned = false;
        for (const auto& a : plan.assignments) {
            if (a.name == servers[i].name) assigned = true;
        }
        if (servers[i].power > floor + 20.0 + 1e-6) {
            EXPECT_TRUE(assigned) << servers[i].name << " power "
                                  << servers[i].power << " floor " << floor;
        }
        if (servers[i].power < floor - 1e-6) {
            EXPECT_FALSE(assigned);
        }
    }
}

// Property sweep: conservation, floor-respect, and cap-below-power for
// random rosters and cut sizes.
class CappingPlanPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(CappingPlanPropertyTest, InvariantsHold)
{
    const int seed = std::get<0>(GetParam());
    const double cut_frac = std::get<1>(GetParam());
    Rng rng(static_cast<std::uint64_t>(seed));

    std::vector<ServerPowerInfo> servers;
    double total_power = 0.0;
    double total_headroom = 0.0;
    const int n = 5 + static_cast<int>(rng.UniformInt(60));
    for (int i = 0; i < n; ++i) {
        ServerPowerInfo s;
        s.name = "s" + std::to_string(i);
        s.power = 120.0 + 230.0 * rng.Uniform();
        s.priority_group = static_cast<int>(rng.UniformInt(3));
        s.sla_min_cap = 100.0 + 60.0 * rng.Uniform();
        total_power += s.power;
        total_headroom += std::max(0.0, s.power - s.sla_min_cap);
        servers.push_back(s);
    }
    const double cut = cut_frac * total_power;
    const CappingPlan plan = ComputeCappingPlan(servers, cut, 20.0);

    // Conservation: planned cut never exceeds the request and matches
    // the sum of assignments.
    EXPECT_NEAR(plan.planned_cut, TotalCut(plan), 1e-6);
    EXPECT_LE(plan.planned_cut, cut + 1e-6);
    // Satisfaction is exactly "the request fit inside the headroom".
    if (cut <= total_headroom - 1e-6) {
        EXPECT_TRUE(plan.satisfied);
        EXPECT_NEAR(plan.planned_cut, cut, 1e-3);
    }
    for (const auto& a : plan.assignments) {
        const ServerPowerInfo* info = nullptr;
        for (const auto& s : servers) {
            if (s.name == a.name) info = &s;
        }
        ASSERT_NE(info, nullptr);
        EXPECT_GE(a.cap, info->sla_min_cap - 1e-6) << "SLA floor violated";
        EXPECT_LE(a.cap, info->power + 1e-6) << "cap above current power";
        EXPECT_GT(a.cut, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomRosters, CappingPlanPropertyTest,
    ::testing::Combine(::testing::Range(1, 9),
                       ::testing::Values(0.02, 0.10, 0.30, 0.80)));

TEST(ComputeOffenderPlan, OffenderTakesWholeCut)
{
    // The paper's worked example: C1 at 190 KW (quota 150), C2 at
    // 130 KW (quota 150), parent limit 300 KW -> 20 KW cut goes to C1,
    // whose contractual limit becomes 170 KW.
    const std::vector<ChildPowerInfo> children = {
        {"C1", 190e3, 150e3, 50e3},
        {"C2", 130e3, 150e3, 50e3},
    };
    const OffenderPlan plan = ComputeOffenderPlan(children, 20e3);
    EXPECT_TRUE(plan.satisfied);
    ASSERT_EQ(plan.limits.size(), 1u);
    EXPECT_EQ(plan.limits[0].name, "C1");
    EXPECT_NEAR(plan.limits[0].contractual_limit, 170e3, 1.0);
}

TEST(ComputeOffenderPlan, MultipleOffendersShareHighBucketFirst)
{
    const std::vector<ChildPowerInfo> children = {
        {"A", 200e3, 150e3, 0.0},
        {"B", 180e3, 150e3, 0.0},
        {"C", 120e3, 150e3, 0.0},
    };
    const OffenderPlan plan = ComputeOffenderPlan(children, 30e3, 2000.0);
    EXPECT_TRUE(plan.satisfied);
    double cut_a = 0.0;
    double cut_b = 0.0;
    for (const auto& l : plan.limits) {
        EXPECT_NE(l.name, "C") << "non-offender was cut";
        if (l.name == "A") cut_a = l.cut;
        if (l.name == "B") cut_b = l.cut;
    }
    EXPECT_GT(cut_a, cut_b);  // the bigger offender absorbs more
    EXPECT_NEAR(cut_a + cut_b, 30e3, 1.0);
}

TEST(ComputeOffenderPlan, OffendersNotPushedBelowQuotaInStageOne)
{
    const std::vector<ChildPowerInfo> children = {
        {"A", 160e3, 150e3, 100e3},
        {"B", 140e3, 150e3, 100e3},
    };
    // Cut of 8 KW fits inside A's 10 KW excess.
    const OffenderPlan plan = ComputeOffenderPlan(children, 8e3);
    ASSERT_EQ(plan.limits.size(), 1u);
    EXPECT_GE(plan.limits[0].contractual_limit, 150e3 - 1.0);
}

TEST(ComputeOffenderPlan, SpillsBeyondOffendersWhenExcessInsufficient)
{
    const std::vector<ChildPowerInfo> children = {
        {"A", 160e3, 150e3, 100e3},
        {"B", 140e3, 150e3, 100e3},
    };
    // 30 KW cut: A's excess is only 10 KW; the rest must spread.
    const OffenderPlan plan = ComputeOffenderPlan(children, 30e3);
    EXPECT_TRUE(plan.satisfied);
    EXPECT_NEAR(plan.planned_cut, 30e3, 1.0);
    EXPECT_EQ(plan.limits.size(), 2u);
}

TEST(ComputeOffenderPlan, NoOffendersSpreadsAcrossAll)
{
    const std::vector<ChildPowerInfo> children = {
        {"A", 140e3, 150e3, 100e3},
        {"B", 130e3, 150e3, 100e3},
    };
    const OffenderPlan plan = ComputeOffenderPlan(children, 20e3);
    EXPECT_TRUE(plan.satisfied);
    EXPECT_NEAR(plan.planned_cut, 20e3, 1.0);
}

TEST(ComputeOffenderPlan, RespectsChildFloors)
{
    const std::vector<ChildPowerInfo> children = {
        {"A", 140e3, 100e3, 135e3},
        {"B", 130e3, 100e3, 125e3},
    };
    const OffenderPlan plan = ComputeOffenderPlan(children, 500e3);
    EXPECT_FALSE(plan.satisfied);
    for (const auto& l : plan.limits) {
        const auto& c = l.name == "A" ? children[0] : children[1];
        EXPECT_GE(l.contractual_limit, c.floor - 1e-3);
    }
}

TEST(ComputeOffenderPlan, ZeroCutIsNoop)
{
    const OffenderPlan plan = ComputeOffenderPlan({{"A", 100.0, 90.0, 0.0}}, 0.0);
    EXPECT_TRUE(plan.satisfied);
    EXPECT_TRUE(plan.limits.empty());
}

}  // namespace
}  // namespace dynamo::core
