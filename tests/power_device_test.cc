// Tests for the power-device tree, topology builders, and the breaker
// monitor's outage propagation.
#include "power/device.h"

#include <memory>

#include <gtest/gtest.h>

#include "power/breaker_monitor.h"
#include "power/topology.h"
#include "sim/simulation.h"

namespace dynamo::power {
namespace {

/** A load whose draw the test can change and that records reads and
 *  outages. */
class TestLoad : public PowerLoad
{
  public:
    explicit TestLoad(Watts draw) : draw_(draw) {}

    Watts PowerAt(SimTime) override
    {
        ++reads_;
        return draw_;
    }
    bool Cappable() const override { return true; }
    void OnPowerLost(SimTime) override { ++lost_; }
    void OnPowerRestored(SimTime) override { ++restored_; }

    void set_draw(Watts w) { draw_ = w; }
    int reads() const { return reads_; }
    int lost() const { return lost_; }
    int restored() const { return restored_; }

  private:
    Watts draw_;
    int reads_ = 0;
    int lost_ = 0;
    int restored_ = 0;
};

TEST(PowerDevice, AggregatesLoadsAndChildren)
{
    PowerDevice root("root", DeviceLevel::kSb, 1000.0, 1000.0);
    TestLoad direct(50.0);
    root.AttachLoad(&direct);
    auto* child = root.AddChild(
        std::make_unique<PowerDevice>("c", DeviceLevel::kRpp, 500.0, 400.0));
    TestLoad child_load(30.0);
    child->AttachLoad(&child_load);
    EXPECT_DOUBLE_EQ(root.TotalPower(0), 80.0);
    EXPECT_DOUBLE_EQ(child->TotalPower(0), 30.0);
}

TEST(PowerDevice, NonCappableLoadPowerCountsOnlySwitches)
{
    PowerDevice device("d", DeviceLevel::kRpp, 1000.0, 1000.0);
    TestLoad server(100.0);
    FixedLoad tor(25.0);
    device.AttachLoad(&server);
    device.AttachLoad(&tor);
    EXPECT_DOUBLE_EQ(device.NonCappableLoadPower(0), 25.0);
    EXPECT_DOUBLE_EQ(device.TotalPower(0), 125.0);
}

TEST(PowerDevice, TrippedBreakerDeEnergizesSubtree)
{
    PowerDevice root("root", DeviceLevel::kSb, 100.0, 100.0);
    auto* child = root.AddChild(
        std::make_unique<PowerDevice>("c", DeviceLevel::kRpp, 50.0, 50.0));
    TestLoad load(30.0);
    child->AttachLoad(&load);

    EXPECT_TRUE(child->IsEnergized());
    // Force-trip the root breaker.
    root.breaker().Advance(1000.0, Minutes(10));
    EXPECT_TRUE(root.breaker().tripped());
    EXPECT_FALSE(child->IsEnergized());
    EXPECT_DOUBLE_EQ(root.TotalPower(0), 0.0);
    EXPECT_DOUBLE_EQ(child->TotalPower(0), 0.0);
}

TEST(PowerDevice, FindLocatesDescendants)
{
    TopologySpec spec;
    auto msb = BuildMsbTree(spec);
    EXPECT_EQ(msb->Find("msb0"), msb.get());
    EXPECT_NE(msb->Find("msb0/sb1"), nullptr);
    EXPECT_NE(msb->Find("msb0/sb1/rpp3"), nullptr);
    EXPECT_EQ(msb->Find("nope"), nullptr);
}

TEST(PowerDevice, ParentPointersAreWired)
{
    TopologySpec spec;
    auto msb = BuildMsbTree(spec);
    PowerDevice* rpp = msb->Find("msb0/sb0/rpp0");
    ASSERT_NE(rpp, nullptr);
    ASSERT_NE(rpp->parent(), nullptr);
    EXPECT_EQ(rpp->parent()->name(), "msb0/sb0");
    EXPECT_EQ(rpp->parent()->parent(), msb.get());
}

TEST(Topology, MsbTreeShapeMatchesSpec)
{
    TopologySpec spec;
    spec.sbs_per_msb = 4;
    spec.rpps_per_sb = 8;
    auto msb = BuildMsbTree(spec);
    EXPECT_EQ(msb->level(), DeviceLevel::kMsb);
    EXPECT_EQ(msb->children().size(), 4u);
    EXPECT_EQ(msb->DevicesAtLevel(DeviceLevel::kRpp).size(), 32u);
    EXPECT_EQ(msb->SubtreeSize(), 1u + 4u + 32u);
}

TEST(Topology, OversubscriptionAtEveryLevel)
{
    // Children's combined rating exceeds the parent's rating (Fig. 2).
    TopologySpec spec;
    auto msb = BuildMsbTree(spec);
    Watts sb_total = 0.0;
    for (const auto& sb : msb->children()) sb_total += sb->rated_power();
    EXPECT_GT(sb_total, msb->rated_power());

    const PowerDevice* sb = msb->children()[0].get();
    Watts rpp_total = 0.0;
    for (const auto& rpp : sb->children()) rpp_total += rpp->rated_power();
    EXPECT_GT(rpp_total, sb->rated_power());
}

TEST(Topology, QuotasFillParentRating)
{
    TopologySpec spec;
    spec.quota_fill = 1.0;
    auto msb = BuildMsbTree(spec);
    Watts quota_total = 0.0;
    for (const auto& sb : msb->children()) quota_total += sb->quota();
    EXPECT_NEAR(quota_total, msb->rated_power(), 1.0);
}

TEST(Topology, RacksIncludedWhenRequested)
{
    TopologySpec spec;
    spec.include_racks = true;
    auto sb = BuildSbTree("sb", 2, spec);
    EXPECT_EQ(sb->DevicesAtLevel(DeviceLevel::kRack).size(),
              2u * spec.racks_per_rpp);
}

TEST(BreakerMonitor, TripsOverloadedDeviceAndNotifiesLoads)
{
    sim::Simulation sim;
    PowerDevice rpp("rpp", DeviceLevel::kRpp, 1000.0, 1000.0);
    TestLoad load(1500.0);  // 1.5x overdraw: trips in ~30 s
    rpp.AttachLoad(&load);

    BreakerMonitor monitor(sim, rpp, Seconds(1));
    int trips = 0;
    monitor.SetTripCallback([&](PowerDevice& d, SimTime) {
        EXPECT_EQ(&d, &rpp);
        ++trips;
    });
    sim.RunFor(Minutes(5));
    EXPECT_TRUE(rpp.breaker().tripped());
    EXPECT_EQ(trips, 1);
    EXPECT_EQ(monitor.trip_count(), 1u);
    EXPECT_EQ(load.lost(), 1);
}

TEST(BreakerMonitor, NoTripAtNormalLoad)
{
    sim::Simulation sim;
    PowerDevice rpp("rpp", DeviceLevel::kRpp, 1000.0, 1000.0);
    TestLoad load(900.0);
    rpp.AttachLoad(&load);
    BreakerMonitor monitor(sim, rpp, Seconds(1));
    sim.RunFor(Hours(1));
    EXPECT_FALSE(rpp.breaker().tripped());
    EXPECT_EQ(monitor.trip_count(), 0u);
}

TEST(BreakerMonitor, ChildTripShedsLoadFromParent)
{
    sim::Simulation sim;
    PowerDevice sb("sb", DeviceLevel::kSb, 2000.0, 2000.0);
    auto* rpp_hot = sb.AddChild(
        std::make_unique<PowerDevice>("hot", DeviceLevel::kRpp, 500.0, 500.0));
    auto* rpp_ok = sb.AddChild(
        std::make_unique<PowerDevice>("ok", DeviceLevel::kRpp, 500.0, 500.0));
    TestLoad hot(900.0);   // 1.8x on its RPP: trips fast
    TestLoad fine(400.0);
    rpp_hot->AttachLoad(&hot);
    rpp_ok->AttachLoad(&fine);

    BreakerMonitor monitor(sim, sb, Seconds(1));
    sim.RunFor(Minutes(5));
    EXPECT_TRUE(rpp_hot->breaker().tripped());
    EXPECT_FALSE(sb.breaker().tripped());
    // The tripped child no longer contributes to the SB's draw.
    EXPECT_DOUBLE_EQ(sb.TotalPower(sim.Now()), 400.0);
}

TEST(BreakerMonitor, ReadsEachLoadOncePerTickAndNoneUnderATrip)
{
    sim::Simulation sim;
    PowerDevice sb("sb", DeviceLevel::kSb, 5000.0, 5000.0);
    auto* rpp_hot = sb.AddChild(
        std::make_unique<PowerDevice>("hot", DeviceLevel::kRpp, 500.0, 500.0));
    auto* rpp_ok = sb.AddChild(
        std::make_unique<PowerDevice>("ok", DeviceLevel::kRpp, 2000.0, 2000.0));
    auto* rack = rpp_ok->AddChild(std::make_unique<PowerDevice>(
        "rack", DeviceLevel::kRack, 1000.0, 1000.0));
    TestLoad direct(100.0);  // on the SB itself: one read per tick
    TestLoad deep(300.0);    // three breakers above it
    TestLoad hot(900.0);     // trips its RPP
    sb.AttachLoad(&direct);
    rack->AttachLoad(&deep);
    rpp_hot->AttachLoad(&hot);

    BreakerMonitor monitor(sim, sb, Seconds(1));
    sim.RunFor(Minutes(5));
    ASSERT_TRUE(rpp_hot->breaker().tripped());
    ASSERT_GT(direct.reads(), 0);
    EXPECT_EQ(deep.reads(), direct.reads());

    // A dark subtree's loads are not read at all.
    const int hot_reads = hot.reads();
    EXPECT_LT(hot_reads, direct.reads());
    sim.RunFor(Minutes(1));
    EXPECT_EQ(hot.reads(), hot_reads);
    EXPECT_EQ(deep.reads(), direct.reads());
    EXPECT_DOUBLE_EQ(sb.TotalPower(sim.Now()), 400.0);
}

TEST(Dcups, BatteryRideThroughDelaysDarkness)
{
    sim::Simulation sim;
    PowerDevice rpp("rpp", DeviceLevel::kRpp, 1000.0, 1000.0);
    auto* rack = rpp.AddChild(
        std::make_unique<PowerDevice>("rack", DeviceLevel::kRack, 5000.0, 500.0));
    rack->set_battery_backup(Seconds(90));
    TestLoad load(1500.0);  // overdraws the RPP (but not the rack)
    rack->AttachLoad(&load);

    BreakerMonitor monitor(sim, rpp, Seconds(1));
    // Run until the RPP trips (~30 s at 1.5x).
    sim.RunFor(Minutes(2));
    ASSERT_TRUE(rpp.breaker().tripped());
    // DCUPS carries the rack: the load has NOT been notified yet.
    EXPECT_EQ(load.lost(), 0);
    // After the 90 s battery is exhausted with power still out, it is.
    sim.RunFor(Seconds(95));
    EXPECT_EQ(load.lost(), 1);
}

TEST(Dcups, RestoredBeforeBatteryExhaustionNeverGoesDark)
{
    sim::Simulation sim;
    PowerDevice rpp("rpp", DeviceLevel::kRpp, 1000.0, 1000.0);
    auto* rack = rpp.AddChild(
        std::make_unique<PowerDevice>("rack", DeviceLevel::kRack, 5000.0, 500.0));
    rack->set_battery_backup(Seconds(90));
    TestLoad load(1500.0);
    rack->AttachLoad(&load);

    BreakerMonitor monitor(sim, rpp, Seconds(1));
    sim.RunFor(Minutes(1));  // 1.5x overdraw trips in ~38 s
    ASSERT_TRUE(rpp.breaker().tripped());
    // Operators shed load and reclose the breaker well within the
    // 90 s ride-through window.
    load.set_draw(400.0);
    sim.RunFor(Seconds(10));
    rpp.breaker().Reset();
    rpp.NotifyPowerRestored(sim.Now());
    sim.RunFor(Minutes(5));
    EXPECT_EQ(load.lost(), 0);
}

TEST(Dcups, UnbackedSiblingsGoDarkImmediately)
{
    sim::Simulation sim;
    PowerDevice rpp("rpp", DeviceLevel::kRpp, 1000.0, 1000.0);
    auto* backed = rpp.AddChild(
        std::make_unique<PowerDevice>("b", DeviceLevel::kRack, 5000.0, 500.0));
    auto* unbacked = rpp.AddChild(
        std::make_unique<PowerDevice>("u", DeviceLevel::kRack, 5000.0, 500.0));
    backed->set_battery_backup(Seconds(90));
    TestLoad safe(800.0);
    TestLoad exposed(800.0);
    backed->AttachLoad(&safe);
    unbacked->AttachLoad(&exposed);

    BreakerMonitor monitor(sim, rpp, Seconds(1));
    sim.RunFor(Minutes(1));  // 1.6x overdraw trips the RPP in ~26 s
    ASSERT_TRUE(rpp.breaker().tripped());
    EXPECT_EQ(exposed.lost(), 1);
    EXPECT_EQ(safe.lost(), 0);
    // Once the battery drains with power still out, the backed rack
    // goes dark as well.
    sim.RunFor(Minutes(2));
    EXPECT_EQ(safe.lost(), 1);
}

}  // namespace
}  // namespace dynamo::power
