// Tests for the two memos on the server-read path: CompositeTraffic's
// (now, factor) memo and the per-thread decay-term table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/decay.h"
#include "common/rng.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "workload/load_process.h"
#include "workload/traffic.h"

namespace dynamo {
namespace {

using workload::CompositeTraffic;
using workload::ConstantTraffic;
using workload::LoadProcess;
using workload::LoadProcessParams;
using workload::PiecewiseTraffic;
using workload::ServiceType;
using workload::TrafficModel;

/** A constant factor that counts how often it is evaluated. */
class CountingTraffic : public TrafficModel
{
  public:
    double FactorAt(SimTime) const override
    {
        ++calls;
        return 1.25;
    }

    mutable int calls = 0;
};

TEST(CompositeTrafficMemo, SharedCompositeIsEvaluatedOncePerInstant)
{
    CountingTraffic part;
    CompositeTraffic composite;
    composite.Add(&part);
    std::vector<LoadProcess> processes;
    for (std::uint64_t i = 0; i < 240; ++i) {
        processes.emplace_back(LoadProcessParams::For(ServiceType::kWeb),
                               Rng(100 + i), &composite);
    }
    for (LoadProcess& p : processes) p.UtilAt(0);
    EXPECT_EQ(part.calls, 1);
    for (LoadProcess& p : processes) p.UtilAt(Seconds(1));
    EXPECT_EQ(part.calls, 2);
    for (LoadProcess& p : processes) p.UtilAt(Seconds(1));
    EXPECT_EQ(part.calls, 2);
}

TEST(CompositeTrafficMemo, SetFactorAtTheSameInstantIsSeen)
{
    ConstantTraffic constant(1.0);
    CompositeTraffic composite;
    composite.Add(&constant);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 1.0);
    constant.set_factor(2.0);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 2.0);
}

TEST(CompositeTrafficMemo, AddPointAtTheSameInstantIsSeen)
{
    PiecewiseTraffic scenario;
    CompositeTraffic composite;
    composite.Add(&scenario);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 1.0);
    scenario.AddPoint(0, 1.5);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 1.5);
}

TEST(CompositeTrafficMemo, SquarePulseAtTheSameInstantIsSeen)
{
    PiecewiseTraffic scenario;
    CompositeTraffic composite;
    composite.Add(&scenario);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 1.0);
    scenario.AddSquarePulse(0, Seconds(10), 1.0, 1.4);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 1.4);
}

TEST(CompositeTrafficMemo, AddAtTheSameInstantIsSeen)
{
    ConstantTraffic a(2.0);
    ConstantTraffic b(3.0);
    CompositeTraffic composite;
    composite.Add(&a);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 2.0);
    composite.Add(&b);
    EXPECT_EQ(composite.FactorAt(Seconds(5)), 6.0);
}

TEST(CompositeTrafficMemo, NestedCompositeSeesItsPartsChange)
{
    ConstantTraffic constant(1.0);
    ConstantTraffic extra(0.5);
    CompositeTraffic inner;
    inner.Add(&constant);
    CompositeTraffic outer;
    outer.Add(&inner);
    EXPECT_EQ(outer.FactorAt(Seconds(5)), 1.0);
    constant.set_factor(2.0);
    EXPECT_EQ(outer.FactorAt(Seconds(5)), 2.0);
    inner.Add(&extra);
    EXPECT_EQ(outer.FactorAt(Seconds(5)), 1.0);
}

/**
 * Server 1's demanded utilization at `t` in a 4-server RPP fleet. At
 * `t` an event optionally reads server 0 first, then optionally sets
 * the global traffic factor to 0.6, then reads server 1.
 */
double
ServerOneUtilAt(SimTime t, bool read_first, bool set_factor)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.servers_per_rpp = 4;
    spec.with_dynamo = false;
    spec.seed = 9;
    fleet::Fleet fleet(spec);
    double util = -1.0;
    fleet.sim().ScheduleAt(t, [&] {
        if (read_first) fleet.servers()[0]->PowerAt(t);
        if (set_factor) fleet.set_global_traffic_factor(0.6);
        util = fleet.servers()[1]->UtilAt(t);
    });
    fleet.RunFor(t + 1);
    return util;
}

TEST(CompositeTrafficMemo, FleetReadAfterSetGlobalFactorSeesIt)
{
    // 10.5 s is between breaker-monitor ticks, so server 0's read is
    // the only one at that instant before the factor changes.
    const SimTime t = 10'500;
    const double changed = ServerOneUtilAt(t, true, true);
    EXPECT_EQ(changed, ServerOneUtilAt(t, false, true));
    EXPECT_NE(changed, ServerOneUtilAt(t, true, false));
}

std::uint64_t
Bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

/** True when DecayOver(dt, tau_s) equals the direct expressions exactly. */
bool
MatchesDirect(SimTime dt, double tau_s)
{
    const double decay = std::exp(-ToSeconds(dt) / tau_s);
    const double root = std::sqrt(std::max(0.0, 1.0 - decay * decay));
    const DecayTerms terms = DecayOver(dt, tau_s);
    return Bits(terms.decay) == Bits(decay) && Bits(terms.root) == Bits(root);
}

TEST(DecayOver, MatchesTheDirectExpressionsBitForBit)
{
    const std::vector<double> taus = {0.5, 25.0, 30.0, 40.0, 45.0, 60.0, 90.0};
    Rng rng(7);
    for (int i = 0; i < 20'000; ++i) {
        const auto dt = static_cast<SimTime>(rng.UniformInt(600'001));
        const double tau = i % 2 == 0
                               ? taus[rng.UniformInt(taus.size())]
                               : rng.Uniform(0.1, 200.0);
        ASSERT_TRUE(MatchesDirect(dt, tau)) << "dt " << dt << " tau " << tau;
        // The repeat is a memo hit.
        ASSERT_TRUE(MatchesDirect(dt, tau)) << "dt " << dt << " tau " << tau;
    }
}

TEST(DecayOver, TwoTausSharingASlotEachGetTheirOwnTerms)
{
    const SimTime dt = 1000;
    const double tau_a = 25.0;
    double tau_b = tau_a;
    do {
        tau_b += 0.25;
    } while (DecaySlot(dt, tau_b) != DecaySlot(dt, tau_a));
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(MatchesDirect(dt, tau_a));
        EXPECT_TRUE(MatchesDirect(dt, tau_b));
    }
    // So do two step lengths under one tau.
    SimTime dt_b = dt;
    do {
        ++dt_b;
    } while (DecaySlot(dt_b, tau_a) != DecaySlot(dt, tau_a));
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(MatchesDirect(dt, tau_a));
        EXPECT_TRUE(MatchesDirect(dt_b, tau_a));
    }
}

TEST(DecayOver, FourThreadsReadTheirOwnTables)
{
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        threads.emplace_back([seed, &mismatches] {
            Rng rng(seed);
            for (int i = 0; i < 20'000; ++i) {
                const auto dt =
                    static_cast<SimTime>(1000 * rng.UniformInt(9));
                const double tau =
                    10.0 * static_cast<double>(1 + rng.UniformInt(9));
                if (!MatchesDirect(dt, tau)) ++mismatches;
            }
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dynamo
