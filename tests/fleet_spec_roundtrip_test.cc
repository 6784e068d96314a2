/**
 * @file
 * Canonical fleet-spec round trip: SerializeFleetSpec must produce
 * text that parses back to the same spec and re-serializes to the
 * byte-identical string, including awkward doubles and 64-bit seeds —
 * replay journals embed this text, so any drift would rebuild a
 * subtly different fleet.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fleet/fleet.h"
#include "fleet/spec_parser.h"

namespace dynamo::fleet {
namespace {

/** The invariant: serialize -> parse -> serialize is a fixed point. */
void
ExpectRoundTrips(const FleetSpec& spec)
{
    const std::string once = SerializeFleetSpec(spec);
    const FleetSpec reparsed = ParseFleetSpecString(once);
    const std::string twice = SerializeFleetSpec(reparsed);
    EXPECT_EQ(once, twice);
}

TEST(FleetSpecRoundTrip, DefaultSpec)
{
    ExpectRoundTrips(FleetSpec{});
}

TEST(FleetSpecRoundTrip, AwkwardDoublesSurvive)
{
    FleetSpec spec;
    // Values with no exact short decimal form.
    spec.topology.rpp_rated = 127500.0 / 3.0;
    spec.topology.sb_rated = 0.1 + 0.2;  // 0.30000000000000004
    spec.topology.msb_rated = 1.0e6 + 1.0 / 7.0;
    spec.topology.quota_fill = 2.0 / 3.0;
    spec.haswell_fraction = 1.0 / 3.0;
    spec.sensorless_fraction = 0.017999999999999999;
    spec.tor_switch_power = 299.99999999999994;
    spec.diurnal_amplitude = 0.1 * 3.0;
    spec.deployment.leaf.base.bands.cap_threshold_frac = 0.99000000000000021;
    spec.deployment.leaf.base.bands.cap_target_frac = 0.97000000000000008;
    spec.deployment.leaf.base.bands.uncap_threshold_frac = 0.84999999999999998;
    spec.deployment.upper.base.bands = spec.deployment.leaf.base.bands;
    ExpectRoundTrips(spec);

    // Values reconstruct bit-exactly, not merely approximately.
    const FleetSpec reparsed = ParseFleetSpecString(SerializeFleetSpec(spec));
    EXPECT_EQ(reparsed.topology.rpp_rated, spec.topology.rpp_rated);
    EXPECT_EQ(reparsed.topology.sb_rated, spec.topology.sb_rated);
    EXPECT_EQ(reparsed.haswell_fraction, spec.haswell_fraction);
    EXPECT_EQ(reparsed.deployment.leaf.base.bands.cap_threshold_frac,
              spec.deployment.leaf.base.bands.cap_threshold_frac);
}

TEST(FleetSpecRoundTrip, Large64BitSeedSurvives)
{
    FleetSpec spec;
    // Above 2^53: a double-typed parse would silently drop low bits.
    spec.seed = (1ULL << 63) + 12345678901ULL;
    ExpectRoundTrips(spec);
    EXPECT_EQ(ParseFleetSpecString(SerializeFleetSpec(spec)).seed, spec.seed);
}

TEST(FleetSpecRoundTrip, MixWeightsAndScopesSurvive)
{
    FleetSpec spec;
    spec.scope = FleetScope::kMsb;
    spec.mix = ServiceMix::FrontEndRow();
    spec.deployment.leaf.bucket_size = 0.0;  // water-fill every group
    spec.deployment.with_backup_controllers = true;
    spec.with_breaker_validation = true;
    spec.with_load_shedding = true;
    spec.turbo_enabled = true;
    ExpectRoundTrips(spec);

    const FleetSpec reparsed = ParseFleetSpecString(SerializeFleetSpec(spec));
    EXPECT_EQ(reparsed.scope, FleetScope::kMsb);
    ASSERT_EQ(reparsed.mix.shares.size(), spec.mix.shares.size());
    for (std::size_t i = 0; i < spec.mix.shares.size(); ++i) {
        EXPECT_EQ(reparsed.mix.shares[i].service, spec.mix.shares[i].service);
        EXPECT_EQ(reparsed.mix.shares[i].weight, spec.mix.shares[i].weight);
    }
    EXPECT_EQ(reparsed.deployment.leaf.bucket_size, 0.0);
    EXPECT_TRUE(reparsed.deployment.with_backup_controllers);
}

TEST(FleetSpecRoundTrip, WattDenominatedKeysParse)
{
    const FleetSpec spec = ParseFleetSpecString(
        "rpp_rated_w = 127500.5\n"
        "sb_rated_w = 1150000.25\n"
        "msb_rated_w = 2500000.125\n");
    EXPECT_EQ(spec.topology.rpp_rated, 127500.5);
    EXPECT_EQ(spec.topology.sb_rated, 1150000.25);
    EXPECT_EQ(spec.topology.msb_rated, 2500000.125);
}

TEST(FleetSpecRoundTrip, LegacyKilowattKeysStillWork)
{
    const FleetSpec spec = ParseFleetSpecString("rpp_rated_kw = 127.5\n");
    EXPECT_EQ(spec.topology.rpp_rated, 127500.0);
}

TEST(FleetSpecRoundTrip, SeedRejectsGarbage)
{
    EXPECT_THROW(ParseFleetSpecString("seed = 12x\n"), std::invalid_argument);
    EXPECT_THROW(ParseFleetSpecString("seed = 1.5\n"), std::invalid_argument);
}

TEST(FleetSpecRoundTrip, DefaultPolicyEmitsNoKey)
{
    // Committed golden journals embed the serialized spec; the default
    // brain must leave the byte stream exactly as it was before the
    // policy lab existed.
    const std::string text = SerializeFleetSpec(FleetSpec{});
    EXPECT_EQ(text.find("capping_policy"), std::string::npos);
}

TEST(FleetSpecRoundTrip, NonDefaultPolicySurvives)
{
    FleetSpec spec;
    spec.deployment.leaf.capping_policy = policy::PolicyKind::kPredictive;
    spec.deployment.upper.capping_policy = policy::PolicyKind::kPredictive;
    ExpectRoundTrips(spec);
    const std::string text = SerializeFleetSpec(spec);
    EXPECT_NE(text.find("capping_policy = predictive"), std::string::npos);
    const FleetSpec reparsed = ParseFleetSpecString(text);
    EXPECT_EQ(reparsed.deployment.leaf.capping_policy,
              policy::PolicyKind::kPredictive);
    EXPECT_EQ(reparsed.deployment.upper.capping_policy,
              policy::PolicyKind::kPredictive);
}

}  // namespace
}  // namespace dynamo::fleet
