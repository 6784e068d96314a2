// Tests for the fleet spec text format and the report collector.
#include "fleet/spec_parser.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "fleet/report.h"
#include "policy/capping_policy.h"

namespace dynamo::fleet {
namespace {

TEST(SpecParser, DefaultsWhenEmpty)
{
    const FleetSpec spec = ParseFleetSpecString("");
    EXPECT_EQ(spec.scope, FleetScope::kSb);
    EXPECT_EQ(spec.servers_per_rpp, 240u);
    EXPECT_TRUE(spec.with_dynamo);
}

TEST(SpecParser, ParsesScalarKeys)
{
    const FleetSpec spec = ParseFleetSpecString(R"(
        scope = rpp
        servers_per_rpp = 520
        rpp_rated_kw = 127.5
        haswell_fraction = 0.9
        sensorless_fraction = 0.05
        turbo = true
        diurnal_amplitude = 0.1
        seed = 99
        with_dynamo = false
        tor_switch_power_w = 450
    )");
    EXPECT_EQ(spec.scope, FleetScope::kRpp);
    EXPECT_EQ(spec.servers_per_rpp, 520u);
    EXPECT_DOUBLE_EQ(spec.topology.rpp_rated, 127500.0);
    EXPECT_DOUBLE_EQ(spec.haswell_fraction, 0.9);
    EXPECT_DOUBLE_EQ(spec.sensorless_fraction, 0.05);
    EXPECT_TRUE(spec.turbo_enabled);
    EXPECT_DOUBLE_EQ(spec.diurnal_amplitude, 0.1);
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_FALSE(spec.with_dynamo);
    EXPECT_DOUBLE_EQ(spec.tor_switch_power, 450.0);
}

TEST(SpecParser, ParsesControllerKeys)
{
    const FleetSpec spec = ParseFleetSpecString(R"(
        leaf_pull_cycle_ms = 5000
        upper_pull_cycle_ms = 15000
        bucket_w = 30
        cap_threshold = 0.98
        cap_target = 0.94
        uncap_threshold = 0.88
        dry_run = true
        with_backup_controllers = true
        with_breaker_validation = true
    )");
    EXPECT_EQ(spec.deployment.leaf.base.pull_cycle, 5000);
    EXPECT_EQ(spec.deployment.upper.base.pull_cycle, 15000);
    EXPECT_DOUBLE_EQ(spec.deployment.leaf.bucket_size, 30.0);
    EXPECT_DOUBLE_EQ(spec.deployment.leaf.base.bands.cap_threshold_frac, 0.98);
    EXPECT_DOUBLE_EQ(spec.deployment.upper.base.bands.cap_target_frac, 0.94);
    EXPECT_TRUE(spec.deployment.leaf.base.dry_run);
    EXPECT_TRUE(spec.deployment.with_backup_controllers);
    EXPECT_TRUE(spec.with_breaker_validation);
}

TEST(SpecParser, GpuFractionAndScenarioRoundTripOnlyWhenNonDefault)
{
    // Defaults serialize to nothing: pre-catalog spec files and their
    // journals stay byte-identical.
    const FleetSpec defaults = ParseFleetSpecString("");
    const std::string serialized = SerializeFleetSpec(defaults);
    EXPECT_EQ(serialized.find("gpu_fraction"), std::string::npos);
    EXPECT_EQ(serialized.find("scenario"), std::string::npos);

    const FleetSpec spec = ParseFleetSpecString(R"(
        gpu_fraction = 0.25
        scenario = gpu-surge(pulses=5)
    )");
    EXPECT_DOUBLE_EQ(spec.gpu_fraction, 0.25);
    EXPECT_EQ(spec.scenario, "gpu-surge(pulses=5)");
    const std::string text = SerializeFleetSpec(spec);
    EXPECT_NE(text.find("gpu_fraction = 0.25"), std::string::npos) << text;
    EXPECT_NE(text.find("scenario = gpu-surge(pulses=5)"), std::string::npos)
        << text;
    const FleetSpec reparsed = ParseFleetSpecString(text);
    EXPECT_DOUBLE_EQ(reparsed.gpu_fraction, 0.25);
    EXPECT_EQ(reparsed.scenario, spec.scenario);
}

TEST(SpecParser, CommentsAndBlanksIgnored)
{
    const FleetSpec spec = ParseFleetSpecString(
        "# full-line comment\n\n  seed = 5  # trailing comment\n");
    EXPECT_EQ(spec.seed, 5u);
}

TEST(SpecParser, UnknownKeyFailsLoudly)
{
    EXPECT_THROW(ParseFleetSpecString("sevrers_per_rpp = 10"),
                 std::runtime_error);
}

TEST(SpecParser, MalformedValueFails)
{
    EXPECT_THROW(ParseFleetSpecString("seed = banana"), std::invalid_argument);
    EXPECT_THROW(ParseFleetSpecString("turbo = maybe"), std::runtime_error);
    EXPECT_THROW(ParseFleetSpecString("scope = rack"), std::runtime_error);
    EXPECT_THROW(ParseFleetSpecString("seed ="), std::runtime_error);
    EXPECT_THROW(ParseFleetSpecString("just words"), std::runtime_error);
}

// Every numeric field must reject overflow, negatives, and trailing
// garbage with std::invalid_argument that names the offending key and
// line — never a raw std::out_of_range from std::stoull, and never a
// silent truncation/wrap (the old ParseDouble path accepted
// "servers_per_rpp = -5" and built a fleet with 2^64-ish servers).
TEST(SpecParser, BadNumericValuesNameTheKey)
{
    struct BadCase
    {
        const char* line;
        const char* must_mention;
    };
    const BadCase cases[] = {
        // counts: negatives, fractions, garbage, overflow
        {"servers_per_rpp = -5", "servers_per_rpp"},
        {"servers_per_rpp = 240.7", "servers_per_rpp"},
        {"servers_per_rpp = 12cows", "servers_per_rpp"},
        {"rpps_per_sb = -1", "rpps_per_sb"},
        {"rpps_per_sb = 99999999999999999999999999", "rpps_per_sb"},
        {"sbs_per_msb = 4x", "sbs_per_msb"},
        // watts / fractions: negatives and garbage
        {"rpp_rated_kw = -127.5", "rpp_rated_kw"},
        {"rpp_rated_w = 127500garbage", "rpp_rated_w"},
        {"sb_rated_w = -1", "sb_rated_w"},
        {"quota_fill = -0.5", "quota_fill"},
        {"haswell_fraction = -0.1", "haswell_fraction"},
        {"tor_switch_power_w = -300", "tor_switch_power_w"},
        {"diurnal_amplitude = 0.25extra", "diurnal_amplitude"},
        {"bucket_w = -20", "bucket_w"},
        {"cap_threshold = 0.99x", "cap_threshold"},
        // seeds: negative wrap, overflow past 2^64, trailing garbage
        {"seed = -1", "seed"},
        {"seed = 99999999999999999999999999", "seed"},
        {"seed = 42 tail", "seed"},
        // periods: zero, negative, fractional
        {"leaf_pull_cycle_ms = 0", "leaf_pull_cycle_ms"},
        {"leaf_pull_cycle_ms = -3000", "leaf_pull_cycle_ms"},
        {"upper_pull_cycle_ms = 9000.5", "upper_pull_cycle_ms"},
        {"response_wait_ms = 0", "response_wait_ms"},
        {"rpc_timeout_ms = nine", "rpc_timeout_ms"},
        // capping brains: unknown names, wrong separators, wrong case
        {"capping_policy = round_robin", "capping_policy"},
        {"capping_policy = three-band", "capping_policy"},
        {"capping_policy = THREE_BAND", "capping_policy"},
        // new catalog keys: fractions and scenario structure
        {"gpu_fraction = -0.1", "gpu_fraction"},
        {"gpu_fraction = 0.25x", "gpu_fraction"},
        {"scenario = Grid DR", "scenario"},
        {"scenario = (start_s=10)", "scenario"},
    };
    for (const BadCase& c : cases) {
        try {
            ParseFleetSpecString(c.line);
            FAIL() << "accepted bad spec line: " << c.line;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(c.must_mention),
                      std::string::npos)
                << "diagnostic for '" << c.line
                << "' does not name the key: " << e.what();
            EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
                << "diagnostic for '" << c.line
                << "' does not name the line: " << e.what();
        }
    }
}

TEST(SpecParser, ControlTimingKeys)
{
    const FleetSpec spec = ParseFleetSpecString(R"(
        leaf_pull_cycle_ms = 300
        upper_pull_cycle_ms = 900
        response_wait_ms = 150
        rpc_timeout_ms = 120
    )");
    EXPECT_EQ(spec.deployment.leaf.base.pull_cycle, 300);
    EXPECT_EQ(spec.deployment.upper.base.pull_cycle, 900);
    EXPECT_EQ(spec.deployment.leaf.base.response_wait, 150);
    EXPECT_EQ(spec.deployment.upper.base.response_wait, 150);
    EXPECT_EQ(spec.deployment.leaf.base.rpc_timeout, 120);
    EXPECT_EQ(spec.deployment.upper.base.rpc_timeout, 120);
}

TEST(SpecParser, CappingPolicySetsBothLevels)
{
    struct PolicyCase
    {
        const char* name;
        policy::PolicyKind kind;
    };
    const PolicyCase cases[] = {
        {"three_band", policy::PolicyKind::kThreeBand},
        {"predictive", policy::PolicyKind::kPredictive},
        {"waterfill", policy::PolicyKind::kWaterfill},
        {"fairshare", policy::PolicyKind::kFairShare},
    };
    for (const PolicyCase& c : cases) {
        const FleetSpec spec = ParseFleetSpecString(
            std::string("capping_policy = ") + c.name + "\n");
        EXPECT_EQ(spec.deployment.leaf.capping_policy, c.kind) << c.name;
        EXPECT_EQ(spec.deployment.upper.capping_policy, c.kind) << c.name;
    }
    // Unset: the paper's brain on both levels.
    const FleetSpec plain = ParseFleetSpecString("seed = 1\n");
    EXPECT_EQ(plain.deployment.leaf.capping_policy,
              policy::PolicyKind::kThreeBand);
    EXPECT_EQ(plain.deployment.upper.capping_policy,
              policy::PolicyKind::kThreeBand);
}

// The legacy allocation_policy key. Every serialized spec still carries
// "high-bucket-first" (the golden journals embed that line), so it
// parses and round-trips; the removed values name their replacement.
TEST(SpecParser, LegacyAllocationPolicyKey)
{
    struct LegacyCase
    {
        const char* value;
        const char* replacement;  // nullptr: accepted
    };
    const LegacyCase cases[] = {
        {"high-bucket-first", nullptr},
        {"proportional", "capping_policy = fairshare"},
        {"water-fill", "bucket_w = 0"},
        {"best", "capping_policy = fairshare"},
    };
    for (const LegacyCase& c : cases) {
        const std::string text =
            std::string("seed = 7\nallocation_policy = ") + c.value + "\n";
        if (c.replacement == nullptr) {
            const std::string canonical =
                SerializeFleetSpec(ParseFleetSpecString(text));
            EXPECT_NE(canonical.find("allocation_policy = high-bucket-first\n"),
                      std::string::npos);
            EXPECT_EQ(SerializeFleetSpec(ParseFleetSpecString(canonical)),
                      canonical);
            continue;
        }
        try {
            ParseFleetSpecString(text);
            FAIL() << "accepted removed value: " << c.value;
        } catch (const std::invalid_argument& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("allocation_policy"), std::string::npos)
                << what;
            EXPECT_NE(what.find("line 2"), std::string::npos) << what;
            EXPECT_NE(what.find(c.replacement), std::string::npos) << what;
        }
    }
}

TEST(SpecParser, RpcTimeoutMustBeBelowResponseWait)
{
    EXPECT_THROW(
        ParseFleetSpecString("response_wait_ms = 100\nrpc_timeout_ms = 100\n"),
        std::runtime_error);
}

TEST(ServiceMixParser, BadWeightsRejected)
{
    EXPECT_THROW(ParseServiceMix("web:-3"), std::invalid_argument);
    EXPECT_THROW(ParseServiceMix("web:2x"), std::invalid_argument);
    EXPECT_THROW(ParseServiceMix("web:lots"), std::invalid_argument);
}

TEST(SpecParser, InvalidBandOrderingRejected)
{
    EXPECT_THROW(ParseFleetSpecString("uncap_threshold = 0.97"),
                 std::runtime_error);
}

TEST(SpecParser, MissingFileThrows)
{
    EXPECT_THROW(LoadFleetSpec("/nonexistent/spec.conf"), std::runtime_error);
}

TEST(ServiceMixParser, NamedMixes)
{
    EXPECT_EQ(ParseServiceMix("datacenter").shares.size(), 6u);
    EXPECT_EQ(ParseServiceMix("frontend").shares.size(), 3u);
}

TEST(ServiceMixParser, WeightedList)
{
    const ServiceMix mix = ParseServiceMix("web:200, cache:200, newsfeed:40");
    ASSERT_EQ(mix.shares.size(), 3u);
    EXPECT_EQ(mix.shares[0].service, workload::ServiceType::kWeb);
    EXPECT_DOUBLE_EQ(mix.shares[0].weight, 200.0);
    EXPECT_EQ(mix.shares[2].service, workload::ServiceType::kNewsfeed);
}

TEST(ServiceMixParser, UnweightedDefaultsToOne)
{
    const ServiceMix mix = ParseServiceMix("hadoop");
    ASSERT_EQ(mix.shares.size(), 1u);
    EXPECT_DOUBLE_EQ(mix.shares[0].weight, 1.0);
}

TEST(ServiceMixParser, UnknownServiceFails)
{
    EXPECT_THROW(ParseServiceMix("webscale:3"), std::invalid_argument);
    EXPECT_THROW(ParseServiceMix(""), std::runtime_error);
}

TEST(ReportCollector, SummarizesARun)
{
    FleetSpec spec = ParseFleetSpecString(R"(
        scope = rpp
        servers_per_rpp = 40
        mix = web
        diurnal_amplitude = 0
        seed = 23
    )");
    Fleet fleet(spec);
    ReportCollector collector(fleet);
    fleet.RunFor(Minutes(10));
    const FleetReport report = collector.Finish();

    EXPECT_EQ(report.end - report.start, Minutes(10));
    EXPECT_GT(report.peak_power, 0.0);
    EXPECT_GE(report.peak_power, report.mean_power);
    EXPECT_NEAR(report.energy_kwh,
                report.mean_power / 1000.0 * (10.0 / 60.0), 0.01);
    EXPECT_EQ(report.outages, 0u);
    EXPECT_GT(report.demanded_work, 0.0);
    EXPECT_NEAR(report.delivered_work, report.demanded_work,
                report.demanded_work * 0.02);
    ASSERT_EQ(report.services.size(), 1u);
    EXPECT_EQ(report.services[0].service, workload::ServiceType::kWeb);
    EXPECT_EQ(report.services[0].servers, 40u);

    const std::string text = report.ToString();
    EXPECT_NE(text.find("fleet report"), std::string::npos);
    EXPECT_NE(text.find("web: 40 servers"), std::string::npos);
}

TEST(ReportCollector, CapturesCappingActivity)
{
    FleetSpec spec = ParseFleetSpecString(R"(
        scope = rpp
        rpp_rated_kw = 7
        servers_per_rpp = 40
        mix = web
        diurnal_amplitude = 0
        seed = 23
    )");
    Fleet fleet(spec);
    ReportCollector collector(fleet);
    fleet.RunFor(Minutes(10));
    const FleetReport report = collector.Finish();
    EXPECT_GE(report.cap_starts, 1u);
    EXPECT_GT(report.WorkLossPercent(), 0.0);
}

}  // namespace
}  // namespace dynamo::fleet
