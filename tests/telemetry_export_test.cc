// Tests for CSV/gnuplot export, metrics-snapshot round-trips, trace
// rendering, and controller status snapshots.
#include "telemetry/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/units.h"
#include "fleet/fleet.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dynamo::telemetry {
namespace {

TimeSeries
MakeSeries(std::initializer_list<Sample> samples)
{
    TimeSeries series;
    for (const Sample& s : samples) series.Add(s.time, s.value);
    return series;
}

TEST(ExportCsv, SingleSeries)
{
    const TimeSeries a = MakeSeries({{0, 1.0}, {1000, 2.0}});
    std::ostringstream out;
    WriteCsv(out, {{"power", &a}});
    EXPECT_EQ(out.str(), "time_s,power\n0,1\n1,2\n");
}

TEST(ExportCsv, AlignsSecondSeriesToAnchorTimes)
{
    const TimeSeries a = MakeSeries({{0, 1.0}, {1000, 2.0}, {2000, 3.0}});
    const TimeSeries b = MakeSeries({{500, 10.0}, {1500, 20.0}});
    std::ostringstream out;
    WriteCsv(out, {{"a", &a}, {"b", &b}});
    // b has no sample at t=0 (empty cell), then holds its latest value.
    EXPECT_EQ(out.str(), "time_s,a,b\n0,1,\n1,2,10\n2,3,20\n");
}

TEST(ExportCsv, EmptyColumnsThrow)
{
    std::ostringstream out;
    EXPECT_THROW(WriteCsv(out, {}), std::invalid_argument);
}

TEST(ExportCsv, FileWriteAndUnwritablePath)
{
    const TimeSeries a = MakeSeries({{0, 1.0}});
    const std::string path = ::testing::TempDir() + "/dynamo_export_test.csv";
    WriteCsvFile(path, {{"x", &a}});
    std::ifstream check(path);
    std::string header;
    std::getline(check, header);
    EXPECT_EQ(header, "time_s,x");
    std::remove(path.c_str());
    EXPECT_THROW(WriteCsvFile("/nonexistent/dir/x.csv", {{"x", &a}}),
                 std::runtime_error);
}

TEST(ExportGnuplot, IndexBlocksPerSeries)
{
    const TimeSeries a = MakeSeries({{0, 1.0}});
    const TimeSeries b = MakeSeries({{1000, 2.0}});
    std::ostringstream out;
    WriteGnuplot(out, {{"first", &a}, {"second", &b}});
    EXPECT_EQ(out.str(), "# first\n0 1\n\n\n# second\n1 2\n");
}

TEST(MetricsExport, TextRoundTripIsBitExact)
{
    MetricsRegistry registry;
    registry.GetCounter("rpc.calls")->Inc(123456789);
    // Adversarial doubles: non-representable decimals, huge, tiny,
    // negative — all must survive the text format bit-exactly.
    registry.GetGauge("g.fraction")->Set(0.1);
    registry.GetGauge("g.huge")->Set(1.23456789012345e300);
    registry.GetGauge("g.tiny")->Set(5e-324);
    registry.GetGauge("g.negative")->Set(-2.0 / 3.0);
    Histogram* h = registry.GetHistogram("h.lat", {0.5, 5.0, 50.0});
    h->Observe(0.1);
    h->Observe(3.14159265358979);
    h->Observe(1000.0);

    const MetricsSnapshot before = SnapshotOf(registry);
    std::ostringstream text;
    WriteMetricsText(text, before);
    std::istringstream in(text.str());
    const MetricsSnapshot after = ParseMetricsText(in);

    std::string why;
    EXPECT_TRUE(SnapshotsEqual(before, after, &why)) << why;
}

TEST(MetricsExport, ParseRejectsMalformedLines)
{
    std::istringstream bad_kind("# dynamo metrics v1\nmetric x widget 5\n");
    EXPECT_THROW(ParseMetricsText(bad_kind), std::runtime_error);
    std::istringstream bad_value("# dynamo metrics v1\nmetric x counter ?\n");
    EXPECT_THROW(ParseMetricsText(bad_value), std::runtime_error);
}

TEST(MetricsExport, SnapshotsEqualExplainsFirstDifference)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.GetCounter("x")->Inc(1);
    b.GetCounter("x")->Inc(2);
    std::string why;
    EXPECT_FALSE(SnapshotsEqual(SnapshotOf(a), SnapshotOf(b), &why));
    EXPECT_NE(why.find("x"), std::string::npos);
}

TEST(MetricsExport, FleetRunRoundTripsExactly)
{
    // A 1000-server SB slice with the full control plane: run it,
    // snapshot everything the instruments recorded, and require the
    // text format to reproduce the snapshot exactly.
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.topology.rpps_per_sb = 4;
    spec.servers_per_rpp = 250;
    spec.seed = 7;
    fleet::Fleet fleet(spec);
    fleet.RunFor(Minutes(1));

    MetricsRegistry* registry = fleet.metrics();
    ASSERT_NE(registry, nullptr);
    ASSERT_GT(registry->size(), 0u);
    // The hot paths actually recorded through their handles.
    EXPECT_GT(registry->GetCounter("rpc.calls")->value(), 0u);
    EXPECT_GT(registry->GetCounter("agent.reads")->value(), 0u);
    EXPECT_GT(registry->GetHistogram("leaf.cycle_us")->count(), 0u);

    const MetricsSnapshot before = SnapshotOf(*registry);
    std::ostringstream text;
    WriteMetricsText(text, before);
    std::istringstream in(text.str());
    const MetricsSnapshot after = ParseMetricsText(in);
    std::string why;
    EXPECT_TRUE(SnapshotsEqual(before, after, &why)) << why;

    // JSON writer smoke: every metric appears once.
    std::ostringstream json;
    WriteMetricsJson(json, before);
    for (const MetricValue& m : before.metrics) {
        EXPECT_NE(json.str().find("\"" + m.name + "\""), std::string::npos);
    }
}

TEST(TraceExport, TreeRendersParentChildAndTransitions)
{
    TraceLog log;
    TraceSpan upper;
    upper.kind = SpanKind::kUpperDecision;
    upper.source = "ctl:sb0";
    upper.band = TraceBand::kCap;
    upper.measured = 3500.0;
    upper.limit = 3400.0;
    const SpanId upper_id = log.Append(std::move(upper));

    TraceSpan leaf;
    leaf.kind = SpanKind::kLeafDecision;
    leaf.source = "ctl:rpp0";
    leaf.parent = upper_id;
    leaf.band = TraceBand::kCap;
    leaf.groups.push_back(TraceGroupCut{2, 120.0, 8});
    TraceAllocation alloc;
    alloc.target = "agent:s1";
    alloc.bucket = 3;
    alloc.cut = 15.0;
    alloc.limit_sent = 210.0;
    leaf.allocs.push_back(alloc);
    log.Append(std::move(leaf));

    std::ostringstream out;
    WriteTraceTree(out, log);
    const std::string text = out.str();
    EXPECT_NE(text.find("span#1 upper ctl:sb0"), std::string::npos);
    EXPECT_NE(text.find("settled->capping"), std::string::npos);
    EXPECT_NE(text.find("parent=1"), std::string::npos);
    EXPECT_NE(text.find("group pg=2"), std::string::npos);
    EXPECT_NE(text.find("bucket=3"), std::string::npos);
    // The child is indented under its parent.
    EXPECT_LT(text.find("span#1"), text.find("span#2"));

    std::ostringstream json;
    WriteTraceJson(json, log);
    EXPECT_NE(json.str().find("\"id\":1"), std::string::npos);
    EXPECT_NE(json.str().find("\"parent\":1"), std::string::npos);
}

TEST(TraceExport, OrphanedSpanRendersAsRoot)
{
    TraceLog log(/*capacity=*/1);
    log.Append(TraceSpan{});           // will be evicted
    TraceSpan child;
    child.parent = 1;
    log.Append(std::move(child));      // parent evicted -> root
    std::ostringstream out;
    WriteTraceTree(out, log);
    EXPECT_NE(out.str().find("span#2"), std::string::npos);
}

TEST(ControllerStatus, SnapshotAndLine)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.topology.rpp_rated = 7000.0;  // force capping
    spec.servers_per_rpp = 40;
    spec.mix = fleet::ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.seed = 23;
    fleet::Fleet fleet(spec);
    fleet.RunFor(Minutes(2));

    const auto& leaf = *fleet.dynamo()->leaf_controllers()[0];
    const auto status = leaf.GetStatus();
    EXPECT_EQ(status.endpoint, "ctl:rpp0");
    EXPECT_TRUE(status.active);
    EXPECT_TRUE(status.last_valid);
    EXPECT_TRUE(status.capping);
    EXPECT_GT(status.controlled, 0u);
    EXPECT_DOUBLE_EQ(status.physical_limit, 7000.0);
    EXPECT_GT(status.last_power, 0.0);
    EXPECT_FALSE(status.contractual_limit.has_value());

    const std::string line = leaf.StatusLine();
    EXPECT_NE(line.find("ctl:rpp0"), std::string::npos);
    EXPECT_NE(line.find("[active]"), std::string::npos);
    EXPECT_NE(line.find("CAPPING"), std::string::npos);
}

TEST(ControllerStatus, StandbyAndContractRendering)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.servers_per_rpp = 10;
    spec.seed = 23;
    fleet::Fleet fleet(spec);
    auto& leaf = *fleet.dynamo()->leaf_controllers()[0];
    fleet.RunFor(Seconds(10));
    leaf.SetContractualLimit(50000.0);
    EXPECT_NE(leaf.StatusLine().find("contract 50000W"), std::string::npos);
    leaf.Deactivate();
    EXPECT_NE(leaf.StatusLine().find("[standby]"), std::string::npos);
}

}  // namespace
}  // namespace dynamo::telemetry
