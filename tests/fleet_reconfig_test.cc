// Online fleet elasticity: versioned, transactionally-applied
// reconfiguration. Transactions validate up front, commit atomically
// at the 9 s upper-cycle barrier, bump the spec epoch, and leave the
// control plane enforcing every contractual limit across server
// churn, breaker re-parents, leaf warm swaps, and upper promotion.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/invariants.h"
#include "common/archive.h"
#include "common/units.h"
#include "core/deployment.h"
#include "fleet/fleet.h"
#include "fleet/reconfig.h"
#include "fleet/spec_parser.h"
#include "power/device.h"
#include "rpc/endpoint.h"
#include "telemetry/event_log.h"

namespace dynamo::fleet {
namespace {

// Two SBs of two 12-server RPPs each. SB ratings sit just above the
// base draw so a 1.5x surge pushes every SB past its cap threshold
// while RPPs and the MSB stay individually comfortable.
constexpr char kElasticSpec[] = R"(
scope = msb
servers_per_rpp = 12
rpps_per_sb = 2
sbs_per_msb = 2
rpp_rated_w = 4500
sb_rated_w = 5400
msb_rated_w = 30000
seed = 424242
diurnal_amplitude = 0.0
with_backup_controllers = true
)";

// The re-parent tests grow one SB to three 12-server rows. Aggregate
// SLA floors run ~156 W/server, so 36 servers can never be capped
// below ~5.6 KW: the 5400 W rating would make the enlarged domain
// unsaveable (the breaker must trip). 7200 W keeps the three-row SB
// above its cap threshold under surge yet below it at base draw, with
// the floors comfortably under the rating.
constexpr char kWideSbSpec[] = R"(
scope = msb
servers_per_rpp = 12
rpps_per_sb = 2
sbs_per_msb = 2
rpp_rated_w = 4500
sb_rated_w = 7200
msb_rated_w = 30000
seed = 424242
diurnal_amplitude = 0.0
with_backup_controllers = true
)";

Fleet
MakeFleet(const char* spec = kElasticSpec)
{
    return Fleet(ParseFleetSpecString(spec));
}

/** Leaf (RPP) device names in pre-order. */
std::vector<std::string>
LeafNames(Fleet& fleet)
{
    std::vector<std::string> names;
    for (power::PowerDevice* dev :
         fleet.root().DevicesAtLevel(power::DeviceLevel::kRpp)) {
        names.push_back(dev->name());
    }
    return names;
}

void
ScriptSurge(Fleet& fleet, double factor)
{
    fleet.scenario().AddPoint(Seconds(10), 1.0);
    fleet.scenario().AddPoint(Seconds(30), factor);
    fleet.scenario().AddPoint(Minutes(30), factor);
}

TEST(FleetReconfig, CommitsAtWindowBarrierAndBumpsEpoch)
{
    Fleet fleet = MakeFleet();
    const std::string target = LeafNames(fleet).front();
    const std::size_t before = fleet.servers().size();

    std::uint64_t observed_epoch = 0;
    SimTime observed_time = -1;
    std::string observed_desc;
    fleet.set_reconfig_observer([&](std::uint64_t epoch, SimTime time,
                                    const std::string& description) {
        observed_epoch = epoch;
        observed_time = time;
        observed_desc = description;
    });

    fleet.ScheduleReconfig(ReconfigTxn().AddServers(target, 3));

    // Nothing happens before the 9 s barrier: the fleet is atomic
    // within a control window.
    fleet.RunFor(8900);
    EXPECT_EQ(fleet.spec_epoch(), 0u);
    EXPECT_EQ(fleet.servers().size(), before);

    fleet.RunFor(200);
    EXPECT_EQ(fleet.spec_epoch(), 1u);
    EXPECT_EQ(fleet.reconfigs_applied(), 1u);
    EXPECT_EQ(fleet.servers().size(), before + 3);
    EXPECT_EQ(observed_epoch, 1u);
    EXPECT_EQ(observed_time, 9000);
    EXPECT_EQ(observed_desc, "add-servers(" + target + ",3)");
    EXPECT_EQ(fleet.event_log()->CountOf(telemetry::EventKind::kReconfig), 1u);
}

TEST(FleetReconfig, AddedServersJoinTheControlPlane)
{
    Fleet fleet = MakeFleet();
    const std::string target = LeafNames(fleet).front();
    const std::size_t agents_before =
        fleet.AgentEndpointsUnder(target).size();

    fleet.ScheduleReconfig(ReconfigTxn().AddServers(target, 3));
    fleet.RunFor(Seconds(10));
    EXPECT_EQ(fleet.AgentEndpointsUnder(target).size(), agents_before + 3);

    // The provisioned servers are first-class: under a surge the leaf
    // caps them like any boot-time server.
    ScriptSurge(fleet, 1.6);
    fleet.RunFor(Minutes(2));
    bool new_server_capped = false;
    for (const auto& srv : fleet.servers()) {
        if (srv->name().find("/e1s") != std::string::npos && srv->capped()) {
            new_server_capped = true;
        }
    }
    EXPECT_TRUE(new_server_capped);
}

TEST(FleetReconfig, RemoveSubtreeDecommissionsCleanly)
{
    Fleet fleet = MakeFleet();
    ScriptSurge(fleet, 1.6);
    fleet.RunFor(Minutes(1));  // mid-capping removal

    const std::string target = LeafNames(fleet).back();
    const std::string ctl = core::Deployment::ControllerEndpoint(target);
    const std::size_t servers_before = fleet.servers().size();
    ASSERT_NE(fleet.dynamo()->FindLeaf(ctl), nullptr);

    fleet.ScheduleReconfig(ReconfigTxn().RemoveSubtree(target));
    fleet.RunFor(Seconds(10));

    EXPECT_EQ(fleet.root().Find(target), nullptr);
    EXPECT_EQ(fleet.dynamo()->FindLeaf(ctl), nullptr);
    EXPECT_EQ(fleet.dynamo()->FindLeafBackup(ctl), nullptr);
    EXPECT_EQ(fleet.servers().size(), servers_before - 12);

    // The remaining fleet keeps operating under the surge.
    chaos::InvariantChecker checker(fleet);
    fleet.RunFor(Minutes(2));
    EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                      ? std::string("(none recorded)")
                                      : checker.violations().front());
}

TEST(FleetReconfig, RecycledEndpointIdsNeverRenameSurvivors)
{
    // Agents and leaf rosters hold interned endpoint ids and read their
    // names back from the transport's table. Removing a subtree
    // releases its ids, and servers added elsewhere take them back, so
    // an id must be released only after every agent and roster entry
    // holding it is gone — else a survivor would snapshot a stranger's
    // name.
    Fleet fleet = MakeFleet();
    const std::vector<std::string> leaves = LeafNames(fleet);
    const std::string doomed = leaves.back();
    const std::string grown = leaves.front();
    const rpc::EndpointTable& endpoints = fleet.transport().endpoints();
    std::vector<rpc::EndpointId> doomed_ids;
    for (const std::string& ep : fleet.AgentEndpointsUnder(doomed)) {
        doomed_ids.push_back(endpoints.Find(ep));
    }
    ASSERT_EQ(doomed_ids.size(), 12u);

    fleet.ScheduleReconfig(ReconfigTxn().RemoveSubtree(doomed));
    fleet.RunFor(Seconds(10));
    for (const rpc::EndpointId id : doomed_ids) {
        EXPECT_EQ(endpoints.Find(endpoints.Name(id)), rpc::kInvalidEndpoint);
    }
    // Enough new servers to take every released id, controllers' too.
    const std::size_t released = endpoints.free_count();
    ASSERT_GE(released, doomed_ids.size());
    fleet.ScheduleReconfig(ReconfigTxn().AddServers(grown, released));
    fleet.RunFor(Seconds(10));
    EXPECT_EQ(endpoints.free_count(), 0u);

    const core::Deployment& dynamo = *fleet.dynamo();
    std::size_t recycled = 0;
    for (const auto& agent : dynamo.agents()) {
        const std::string own =
            core::Deployment::AgentEndpoint(agent->server().name());
        if (std::find(doomed_ids.begin(), doomed_ids.end(),
                      agent->endpoint_id()) != doomed_ids.end()) {
            ++recycled;
            EXPECT_NE(agent->server().name().find("/e2s"), std::string::npos)
                << own << " holds a recycled id but is not a new server";
        }
        EXPECT_EQ(agent->endpoint(), own);
        Archive snapshot;
        agent->Snapshot(snapshot);
        Archive name;
        name.Str(own);
        EXPECT_EQ(snapshot.bytes().substr(0, name.bytes().size()),
                  name.bytes());
    }
    EXPECT_EQ(recycled, doomed_ids.size());

    // Every roster entry of every live leaf, primary or standby, names
    // an agent of the leaf's own domain, and the domain is complete.
    std::vector<core::LeafController*> live_leaves;
    for (const auto& leaf : dynamo.leaf_controllers()) {
        live_leaves.push_back(leaf.get());
    }
    for (const auto& leaf : dynamo.leaf_backups()) {
        live_leaves.push_back(leaf.get());
    }
    ASSERT_EQ(live_leaves.size(), 2 * (leaves.size() - 1));
    for (core::LeafController* leaf : live_leaves) {
        std::vector<std::string> expected =
            fleet.AgentEndpointsUnder(leaf->device().name());
        std::vector<std::string> roster;
        for (std::size_t i = 0; i < leaf->agent_count(); ++i) {
            roster.push_back(leaf->agent_endpoint(i));
        }
        std::sort(expected.begin(), expected.end());
        std::sort(roster.begin(), roster.end());
        EXPECT_EQ(roster, expected) << leaf->endpoint();
    }
}

TEST(FleetReconfig, ReparentMovesLeafBetweenUppers)
{
    Fleet fleet = MakeFleet(kWideSbSpec);
    const std::vector<std::string> leaves = LeafNames(fleet);
    power::PowerDevice* moved = fleet.root().Find(leaves.back());
    ASSERT_NE(moved, nullptr);
    const std::string old_parent = moved->parent()->name();
    power::PowerDevice* first = fleet.root().Find(leaves.front());
    const std::string new_parent = first->parent()->name();
    ASSERT_NE(old_parent, new_parent);

    auto* old_upper = fleet.dynamo()->FindUpper(
        core::Deployment::ControllerEndpoint(old_parent));
    auto* new_upper = fleet.dynamo()->FindUpper(
        core::Deployment::ControllerEndpoint(new_parent));
    ASSERT_NE(old_upper, nullptr);
    ASSERT_NE(new_upper, nullptr);
    const std::size_t old_children = old_upper->child_count();
    const std::size_t new_children = new_upper->child_count();

    fleet.ScheduleReconfig(ReconfigTxn().Reparent(leaves.back(), new_parent));
    fleet.RunFor(Seconds(10));

    EXPECT_EQ(old_upper->child_count(), old_children - 1);
    EXPECT_EQ(new_upper->child_count(), new_children + 1);
    EXPECT_EQ(moved->parent()->name(), new_parent);

    // The enlarged sub-tree is controlled as one domain: under surge
    // the new parent contracts its adopted child too.
    ScriptSurge(fleet, 1.6);
    chaos::InvariantChecker checker(fleet);
    fleet.RunFor(Minutes(3));
    EXPECT_TRUE(new_upper->capping());
    auto* moved_leaf = fleet.dynamo()->FindLeaf(
        core::Deployment::ControllerEndpoint(leaves.back()));
    ASSERT_NE(moved_leaf, nullptr);
    EXPECT_TRUE(moved_leaf->contractual_limit().has_value());
    EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                      ? std::string("(none recorded)")
                                      : checker.violations().front());
}

TEST(FleetReconfig, PromoteUpperMidCappingPreservesContracts)
{
    Fleet fleet = MakeFleet();
    ScriptSurge(fleet, 1.6);
    fleet.RunFor(Minutes(2));

    const std::string leaf_name = LeafNames(fleet).front();
    const std::string sb_name =
        fleet.root().Find(leaf_name)->parent()->name();
    const std::string sb_ctl = core::Deployment::ControllerEndpoint(sb_name);
    auto* primary = fleet.dynamo()->FindUpper(sb_ctl);
    ASSERT_NE(primary, nullptr);
    ASSERT_TRUE(primary->capping());
    ASSERT_GT(primary->contracted_count(), 0u);

    std::vector<Watts> contracts;
    std::vector<std::string> contracted;
    for (const auto& leaf : fleet.dynamo()->leaf_controllers()) {
        if (leaf->contractual_limit().has_value()) {
            contracted.push_back(leaf->endpoint());
            contracts.push_back(*leaf->contractual_limit());
        }
    }
    ASSERT_FALSE(contracted.empty());

    fleet.ScheduleReconfig(ReconfigTxn().PromoteUpper(sb_name));
    fleet.RunFor(Seconds(10));

    // Promotion happened: primary dead, backup in charge.
    EXPECT_FALSE(primary->active());
    auto* backup = fleet.dynamo()->FindUpperBackup(sb_ctl);
    ASSERT_NE(backup, nullptr);
    EXPECT_TRUE(backup->active());

    // No uncap glitch: every contract outlives the promotion.
    for (std::size_t i = 0; i < contracted.size(); ++i) {
        auto* leaf = fleet.dynamo()->FindLeaf(contracted[i]);
        ASSERT_NE(leaf, nullptr);
        ASSERT_TRUE(leaf->contractual_limit().has_value())
            << contracted[i] << " lost its contract across promotion";
        EXPECT_DOUBLE_EQ(*leaf->contractual_limit(), contracts[i]);
    }

    // The promoted backup re-learns the standing contracts and keeps
    // the sub-tree bounded.
    chaos::InvariantChecker checker(fleet);
    fleet.RunFor(Minutes(2));
    EXPECT_GT(backup->contracts_adopted() + backup->contracts_reaffirmed(),
              0u);
    EXPECT_TRUE(backup->capping());
    EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                      ? std::string("(none recorded)")
                                      : checker.violations().front());
}

TEST(FleetReconfig, RestartControllerWarmSwapsLeaf)
{
    Fleet fleet = MakeFleet();
    ScriptSurge(fleet, 1.6);
    fleet.RunFor(Minutes(2));

    const std::string leaf_name = LeafNames(fleet).front();
    const std::string ctl = core::Deployment::ControllerEndpoint(leaf_name);
    auto* primary = fleet.dynamo()->FindLeaf(ctl);
    ASSERT_NE(primary, nullptr);
    ASSERT_TRUE(primary->contractual_limit().has_value());
    const Watts contract = *primary->contractual_limit();

    const std::uint64_t failovers_before =
        fleet.event_log()->CountOf(telemetry::EventKind::kFailover);
    fleet.ScheduleReconfig(ReconfigTxn().RestartController(leaf_name));
    fleet.RunFor(Seconds(10));

    // Warm swap: the standby took over with the contract pre-installed.
    EXPECT_FALSE(primary->active());
    auto* backup = fleet.dynamo()->FindLeafBackup(ctl);
    ASSERT_NE(backup, nullptr);
    EXPECT_TRUE(backup->active());
    ASSERT_TRUE(backup->contractual_limit().has_value());
    EXPECT_DOUBLE_EQ(*backup->contractual_limit(), contract);
    EXPECT_EQ(fleet.event_log()->CountOf(telemetry::EventKind::kFailover),
              failovers_before + 1);
}

TEST(FleetReconfig, ValidationRejectsStructurallyInvalidTransactions)
{
    Fleet fleet = MakeFleet();
    const std::vector<std::string> leaves = LeafNames(fleet);
    const std::string parent = fleet.root().Find(leaves[0])->parent()->name();

    EXPECT_THROW(fleet.ScheduleReconfig(ReconfigTxn()),
                 std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().AddServers("nonesuch", 4)),
        std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().AddServers(leaves[0], 0)),
        std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().RemoveSubtree(fleet.root().name())),
        std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().Reparent(leaves[0], parent)),
        std::invalid_argument);
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().Reparent(leaves[0], leaves[0])),
        std::invalid_argument);
    EXPECT_EQ(fleet.spec_epoch(), 0u);
}

TEST(FleetReconfig, PromotionRequiresAnUnconsumedStandby)
{
    Fleet fleet = MakeFleet();
    const std::string leaf_name = LeafNames(fleet).front();
    const std::string sb_name =
        fleet.root().Find(leaf_name)->parent()->name();

    // First promotion consumes the standby...
    fleet.ScheduleReconfig(ReconfigTxn().PromoteUpper(sb_name));
    fleet.RunFor(Seconds(10));
    EXPECT_EQ(fleet.spec_epoch(), 1u);

    // ...so a second one is rejected up front.
    EXPECT_THROW(
        fleet.ScheduleReconfig(ReconfigTxn().PromoteUpper(sb_name)),
        std::invalid_argument);

    // And a fleet built without backups rejects restart/promote ops.
    FleetSpec bare = ParseFleetSpecString(kElasticSpec);
    bare.deployment.with_backup_controllers = false;
    Fleet no_backups(std::move(bare));
    const std::string bare_leaf = LeafNames(no_backups).front();
    EXPECT_THROW(no_backups.ScheduleReconfig(
                     ReconfigTxn().RestartController(bare_leaf)),
                 std::invalid_argument);
}

TEST(FleetReconfig, ElasticStormKeepsEveryInvariant)
{
    // The acceptance shape: grow one row by 10 %, re-parent a breaker,
    // kill + promote an SB upper mid-capping, then decommission a leaf
    // subtree — all under surge, with the invariant checker armed the
    // whole time.
    Fleet fleet = MakeFleet(kWideSbSpec);
    chaos::InvariantChecker checker(fleet);
    ScriptSurge(fleet, 1.5);

    const std::vector<std::string> leaves = LeafNames(fleet);
    const std::string grow = leaves[0];
    const std::string sb0 = fleet.root().Find(leaves[0])->parent()->name();
    const std::string moved = leaves[2];
    const std::string doomed = leaves[3];
    const std::size_t tenth =
        fleet.AgentEndpointsUnder(grow).size() / 10 + 1;

    fleet.ScheduleReconfig(ReconfigTxn().AddServers(grow, tenth));
    fleet.RunFor(Seconds(40));
    fleet.ScheduleReconfig(ReconfigTxn().Reparent(moved, sb0));
    fleet.RunFor(Seconds(40));
    ASSERT_TRUE(fleet.dynamo()
                    ->FindUpper(core::Deployment::ControllerEndpoint(sb0))
                    ->capping());
    fleet.ScheduleReconfig(ReconfigTxn().PromoteUpper(sb0));
    fleet.RunFor(Seconds(40));
    fleet.ScheduleReconfig(ReconfigTxn().RemoveSubtree(doomed));
    fleet.RunFor(Minutes(3));

    EXPECT_EQ(fleet.spec_epoch(), 4u);
    EXPECT_EQ(fleet.reconfigs_applied(), 4u);
    EXPECT_EQ(fleet.event_log()->CountOf(telemetry::EventKind::kReconfig),
              4u);
    EXPECT_TRUE(checker.ok())
        << checker.violation_count() << " violations; first: "
        << (checker.violations().empty() ? std::string("(none recorded)")
                                         : checker.violations().front());
}

}  // namespace
}  // namespace dynamo::fleet
