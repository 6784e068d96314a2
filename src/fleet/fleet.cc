#include "fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "workload/load_process.h"

namespace dynamo::fleet {

namespace {

/**
 * Deterministic service assignment for `n` servers: contiguous blocks
 * proportional to the mix weights, in mix order.
 */
std::vector<workload::ServiceType>
AssignServices(const ServiceMix& mix, std::size_t n)
{
    assert(!mix.shares.empty() && "service mix must not be empty");
    double total = 0.0;
    for (const auto& share : mix.shares) total += share.weight;

    std::vector<workload::ServiceType> assignment;
    assignment.reserve(n);
    double cumulative = 0.0;
    for (const auto& share : mix.shares) {
        cumulative += share.weight;
        const auto upto = static_cast<std::size_t>(
            std::llround(cumulative / total * static_cast<double>(n)));
        while (assignment.size() < upto) assignment.push_back(share.service);
    }
    while (assignment.size() < n) assignment.push_back(mix.shares.back().service);
    return assignment;
}

}  // namespace

Fleet::Fleet(FleetSpec spec)
    : spec_(std::move(spec)),
      transport_(sim_, spec_.seed ^ 0x7a77ULL),
      diurnal_(spec_.diurnal_amplitude)
{
    traffic_.Add(&diurnal_);
    traffic_.Add(&scenario_);
    traffic_.Add(&balancer_);

    switch (spec_.scope) {
      case FleetScope::kRpp:
        root_ = power::BuildRpp("rpp0", spec_.topology.rpp_rated,
                                spec_.topology.rpp_rated);
        break;
      case FleetScope::kSb:
        root_ = power::BuildSbTree("sb0", spec_.topology.rpps_per_sb,
                                   spec_.topology);
        break;
      case FleetScope::kMsb:
        root_ = power::BuildMsbTree(spec_.topology);
        break;
    }

    Rng rng(spec_.seed);
    // DevicesAtLevel includes the root itself, so a bare-RPP fleet
    // gets its servers attached directly to the root.
    for (power::PowerDevice* rpp :
         root_->DevicesAtLevel(power::DeviceLevel::kRpp)) {
        BuildServersFor(*rpp, rng);
    }

    monitor_ = std::make_unique<power::BreakerMonitor>(
        sim_, *root_, spec_.breaker_monitor_period);

    if (spec_.with_dynamo) {
        deployment_ =
            core::BuildDeployment(sim_, transport_, *root_, spec_.deployment);
        if (spec_.deployment.with_telemetry) {
            transport_.AttachMetrics(&deployment_->metrics());
        }
        if (spec_.with_load_shedding) {
            shedder_ = std::make_unique<Shedder>(*this);
            for (const auto& leaf : deployment_->leaf_controllers()) {
                leaf->SetLoadShedder(shedder_.get());
            }
        }
        if (spec_.with_breaker_validation) {
            for (const auto& leaf : deployment_->leaf_controllers()) {
                breaker_telemetry_.push_back(
                    std::make_unique<power::BreakerTelemetry>(
                        sim_, leaf->device(), /*period=*/60000,
                        /*noise_frac=*/0.02,
                        spec_.seed ^ breaker_telemetry_.size()));
                leaf->AttachBreakerTelemetry(breaker_telemetry_.back().get());
            }
        }
        // Every controller — standbys included, since a promoted backup
        // must enforce the same epoch — observes the fleet's spec epoch.
        for (const auto& leaf : deployment_->leaf_controllers()) {
            leaf->AttachEpoch(&spec_epoch_);
        }
        for (const auto& upper : deployment_->upper_controllers()) {
            upper->AttachEpoch(&spec_epoch_);
        }
        for (const auto& leaf : deployment_->leaf_backups()) {
            leaf->AttachEpoch(&spec_epoch_);
        }
        for (const auto& upper : deployment_->upper_backups()) {
            upper->AttachEpoch(&spec_epoch_);
        }
    }
}

void
Fleet::BuildServersFor(power::PowerDevice& rpp, Rng& rng)
{
    const std::vector<workload::ServiceType> services =
        AssignServices(spec_.mix, spec_.servers_per_rpp);

    if (spec_.tor_switch_power > 0.0) {
        switches_.push_back(
            std::make_unique<power::FixedLoad>(spec_.tor_switch_power));
        rpp.AttachLoad(switches_.back().get());
    }

    for (std::size_t i = 0; i < spec_.servers_per_rpp; ++i) {
        DrawServer(rpp, rpp.name() + "/s" + std::to_string(i), services[i],
                   rng);
    }
}

server::SimServer&
Fleet::DrawServer(power::PowerDevice& rpp, std::string name,
                  workload::ServiceType service, Rng& rng)
{
    server::SimServer::Config config;
    config.name = std::move(name);
    // The GPU draw only exists when gpu_fraction is set: a zero
    // fraction must not consume an RNG draw, or every pre-GPU seed
    // (and every committed golden journal) would shift streams.
    config.generation =
        (spec_.gpu_fraction > 0.0 && rng.Bernoulli(spec_.gpu_fraction))
            ? server::ServerGeneration::kGpuTrain2024
        : rng.Bernoulli(spec_.haswell_fraction)
            ? server::ServerGeneration::kHaswell2015
            : server::ServerGeneration::kWestmere2011;
    config.service = service;
    config.has_sensor = !rng.Bernoulli(spec_.sensorless_fraction);
    config.turbo_enabled = spec_.turbo_enabled;
    config.spec_override = spec_.spec_override;
    config.seed = rng.NextU64();
    servers_.push_back(std::make_unique<server::SimServer>(
        std::move(config), workload::LoadProcessParams::For(service),
        &traffic_));
    rpp.AttachLoad(servers_.back().get());
    return *servers_.back();
}

void
Fleet::Shedder::RequestShed(const std::string& domain, double fraction)
{
    // Domains are controller endpoints ("ctl:<device>").
    const std::string device =
        domain.rfind("ctl:", 0) == 0 ? domain.substr(4) : domain;
    for (server::SimServer* srv : fleet_.ServersUnder(device)) {
        srv->load().set_shed_factor(1.0 - fraction);
    }
}

void
Fleet::Shedder::ClearShed(const std::string& domain)
{
    const std::string device =
        domain.rfind("ctl:", 0) == 0 ? domain.substr(4) : domain;
    for (server::SimServer* srv : fleet_.ServersUnder(device)) {
        srv->load().set_shed_factor(1.0);
    }
}

std::vector<server::SimServer*>
Fleet::ServersUnder(const std::string& device_name)
{
    power::PowerDevice* device = root_->Find(device_name);
    if (device == nullptr) return {};
    return core::ServersUnder(*device);
}

std::vector<std::string>
Fleet::AgentEndpointsUnder(const std::string& device_name)
{
    std::vector<std::string> endpoints;
    for (server::SimServer* srv : ServersUnder(device_name)) {
        endpoints.push_back(core::Deployment::AgentEndpoint(srv->name()));
    }
    return endpoints;
}

std::vector<std::string>
Fleet::ControllerEndpointsUnder(const std::string& device_name)
{
    std::vector<std::string> endpoints;
    power::PowerDevice* device = root_->Find(device_name);
    if (device == nullptr || deployment_ == nullptr) return endpoints;
    device->ForEach([&](power::PowerDevice& d) {
        const std::string endpoint = core::Deployment::ControllerEndpoint(d.name());
        if (deployment_->FindLeaf(endpoint) != nullptr ||
            deployment_->FindUpper(endpoint) != nullptr) {
            endpoints.push_back(endpoint);
        }
    });
    return endpoints;
}

std::vector<server::SimServer*>
Fleet::ServersOf(workload::ServiceType service)
{
    std::vector<server::SimServer*> result;
    for (const auto& srv : servers_) {
        if (srv->service() == service) result.push_back(srv.get());
    }
    return result;
}

void
Fleet::ScheduleReconfig(ReconfigTxn txn)
{
    ValidateReconfig(txn);
    // Commit at the next upper-cycle window barrier: the 9 s cadence is
    // the coarsest control period, so every controller sees either the
    // old topology or the new one, never a mix mid-decision.
    const SimTime window = spec_.deployment.upper.base.pull_cycle;
    const SimTime at = (sim_.Now() / window + 1) * window;
    sim_.ScheduleAt(at, [this, txn = std::move(txn)]() { ApplyReconfig(txn); });
}

void
Fleet::ValidateReconfig(const ReconfigTxn& txn) const
{
    if (txn.empty()) {
        throw std::invalid_argument("reconfig: empty transaction");
    }
    const power::DeviceLevel leaf_level = spec_.deployment.leaf_level;
    for (const ReconfigOp& op : txn.ops) {
        power::PowerDevice* dev = root_->Find(op.target);
        const std::string ctl = core::Deployment::ControllerEndpoint(op.target);
        switch (op.kind) {
          case ReconfigOp::Kind::kAddServers:
            if (op.count == 0) {
                throw std::invalid_argument("reconfig: add-servers(" +
                                            op.target + ") with count 0");
            }
            if (dev == nullptr || dev->level() != leaf_level) {
                throw std::invalid_argument(
                    "reconfig: add-servers target \"" + op.target +
                    "\" is not a leaf-level device");
            }
            if (deployment_ && deployment_->FindLeaf(ctl) == nullptr) {
                throw std::invalid_argument(
                    "reconfig: no leaf controller for \"" + op.target + "\"");
            }
            break;
          case ReconfigOp::Kind::kRemoveSubtree:
            if (dev == nullptr || dev->level() != leaf_level) {
                throw std::invalid_argument(
                    "reconfig: remove-subtree target \"" + op.target +
                    "\" is not a leaf-level device");
            }
            if (dev->parent() == nullptr) {
                throw std::invalid_argument(
                    "reconfig: cannot remove the root device \"" + op.target +
                    "\"");
            }
            break;
          case ReconfigOp::Kind::kReparent: {
            if (dev == nullptr || dev->level() != leaf_level ||
                dev->parent() == nullptr) {
                throw std::invalid_argument(
                    "reconfig: reparent target \"" + op.target +
                    "\" is not a non-root leaf-level device");
            }
            power::PowerDevice* np = root_->Find(op.new_parent);
            if (np == nullptr) {
                throw std::invalid_argument("reconfig: unknown new parent \"" +
                                            op.new_parent + "\"");
            }
            if (np == dev->parent()) {
                throw std::invalid_argument("reconfig: \"" + op.target +
                                            "\" is already fed from \"" +
                                            op.new_parent + "\"");
            }
            if (dev->Find(op.new_parent) != nullptr) {
                throw std::invalid_argument(
                    "reconfig: new parent \"" + op.new_parent +
                    "\" lies inside the re-parented subtree");
            }
            if (deployment_ != nullptr) {
                const std::string old_ctl = core::Deployment::ControllerEndpoint(
                    dev->parent()->name());
                const std::string new_ctl =
                    core::Deployment::ControllerEndpoint(op.new_parent);
                if (deployment_->FindUpper(old_ctl) == nullptr ||
                    deployment_->FindUpper(new_ctl) == nullptr) {
                    throw std::invalid_argument(
                        "reconfig: reparent requires upper controllers on "
                        "both the old and new parent of \"" +
                        op.target + "\"");
                }
            }
            break;
          }
          case ReconfigOp::Kind::kRestartController:
          case ReconfigOp::Kind::kPromoteUpper: {
            if (op.kind == ReconfigOp::Kind::kPromoteUpper &&
                (deployment_ == nullptr ||
                 deployment_->FindUpper(ctl) == nullptr)) {
                throw std::invalid_argument(
                    "reconfig: promote-upper target \"" + op.target +
                    "\" has no upper controller");
            }
            core::FailoverManager* mgr =
                deployment_ ? deployment_->FindFailover(ctl) : nullptr;
            if (mgr == nullptr) {
                throw std::invalid_argument(
                    "reconfig: \"" + op.target +
                    "\" has no standby controller (build the fleet with "
                    "with_backup_controllers)");
            }
            if (mgr->switched()) {
                throw std::invalid_argument(
                    "reconfig: standby for \"" + op.target +
                    "\" was already consumed");
            }
            break;
          }
        }
    }
}

void
Fleet::ApplyReconfig(const ReconfigTxn& txn)
{
    ++spec_epoch_;
    for (const ReconfigOp& op : txn.ops) {
        switch (op.kind) {
          case ReconfigOp::Kind::kAddServers: ApplyAddServers(op); break;
          case ReconfigOp::Kind::kRemoveSubtree: ApplyRemoveSubtree(op); break;
          case ReconfigOp::Kind::kReparent: ApplyReparent(op); break;
          case ReconfigOp::Kind::kRestartController:
            ApplyRestartController(op);
            break;
          case ReconfigOp::Kind::kPromoteUpper: ApplyPromoteUpper(op); break;
        }
    }
    const SimTime now = sim_.Now();
    if (deployment_) {
        telemetry::Event event;
        event.time = now;
        event.kind = telemetry::EventKind::kReconfig;
        event.source = "fleet";
        event.servers_affected = static_cast<int>(txn.ops.size());
        event.detail = txn.Describe();
        deployment_->event_log().Record(std::move(event));
    }
    if (reconfig_observer_) {
        reconfig_observer_(spec_epoch_, now, txn.Describe());
    }
}

void
Fleet::ApplyAddServers(const ReconfigOp& op)
{
    power::PowerDevice* rpp = root_->Find(op.target);
    if (rpp == nullptr) {
        throw std::runtime_error("reconfig: device \"" + op.target +
                                 "\" vanished before commit");
    }
    // A fresh deterministic stream per (seed, epoch): provisioning must
    // not perturb the boot-time RNG positions of existing servers.
    Rng rng(spec_.seed ^ (0x9e3779b97f4a7c15ULL * spec_epoch_));
    const std::vector<workload::ServiceType> services =
        AssignServices(spec_.mix, op.count);
    core::LeafController* leaf = nullptr;
    core::LeafController* leaf_backup = nullptr;
    if (deployment_) {
        const std::string ep = core::Deployment::ControllerEndpoint(op.target);
        leaf = deployment_->FindLeaf(ep);
        leaf_backup = deployment_->FindLeafBackup(ep);
    }
    for (std::size_t i = 0; i < op.count; ++i) {
        // Epoch-qualified names keep provisioned servers unique across
        // repeated expansions of the same leaf.
        server::SimServer& srv =
            DrawServer(*rpp,
                       op.target + "/e" + std::to_string(spec_epoch_) + "s" +
                           std::to_string(i),
                       services[i], rng);
        if (deployment_) {
            deployment_->AdoptServer(sim_, transport_, srv);
            // Both leaf instances learn the roster: after a failover
            // the standby must keep controlling the grown domain.
            const core::AgentInfo info = core::AgentInfoFor(srv);
            if (leaf != nullptr) leaf->AddAgent(info);
            if (leaf_backup != nullptr) leaf_backup->AddAgent(info);
        }
    }
}

void
Fleet::ApplyRemoveSubtree(const ReconfigOp& op)
{
    power::PowerDevice* dev = root_->Find(op.target);
    if (dev == nullptr || dev->parent() == nullptr) {
        throw std::runtime_error("reconfig: device \"" + op.target +
                                 "\" vanished before commit");
    }
    const SimTime now = sim_.Now();
    const std::string ctl_ep = core::Deployment::ControllerEndpoint(op.target);

    // Decommission order matters: caps come off the servers while the
    // subtree is still powered (a decommission is a drain, not a
    // crash), then the agents, then the controllers, then the metal.
    const std::vector<server::SimServer*> doomed = ServersUnder(op.target);
    for (server::SimServer* srv : doomed) {
        srv->ClearPowerLimit(now);
        if (deployment_) {
            deployment_->RemoveAgent(core::Deployment::AgentEndpoint(srv->name()),
                                     transport_);
        }
    }
    dev->ForEach([&](power::PowerDevice& d) {
        const std::vector<power::PowerLoad*> attached = d.loads();
        for (power::PowerLoad* load : attached) {
            if (dynamic_cast<server::SimServer*>(load) != nullptr) {
                d.DetachLoad(load);
            }
        }
    });
    const std::unordered_set<const server::SimServer*> gone(doomed.begin(),
                                                            doomed.end());
    servers_.erase(
        std::remove_if(servers_.begin(), servers_.end(),
                       [&](const std::unique_ptr<server::SimServer>& s) {
                           return gone.count(s.get()) != 0;
                       }),
        servers_.end());

    if (deployment_) {
        const std::string parent_ep =
            core::Deployment::ControllerEndpoint(dev->parent()->name());
        if (auto* upper = deployment_->FindUpper(parent_ep)) {
            upper->RemoveChild(ctl_ep);
        }
        if (auto* backup = deployment_->FindUpperBackup(parent_ep)) {
            backup->RemoveChild(ctl_ep);
        }
        deployment_->RemoveLeaf(ctl_ep, transport_);
    }
    retired_devices_.push_back(dev->parent()->RemoveChild(op.target));
}

void
Fleet::ApplyReparent(const ReconfigOp& op)
{
    power::PowerDevice* dev = root_->Find(op.target);
    power::PowerDevice* new_parent = root_->Find(op.new_parent);
    if (dev == nullptr || new_parent == nullptr ||
        dev->parent() == nullptr || dev->parent() == new_parent) {
        throw std::runtime_error("reconfig: reparent of \"" + op.target +
                                 "\" no longer applies");
    }
    const std::string ctl_ep = core::Deployment::ControllerEndpoint(op.target);
    if (deployment_) {
        const std::string old_ep =
            core::Deployment::ControllerEndpoint(dev->parent()->name());
        const std::string new_ep =
            core::Deployment::ControllerEndpoint(op.new_parent);
        if (auto* upper = deployment_->FindUpper(old_ep)) {
            upper->RemoveChild(ctl_ep);
        }
        if (auto* backup = deployment_->FindUpperBackup(old_ep)) {
            backup->RemoveChild(ctl_ep);
        }
        // The leaf keeps its standing contractual limit across the
        // move; the new parent discovers it through contract adoption
        // on its next pull, so no capping headroom is ever lost.
        if (auto* upper = deployment_->FindUpper(new_ep)) {
            upper->AddChild(ctl_ep);
        }
        if (auto* backup = deployment_->FindUpperBackup(new_ep)) {
            backup->AddChild(ctl_ep);
        }
    }
    new_parent->AddChild(dev->parent()->RemoveChild(op.target));
}

void
Fleet::ApplyRestartController(const ReconfigOp& op)
{
    const std::string ep = core::Deployment::ControllerEndpoint(op.target);
    if (!deployment_ || !deployment_->SwapController(ep)) {
        throw std::runtime_error("reconfig: no unswitched standby for \"" +
                                 op.target + "\"");
    }
}

void
Fleet::ApplyPromoteUpper(const ReconfigOp& op)
{
    const std::string ep = core::Deployment::ControllerEndpoint(op.target);
    core::FailoverManager* mgr =
        deployment_ ? deployment_->FindFailover(ep) : nullptr;
    if (mgr == nullptr) {
        throw std::runtime_error("reconfig: no failover manager for \"" +
                                 op.target + "\"");
    }
    mgr->ForceSwitch();
}

void
Fleet::Snapshot(Archive& ar) const
{
    sim_.Snapshot(ar);
    transport_.Snapshot(ar);
    ar.U64(spec_epoch_);
    ar.F64(balancer_.factor());
    // Pre-order device walk: construction order is deterministic, so
    // the visit order (and hence the byte stream) is too.
    std::uint64_t device_count = 0;
    root_->ForEach([&](power::PowerDevice&) { ++device_count; });
    ar.U64(device_count);
    root_->ForEach([&](power::PowerDevice& dev) {
        ar.Str(dev.name());
        ar.F64(dev.quota());
        dev.breaker().Snapshot(ar);
    });
    ar.U64(monitor_ ? monitor_->trip_count() : 0);
    ar.U64(servers_.size());
    for (const auto& s : servers_) s->Snapshot(ar);
    if (deployment_) deployment_->Snapshot(ar);
}

}  // namespace dynamo::fleet
