#include "core/deployment.h"

#include "core/controller_builder.h"

#include <utility>

#include "server/sim_server.h"
#include "workload/load_process.h"

namespace dynamo::core {

/** Private-access helper used only by BuildDeployment. */
class DeploymentBuilder
{
  public:
    /**
     * Recursive construction: returns the controller endpoint for
     * `device`, or "" when the subtree contains no controllers.
     */
    static std::string BuildControllersFor(power::PowerDevice& device,
                                           sim::Simulation& sim,
                                           rpc::Transport& transport,
                                           const DeploymentConfig& config,
                                           Deployment* deployment);

    static std::unique_ptr<Deployment> Build(sim::Simulation& sim,
                                             rpc::Transport& transport,
                                             power::PowerDevice& root,
                                             const DeploymentConfig& config);
};

std::string
DeploymentBuilder::BuildControllersFor(power::PowerDevice& device,
                                       sim::Simulation& sim,
                                       rpc::Transport& transport,
                                       const DeploymentConfig& config,
                                       Deployment* deployment)
{
    const std::string endpoint = Deployment::ControllerEndpoint(device.name());

    if (device.level() == config.leaf_level) {
        ControllerBuilder builder(sim, transport);
        builder.Endpoint(endpoint)
            .ForDevice(device)
            .LeafConfig(config.leaf)
            .Log(&deployment->log_);
        for (server::SimServer* srv : ServersUnder(device)) {
            builder.Agent(AgentInfoFor(*srv));
        }
        auto leaf = builder.BuildLeaf();
        SimTime phase = -1;
        if (config.stagger_cycles) {
            const std::size_t index = deployment->leaves_.size();
            phase = 1 + static_cast<SimTime>((index * 997) %
                                             static_cast<std::size_t>(
                                                 config.leaf.base.pull_cycle));
        }
        leaf->Activate(phase);
        deployment->leaf_by_endpoint_[endpoint] = leaf.get();
        deployment->leaves_.push_back(std::move(leaf));
        if (config.with_backup_controllers) {
            auto backup = builder.BuildLeaf();
            deployment->failovers_.push_back(std::make_unique<FailoverManager>(
                sim, transport, *deployment->leaves_.back(), *backup,
                config.failover_check_period, config.failover_miss_threshold,
                &deployment->log_));
            deployment->leaf_backups_.push_back(std::move(backup));
        }
        return endpoint;
    }

    std::vector<std::string> child_endpoints;
    for (const auto& child : device.children()) {
        std::string ep =
            BuildControllersFor(*child, sim, transport, config, deployment);
        if (!ep.empty()) child_endpoints.push_back(std::move(ep));
    }
    if (child_endpoints.empty()) return "";

    ControllerBuilder builder(sim, transport);
    builder.Endpoint(endpoint)
        .ForDevice(device)
        .UpperConfig(config.upper)
        .Log(&deployment->log_);
    for (const std::string& ep : child_endpoints) builder.Child(ep);
    auto upper = builder.BuildUpper();
    upper->Activate();
    deployment->upper_by_endpoint_[endpoint] = upper.get();
    deployment->uppers_.push_back(std::move(upper));
    if (config.with_backup_controllers) {
        auto backup = builder.BuildUpper();
        deployment->failovers_.push_back(std::make_unique<FailoverManager>(
            sim, transport, *deployment->uppers_.back(), *backup,
            config.failover_check_period, config.failover_miss_threshold,
            &deployment->log_));
        deployment->upper_backups_.push_back(std::move(backup));
    }
    return endpoint;
}

std::unique_ptr<Deployment>
DeploymentBuilder::Build(sim::Simulation& sim, rpc::Transport& transport,
                         power::PowerDevice& root, const DeploymentConfig& config)
{
    auto deployment = std::make_unique<Deployment>();
    deployment->traces_ = telemetry::TraceLog(config.trace_capacity);
    deployment->endpoints_ = &transport.endpoints();

    // Agents for every server anywhere under the root.
    for (server::SimServer* srv : ServersUnder(root)) {
        auto agent = std::make_unique<DynamoAgent>(
            sim, transport, *srv, Deployment::AgentEndpoint(srv->name()));
        deployment->IndexAgent(agent.get());
        deployment->agents_.push_back(std::move(agent));
    }

    BuildControllersFor(root, sim, transport, config, deployment.get());

    if (config.with_telemetry) {
        deployment->telemetry_wired_ = true;
        telemetry::MetricsRegistry* metrics = &deployment->metrics_;
        telemetry::TraceLog* traces = &deployment->traces_;
        for (const auto& agent : deployment->agents_) {
            agent->AttachMetrics(metrics);
        }
        for (const auto& leaf : deployment->leaves_) {
            leaf->AttachTelemetry(metrics, traces);
        }
        for (const auto& upper : deployment->uppers_) {
            upper->AttachTelemetry(metrics, traces);
        }
        // Backups share the same instruments: a promoted standby keeps
        // recording into the fleet-wide series without a gap.
        for (const auto& leaf : deployment->leaf_backups_) {
            leaf->AttachTelemetry(metrics, traces);
        }
        for (const auto& upper : deployment->upper_backups_) {
            upper->AttachTelemetry(metrics, traces);
        }
    }

    if (config.with_watchdog) {
        deployment->watchdog_ = std::make_unique<Watchdog>(
            sim, config.watchdog_period, &deployment->log_);
        for (const auto& agent : deployment->agents_) {
            deployment->watchdog_->Watch(agent.get());
        }
    }
    if (config.with_early_warning) {
        deployment->early_warning_ = std::make_unique<EarlyWarningMonitor>(
            sim, config.early_warning, &deployment->log_);
        for (const auto& leaf : deployment->leaves_) {
            deployment->early_warning_->Watch(leaf.get());
        }
        for (const auto& upper : deployment->uppers_) {
            deployment->early_warning_->Watch(upper.get());
        }
    }
    return deployment;
}

Watts
SlaMinCapFor(const server::SimServer& server)
{
    const server::ServerPowerSpec& spec = server.spec();
    const workload::ServiceTraits& traits = workload::TraitsFor(server.service());
    return spec.idle + traits.sla_floor_frac * (spec.peak - spec.idle);
}

AgentInfo
AgentInfoFor(const server::SimServer& server)
{
    AgentInfo info;
    info.endpoint = Deployment::AgentEndpoint(server.name());
    info.service = server.service();
    info.priority_group = workload::TraitsFor(server.service()).priority_group;
    info.sla_min_cap = SlaMinCapFor(server);
    const double base_util =
        workload::LoadProcessParams::For(server.service()).base_util;
    info.nominal_power = server::PowerAtUtil(server.spec(), base_util,
                                             server.turbo_enabled());
    return info;
}

std::vector<server::SimServer*>
ServersUnder(power::PowerDevice& device)
{
    std::vector<server::SimServer*> servers;
    device.ForEach([&](power::PowerDevice& d) {
        for (power::PowerLoad* load : d.loads()) {
            if (auto* srv = dynamic_cast<server::SimServer*>(load)) {
                servers.push_back(srv);
            }
        }
    });
    return servers;
}

void
Deployment::IndexAgent(DynamoAgent* agent)
{
    const rpc::EndpointId id = agent->endpoint_id();
    if (agent_by_id_.size() <= id) agent_by_id_.resize(id + 1, nullptr);
    agent_by_id_[id] = agent;
}

DynamoAgent*
Deployment::FindAgent(const std::string& endpoint)
{
    if (endpoints_ == nullptr) return nullptr;
    // kInvalidEndpoint is past the end of any vector.
    const rpc::EndpointId id = endpoints_->Find(endpoint);
    return id < agent_by_id_.size() ? agent_by_id_[id] : nullptr;
}

LeafController*
Deployment::FindLeaf(const std::string& endpoint)
{
    const auto it = leaf_by_endpoint_.find(endpoint);
    return it == leaf_by_endpoint_.end() ? nullptr : it->second;
}

UpperController*
Deployment::FindUpper(const std::string& endpoint)
{
    const auto it = upper_by_endpoint_.find(endpoint);
    return it == upper_by_endpoint_.end() ? nullptr : it->second;
}

LeafController*
Deployment::FindLeafBackup(const std::string& endpoint)
{
    for (const auto& c : leaf_backups_) {
        if (c->endpoint() == endpoint) return c.get();
    }
    return nullptr;
}

UpperController*
Deployment::FindUpperBackup(const std::string& endpoint)
{
    for (const auto& c : upper_backups_) {
        if (c->endpoint() == endpoint) return c.get();
    }
    return nullptr;
}

FailoverManager*
Deployment::FindFailover(const std::string& endpoint)
{
    for (const auto& mgr : failovers_) {
        if (mgr->primary().endpoint() == endpoint) return mgr.get();
    }
    return nullptr;
}

bool
Deployment::SwapController(const std::string& endpoint)
{
    FailoverManager* mgr = FindFailover(endpoint);
    return mgr != nullptr && mgr->WarmSwap();
}

DynamoAgent*
Deployment::AdoptServer(sim::Simulation& sim, rpc::Transport& transport,
                        server::SimServer& server)
{
    auto agent = std::make_unique<DynamoAgent>(
        sim, transport, server, AgentEndpoint(server.name()));
    DynamoAgent* raw = agent.get();
    if (telemetry_wired_) raw->AttachMetrics(&metrics_);
    if (watchdog_) watchdog_->Watch(raw);
    IndexAgent(raw);
    agents_.push_back(std::move(agent));
    return raw;
}

bool
Deployment::RemoveAgent(const std::string& endpoint,
                        rpc::Transport& transport)
{
    const rpc::EndpointId id = transport.endpoints().Find(endpoint);
    if (id >= agent_by_id_.size() || agent_by_id_[id] == nullptr) return false;
    DynamoAgent* agent = agent_by_id_[id];
    // Off the watchdog roster first: a watchdog check between Crash
    // and destruction would otherwise resurrect the agent.
    if (watchdog_) watchdog_->Unwatch(agent);
    agent->Crash();
    agent_by_id_[id] = nullptr;
    for (auto vec_it = agents_.begin(); vec_it != agents_.end(); ++vec_it) {
        if (vec_it->get() == agent) {
            agents_.erase(vec_it);
            break;
        }
    }
    transport.Deregister(id);
    return true;
}

bool
Deployment::RemoveLeaf(const std::string& endpoint,
                       rpc::Transport& transport)
{
    const auto it = leaf_by_endpoint_.find(endpoint);
    if (it == leaf_by_endpoint_.end()) return false;
    LeafController* leaf = it->second;
    LeafController* backup = FindLeafBackup(endpoint);
    // The failover manager goes first — its probe task must not fire
    // between the controllers' teardown and its own.
    for (auto mgr = failovers_.begin(); mgr != failovers_.end(); ++mgr) {
        if (&(*mgr)->primary() == leaf) {
            failovers_.erase(mgr);
            break;
        }
    }
    if (early_warning_) early_warning_->Unwatch(leaf);
    leaf->Deactivate();
    if (backup != nullptr) {
        backup->Deactivate();  // covers a post-failover active standby
        for (auto b = leaf_backups_.begin(); b != leaf_backups_.end(); ++b) {
            if (b->get() == backup) {
                retired_.push_back(std::move(*b));
                leaf_backups_.erase(b);
                break;
            }
        }
    }
    leaf_by_endpoint_.erase(it);
    for (auto vec_it = leaves_.begin(); vec_it != leaves_.end(); ++vec_it) {
        if (vec_it->get() == leaf) {
            retired_.push_back(std::move(*vec_it));
            leaves_.erase(vec_it);
            break;
        }
    }
    transport.Deregister(endpoint);
    return true;
}

void
Deployment::Snapshot(Archive& ar) const
{
    ar.U64(agents_.size());
    for (const auto& a : agents_) a->Snapshot(ar);
    ar.U64(leaves_.size());
    for (const auto& c : leaves_) c->Snapshot(ar);
    ar.U64(uppers_.size());
    for (const auto& c : uppers_) c->Snapshot(ar);
    ar.U64(leaf_backups_.size());
    for (const auto& c : leaf_backups_) c->Snapshot(ar);
    ar.U64(upper_backups_.size());
    for (const auto& c : upper_backups_) c->Snapshot(ar);
    traces_.Snapshot(ar);
}

std::unique_ptr<Deployment>
BuildDeployment(sim::Simulation& sim, rpc::Transport& transport,
                power::PowerDevice& root, const DeploymentConfig& config)
{
    return DeploymentBuilder::Build(sim, transport, root, config);
}

}  // namespace dynamo::core
