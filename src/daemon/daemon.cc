#include "daemon/daemon.h"

#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/api.h"
#include "core/controller_builder.h"
#include "fleet/spec_parser.h"

namespace dynamo::daemon {

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int)
{
    g_stop_requested = 1;
}

/** The spec with the control plane off: the daemon hosts its own. */
fleet::FleetSpec SpecWithoutDynamo(const std::string& text)
{
    fleet::FleetSpec spec = fleet::ParseFleetSpecString(text);
    spec.with_dynamo = false;
    return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(Options options)
    : options_(std::move(options)),
      transport_(rpc::SocketTransport::Options{options_.epoch,
                                               std::chrono::milliseconds(1000)}),
      fleet_(SpecWithoutDynamo(options_.spec_text))
{
    if (options_.device.empty()) {
        throw std::invalid_argument("daemon requires a --device to serve");
    }
    Device(options_.device);  // fail fast on typos

    transport_.AttachMetrics(&metrics_);
    transport_.Listen(rpc::SocketAddress::Parse(options_.listen));
    for (const auto& [endpoint, address] : options_.routes) {
        transport_.AddRoute(endpoint, rpc::SocketAddress::Parse(address));
    }

    switch (options_.role) {
      case Role::kAgent: BuildAgentRole(); break;
      case Role::kLeaf: BuildLeafRole(); break;
      case Role::kUpper: BuildUpperRole(); break;
    }
    RegisterStatusEndpoint();
    start_ = std::chrono::steady_clock::now();
}

Daemon::~Daemon() = default;

power::PowerDevice&
Daemon::Device(const std::string& device_name)
{
    power::PowerDevice* device = fleet_.root().Find(device_name);
    if (device == nullptr) {
        throw std::invalid_argument("no device named '" + device_name +
                                    "' in the fleet spec topology");
    }
    return *device;
}

void
Daemon::BuildAgentRole()
{
    const std::vector<server::SimServer*> mine =
        fleet_.ServersUnder(options_.device);
    if (mine.empty()) {
        throw std::invalid_argument("no servers under device '" +
                                    options_.device + "'");
    }
    for (server::SimServer* srv : mine) {
        agents_.push_back(std::make_unique<core::DynamoAgent>(
            sim_, transport_, *srv,
            core::Deployment::AgentEndpoint(srv->name())));
        agents_.back()->AttachMetrics(&metrics_);
    }
    endpoint_ = "agentd:" + options_.device;
}

void
Daemon::BuildLeafRole()
{
    power::PowerDevice& device = Device(options_.device);
    endpoint_ = core::Deployment::ControllerEndpoint(options_.device);

    core::ControllerBuilder builder(sim_, transport_);
    builder.Endpoint(endpoint_)
        .ForDevice(device)
        .LeafConfig(fleet_.spec().deployment.leaf)
        .Telemetry(&metrics_, nullptr);
    for (server::SimServer* srv : core::ServersUnder(device)) {
        builder.Agent(core::AgentInfoFor(*srv));
        if (!options_.agents_at.empty()) {
            transport_.AddRoute(core::Deployment::AgentEndpoint(srv->name()),
                                rpc::SocketAddress::Parse(options_.agents_at));
        }
    }
    leaf_ = builder.BuildLeaf();
    leaf_->Activate();
}

void
Daemon::BuildUpperRole()
{
    power::PowerDevice& device = Device(options_.device);
    endpoint_ = core::Deployment::ControllerEndpoint(options_.device);

    core::ControllerBuilder builder(sim_, transport_);
    builder.Endpoint(endpoint_)
        .ForDevice(device)
        .UpperConfig(fleet_.spec().deployment.upper)
        .Telemetry(&metrics_, nullptr);
    for (const auto& [child_device, address] : options_.children) {
        Device(child_device);
        const std::string child =
            core::Deployment::ControllerEndpoint(child_device);
        builder.Child(child);
        transport_.AddRoute(child, rpc::SocketAddress::Parse(address));
    }
    upper_ = builder.BuildUpper();
    upper_->Activate();
}

void
Daemon::RegisterStatusEndpoint()
{
    transport_.Register(endpoint_ + ".status",
                        [this](const rpc::Payload& request) {
                            return HandleStatus(request);
                        });
}

rpc::Payload
Daemon::HandleStatus(const rpc::Payload& request)
{
    if (!std::holds_alternative<api::StatusRequest>(request)) {
        api::StatusResult nack;
        nack.status = api::Status::Unimplemented("expected StatusRequest");
        nack.endpoint = endpoint_;
        return nack;
    }
    api::StatusResult result;
    result.status = api::Status::Ok();
    result.endpoint = endpoint_;
    if (leaf_ != nullptr) {
        result.health = core::HealthStateName(leaf_->health());
        result.cycles = leaf_->aggregations();
        result.caps_adopted = leaf_->caps_adopted();
        result.power = leaf_->last_aggregated_power();
        result.capping = leaf_->capping();
    } else if (upper_ != nullptr) {
        result.health = core::HealthStateName(upper_->health());
        result.cycles = upper_->aggregations();
        result.contracts_adopted = upper_->contracts_adopted();
        result.power = upper_->last_aggregated_power();
        result.capping = upper_->capping();
    } else {
        // Agent daemon: report liveness and the subtree's true power.
        result.health = "normal";
        std::uint64_t reads = 0;
        for (const auto& agent : agents_) reads += agent->reads_served();
        result.cycles = reads;
        result.power = Device(options_.device).TotalPower(sim_.Now());
    }
    return result;
}

std::size_t
Daemon::Step()
{
    const std::size_t dispatched = transport_.PollOnce(options_.poll_budget_ms);
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    sim_.RunUntil(static_cast<SimTime>(wall));
    return dispatched;
}

void
Daemon::Run(std::int64_t run_for_ms)
{
    for (;;) {
        if (StopRequested()) return;
        Step();
        if (run_for_ms > 0) {
            const auto wall =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            if (wall >= run_for_ms) return;
        }
    }
}

void
Daemon::InstallSignalHandlers()
{
    std::signal(SIGTERM, HandleStopSignal);
    std::signal(SIGINT, HandleStopSignal);
}

bool
Daemon::StopRequested()
{
    return g_stop_requested != 0;
}

// ---------------------------------------------------------------------------
// DaemonMain
// ---------------------------------------------------------------------------

namespace {

/** Split "key=value" (first '='); throws on missing separator. */
std::pair<std::string, std::string>
SplitKeyValue(const std::string& text, const char* flag)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == text.size()) {
        throw std::invalid_argument(std::string(flag) +
                                    " expects KEY=VALUE, got \"" + text + "\"");
    }
    return {text.substr(0, eq), text.substr(eq + 1)};
}

void
PrintUsage(const char* binary_name, bool with_level)
{
    std::cerr
        << "usage: " << binary_name << " --spec FILE --device NAME"
        << " --listen ADDR" << (with_level ? " --level leaf|upper" : "")
        << " [options]\n"
           "  --spec FILE        fleet spec file (shared by all daemons)\n"
           "  --device NAME      device subtree to serve (e.g. sb0/rpp0)\n"
           "  --listen ADDR      unix:/path.sock or tcp:host:port\n"
           "  --route EP=ADDR    explicit route for one endpoint\n"
           "  --agents ADDR      (leaf) address serving this device's "
           "agents\n"
           "  --child DEV=ADDR   (upper) add child controller + route\n"
           "  --epoch N          fleet-spec epoch stamp (default 0)\n"
           "  --poll-ms N        poll budget per loop pass (default 10)\n"
           "  --run-for-ms N     exit after N wall ms (default: run until "
           "SIGTERM)\n";
}

}  // namespace

int
DaemonMain(int argc, char** argv, const char* binary_name,
           std::optional<Daemon::Role> fixed_role)
{
    Daemon::Options options;
    std::int64_t run_for_ms = 0;
    std::string spec_path;
    std::optional<Daemon::Role> role = fixed_role;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument(arg + " needs a value");
                }
                return argv[++i];
            };
            if (arg == "--spec") {
                spec_path = next();
            } else if (arg == "--device") {
                options.device = next();
            } else if (arg == "--listen") {
                options.listen = next();
            } else if (arg == "--route") {
                options.routes.push_back(SplitKeyValue(next(), "--route"));
            } else if (arg == "--agents") {
                options.agents_at = next();
            } else if (arg == "--child") {
                options.children.push_back(SplitKeyValue(next(), "--child"));
            } else if (arg == "--epoch") {
                options.epoch = std::stoull(next());
            } else if (arg == "--poll-ms") {
                options.poll_budget_ms = std::stoi(next());
            } else if (arg == "--run-for-ms") {
                run_for_ms = std::stoll(next());
            } else if (arg == "--level" && !fixed_role.has_value()) {
                const std::string level = next();
                if (level == "leaf") {
                    role = Daemon::Role::kLeaf;
                } else if (level == "upper") {
                    role = Daemon::Role::kUpper;
                } else {
                    throw std::invalid_argument(
                        "--level must be leaf or upper, got \"" + level +
                        "\"");
                }
            } else if (arg == "--help" || arg == "-h") {
                PrintUsage(binary_name, !fixed_role.has_value());
                return 0;
            } else {
                throw std::invalid_argument("unknown flag " + arg);
            }
        }
        if (spec_path.empty() || options.listen.empty() ||
            options.device.empty() || !role.has_value()) {
            PrintUsage(binary_name, !fixed_role.has_value());
            return 2;
        }
        options.role = *role;

        std::ifstream in(spec_path);
        if (!in) {
            throw std::runtime_error("cannot open spec file: " + spec_path);
        }
        std::ostringstream text;
        text << in.rdbuf();
        options.spec_text = text.str();

        Daemon daemon(std::move(options));
        Daemon::InstallSignalHandlers();
        std::cerr << binary_name << ": serving " << daemon.controller_endpoint()
                  << " on " << daemon.transport().listen_address().ToString()
                  << "\n";
        daemon.Run(run_for_ms);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << binary_name << ": error: " << e.what() << "\n";
        return 1;
    }
}

}  // namespace dynamo::daemon
