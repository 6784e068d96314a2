#include "core/controller_builder.h"

#include <stdexcept>
#include <utility>

namespace dynamo::core {

ControllerBuilder::ControllerBuilder(sim::Simulation& sim,
                                     rpc::Transport& transport)
    : sim_(sim), transport_(transport)
{
}

ControllerBuilder&
ControllerBuilder::Endpoint(std::string endpoint)
{
    endpoint_ = std::move(endpoint);
    return *this;
}

ControllerBuilder&
ControllerBuilder::ForDevice(power::PowerDevice& device)
{
    device_ = &device;
    return *this;
}

ControllerBuilder&
ControllerBuilder::Limits(Watts physical_limit, Watts quota)
{
    if (physical_limit <= 0.0 || quota <= 0.0 || quota > physical_limit) {
        throw std::invalid_argument(
            "ControllerBuilder: Limits requires 0 < quota <= physical_limit; "
            "got physical=" + std::to_string(physical_limit) +
            " quota=" + std::to_string(quota));
    }
    physical_limit_ = physical_limit;
    quota_ = quota;
    return *this;
}

ControllerBuilder&
ControllerBuilder::LeafConfig(LeafController::Config config)
{
    leaf_config_ = std::move(config);
    return *this;
}

ControllerBuilder&
ControllerBuilder::UpperConfig(UpperController::Config config)
{
    upper_config_ = std::move(config);
    return *this;
}

ControllerBuilder&
ControllerBuilder::Policy(policy::PolicyKind kind)
{
    policy_ = kind;
    return *this;
}

ControllerBuilder&
ControllerBuilder::Log(telemetry::EventLog* log)
{
    log_ = log;
    return *this;
}

ControllerBuilder&
ControllerBuilder::Telemetry(telemetry::MetricsRegistry* metrics,
                             telemetry::TraceLog* traces)
{
    metrics_ = metrics;
    traces_ = traces;
    return *this;
}

ControllerBuilder&
ControllerBuilder::Agent(AgentInfo info)
{
    agents_.push_back(std::move(info));
    return *this;
}

ControllerBuilder&
ControllerBuilder::Child(std::string endpoint)
{
    children_.push_back(std::move(endpoint));
    return *this;
}

std::unique_ptr<LeafController>
ControllerBuilder::BuildLeaf() const
{
    if (endpoint_.empty()) {
        throw std::invalid_argument("ControllerBuilder: Endpoint is required");
    }
    if (device_ == nullptr) {
        throw std::invalid_argument(
            "ControllerBuilder: a leaf controller protects a concrete "
            "device; call ForDevice");
    }
    if (physical_limit_) {
        throw std::invalid_argument(
            "ControllerBuilder: leaf limits come from the device; "
            "Limits is for device-less uppers only");
    }
    if (upper_config_) {
        throw std::invalid_argument(
            "ControllerBuilder: UpperConfig set but BuildLeaf called");
    }
    if (!children_.empty()) {
        throw std::invalid_argument(
            "ControllerBuilder: child controllers belong to uppers; "
            "a leaf roster is added with Agent");
    }
    LeafController::Config config =
        leaf_config_ ? *leaf_config_ : LeafController::Config{};
    if (policy_) config.capping_policy = *policy_;
    std::unique_ptr<LeafController> leaf(new LeafController(
        sim_, transport_, endpoint_, *device_, config, log_));
    leaf->agents_.reserve(agents_.size());
    for (const AgentInfo& info : agents_) leaf->AddAgent(info);
    if (metrics_ != nullptr || traces_ != nullptr) {
        leaf->AttachTelemetry(metrics_, traces_);
    }
    return leaf;
}

std::unique_ptr<UpperController>
ControllerBuilder::BuildUpper() const
{
    if (endpoint_.empty()) {
        throw std::invalid_argument("ControllerBuilder: Endpoint is required");
    }
    if (device_ != nullptr && physical_limit_) {
        throw std::invalid_argument(
            "ControllerBuilder: ForDevice and Limits are mutually "
            "exclusive (ambiguous limit source)");
    }
    if (device_ == nullptr && !physical_limit_) {
        throw std::invalid_argument(
            "ControllerBuilder: an upper controller needs its limits; "
            "call ForDevice or Limits");
    }
    if (leaf_config_) {
        throw std::invalid_argument(
            "ControllerBuilder: LeafConfig set but BuildUpper called");
    }
    if (!agents_.empty()) {
        throw std::invalid_argument(
            "ControllerBuilder: agents belong to leaves; an upper "
            "roster is added with Child");
    }
    const Watts physical =
        device_ != nullptr ? device_->rated_power() : *physical_limit_;
    const Watts quota = device_ != nullptr ? device_->quota() : *quota_;
    UpperController::Config config =
        upper_config_ ? *upper_config_ : UpperController::Config{};
    if (policy_) config.capping_policy = *policy_;
    std::unique_ptr<UpperController> upper(new UpperController(
        sim_, transport_, endpoint_, physical, quota, config, log_));
    for (const std::string& child : children_) upper->AddChild(child);
    if (metrics_ != nullptr || traces_ != nullptr) {
        upper->AttachTelemetry(metrics_, traces_);
    }
    return upper;
}

}  // namespace dynamo::core
