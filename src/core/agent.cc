#include "core/agent.h"

#include <variant>

#include "telemetry/metrics.h"

namespace dynamo::core {

DynamoAgent::DynamoAgent(sim::Simulation& sim, rpc::Transport& transport,
                         server::SimServer& server,
                         const std::string& endpoint)
    : sim_(sim), transport_(transport), server_(server),
      endpoint_id_(transport.Resolve(endpoint))
{
    Restart();
}

DynamoAgent::~DynamoAgent()
{
    if (alive_) transport_.Unregister(endpoint_id_);
}

void
DynamoAgent::Crash()
{
    if (!alive_) return;
    alive_ = false;
    transport_.Unregister(endpoint_id_);
}

void
DynamoAgent::Restart()
{
    if (alive_) return;
    alive_ = true;
    transport_.Register(endpoint_id_,
                        [this](const rpc::Payload& req) { return Handle(req); });
}

void
DynamoAgent::AttachMetrics(telemetry::MetricsRegistry* registry)
{
    if (registry == nullptr) {
        m_reads_ = m_caps_ = m_uncaps_ = m_tunes_ = nullptr;
        return;
    }
    m_reads_ = registry->GetCounter("agent.reads");
    m_caps_ = registry->GetCounter("agent.caps");
    m_uncaps_ = registry->GetCounter("agent.uncaps");
    m_tunes_ = registry->GetCounter("agent.tunes");
}

rpc::Payload
DynamoAgent::Handle(const rpc::Payload& request)
{
    const SimTime now = sim_.Now();

    if (std::holds_alternative<api::PowerReadRequest>(request)) {
        ++reads_served_;
        if (m_reads_ != nullptr) m_reads_->Inc();
        api::PowerReadResult resp;
        resp.source = server_.name();
        resp.service = server_.service();
        resp.capped = server_.capped();
        resp.power_limit = server_.power_limit();
        if (server_.has_sensor()) {
            resp.power = server_.SensorRead(now);
            resp.estimated = false;
        } else {
            resp.power = server_.EstimateRead(now);
            resp.estimated = true;
        }
        const server::SimServer::Breakdown bd = server_.BreakdownAt(now);
        resp.cpu_power = bd.cpu;
        resp.memory_power = bd.memory;
        resp.other_power = bd.other;
        resp.conversion_loss = bd.conversion_loss;
        return resp;
    }
    if (const auto* cap = std::get_if<api::CapRequest>(&request)) {
        if (cap->limit) {
            ++caps_applied_;
            if (m_caps_ != nullptr) m_caps_->Inc();
            server_.SetPowerLimit(*cap->limit, now);
        } else {
            ++uncaps_applied_;
            if (m_uncaps_ != nullptr) m_uncaps_->Inc();
            server_.ClearPowerLimit(now);
        }
        return api::CapResult{api::Status::Ok()};
    }
    if (const auto* tune = std::get_if<api::TuneEstimate>(&request)) {
        // Estimate=1 / reference=ratio nudges the model's bias by the
        // controller-computed correction factor.
        server_.estimator().Tune(1.0, tune->reference_ratio);
        ++tunes_applied_;
        if (m_tunes_ != nullptr) m_tunes_->Inc();
        return api::CapResult{api::Status::Ok()};
    }
    return api::CapResult{api::Status::Unimplemented("unknown agent request")};
}

}  // namespace dynamo::core
