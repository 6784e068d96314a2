#include "core/controller.h"

#include <stdexcept>
#include <utility>
#include <variant>

namespace dynamo::core {

const char*
HealthStateName(HealthState state)
{
    switch (state) {
      case HealthState::kNormal: return "normal";
      case HealthState::kDegraded: return "degraded";
      case HealthState::kRecovering: return "recovering";
    }
    return "?";
}

Controller::Controller(sim::Simulation& sim, rpc::Transport& transport,
                       std::string endpoint, Watts physical_limit, Watts quota,
                       ControllerBaseConfig config, telemetry::EventLog* log)
    : sim_(sim),
      transport_(transport),
      config_(config),
      bands_(config.bands),
      log_(log),
      endpoint_(std::move(endpoint)),
      endpoint_id_(transport.Resolve(endpoint_)),
      physical_limit_(physical_limit),
      quota_(quota),
      // FNV-1a rather than std::hash: the retry-jitter stream must be
      // identical across standard libraries for replay journals to be
      // portable between builds.
      retry_rng_(Fnv1a64(endpoint_) ^ 0x9e3779b97f4a7c15ULL)
{
    if (config_.rpc_timeout <= 0 || config_.rpc_timeout >= config_.response_wait) {
        throw std::invalid_argument(
            "ControllerBaseConfig: rpc_timeout must be in (0, response_wait); "
            "got rpc_timeout=" + std::to_string(config_.rpc_timeout) +
            " response_wait=" + std::to_string(config_.response_wait));
    }
    if (config_.pull_retries < 0 || config_.retry_backoff < 0 ||
        config_.retry_jitter < 0) {
        throw std::invalid_argument(
            "ControllerBaseConfig: retry knobs must be non-negative");
    }
    if (config_.degraded_entry_cycles < 1 || config_.recovery_exit_cycles < 1) {
        throw std::invalid_argument(
            "ControllerBaseConfig: hysteresis cycle counts must be >= 1");
    }
    if (config_.flap_window_cycles < 0) {
        throw std::invalid_argument(
            "ControllerBaseConfig: flap_window_cycles must be >= 0");
    }
}

Controller::~Controller()
{
    Deactivate();
}

void
Controller::Activate(SimTime initial_delay)
{
    if (active_) return;
    active_ = true;
    transport_.Register(endpoint_id_,
                        [this](const rpc::Payload& req) { return Handle(req); });
    cycle_task_ = sim_.SchedulePeriodic(
        config_.pull_cycle, [this]() {
            if (active_) RunCycle();
        },
        initial_delay);
}

void
Controller::Deactivate()
{
    if (!active_) return;
    active_ = false;
    cycle_task_.Cancel();
    transport_.Unregister(endpoint_id_);
    // Invalidate any in-flight cycle so late responses are dropped.
    ++cycle_id_;
}

rpc::Payload
Controller::Handle(const rpc::Payload& request)
{
    if (std::holds_alternative<api::PowerReadRequest>(request)) {
        api::PowerReadResult resp;
        resp.source = endpoint_;
        resp.power = last_power_;
        if (!last_valid_) {
            resp.status = api::Status::Unavailable("aggregation invalid");
        }
        resp.quota = quota_;
        resp.floor = Floor();
        resp.contract = contractual_limit_;
        return resp;
    }
    if (const auto* update = std::get_if<api::ContractUpdate>(&request)) {
        // A contract stamped with an older spec epoch was computed
        // against a pre-reconfiguration topology; applying it could
        // cap a subtree that no longer exists under that parent (or
        // lift a limit the new parent still relies on). Unversioned
        // senders (epoch 0) are accepted for hand-wired rigs.
        if (update->spec_epoch != 0 && update->spec_epoch < current_epoch()) {
            ++stale_epoch_rejections_;
            return api::CapResult{api::Status::Rejected(
                "stale spec epoch " + std::to_string(update->spec_epoch) +
                " < " + std::to_string(current_epoch()))};
        }
        if (update->limit) {
            SetContractualLimit(*update->limit);
            contract_span_ = update->span_id;
        } else {
            ClearContractualLimit();
            contract_span_ = telemetry::kNoSpan;
        }
        return api::CapResult{api::Status::Ok()};
    }
    if (std::holds_alternative<api::HealthProbe>(request)) {
        return api::HealthResult{api::Status::Ok()};
    }
    return HandleExtra(request);
}

rpc::Payload
Controller::HandleExtra(const rpc::Payload&)
{
    return api::CapResult{
        api::Status::Unimplemented("unknown controller request")};
}

void
Controller::PullWithRetry(rpc::EndpointId endpoint, PullCallback on_read)
{
    PullAttempt(endpoint, std::move(on_read), 0, cycle_id_);
}

void
Controller::PullAttempt(rpc::EndpointId endpoint, PullCallback on_read,
                        int attempt, std::uint64_t cycle)
{
    // The rpc_timeout budget is split evenly across the attempts.
    const SimTime per_attempt_timeout = std::max<SimTime>(
        1, config_.rpc_timeout / (1 + config_.pull_retries));
    transport_.Call(
        endpoint, api::PowerReadRequest{},
        [this, endpoint, attempt, cycle,
         on_read = std::move(on_read)](const rpc::Reply& reply) mutable {
            if (cycle != cycle_id_) return;  // cycle moved on; abandon
            if (reply.ok()) {
                if (const auto* r = reply.get<api::PowerReadResult>()) {
                    on_read(*r);
                }
                return;
            }
            // Out of attempts: the failure is implicit, the caller's
            // reading for this cycle simply stays missing.
            if (attempt >= config_.pull_retries) return;
            ++retries_issued_;
            SimTime backoff = config_.retry_backoff << attempt;
            if (config_.retry_jitter > 0) {
                backoff += static_cast<SimTime>(retry_rng_.UniformInt(
                    static_cast<std::uint64_t>(config_.retry_jitter) + 1));
            }
            sim_.ScheduleAfter(backoff, [this, endpoint, attempt, cycle,
                                         on_read = std::move(on_read)]() mutable {
                if (cycle != cycle_id_) return;
                PullAttempt(endpoint, std::move(on_read), attempt + 1, cycle);
            });
        },
        per_attempt_timeout);
}

void
Controller::UpdateHealth(bool cycle_valid)
{
    if (health_ != HealthState::kNormal) ++unhealthy_cycles_;

    if (!cycle_valid) {
        consecutive_healthy_ = 0;
        ++consecutive_invalid_;
        const bool enter =
            (health_ == HealthState::kNormal &&
             consecutive_invalid_ >= config_.degraded_entry_cycles) ||
            health_ == HealthState::kRecovering;
        if (enter) {
            health_ = HealthState::kDegraded;
            ++degraded_entries_;
            LogEvent(telemetry::EventKind::kDegradedEnter, last_power_,
                     EffectiveLimit(), 0,
                     "cap releases frozen after " +
                         std::to_string(consecutive_invalid_) +
                         " invalid aggregations");
        }
        return;
    }

    consecutive_invalid_ = 0;
    switch (health_) {
      case HealthState::kNormal:
        break;
      case HealthState::kDegraded:
        health_ = HealthState::kRecovering;
        consecutive_healthy_ = 1;
        break;
      case HealthState::kRecovering:
        if (++consecutive_healthy_ >= config_.recovery_exit_cycles) {
            health_ = HealthState::kNormal;
            LogEvent(telemetry::EventKind::kDegradedExit, last_power_,
                     EffectiveLimit(), 0,
                     "recovered after " + std::to_string(consecutive_healthy_) +
                         " healthy cycles");
        }
        break;
    }
}

BandDecision
Controller::DecideBand(Watts aggregated, bool allow_uncap)
{
    BandDecision decision =
        bands_.Evaluate(aggregated, EffectiveLimit(), allow_uncap);
    if (decision.action == BandAction::kCap && contractual_limit_ &&
        *contractual_limit_ < physical_limit_) {
        const Watts target =
            std::min(config_.bands.cap_target_frac * physical_limit_,
                     kContractTargetFrac * *contractual_limit_);
        if (target < aggregated) {
            decision.target = target;
            decision.cut = aggregated - target;
        }
    }
    return decision;
}

Controller::Status
Controller::GetStatus() const
{
    Status status;
    status.endpoint = endpoint_;
    status.active = active_;
    status.capping = bands_.capping();
    status.last_valid = last_valid_;
    status.health = health_;
    status.physical_limit = physical_limit_;
    status.contractual_limit = contractual_limit_;
    status.last_power = last_power_;
    status.aggregations = aggregations_;
    status.invalid_aggregations = invalid_aggregations_;
    status.degraded_entries = degraded_entries_;
    status.frozen_releases = frozen_releases_;
    status.controlled = ControlledCount();
    return status;
}

void
Controller::Snapshot(Archive& ar) const
{
    ar.Str(endpoint_);
    ar.Bool(active_);
    ar.F64(physical_limit_);
    ar.F64(quota_);
    ar.Bool(contractual_limit_.has_value());
    ar.F64(contractual_limit_.value_or(0.0));
    ar.Bool(bands_.capping());
    ar.F64(last_power_);
    ar.Bool(last_valid_);
    ar.U64(aggregations_);
    ar.U64(invalid_aggregations_);
    ar.U64(frozen_releases_);
    ar.U64(cycle_id_);
    // Degraded-mode FSM.
    ar.U8(static_cast<std::uint8_t>(health_));
    ar.I64(consecutive_invalid_);
    ar.I64(consecutive_healthy_);
    ar.U64(degraded_entries_);
    ar.U64(unhealthy_cycles_);
    ar.U64(retries_issued_);
    // Contract provenance + retry-jitter stream position.
    ar.U64(contract_span_);
    for (const std::uint64_t w : retry_rng_.state()) ar.U64(w);
    ar.U64(retry_rng_.draws());
}

std::string
Controller::StatusLine() const
{
    const Status s = GetStatus();
    std::string line = s.endpoint;
    line += s.active ? " [active]" : " [standby]";
    line += " power=" + std::to_string(static_cast<long long>(s.last_power)) +
            "W/" + std::to_string(static_cast<long long>(EffectiveLimit())) +
            "W";
    if (s.contractual_limit) {
        line += " (contract " +
                std::to_string(static_cast<long long>(*s.contractual_limit)) +
                "W)";
    }
    if (!s.last_valid) line += " INVALID";
    if (s.health == HealthState::kDegraded) line += " DEGRADED";
    if (s.health == HealthState::kRecovering) line += " RECOVERING";
    if (s.capping) {
        line += " CAPPING(" + std::to_string(s.controlled) + ")";
    }
    return line;
}

void
Controller::AttachTelemetry(telemetry::MetricsRegistry* registry,
                            telemetry::TraceLog* traces)
{
    traces_ = traces;
    if (registry == nullptr) {
        m_cycles_ = m_caps_ = m_uncaps_ = m_holds_ = m_flaps_ = nullptr;
        m_cycle_us_ = m_cut_w_ = nullptr;
        return;
    }
    const std::string prefix = MetricPrefix();
    m_cycles_ = registry->GetCounter(prefix + ".cycles");
    m_caps_ = registry->GetCounter(prefix + ".caps");
    m_uncaps_ = registry->GetCounter(prefix + ".uncaps");
    m_holds_ = registry->GetCounter(prefix + ".holds");
    m_flaps_ = registry->GetCounter(prefix + ".flaps");
    m_cycle_us_ = registry->GetHistogram(prefix + ".cycle_us");
    // Cut sizes span single-server trims to multi-rack sheds: extend
    // the exponential bounds up to ~1 MW.
    std::vector<double> cut_bounds;
    for (double b = 1.0; b <= 1048576.0; b *= 4.0) cut_bounds.push_back(b);
    m_cut_w_ = registry->GetHistogram(prefix + ".cut_w", std::move(cut_bounds));
}

void
Controller::NoteCapStart()
{
    if (have_release_time_ &&
        sim_.Now() - last_release_time_ <=
            static_cast<SimTime>(config_.flap_window_cycles) *
                config_.pull_cycle) {
        ++flaps_;
        if (m_flaps_ != nullptr) m_flaps_->Inc();
    }
}

void
Controller::NoteRelease()
{
    last_release_time_ = sim_.Now();
    have_release_time_ = true;
}

void
Controller::LogEvent(telemetry::EventKind kind, Watts aggregated, Watts limit,
                     int servers_affected, const std::string& detail)
{
    if (log_ == nullptr) return;
    telemetry::Event event;
    event.time = sim_.Now();
    event.kind = kind;
    event.source = endpoint_;
    event.aggregated_power = aggregated;
    event.limit = limit;
    event.servers_affected = servers_affected;
    event.detail = detail;
    log_->Record(std::move(event));
}

}  // namespace dynamo::core
