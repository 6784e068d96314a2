#include "core/failover.h"

#include "core/api.h"

namespace dynamo::core {

FailoverManager::FailoverManager(sim::Simulation& sim,
                                 rpc::Transport& transport,
                                 Controller& primary, Controller& backup,
                                 SimTime check_period, int miss_threshold,
                                 telemetry::EventLog* log)
    : sim_(sim),
      transport_(transport),
      primary_(primary),
      backup_(backup),
      miss_threshold_(miss_threshold),
      log_(log)
{
    task_ = sim_.SchedulePeriodic(check_period, [this]() { Check(); });
}

void
FailoverManager::Promote()
{
    switched_ = true;
    // Make sure a half-dead primary stops acting, then promote
    // the backup under the same logical endpoint.
    primary_.Deactivate();
    backup_.Activate();
    if (log_ != nullptr) {
        telemetry::Event event;
        event.time = sim_.Now();
        event.kind = telemetry::EventKind::kFailover;
        event.source = primary_.endpoint();
        log_->Record(std::move(event));
    }
}

void
FailoverManager::ForceSwitch()
{
    if (switched_) return;
    Promote();
}

bool
FailoverManager::WarmSwap()
{
    if (switched_) return false;
    switched_ = true;
    backup_.InheritContract(primary_);
    primary_.Deactivate();
    backup_.Activate();
    if (log_ != nullptr) {
        telemetry::Event event;
        event.time = sim_.Now();
        event.kind = telemetry::EventKind::kFailover;
        event.source = primary_.endpoint();
        event.detail = "planned warm swap";
        log_->Record(std::move(event));
    }
    return true;
}

void
FailoverManager::Check()
{
    if (switched_) return;
    transport_.Call(
        primary_.endpoint_id(), api::HealthProbe{},
        [this](const rpc::Reply& reply) {
            if (reply.ok()) {
                misses_ = 0;
                return;
            }
            ++misses_;
            if (misses_ < miss_threshold_ || switched_) return;
            Promote();
        },
        /*timeout_ms=*/1000);
}

}  // namespace dynamo::core
