#include "server/sim_server.h"

#include <algorithm>
#include <utility>

#include "common/archive.h"

namespace dynamo::server {

SimServer::SimServer(Config config, workload::LoadProcessParams params,
                     const workload::TrafficModel* traffic)
    : name_(std::move(config.name)),
      spec_(config.spec_override.value_or(
          ServerPowerSpec::For(config.generation))),
      platform_(PlatformSpec::For(config.rapl_access.value_or(
          config.generation == ServerGeneration::kWestmere2011
              ? RaplAccess::kMsr
              : RaplAccess::kIpmiNodeManager))),
      perf_(workload::PerfModelParams::For(config.service)),
      rng_(config.seed),
      load_(params, rng_.Split(0x10ad), traffic),
      rapl_(config.rapl_tau_s),
      sensor_(),
      estimator_(spec_),
      generation_(config.generation),
      service_(config.service),
      has_sensor_(config.has_sensor),
      turbo_enabled_(config.turbo_enabled)
{
    // Anchor the lazy clock at t=0 so the first external read accrues
    // work over a well-defined interval.
    AdvanceTo(0);
}

void
SimServer::ApplyPendingCommand(SimTime now)
{
    if (pending_ == PendingCommand::kNone || now < pending_effective_) return;
    if (pending_ == PendingCommand::kSet) {
        rapl_.SetLimit(pending_limit_);
    } else {
        rapl_.ClearLimit();
    }
    pending_ = PendingCommand::kNone;
}

void
SimServer::AdvanceTo(SimTime now)
{
    if (now <= last_time_ && last_time_ >= 0) return;
    ApplyPendingCommand(now);
    const SimTime prev = last_time_;
    last_time_ = now;

    cached_util_ = load_.UtilAt(now);
    if (dark_) {
        cached_demand_ = 0.0;
        cached_actual_ = 0.0;
        // Demanded work keeps accruing while dark: the outage costs it.
        if (prev >= 0) {
            const double dt_s = ToSeconds(now - prev);
            demanded_work_ +=
                cached_util_ * dt_s *
                (turbo_enabled_ ? spec_.turbo_perf_mult : 1.0);
        }
        return;
    }

    cached_demand_ = PowerAtUtil(spec_, cached_util_, turbo_enabled_);
    cached_actual_ = rapl_.Apply(cached_demand_, now);

    if (prev >= 0) {
        const double dt_s = ToSeconds(now - prev);
        const double perf_mult =
            turbo_enabled_ ? spec_.turbo_perf_mult : 1.0;
        const double demanded_rate = cached_util_ * perf_mult;
        const double reduction =
            cached_demand_ > 0.0
                ? std::max(0.0, 1.0 - cached_actual_ / cached_demand_)
                : 0.0;
        const double throttle = workload::ThrottleFactor(perf_, reduction);
        demanded_work_ += demanded_rate * dt_s;
        delivered_work_ += demanded_rate * throttle * dt_s;
    }
}

Watts
SimServer::PowerAt(SimTime now)
{
    AdvanceTo(now);
    return cached_actual_;
}

void
SimServer::OnPowerLost(SimTime now)
{
    AdvanceTo(now);
    dark_ = true;
    cached_demand_ = 0.0;
    cached_actual_ = 0.0;
}

void
SimServer::OnPowerRestored(SimTime now)
{
    AdvanceTo(now);
    dark_ = false;
}

void
SimServer::SetPowerLimit(Watts limit, SimTime now)
{
    AdvanceTo(now);
    const Watts quantized = platform_.Quantize(limit);
    if (platform_.actuation_delay_ms <= 0) {
        rapl_.SetLimit(quantized);
        pending_ = PendingCommand::kNone;
        return;
    }
    pending_ = PendingCommand::kSet;
    pending_limit_ = quantized;
    pending_effective_ = now + platform_.actuation_delay_ms;
}

void
SimServer::ClearPowerLimit(SimTime now)
{
    AdvanceTo(now);
    if (platform_.actuation_delay_ms <= 0) {
        rapl_.ClearLimit();
        pending_ = PendingCommand::kNone;
        return;
    }
    pending_ = PendingCommand::kClear;
    pending_effective_ = now + platform_.actuation_delay_ms;
}

Watts
SimServer::SensorRead(SimTime now)
{
    AdvanceTo(now);
    return sensor_.Read(cached_actual_, rng_);
}

Watts
SimServer::EstimateRead(SimTime now)
{
    AdvanceTo(now);
    return estimator_.Estimate(cached_util_, rng_);
}

SimServer::Breakdown
SimServer::BreakdownAt(SimTime now)
{
    AdvanceTo(now);
    // Synthetic but stable decomposition: the conversion loss tracks
    // total draw; the CPU share grows with utilization.
    const Watts total = cached_actual_;
    const Watts loss = total * 0.06;
    const Watts usable = total - loss;
    const double cpu_share = 0.35 + 0.35 * cached_util_;
    const Watts cpu = usable * cpu_share;
    const Watts memory = usable * 0.18;
    return Breakdown{cpu, memory, usable - cpu - memory, loss};
}

double
SimServer::UtilAt(SimTime now)
{
    AdvanceTo(now);
    return cached_util_;
}

Watts
SimServer::DemandedPowerAt(SimTime now)
{
    AdvanceTo(now);
    return cached_demand_;
}

double
SimServer::SlowdownPercentAt(SimTime now)
{
    AdvanceTo(now);
    if (cached_demand_ <= 0.0) return 0.0;
    const double reduction_pct =
        std::max(0.0, 1.0 - cached_actual_ / cached_demand_) * 100.0;
    return workload::SlowdownPercent(perf_, reduction_pct);
}

void
SimServer::Snapshot(dynamo::Archive& ar) const
{
    ar.Str(name_);
    ar.Bool(turbo_enabled_);
    load_.Snapshot(ar);
    // RAPL actuator: limit plus the settled output (the settling
    // trajectory is fully determined by `actual` and subsequent reads).
    ar.Bool(rapl_.has_limit());
    ar.F64(rapl_.limit());
    ar.F64(rapl_.actual());
    ar.U8(static_cast<std::uint8_t>(pending_));
    ar.F64(pending_limit_);
    ar.I64(pending_effective_);
    ar.Bool(dark_);
    ar.I64(last_time_);
    ar.F64(cached_util_);
    ar.F64(cached_demand_);
    ar.F64(cached_actual_);
    ar.F64(demanded_work_);
    ar.F64(delivered_work_);
    ar.F64(estimator_.bias_frac());
    for (const std::uint64_t w : rng_.state()) ar.U64(w);
    ar.U64(rng_.draws());
}

}  // namespace dynamo::server
