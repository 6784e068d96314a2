#include "workload/load_process.h"

#include <algorithm>
#include <limits>

#include "common/decay.h"

namespace dynamo::workload {

LoadProcessParams
LoadProcessParams::For(ServiceType service)
{
    // Calibrated against the Fig. 6 per-service 60 s power-variation
    // distributions (see tests/workload_variation_test.cc for the
    // ordering checks and bench_fig06 for the measured p50/p99).
    LoadProcessParams p;
    switch (service) {
      case ServiceType::kWeb:
        p.base_util = 0.45;
        p.ou_sigma = 0.38;
        p.ou_tau_s = 25.0;
        p.spike_rate_per_hour = 2.0;
        p.spike_util = 0.10;
        p.spike_shape = 2.5;
        p.spike_dur_s = 30.0;
        break;
      case ServiceType::kCache:
        p.base_util = 0.40;
        p.ou_sigma = 0.105;
        p.ou_tau_s = 40.0;
        p.spike_rate_per_hour = 1.0;
        p.spike_util = 0.10;
        p.spike_shape = 2.5;
        p.spike_dur_s = 30.0;
        break;
      case ServiceType::kHadoop:
        p.base_util = 0.60;
        p.ou_sigma = 0.135;
        p.ou_tau_s = 90.0;
        p.spike_rate_per_hour = 4.0;
        p.spike_util = 0.12;
        p.spike_shape = 2.2;
        p.spike_dur_s = 90.0;
        break;
      case ServiceType::kDatabase:
        p.base_util = 0.35;
        p.ou_sigma = 0.21;
        p.ou_tau_s = 45.0;
        p.spike_rate_per_hour = 3.0;
        p.spike_util = 0.12;
        p.spike_shape = 2.5;
        p.spike_dur_s = 60.0;
        break;
      case ServiceType::kNewsfeed:
        p.base_util = 0.50;
        p.ou_sigma = 0.46;
        p.ou_tau_s = 30.0;
        p.spike_rate_per_hour = 4.0;
        p.spike_util = 0.25;
        p.spike_shape = 2.0;
        p.spike_dur_s = 45.0;
        break;
      case ServiceType::kF4Storage:
        p.base_util = 0.22;
        p.ou_sigma = 0.13;
        p.ou_tau_s = 60.0;
        p.spike_rate_per_hour = 0.8;
        p.spike_util = 0.55;
        p.spike_shape = 1.75;
        p.spike_dur_s = 50.0;
        break;
    }
    return p;
}

LoadProcess::LoadProcess(LoadProcessParams params, Rng rng,
                         const TrafficModel* traffic)
    : params_(params), rng_(rng), traffic_(traffic)
{
}

void
LoadProcess::AdvanceTo(SimTime now)
{
    if (!started_) {
        started_ = true;
        last_time_ = now;
        // Start the OU fluctuation in its stationary distribution and
        // draw the first burst arrival.
        ou_state_ = rng_.Normal(0.0, params_.ou_sigma);
        const double gap_s =
            rng_.Exponential(params_.spike_rate_per_hour / 3600.0);
        // The draw is kept at rate 0 so RNG streams do not move, but
        // its +inf gap has no SimTime: park the burst at "never", as
        // the roll-forward loop below does.
        spike_start_ = params_.spike_rate_per_hour > 0.0
                           ? now + Seconds(gap_s)
                           : std::numeric_limits<SimTime>::max();
        spike_end_ = spike_start_;
        spike_mag_ = 0.0;
        return;
    }
    if (now <= last_time_) return;

    // Exact OU step: valid for any dt, which is what makes lazy
    // advancement sound.
    const DecayTerms step = DecayOver(now - last_time_, params_.ou_tau_s);
    last_time_ = now;
    const double noise_std = params_.ou_sigma * step.root;
    ou_state_ = ou_state_ * step.decay + rng_.Normal(0.0, noise_std);

    // Roll the burst process forward past `now`. Bursts that started
    // and ended entirely between two reads are skipped, just as a 3 s
    // sampler misses sub-interval bursts in production.
    while (now >= spike_end_) {
        if (params_.spike_rate_per_hour <= 0.0) {
            spike_start_ = spike_end_ = std::numeric_limits<SimTime>::max();
            spike_mag_ = 0.0;
            break;
        }
        const double gap_s =
            rng_.Exponential(params_.spike_rate_per_hour / 3600.0);
        const double dur_s = rng_.Exponential(1.0 / params_.spike_dur_s);
        spike_start_ = spike_end_ + Seconds(gap_s);
        spike_end_ = spike_start_ + Seconds(dur_s);
        spike_mag_ = rng_.Pareto(params_.spike_util, params_.spike_shape);
    }
}

double
LoadProcess::UtilAt(SimTime now)
{
    AdvanceTo(now);
    double traffic_factor = traffic_ ? traffic_->FactorAt(now) : 1.0;
    traffic_factor *= balancer_factor_ * shed_factor_;
    double util = params_.base_util * traffic_factor * (1.0 + ou_state_);
    if (now >= spike_start_ && now < spike_end_) util += spike_mag_;
    return std::clamp(util, params_.min_util, 1.0);
}

void
LoadProcess::Snapshot(Archive& ar) const
{
    ar.F64(balancer_factor_);
    ar.F64(shed_factor_);
    ar.F64(ou_state_);
    ar.I64(last_time_);
    ar.Bool(started_);
    ar.I64(spike_start_);
    ar.I64(spike_end_);
    ar.F64(spike_mag_);
    for (const std::uint64_t w : rng_.state()) ar.U64(w);
    ar.U64(rng_.draws());
}

}  // namespace dynamo::workload
