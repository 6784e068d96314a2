#include "core/leaf_controller.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace dynamo::core {

LeafController::LeafController(sim::Simulation& sim, rpc::Transport& transport,
                               std::string endpoint, power::PowerDevice& device,
                               Config config, telemetry::EventLog* log)
    : Controller(sim, transport, std::move(endpoint), device.rated_power(),
                 device.quota(), config.base, log),
      device_(device),
      leaf_config_(config),
      policy_(policy::MakeCappingPolicy(config.capping_policy))
{
}

void
LeafController::AddAgent(const AgentInfo& info)
{
    AgentState state;
    state.id = transport_.Resolve(info.endpoint);
    state.service = info.service;
    state.priority_group = info.priority_group;
    state.sla_min_cap = info.sla_min_cap;
    state.nominal_power = info.nominal_power;
    agents_.push_back(state);
}

std::size_t
LeafController::capped_count() const
{
    std::size_t n = 0;
    for (const AgentState& a : agents_) {
        if (a.capped) ++n;
    }
    return n;
}

Watts
LeafController::Floor() const
{
    Watts floor = last_noncappable_;
    for (const AgentState& a : agents_) floor += a.sla_min_cap;
    return floor;
}

void
LeafController::RunCycle()
{
    const std::uint64_t id = ++cycle_id_;
    for (AgentState& a : agents_) a.current.reset();
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        // Failure is implicit: `current` stays empty and Aggregate
        // substitutes an estimate.
        PullWithRetry(agents_[i].id, [this, i](const api::PowerReadResult& r) {
            if (r.status.ok()) {
                agents_[i].current =
                    Reading{r.power, r.power_limit, r.estimated, r.capped};
            }
        });
    }
    sim_.ScheduleAfter(config_.response_wait, [this, id]() {
        if (id != cycle_id_) return;
        Aggregate();
    });
}

void
LeafController::ValidateAgainstBreaker(Watts aggregated)
{
    if (breaker_telemetry_ == nullptr || aggregated <= 0.0) return;
    const auto reading = breaker_telemetry_->last();
    if (!reading) return;
    // Ignore stale readings (e.g. around a telemetry outage).
    if (sim_.Now() - reading->time > 2 * breaker_telemetry_->period()) return;

    last_mismatch_ = (reading->power - aggregated) / reading->power;
    if (std::abs(last_mismatch_) > leaf_config_.mismatch_alarm_frac) {
        ++validation_alarms_;
        LogEvent(telemetry::EventKind::kAlarm, aggregated, EffectiveLimit(), 0,
                 "aggregation disagrees with breaker reading");
        return;
    }
    if (std::abs(last_mismatch_) < leaf_config_.tune_deadband_frac) return;

    // Attribute the residual to the estimation models: the breaker
    // reading minus trusted sensor power is what the sensorless
    // servers actually drew; scale their estimates toward it.
    Watts sensor_sum = 0.0;
    Watts estimate_sum = 0.0;
    for (const AgentState& a : agents_) {
        if (!a.current) continue;
        (a.current->estimated ? estimate_sum : sensor_sum) += a.current->power;
    }
    if (estimate_sum <= 0.0) return;
    const Watts implied = reading->power - sensor_sum - last_noncappable_;
    double ratio = implied / estimate_sum;
    ratio = std::clamp(ratio, 0.5, 2.0);
    for (const AgentState& a : agents_) {
        if (!a.current || !a.current->estimated) continue;
        ++tunes_sent_;
        transport_.Call(a.id, api::TuneEstimate{ratio}, {},
                        config_.rpc_timeout);
    }
}

Watts
LeafController::EstimateFor(AgentState& agent)
{
    // The agent's own recent reading beats any cross-server estimate:
    // use the last-known-good value while it is fresher than the TTL.
    if (agent.have_last && sim_.Now() - agent.last_time <= ReadingTtl()) {
        ++cache_hits_;
        return agent.last_power;
    }
    // Then the mean of this cycle's successful readings from the same
    // service — "estimate the power reading for the failed servers
    // using power readings from neighboring servers running similar
    // workloads".
    Watts sum = 0.0;
    std::size_t n = 0;
    for (const AgentState& other : agents_) {
        if (!other.current) continue;
        if (other.service != agent.service) continue;
        sum += other.current->power;
        ++n;
    }
    if (n > 0) return sum / static_cast<double>(n);
    if (agent.have_last) return agent.last_power;
    return agent.nominal_power;
}

void
LeafController::Aggregate()
{
    if (agents_.empty()) return;
    const CycleTimer timer(m_cycle_us_);
    if (m_cycles_ != nullptr) m_cycles_->Inc();
    const SimTime now = sim_.Now();

    std::size_t failures = 0;
    for (const AgentState& a : agents_) {
        if (!a.current) ++failures;
    }
    last_failure_count_ = failures;

    const double failure_fraction =
        static_cast<double>(failures) / static_cast<double>(agents_.size());
    if (failure_fraction > config_.max_failure_fraction) {
        // Too many unknowns to act safely: raise an alarm for human
        // intervention rather than risk a false-positive cap storm.
        ++invalid_aggregations_;
        last_valid_ = false;
        LogEvent(telemetry::EventKind::kAlarm, 0.0, EffectiveLimit(),
                 static_cast<int>(failures), "power aggregation invalid");
        UpdateHealth(false);
        return;
    }

    last_noncappable_ = device_.NonCappableLoadPower(now);
    Watts aggregated = last_noncappable_;
    powers_.assign(agents_.size(), 0.0);
    std::vector<Watts>& powers = powers_;
    std::size_t adopted = 0;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        AgentState& a = agents_[i];
        if (a.current) {
            powers[i] = a.current->power;
            a.last_power = a.current->power;
            a.have_last = true;
            a.last_time = now;
            // Caps in force that this instance didn't issue — a
            // predecessor's capping event surviving failover, or a
            // lost uncap command. Adopt them so they are updated and
            // eventually released through the normal band path
            // instead of being stranded on the servers.
            if (!config_.dry_run && a.current->capped && !a.capped) {
                a.capped = true;
                a.cap = a.current->power_limit;
                ++adopted;
            }
        } else {
            powers[i] = EstimateFor(a);
            ++estimated_readings_;
        }
        aggregated += powers[i];
    }
    if (adopted > 0) {
        caps_adopted_ += adopted;
        if (!bands_.capping()) bands_.AdoptCappingEvent();
        LogEvent(telemetry::EventKind::kCapUpdate, aggregated,
                 EffectiveLimit(), static_cast<int>(adopted),
                 "adopted in-flight caps");
    }

    last_power_ = aggregated;
    last_valid_ = true;
    ++aggregations_;
    UpdateHealth(true);

    ValidateAgainstBreaker(aggregated);

    const Watts limit = EffectiveLimit();

    // Roster view for the brain. Names are deliberately left empty:
    // plans refer to agents by index, so no per-cycle string copies
    // are needed. Stateless brains only see it while capping (the
    // pre-interface hot path); observing brains get it every valid
    // cycle so they can track demand between episodes.
    auto fill_infos = [&]() {
        infos_.resize(agents_.size());
        for (std::size_t i = 0; i < agents_.size(); ++i) {
            infos_[i].power = powers[i];
            infos_[i].priority_group = agents_[i].priority_group;
            infos_[i].sla_min_cap = agents_[i].sla_min_cap;
        }
    };
    policy::PolicyContext pctx;
    pctx.bucket_size = leaf_config_.bucket_size;
    pctx.aggregated = aggregated;
    pctx.limit = limit;
    pctx.now = now;
    pctx.cycle_ms = config_.pull_cycle;
    const bool observing = policy_->WantsObservations();
    if (observing) {
        fill_infos();
        policy_->ObserveServers(infos_, pctx);
    }

    const bool was_capping = bands_.capping();
    const BandDecision decision = DecideBand(aggregated, !releases_frozen());

    // Decision spans share this header; each branch fills in the band
    // evidence and (for caps) the per-group / per-server split.
    auto new_span = [&](telemetry::TraceBand band) {
        telemetry::TraceSpan span;
        span.parent = contract_span_;
        span.time = now;
        span.kind = telemetry::SpanKind::kLeafDecision;
        span.source = endpoint();
        span.band = band;
        span.was_capping = was_capping;
        span.epoch = current_epoch();
        span.measured = aggregated;
        span.limit = limit;
        span.dry_run = config_.dry_run;
        return span;
    };

    if (decision.action == BandAction::kCap) {
        if (!observing) fill_infos();
        pctx.target = decision.target;
        policy_->PlanServerCuts(infos_, decision.cut, pctx, capping_ws_,
                                &capping_plan_);
        const CappingPlan& plan = capping_plan_;
        if (!was_capping) NoteCapStart();
        if (!config_.dry_run) ExecuteCapPlan(plan);
        LogEvent(was_capping ? telemetry::EventKind::kCapUpdate
                             : telemetry::EventKind::kCapStart,
                 aggregated, limit, static_cast<int>(plan.assignments.size()),
                 config_.dry_run ? "dry-run" : "");
        if (m_caps_ != nullptr) m_caps_->Inc();
        if (m_cut_w_ != nullptr) m_cut_w_->Observe(decision.cut);
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kCap);
            span.threshold = config_.bands.cap_threshold_frac * limit;
            span.target = decision.target;
            span.cut = decision.cut;
            span.planned_cut = plan.planned_cut;
            span.satisfied = plan.satisfied;
            std::map<int, std::pair<Watts, int>> by_group;
            for (const CapAssignment& assignment : plan.assignments) {
                if (assignment.index >= agents_.size()) continue;
                const AgentState& a = agents_[assignment.index];
                auto& group = by_group[a.priority_group];
                group.first += assignment.cut;
                ++group.second;
                telemetry::TraceAllocation alloc;
                alloc.target = agent_endpoint(assignment.index);
                alloc.power = powers[assignment.index];
                alloc.floor = a.sla_min_cap;
                alloc.cut = assignment.cut;
                alloc.limit_sent = assignment.cap;
                alloc.bucket = BucketIndex(powers[assignment.index],
                                           leaf_config_.bucket_size);
                span.allocs.push_back(std::move(alloc));
            }
            for (const auto& [pg, cut_servers] : by_group) {
                span.groups.push_back(telemetry::TraceGroupCut{
                    pg, cut_servers.first, cut_servers.second});
            }
            traces_->Append(std::move(span));
        }
        if (!plan.satisfied) {
            LogEvent(telemetry::EventKind::kAlarm, aggregated, limit,
                     static_cast<int>(plan.assignments.size()),
                     "power cut unsatisfiable within SLA floors");
            // Emergency response: capping has bottomed out at the SLA
            // floors; ask the traffic layer to drain part of the load.
            // Escalates while the plan stays unsatisfiable — RAPL caps
            // pin power at the floors, so only draining demand (and
            // with it the floor-level draw) closes the remaining gap.
            if (shedder_ != nullptr && !config_.dry_run) {
                const Watts missing = decision.cut - plan.planned_cut;
                shed_fraction_ = std::clamp(
                    shed_fraction_ +
                        leaf_config_.shed_margin * missing / aggregated,
                    0.0, 0.9);
                shedder_->RequestShed(endpoint(), shed_fraction_);
                shedding_ = true;
                ++sheds_requested_;
                LogEvent(telemetry::EventKind::kLoadShed, aggregated, limit,
                         static_cast<int>(agents_.size()),
                         "shed " + std::to_string(shed_fraction_));
            }
        }
    } else if (decision.action == BandAction::kUncap) {
        NoteRelease();
        if (!config_.dry_run) ExecuteUncap();
        if (shedding_ && shedder_ != nullptr) {
            shedder_->ClearShed(endpoint());
            shedding_ = false;
            shed_fraction_ = 0.0;
        }
        LogEvent(telemetry::EventKind::kUncap, aggregated, limit,
                 static_cast<int>(agents_.size()),
                 config_.dry_run ? "dry-run" : "");
        if (m_uncaps_ != nullptr) m_uncaps_->Inc();
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kUncap);
            span.threshold = config_.bands.uncap_threshold_frac * limit;
            traces_->Append(std::move(span));
        }
    } else if (decision.action == BandAction::kHold) {
        // A release was due but the controller is not back to NORMAL
        // health: hold current caps rather than uncap on data we only
        // just started trusting again.
        ++frozen_releases_;
        LogEvent(telemetry::EventKind::kCapHold, aggregated, limit,
                 static_cast<int>(capped_count()),
                 std::string("release frozen: health ") +
                     HealthStateName(health()));
        if (m_holds_ != nullptr) m_holds_->Inc();
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kHold);
            span.threshold = config_.bands.uncap_threshold_frac * limit;
            traces_->Append(std::move(span));
        }
    }
}

void
LeafController::ExecuteCapPlan(const CappingPlan& plan)
{
    for (const CapAssignment& assignment : plan.assignments) {
        if (assignment.index >= agents_.size()) continue;
        AgentState& a = agents_[assignment.index];
        a.capped = true;
        a.cap = assignment.cap;
        // A lost cap command is retried implicitly: the next cycle
        // re-evaluates and re-issues caps as needed.
        transport_.Call(a.id, api::CapRequest{assignment.cap}, {},
                        config_.rpc_timeout);
    }
}

void
LeafController::ExecuteUncap()
{
    for (AgentState& a : agents_) {
        if (!a.capped) continue;
        a.capped = false;
        a.cap = 0.0;
        transport_.Call(a.id, api::CapRequest{std::nullopt}, {},
                        config_.rpc_timeout);
    }
}

void
LeafController::Snapshot(Archive& ar) const
{
    Controller::Snapshot(ar);
    ar.U64(estimated_readings_);
    ar.U64(cache_hits_);
    ar.U64(caps_adopted_);
    ar.U64(last_failure_count_);
    ar.F64(last_noncappable_);
    ar.Bool(shedding_);
    ar.F64(shed_fraction_);
    ar.U64(sheds_requested_);
    ar.U64(tunes_sent_);
    ar.U64(validation_alarms_);
    ar.F64(last_mismatch_);
    // Per-agent cache: the last-known-good readings (TTL-patched on
    // pull failure) and the caps this instance believes are in force.
    ar.U64(agents_.size());
    for (const AgentState& a : agents_) {
        ar.Str(transport_.endpoints().Name(a.id));
        ar.F64(a.last_power);
        ar.Bool(a.have_last);
        ar.I64(a.last_time);
        ar.Bool(a.capped);
        ar.F64(a.cap);
    }
    // Brain state last: three_band writes nothing (pinning the
    // pre-interface checkpoint byte layout the golden journals carry);
    // stateful brains append their forecast state.
    policy_->Snapshot(ar);
}

}  // namespace dynamo::core
