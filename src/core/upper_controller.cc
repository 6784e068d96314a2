#include "core/upper_controller.h"

#include <algorithm>
#include <utility>

namespace dynamo::core {

UpperController::UpperController(sim::Simulation& sim,
                                 rpc::Transport& transport,
                                 std::string endpoint, Watts physical_limit,
                                 Watts quota, Config config,
                                 telemetry::EventLog* log)
    : Controller(sim, transport, std::move(endpoint), physical_limit, quota,
                 config.base, log),
      upper_config_(config),
      policy_(policy::MakeCappingPolicy(config.capping_policy))
{
}

void
UpperController::AddChild(const std::string& endpoint)
{
    ChildState state;
    state.endpoint = endpoint;
    state.id = transport_.Resolve(endpoint);
    children_.push_back(std::move(state));
}

bool
UpperController::RemoveChild(const std::string& endpoint)
{
    for (auto it = children_.begin(); it != children_.end(); ++it) {
        if (it->endpoint == endpoint) {
            children_.erase(it);
            return true;
        }
    }
    return false;
}

std::size_t
UpperController::contracted_count() const
{
    std::size_t n = 0;
    for (const ChildState& c : children_) {
        if (c.contracted) ++n;
    }
    return n;
}

std::optional<api::PowerReadResult>
UpperController::LastChildResponse(const std::string& endpoint) const
{
    for (const ChildState& c : children_) {
        if (c.endpoint == endpoint && c.have_last) return c.last;
    }
    return std::nullopt;
}

Watts
UpperController::Floor() const
{
    Watts floor = 0.0;
    for (const ChildState& c : children_) {
        if (c.have_last) floor += c.last.floor;
    }
    return floor;
}

void
UpperController::RunCycle()
{
    const std::uint64_t id = ++cycle_id_;
    for (ChildState& c : children_) c.current.reset();
    for (const ChildState& child : children_) {
        // Failure is implicit: `current` stays empty and Aggregate
        // falls back to the child's cached reading.
        PullWithRetry(child.id, [this, from = child.id](
                                    const api::PowerReadResult& r) {
            // Match by endpoint, not roster slot: a reconfig can drop a
            // child mid-cycle, shifting every later slot. A response
            // from a dropped child finds no match.
            const auto it = std::find_if(
                children_.begin(), children_.end(),
                [from](const ChildState& c) { return c.id == from; });
            if (it != children_.end()) it->current = r;
        });
    }
    sim_.ScheduleAfter(config_.response_wait, [this, id]() {
        if (id != cycle_id_) return;
        Aggregate();
    });
}

void
UpperController::Aggregate()
{
    if (children_.empty()) return;
    const CycleTimer timer(m_cycle_us_);
    if (m_cycles_ != nullptr) m_cycles_->Inc();
    const SimTime now = sim_.Now();

    std::size_t failures = 0;
    Watts aggregated = 0.0;
    // Names are deliberately left empty: the plan refers to fresh
    // children by index (via fresh_child_), so no per-cycle string
    // copies are needed.
    infos_.clear();
    fresh_child_.clear();
    infos_.reserve(children_.size());
    fresh_child_.reserve(children_.size());

    std::size_t adopted = 0;
    for (std::size_t i = 0; i < children_.size(); ++i) {
        ChildState& c = children_[i];
        // A child whose own aggregation was invalid reports a non-ok
        // status; treat it like a pull failure and fall back to its
        // last good value — but only while that cached value is
        // fresher than the TTL.
        if (c.current && c.current->status.ok()) {
            c.last = *c.current;
            c.have_last = true;
            c.last_time = now;
            // The child reports a standing contract this instance
            // never issued — a predecessor's limit surviving our
            // promotion, or an uncap lost in flight. Adopt it so it is
            // reaffirmed, updated, and eventually released through the
            // normal band path instead of stranding the subtree.
            if (!config_.dry_run && c.current->contract && !c.contracted) {
                c.contracted = true;
                c.limit = *c.current->contract;
                c.span = telemetry::kNoSpan;
                ++adopted;
            }
        } else {
            ++failures;
        }
        if (!c.have_last) continue;  // never heard from it; skip
        if (now - c.last_time > ReadingTtl()) continue;  // stale cache
        aggregated += c.last.power;
        ChildPowerInfo info;
        info.power = c.last.power;
        info.quota = c.last.quota;
        info.floor = c.last.floor;
        infos_.push_back(std::move(info));
        fresh_child_.push_back(static_cast<std::uint32_t>(i));
    }
    last_failure_count_ = failures;

    const double failure_fraction = static_cast<double>(failures) /
                                    static_cast<double>(children_.size());
    if (failure_fraction > config_.max_failure_fraction) {
        ++invalid_aggregations_;
        last_valid_ = false;
        LogEvent(telemetry::EventKind::kAlarm, 0.0, EffectiveLimit(),
                 static_cast<int>(failures),
                 "upper-level aggregation invalid");
        UpdateHealth(false);
        return;
    }

    if (adopted > 0) {
        contracts_adopted_ += adopted;
        if (!bands_.capping()) bands_.AdoptCappingEvent();
        LogEvent(telemetry::EventKind::kCapUpdate, aggregated,
                 EffectiveLimit(), static_cast<int>(adopted),
                 "adopted in-flight contracts");
    }

    last_power_ = aggregated;
    last_valid_ = true;
    ++aggregations_;
    UpdateHealth(true);

    const Watts limit = EffectiveLimit();

    policy::PolicyContext pctx;
    pctx.bucket_size = upper_config_.bucket_size;
    pctx.aggregated = aggregated;
    pctx.limit = limit;
    pctx.now = now;
    pctx.cycle_ms = config_.pull_cycle;
    // The fresh-children view is built every cycle anyway, so
    // observing brains track demand here at no extra roster cost.
    if (policy_->WantsObservations()) {
        policy_->ObserveChildren(infos_, pctx);
    }

    const bool was_capping = bands_.capping();
    const BandDecision decision = DecideBand(aggregated, !releases_frozen());

    auto new_span = [&](telemetry::TraceBand band) {
        telemetry::TraceSpan span;
        span.parent = contract_span_;
        span.time = now;
        span.kind = telemetry::SpanKind::kUpperDecision;
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
        pctx.target = decision.target;
        policy_->PlanChildLimits(infos_, decision.cut, pctx, offender_ws_,
                                 &offender_plan_);
        const OffenderPlan& plan = offender_plan_;
        if (!was_capping) NoteCapStart();

        // The span is appended before the contract commands go out so
        // its id can ride along in SetContractualLimitRequest and the
        // children's decisions link back to this one.
        telemetry::SpanId span_id = telemetry::kNoSpan;
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kCap);
            span.threshold = config_.bands.cap_threshold_frac * limit;
            span.target = decision.target;
            span.cut = decision.cut;
            span.planned_cut = plan.planned_cut;
            span.satisfied = plan.satisfied;
            // Record every fresh child, not just the ones the plan
            // cuts: a zero-cut innocent is evidence the split was
            // offender-first, not an omission.
            span.allocs.resize(infos_.size());
            for (std::size_t i = 0; i < infos_.size(); ++i) {
                const ChildPowerInfo& info = infos_[i];
                telemetry::TraceAllocation& alloc = span.allocs[i];
                alloc.target = children_[fresh_child_[i]].endpoint;
                alloc.power = info.power;
                alloc.floor = info.floor;
                alloc.quota = info.quota;
                alloc.offender = info.power > info.quota;
                alloc.bucket =
                    BucketIndex(info.power, upper_config_.bucket_size);
            }
            for (const ChildLimit& child_limit : plan.limits) {
                if (child_limit.index >= span.allocs.size()) continue;
                span.allocs[child_limit.index].cut = child_limit.cut;
                span.allocs[child_limit.index].limit_sent =
                    child_limit.contractual_limit;
            }
            span_id = traces_->Append(std::move(span));
        }

        if (!config_.dry_run) ExecutePlan(plan, span_id);
        LogEvent(was_capping ? telemetry::EventKind::kCapUpdate
                             : telemetry::EventKind::kCapStart,
                 aggregated, limit, static_cast<int>(plan.limits.size()),
                 config_.dry_run ? "dry-run" : "");
        if (m_caps_ != nullptr) m_caps_->Inc();
        if (m_cut_w_ != nullptr) m_cut_w_->Observe(decision.cut);
        if (!plan.satisfied) {
            LogEvent(telemetry::EventKind::kAlarm, aggregated, limit,
                     static_cast<int>(plan.limits.size()),
                     "offender plan unsatisfiable within floors");
        }
    } else if (decision.action == BandAction::kUncap) {
        NoteRelease();
        if (!config_.dry_run) ClearContracts();
        LogEvent(telemetry::EventKind::kUncap, aggregated, limit,
                 static_cast<int>(children_.size()),
                 config_.dry_run ? "dry-run" : "");
        if (m_uncaps_ != nullptr) m_uncaps_->Inc();
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kUncap);
            span.threshold = config_.bands.uncap_threshold_frac * limit;
            traces_->Append(std::move(span));
        }
    } else if (decision.action == BandAction::kHold) {
        ++frozen_releases_;
        LogEvent(telemetry::EventKind::kCapHold, aggregated, limit,
                 static_cast<int>(contracted_count()),
                 std::string("release frozen: health ") +
                     HealthStateName(health()));
        if (m_holds_ != nullptr) m_holds_->Inc();
        if (traces_ != nullptr) {
            telemetry::TraceSpan span = new_span(telemetry::TraceBand::kHold);
            span.threshold = config_.bands.uncap_threshold_frac * limit;
            traces_->Append(std::move(span));
        }
    } else if (!config_.dry_run) {
        // Settled in-band: keep standing contracts alive so children
        // that failed over (losing in-memory state) re-learn them.
        ReaffirmContracts();
    }
}

void
UpperController::ExecutePlan(const OffenderPlan& plan,
                             telemetry::SpanId span_id)
{
    for (const ChildLimit& child_limit : plan.limits) {
        if (child_limit.index >= fresh_child_.size()) continue;
        ChildState& c = children_[fresh_child_[child_limit.index]];
        c.contracted = true;
        c.limit = child_limit.contractual_limit;
        c.span = span_id;
        // A lost update is re-issued next cycle if still needed.
        transport_.Call(c.id,
                        api::ContractUpdate{child_limit.contractual_limit,
                                            span_id, current_epoch()},
                        {}, config_.rpc_timeout);
    }
}

void
UpperController::ReaffirmContracts()
{
    for (ChildState& c : children_) {
        if (!c.contracted) continue;
        ++contracts_reaffirmed_;
        transport_.Call(c.id,
                        api::ContractUpdate{c.limit, c.span, current_epoch()},
                        {}, config_.rpc_timeout);
    }
}

void
UpperController::ClearContracts()
{
    for (ChildState& c : children_) {
        if (!c.contracted) continue;
        c.contracted = false;
        c.limit = 0.0;
        transport_.Call(c.id,
                        api::ContractUpdate{std::nullopt, telemetry::kNoSpan,
                                            current_epoch()},
                        {}, config_.rpc_timeout);
    }
}

void
UpperController::Snapshot(Archive& ar) const
{
    Controller::Snapshot(ar);
    ar.U64(contracts_reaffirmed_);
    ar.U64(contracts_adopted_);
    ar.U64(last_failure_count_);
    // Per-child contract cache: standing limits, the decision spans
    // that set them, and the last-known-good child readings.
    ar.U64(children_.size());
    for (const ChildState& c : children_) {
        ar.Str(c.endpoint);
        ar.Bool(c.contracted);
        ar.F64(c.limit);
        ar.U64(c.span);
        ar.Bool(c.have_last);
        ar.I64(c.last_time);
        ar.F64(c.last.power);
        // `last` is only ever stored from an ok reading, so its
        // validity bit equals have_last; serialized explicitly to keep
        // the checkpoint byte layout identical to the v0 wire structs
        // (the committed golden journal depends on it).
        ar.Bool(c.have_last);
        ar.F64(c.last.quota);
        ar.F64(c.last.floor);
    }
    // Brain state last: three_band writes nothing (pinning the
    // pre-interface checkpoint byte layout the golden journals carry);
    // stateful brains append their forecast state.
    policy_->Snapshot(ar);
}

}  // namespace dynamo::core
