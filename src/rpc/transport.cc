#include "rpc/transport.h"

#include <stdexcept>
#include <utility>

#include "common/archive.h"
#include "telemetry/metrics.h"

namespace dynamo::rpc {

namespace {

void SnapshotRng(Archive& ar, const Rng& rng)
{
    for (const std::uint64_t w : rng.state()) ar.U64(w);
    ar.U64(rng.draws());
}

}  // namespace

// ---------------------------------------------------------------------------
// Transport (shared registry + accounting)
// ---------------------------------------------------------------------------

void
Transport::Register(EndpointId id, RequestHandler handler)
{
    if (id >= handlers_.size()) handlers_.resize(id + 1);
    if (handlers_[id] != nullptr) {
        throw std::logic_error("Transport::Register: endpoint \"" +
                               endpoints_.Name(id) +
                               "\" already has a handler; Unregister first");
    }
    handlers_[id] = std::move(handler);
}

void
Transport::Register(const std::string& endpoint, RequestHandler handler)
{
    Register(endpoints_.Intern(endpoint), std::move(handler));
}

void
Transport::Unregister(EndpointId id)
{
    if (id < handlers_.size()) handlers_[id] = nullptr;
}

void
Transport::Unregister(const std::string& endpoint)
{
    const EndpointId id = endpoints_.Find(endpoint);
    if (id != kInvalidEndpoint) Unregister(id);
}

void
Transport::Deregister(EndpointId id)
{
    Unregister(id);
    endpoints_.Release(endpoints_.Name(id));
}

void
Transport::Deregister(const std::string& endpoint)
{
    const EndpointId id = endpoints_.Find(endpoint);
    if (id != kInvalidEndpoint) Deregister(id);
}

bool
Transport::IsRegistered(const std::string& endpoint) const
{
    const EndpointId id = endpoints_.Find(endpoint);
    return id != kInvalidEndpoint && IsRegistered(id);
}

void
Transport::Call(const std::string& endpoint, Payload request, Completion done,
                SimTime timeout_ms)
{
    Call(endpoints_.Intern(endpoint), std::move(request), std::move(done),
         timeout_ms);
}

void
Transport::AttachMetrics(telemetry::MetricsRegistry* registry)
{
    if (registry == nullptr) {
        m_calls_ = m_ok_ = m_failed_ = m_errors_ = m_timeouts_ = nullptr;
        return;
    }
    m_calls_ = registry->GetCounter("rpc.calls");
    m_ok_ = registry->GetCounter("rpc.ok");
    m_failed_ = registry->GetCounter("rpc.failed");
    m_errors_ = registry->GetCounter("rpc.errors");
    m_timeouts_ = registry->GetCounter("rpc.timeouts");
}

void
Transport::CountIssued(std::uint64_t n)
{
    calls_issued_ += n;
    if (m_calls_ != nullptr) m_calls_->Inc(n);
}

void
Transport::CountOk()
{
    ++calls_succeeded_;
    if (m_ok_ != nullptr) m_ok_->Inc();
}

void
Transport::CountError()
{
    ++calls_failed_;
    ++calls_errored_;
    if (m_failed_ != nullptr) m_failed_->Inc();
    if (m_errors_ != nullptr) m_errors_->Inc();
}

void
Transport::CountTimeout()
{
    ++calls_failed_;
    ++calls_timed_out_;
    if (m_failed_ != nullptr) m_failed_->Inc();
    if (m_timeouts_ != nullptr) m_timeouts_->Inc();
}

// ---------------------------------------------------------------------------
// FailureInjector
// ---------------------------------------------------------------------------

FailureInjector::FailureInjector(std::uint64_t seed, EndpointTable* endpoints)
    : rng_(seed), endpoints_(endpoints)
{
}

void
FailureInjector::Snapshot(Archive& ar) const
{
    SnapshotRng(ar, rng_);
    ar.F64(default_failure_p_);
    ar.U64(override_count_);
    ar.U64(latency_count_);
    ar.U64(down_count_);
    // Per-endpoint fault state, dense by id (ids are interned in a
    // deterministic order, so this is canonical).
    ar.U64(failure_p_.size());
    for (std::size_t i = 0; i < failure_p_.size(); ++i) {
        ar.F64(failure_p_[i]);
        ar.I64(extra_latency_[i]);
        ar.U8(down_[i]);
    }
}

void
FailureInjector::EnsureSize(EndpointId id)
{
    if (id >= failure_p_.size()) {
        failure_p_.resize(id + 1, -1.0);
        extra_latency_.resize(id + 1, 0);
        down_.resize(id + 1, 0);
    }
}

void
FailureInjector::SetEndpointFailureProbability(EndpointId id, double p)
{
    EnsureSize(id);
    if (failure_p_[id] < 0.0) ++override_count_;
    failure_p_[id] = p;
}

void
FailureInjector::SetEndpointFailureProbability(const std::string& endpoint,
                                               double p)
{
    SetEndpointFailureProbability(endpoints_->Intern(endpoint), p);
}

void
FailureInjector::ClearEndpointFailureProbability(EndpointId id)
{
    if (id >= failure_p_.size() || failure_p_[id] < 0.0) return;
    failure_p_[id] = -1.0;
    --override_count_;
}

void
FailureInjector::ClearEndpointFailureProbability(const std::string& endpoint)
{
    const EndpointId id = endpoints_->Find(endpoint);
    if (id != kInvalidEndpoint) ClearEndpointFailureProbability(id);
}

void
FailureInjector::SetEndpointDown(EndpointId id, bool down)
{
    EnsureSize(id);
    if (down && !down_[id]) ++down_count_;
    if (!down && down_[id]) --down_count_;
    down_[id] = down ? 1 : 0;
}

void
FailureInjector::SetEndpointDown(const std::string& endpoint, bool down)
{
    SetEndpointDown(endpoints_->Intern(endpoint), down);
}

bool
FailureInjector::IsEndpointDown(EndpointId id) const
{
    if (down_count_ == 0) return false;
    return id < down_.size() && down_[id] != 0;
}

bool
FailureInjector::IsEndpointDown(const std::string& endpoint) const
{
    const EndpointId id = endpoints_->Find(endpoint);
    return id != kInvalidEndpoint && IsEndpointDown(id);
}

void
FailureInjector::SetEndpointExtraLatency(EndpointId id, SimTime extra)
{
    EnsureSize(id);
    if (extra != 0 && extra_latency_[id] == 0) ++latency_count_;
    if (extra == 0 && extra_latency_[id] != 0) --latency_count_;
    extra_latency_[id] = extra;
}

void
FailureInjector::SetEndpointExtraLatency(const std::string& endpoint,
                                         SimTime extra)
{
    SetEndpointExtraLatency(endpoints_->Intern(endpoint), extra);
}

void
FailureInjector::ClearEndpointExtraLatency(EndpointId id)
{
    SetEndpointExtraLatency(id, 0);
}

void
FailureInjector::ClearEndpointExtraLatency(const std::string& endpoint)
{
    const EndpointId id = endpoints_->Find(endpoint);
    if (id != kInvalidEndpoint) SetEndpointExtraLatency(id, 0);
}

SimTime
FailureInjector::ExtraLatency(const std::string& endpoint) const
{
    if (latency_count_ == 0) return 0;
    const EndpointId id = endpoints_->Find(endpoint);
    return id == kInvalidEndpoint ? 0 : ExtraLatency(id);
}

CallFate
FailureInjector::Decide(EndpointId id)
{
    // Fast path: nothing configured, nothing to look up. This is the
    // steady state of every non-chaos run.
    if (down_count_ == 0 && override_count_ == 0 && default_failure_p_ <= 0.0) {
        return CallFate::kOk;
    }
    if (IsEndpointDown(id)) return CallFate::kFail;
    double p = default_failure_p_;
    if (override_count_ > 0 && id < failure_p_.size() && failure_p_[id] >= 0.0) {
        p = failure_p_[id];
    }
    if (p <= 0.0) return CallFate::kOk;
    if (!rng_.Bernoulli(p)) return CallFate::kOk;
    return rng_.Bernoulli(0.5) ? CallFate::kFail : CallFate::kBlackhole;
}

void
FailureInjector::ClearEndpoint(EndpointId id)
{
    if (id >= failure_p_.size()) return;
    ClearEndpointFailureProbability(id);
    SetEndpointExtraLatency(id, 0);
    SetEndpointDown(id, false);
}

// ---------------------------------------------------------------------------
// SimTransport
// ---------------------------------------------------------------------------

SimTransport::SimTransport(sim::Simulation& sim, std::uint64_t seed, Options options)
    : sim_(sim), rng_(seed), options_(options),
      failures_(seed ^ 0xfeedULL, &endpoints_)
{
}

void
SimTransport::Deregister(EndpointId id)
{
    failures_.ClearEndpoint(id);
    Transport::Deregister(id);
}

void
SimTransport::Call(EndpointId id, Payload request, Completion done,
                   SimTime timeout_ms)
{
    CountIssued();

    const CallFate fate = failures_.Decide(id);
    MixCall(id, fate);
    const SimTime deadline = sim_.Now() + timeout_ms;
    if (fate == CallFate::kBlackhole) {
        const std::uint32_t slot = ParkCall(id, {}, std::move(done), deadline);
        sim_.ScheduleAt(deadline, [this, slot]() { Expire(slot); });
        return;
    }
    if (fate == CallFate::kFail || !IsRegistered(id)) {
        const SimTime latency = options_.request_latency.Sample(rng_);
        const std::uint32_t slot = ParkCall(id, {}, std::move(done), deadline);
        sim_.ScheduleAfter(latency, [this, slot]() { Refuse(slot); });
        return;
    }

    // Both legs are sampled now, so the outcome is known at issue: a
    // response that beats the deadline needs one event and no timer.
    const SimTime there =
        options_.request_latency.Sample(rng_) + failures_.ExtraLatency(id);
    const SimTime back = options_.response_latency.Sample(rng_);
    if (there + back < timeout_ms) {
        const std::uint32_t slot =
            ParkCall(id, std::move(request), std::move(done), deadline);
        sim_.ScheduleAfter(there + back, [this, slot]() { Deliver(slot); });
        return;
    }

    // The response would land at or past the deadline, so the caller
    // times out; the handler still runs when the request arrives, as a
    // slow server on a real network still acts on a request its caller
    // gave up on. The timeout is scheduled first so that, at equal
    // times, it fires before the handler.
    const std::uint32_t waiting = ParkCall(id, {}, std::move(done), deadline);
    sim_.ScheduleAt(deadline, [this, waiting]() { Expire(waiting); });
    const std::uint32_t served = ParkCall(id, std::move(request), {}, deadline);
    sim_.ScheduleAfter(there, [this, served]() { Serve(served); });
}

std::uint32_t
SimTransport::ParkCall(EndpointId target, Payload request, Completion done,
                       SimTime deadline)
{
    std::uint32_t slot = free_call_;
    if (slot == kNoCall) {
        slot = static_cast<std::uint32_t>(calls_.size());
        calls_.emplace_back();
    } else {
        free_call_ = calls_[slot].next_free;
    }
    CallRecord& record = calls_[slot];
    record.request = std::move(request);
    record.done = std::move(done);
    record.deadline = deadline;
    record.target = target;
    return slot;
}

Completion
SimTransport::ReleaseCall(std::uint32_t slot)
{
    CallRecord& record = calls_[slot];
    Completion done = std::move(record.done);
    record.next_free = free_call_;
    free_call_ = slot;
    return done;
}

void
SimTransport::Deliver(std::uint32_t slot)
{
    const EndpointId target = calls_[slot].target;
    if (!IsRegistered(target)) {
        // The endpoint crashed while the call was in flight: the
        // request is lost and the caller learns only at its deadline.
        sim_.ScheduleAt(calls_[slot].deadline,
                        [this, slot]() { Expire(slot); });
        return;
    }
    // Take the request and completion out first: the handler and the
    // completion may issue calls, and a growing slab moves records.
    const Payload request = std::move(calls_[slot].request);
    Completion done = ReleaseCall(slot);
    const Payload response = handlers_[target](request);
    CountOk();
    if (done) done(Reply(response));
}

void
SimTransport::Serve(std::uint32_t slot)
{
    const EndpointId target = calls_[slot].target;
    const Payload request = std::move(calls_[slot].request);
    ReleaseCall(slot);
    if (IsRegistered(target)) handlers_[target](request);
}

void
SimTransport::Expire(std::uint32_t slot)
{
    Completion done = ReleaseCall(slot);
    CountTimeout();
    if (done) done(Reply(kTimeout));
}

void
SimTransport::Refuse(std::uint32_t slot)
{
    Completion done = ReleaseCall(slot);
    CountError();
    if (done) done(Reply(kConnectionFailed));
}

std::size_t
SimTransport::CallBatch(std::vector<BatchItem> batch)
{
    if (batch.empty()) return 0;
    const std::size_t n = batch.size();
    CountIssued(n);

    // Decide every fate at issue time (as Call does) so the injector's
    // RNG stream and the observer's record reflect issue order.
    std::vector<CallFate> fates(n);
    for (std::size_t i = 0; i < n; ++i) {
        fates[i] = failures_.Decide(batch[i].target);
        MixCall(batch[i].target, fates[i]);
    }

    const SimTime latency = options_.request_latency.Sample(rng_);
    sim_.ScheduleAfter(
        latency,
        [this, batch = std::move(batch), fates = std::move(fates)]() {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                // Re-resolve at delivery time, exactly like Call: an
                // endpoint that crashed while the batch was in flight
                // drops its items.
                if (fates[i] != CallFate::kOk ||
                    !IsRegistered(batch[i].target)) {
                    CountError();
                    continue;
                }
                handlers_[batch[i].target](batch[i].payload);
                CountOk();
            }
        });
    return n;
}

void
SimTransport::MixCall(EndpointId id, CallFate fate)
{
    if (call_digest_ == nullptr) return;
    call_digest_->Mix(id);
    call_digest_->Mix(static_cast<std::uint64_t>(fate));
    call_digest_->Mix(static_cast<std::uint64_t>(sim_.Now()));
}

void
SimTransport::Snapshot(Archive& ar) const
{
    ar.U64(calls_issued());
    ar.U64(calls_succeeded());
    ar.U64(calls_failed());
    ar.U64(endpoints_.size());
    SnapshotRng(ar, rng_);
    failures_.Snapshot(ar);
}

}  // namespace dynamo::rpc
