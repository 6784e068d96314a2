/**
 * @file
 * RPC transport: the abstract channel interface plus the simulated
 * implementation.
 *
 * Production Dynamo uses Thrift between controllers and agents; the
 * control logic only depends on the *semantics* of that channel:
 * asynchronous request/response, millisecond-scale latency, and the
 * possibility of failures and timeouts. `Transport` captures exactly
 * those semantics, so agents and controllers run unchanged against
 * either implementation:
 *
 *   - `SimTransport` (this file) reproduces them on the simulation
 *     kernel with an injectable failure policy, so tests can exercise
 *     the paper's resilience behaviours deterministically; and
 *   - `SocketTransport` (socket_transport.h) carries the same calls
 *     over real TCP / Unix-domain sockets for the daemonized
 *     deployment mode (tools/dynamo_agentd, tools/dynamo_controllerd).
 *
 * Both implementations share the accounting contract: every call ends
 * in exactly one of ok / error / timeout, errors ("connection failed")
 * and timeouts ("timeout") are counted separately, and the same
 * `rpc.*` metric names are exported — a capping episode debugged
 * against the simulator reads identically in production telemetry.
 *
 * Endpoints are interned (see endpoint.h): the hot path — handler
 * dispatch and fault decisions on every call — indexes dense vectors
 * by `EndpointId`. String-keyed overloads remain for construction and
 * test edges and resolve through the intern table.
 */
#ifndef DYNAMO_RPC_TRANSPORT_H_
#define DYNAMO_RPC_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/inline_function.h"
#include "common/rng.h"
#include "common/units.h"
#include "rpc/endpoint.h"
#include "rpc/payload.h"
#include "sim/simulation.h"

namespace dynamo {
class Archive;
class HashAccumulator;
}  // namespace dynamo

namespace dynamo::telemetry {
class Counter;
class MetricsRegistry;
}  // namespace dynamo::telemetry

namespace dynamo::rpc {

/** Server-side handler: consumes a request, produces a response. */
using RequestHandler = std::function<Payload(const Payload&)>;

/** The failure reasons both transports share (the parity contract). */
inline constexpr std::string_view kConnectionFailed = "connection failed";
inline constexpr std::string_view kTimeout = "timeout";

/**
 * How one call ended, as handed to its completion: the response on
 * success, else a human-readable failure reason — kConnectionFailed,
 * kTimeout, or a reason a socket peer reported. Both views borrow
 * storage that lives only while the completion runs.
 */
class Reply
{
  public:
    explicit Reply(const Payload& response) : response_(&response) {}
    explicit Reply(std::string_view error) : error_(error) {}

    bool ok() const { return response_ != nullptr; }

    /** The response; only valid when ok(). */
    const Payload& response() const { return *response_; }

    /** The response as api message `T`; nullptr on failure or when the
     *  responder sent another message type. */
    template <typename T>
    const T* get() const
    {
        return response_ == nullptr ? nullptr : std::get_if<T>(response_);
    }

    /** The failure reason; empty when ok(). */
    std::string_view error() const { return error_; }

  private:
    const Payload* response_ = nullptr;
    std::string_view error_;
};

/**
 * Client-side completion: runs exactly once per call with its Reply.
 * Move-only, with inline room for a controller's retry wrapper (which
 * carries the caller's own pull callback), so issuing a call allocates
 * nothing. A default-constructed (empty) completion discards the
 * outcome — the fire-and-forget form of Call.
 */
using Completion = InlineFunction<64, void(const Reply&)>;

/** One element of a batched delivery (see Transport::CallBatch). */
struct BatchItem
{
    /** Target endpoint, interned in *this* transport. */
    EndpointId target = kInvalidEndpoint;

    Payload payload;
};

/**
 * Abstract RPC channel: endpoint registry, handler dispatch, and
 * asynchronous call issue with shared success/error/timeout
 * accounting. Implementations decide how a call travels (simulated
 * kernel events vs. real sockets); the failure vocabulary is fixed:
 *
 *   - `Reply::error() == kConnectionFailed` — the endpoint refused,
 *     reset, or does not serve (counted in `rpc.errors`);
 *   - `Reply::error() == kTimeout` — no response within the deadline
 *     (counted in `rpc.timeouts`).
 *
 * A call's completion runs exactly once, always at a later point of
 * the owning event loop — never re-entrantly from Call().
 */
class Transport
{
  public:
    Transport() = default;
    virtual ~Transport() = default;

    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    /** Intern `name`, returning its dense id (stable for this transport). */
    EndpointId Resolve(const std::string& name)
    {
        return endpoints_.Intern(name);
    }

    /** The intern table (name lookups for logging edges). */
    const EndpointTable& endpoints() const { return endpoints_; }

    /**
     * Register a handler under an endpoint. Registering over a live
     * handler throws std::logic_error: two components claiming one
     * endpoint is always a wiring bug (the old behaviour silently
     * dropped the first handler). Unregister first to hand over.
     */
    void Register(EndpointId id, RequestHandler handler);
    void Register(const std::string& endpoint, RequestHandler handler);

    /** Remove an endpoint; subsequent calls to it fail. */
    void Unregister(EndpointId id);
    void Unregister(const std::string& endpoint);

    /**
     * Fully retire an endpoint: drop its handler, reset any
     * implementation state (fault injection, routes), and release its
     * name so the id can be recycled. Unlike Unregister (a crash: the
     * name remains routable and can come back), Deregister is
     * decommissioning — a later Register of the same name succeeds and
     * may receive a recycled id. No-op for names never interned.
     */
    virtual void Deregister(EndpointId id);
    void Deregister(const std::string& endpoint);

    /** True if a handler is registered under the endpoint. */
    bool IsRegistered(EndpointId id) const
    {
        return id < handlers_.size() && static_cast<bool>(handlers_[id]);
    }
    bool IsRegistered(const std::string& endpoint) const;

    /**
     * Issue an asynchronous call. `done` runs exactly once, at a later
     * event-loop time, with the response or the failure reason; the
     * reason is kTimeout if no response arrives within `timeout_ms`.
     * Pass `{}` to discard the outcome.
     */
    virtual void Call(EndpointId id, Payload request, Completion done,
                      SimTime timeout_ms = 1000) = 0;
    void Call(const std::string& endpoint, Payload request, Completion done,
              SimTime timeout_ms = 1000);

    /**
     * Batched fire-and-forget delivery: issue every request in `batch`
     * with responses discarded and no timeout armed. A failed or
     * unserved item simply counts as an error at delivery time.
     * Returns the number of items issued (== batch.size()).
     */
    virtual std::size_t CallBatch(std::vector<BatchItem> batch) = 0;

    /**
     * Wire transport counters (`rpc.calls`, `rpc.ok`, `rpc.failed`,
     * `rpc.errors`, `rpc.timeouts`) into `registry`. Handles are
     * resolved once here; the per-call path increments through cached
     * pointers. Pass nullptr to detach.
     */
    void AttachMetrics(telemetry::MetricsRegistry* registry);

    /** Total calls issued (for test assertions). */
    std::uint64_t calls_issued() const { return calls_issued_; }

    /** Total calls that completed successfully. */
    std::uint64_t calls_succeeded() const { return calls_succeeded_; }

    /** Total calls that ended in error or timeout (the sum of the two). */
    std::uint64_t calls_failed() const { return calls_failed_; }

    /** Calls that ended in a prompt error ("connection failed"). */
    std::uint64_t calls_errored() const { return calls_errored_; }

    /** Calls that ended by exhausting their deadline ("timeout"). */
    std::uint64_t calls_timed_out() const { return calls_timed_out_; }

  protected:
    /** Account `n` issued calls. */
    void CountIssued(std::uint64_t n = 1);

    /** Account one successful completion. */
    void CountOk();

    /**
     * Account one prompt failure (connection refused / reset /
     * unserved endpoint). Feeds `rpc.failed` + `rpc.errors`, never
     * `rpc.timeouts` — the split SocketTransport debugging relies on.
     */
    void CountError();

    /** Account one deadline expiry. Feeds `rpc.failed` + `rpc.timeouts`. */
    void CountTimeout();

    /** Handler for `id`, or nullptr when not registered. */
    const RequestHandler* HandlerFor(EndpointId id) const
    {
        return IsRegistered(id) ? &handlers_[id] : nullptr;
    }

    EndpointTable endpoints_;

    /** Handler per EndpointId; empty function == not registered. */
    std::vector<RequestHandler> handlers_;

  private:
    std::uint64_t calls_issued_ = 0;
    std::uint64_t calls_succeeded_ = 0;
    std::uint64_t calls_failed_ = 0;
    std::uint64_t calls_errored_ = 0;
    std::uint64_t calls_timed_out_ = 0;

    /** Cached metric handles; null when no registry is attached. */
    telemetry::Counter* m_calls_ = nullptr;
    telemetry::Counter* m_ok_ = nullptr;
    telemetry::Counter* m_failed_ = nullptr;
    telemetry::Counter* m_errors_ = nullptr;
    telemetry::Counter* m_timeouts_ = nullptr;
};

/** Latency model for one direction of an RPC: base + uniform jitter. */
struct LatencyModel
{
    SimTime base_ms = 2;
    SimTime jitter_ms = 4;

    /** Sample one latency value. */
    SimTime Sample(Rng& rng) const
    {
        if (jitter_ms <= 0) return base_ms;
        return base_ms + static_cast<SimTime>(rng.UniformInt(
                             static_cast<std::uint64_t>(jitter_ms) + 1));
    }
};

/**
 * Fault-injection policy evaluated per call.
 *
 * `kFail` produces a prompt error (connection refused); `kBlackhole`
 * produces no response at all, so the caller only learns via timeout.
 */
enum class CallFate { kOk, kFail, kBlackhole };

/**
 * Per-endpoint failure injector.
 *
 * Endpoints marked down always fail; otherwise each call independently
 * fails with the endpoint-specific (or default) probability, split
 * evenly between prompt failures and blackholes. Endpoints may also be
 * made slow responders: an extra latency override is added to request
 * delivery, so calls to them time out when the override exceeds the
 * caller's deadline (latency storms in chaos campaigns).
 *
 * State is held in vectors indexed by EndpointId, with live counters
 * per fault class so the common no-faults-configured case decides
 * without touching per-endpoint state at all.
 */
class FailureInjector
{
  public:
    FailureInjector(std::uint64_t seed, EndpointTable* endpoints);

    /** Probability applied to endpoints with no specific setting. */
    void SetDefaultFailureProbability(double p) { default_failure_p_ = p; }

    /** Override failure probability for one endpoint. */
    void SetEndpointFailureProbability(EndpointId id, double p);
    void SetEndpointFailureProbability(const std::string& endpoint, double p);

    /** Remove a per-endpoint override. */
    void ClearEndpointFailureProbability(EndpointId id);
    void ClearEndpointFailureProbability(const std::string& endpoint);

    /** Mark an endpoint hard-down (every call fails) or back up. */
    void SetEndpointDown(EndpointId id, bool down);
    void SetEndpointDown(const std::string& endpoint, bool down);

    /** True if the endpoint is currently marked hard-down. */
    bool IsEndpointDown(EndpointId id) const;
    bool IsEndpointDown(const std::string& endpoint) const;

    /** Decide the fate of one call to an endpoint. */
    CallFate Decide(EndpointId id);

    /**
     * Reset every fault setting for one endpoint (probability
     * override, extra latency, down mark) back to the fresh state.
     * Used when an endpoint is deregistered so a later tenant of the
     * recycled id doesn't inherit a removed component's faults.
     */
    void ClearEndpoint(EndpointId id);

    /** Add `extra` ms to request delivery toward one endpoint. */
    void SetEndpointExtraLatency(EndpointId id, SimTime extra);
    void SetEndpointExtraLatency(const std::string& endpoint, SimTime extra);

    /** Remove a slow-responder override. */
    void ClearEndpointExtraLatency(EndpointId id);
    void ClearEndpointExtraLatency(const std::string& endpoint);

    /** Extra request latency for an endpoint (0 when none set). */
    SimTime ExtraLatency(EndpointId id) const
    {
        if (latency_count_ == 0) return 0;  // common case: no storms
        return id < extra_latency_.size() ? extra_latency_[id] : 0;
    }
    SimTime ExtraLatency(const std::string& endpoint) const;

    /** True when no fault of any kind is configured. */
    bool quiescent() const
    {
        return down_count_ == 0 && override_count_ == 0 &&
               latency_count_ == 0 && default_failure_p_ <= 0.0;
    }

    /** Serialize fault configuration and the fault RNG position. */
    void Snapshot(Archive& ar) const;

  private:
    /** Grow per-endpoint vectors to cover `id`. */
    void EnsureSize(EndpointId id);

    Rng rng_;
    EndpointTable* endpoints_;
    double default_failure_p_ = 0.0;

    /** Per-endpoint failure probability; < 0 means "no override". */
    std::vector<double> failure_p_;
    std::vector<SimTime> extra_latency_;
    std::vector<std::uint8_t> down_;

    std::size_t override_count_ = 0;
    std::size_t latency_count_ = 0;
    std::size_t down_count_ = 0;
};

/**
 * The simulated transport: asynchronous call delivery on the
 * simulation clock with injectable faults.
 *
 * A call costs one kernel event. Call decides everything at issue
 * time — the fate, both latency samples (plus any slow-responder
 * extra) and the deadline — and parks the request and completion in
 * a slab of reused call records, so each kernel closure is just
 * `[this, slot]`:
 *
 *   - round trip < deadline: ONE event at issue + round trip runs
 *     the handler, then the completion. If the endpoint is no longer
 *     registered when it fires (crashed in flight), the request is
 *     lost and a second event at the deadline times the call out;
 *   - kFail, or unregistered at issue: one event after the request
 *     latency fails it with kConnectionFailed;
 *   - kBlackhole: one event at the deadline times it out;
 *   - round trip >= deadline (a slow responder, or jitter past a
 *     tight budget): the handler still runs at request arrival, as on
 *     a real network, but the caller times out at the deadline — two
 *     events.
 */
class SimTransport final : public Transport
{
  public:
    struct Options
    {
        LatencyModel request_latency;
        LatencyModel response_latency;
    };

    SimTransport(sim::Simulation& sim, std::uint64_t seed = 11,
                 Options options = Options{});

    /** Deregister plus fault-state reset for the recycled id. */
    void Deregister(EndpointId id) override;
    using Transport::Deregister;

    void Call(EndpointId id, Payload request, Completion done,
              SimTime timeout_ms = 1000) override;
    using Transport::Call;

    /**
     * Batched fire-and-forget delivery: issue every request in `batch`
     * as ONE scheduled delivery pass instead of one Call per item.
     * Designed for the sharded engine's barrier mailbox re-issue,
     * where a window's cross-shard contract updates all enter the
     * destination shard at the same boundary and every ack is ignored.
     *
     * Semantics relative to per-item Call:
     *   - one request-latency sample covers the whole batch, and
     *     handlers run in item order inside a single kernel event —
     *     strict FIFO (per-item Call jitter could reorder messages);
     *   - the failure injector and the call observer still see every
     *     item individually, so chaos faults fire and replay digests
     *     fold the full stream;
     *   - responses are discarded and no timeout is armed: a failed,
     *     blackholed, or unregistered item simply counts as failed at
     *     delivery time. Per-item Call schedules one kernel event per
     *     message (two on the timeout paths); a batch schedules exactly
     *     one for all of them, which is what keeps the barrier's event
     *     bill O(1) per destination shard instead of O(messages).
     *   - per-endpoint extra latency (slow responders) does not delay
     *     the batch; it only matters for calls that await responses.
     *
     * Returns the number of items issued (== batch.size()).
     */
    std::size_t CallBatch(std::vector<BatchItem> batch) override;

    /** Fault injection knobs. */
    FailureInjector& failures() { return failures_; }

    /**
     * Call-stream digest for replay: once per issued call (every
     * CallBatch item included), the target endpoint, the fate the
     * failure injector decided, and the issue time are mixed into
     * `digest`, in that order. This covers every RPC delivery and
     * every chaos-injected failure in schedule order, so the replay
     * recorder and the sharded engine fold the call stream into
     * per-window digests. Pass nullptr to detach.
     */
    void set_call_digest(HashAccumulator* digest) { call_digest_ = digest; }

    /**
     * Serialize transport progress: call counters, the latency/fault
     * RNG stream positions, and the injector's configured-fault
     * counts. Handlers and in-flight call records are closures and
     * are rebuilt by replay, not serialized.
     */
    void Snapshot(Archive& ar) const;

  private:
    static constexpr std::uint32_t kNoCall = 0xffffffffu;

    /** One in-flight call, parked until its kernel event fires. */
    struct CallRecord
    {
        Payload request;
        Completion done;
        SimTime deadline = 0;
        EndpointId target = kInvalidEndpoint;

        /** Free-list link while the record is unused. */
        std::uint32_t next_free = kNoCall;
    };

    /** Park a call in a free record (growing the slab if none). */
    std::uint32_t ParkCall(EndpointId target, Payload request, Completion done,
                           SimTime deadline);

    /** Return a record to the free list, handing back its completion. */
    Completion ReleaseCall(std::uint32_t slot);

    /** Round trip done: run the handler, then the completion. */
    void Deliver(std::uint32_t slot);

    /** Request arrival for a call that cannot beat its deadline. */
    void Serve(std::uint32_t slot);

    /** Deadline reached: complete with kTimeout. */
    void Expire(std::uint32_t slot);

    /** Prompt failure: complete with kConnectionFailed. */
    void Refuse(std::uint32_t slot);

    /** Fold one issued call into the call digest, when attached. */
    void MixCall(EndpointId id, CallFate fate);

    sim::Simulation& sim_;
    Rng rng_;
    Options options_;
    FailureInjector failures_;

    /** Call-record slab; reused through the `free_call_` list. */
    std::vector<CallRecord> calls_;
    std::uint32_t free_call_ = kNoCall;

    /** Replay call-stream digest; null when none is attached. */
    HashAccumulator* call_digest_ = nullptr;
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_TRANSPORT_H_
