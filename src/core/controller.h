/**
 * @file
 * Shared machinery of Dynamo power controllers.
 *
 * Every protected power device gets a matching controller instance
 * (Section III-A). Leaf and upper-level controllers share: a periodic
 * pull/aggregate cycle, the three-band policy, the effective limit
 * min(physical, contractual), a transport endpoint serving parent
 * reads + contractual-limit commands + health checks, and activation
 * state used by primary/backup failover. The endpoint name is a
 * *logical* identity: when a backup activates it registers under the
 * same endpoint, so parents and the failover manager are oblivious to
 * which instance is serving.
 */
#ifndef DYNAMO_CORE_CONTROLLER_H_
#define DYNAMO_CORE_CONTROLLER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "common/archive.h"
#include "common/inline_function.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/api.h"
#include "core/three_band.h"
#include "rpc/transport.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace dynamo::core {

/** Configuration shared by all controller types. */
struct ControllerBaseConfig
{
    /** Power pull period in ms (3 s leaf / 9 s upper in the paper). */
    SimTime pull_cycle = 3000;

    /** Delay between issuing pulls and aggregating responses, ms. */
    SimTime response_wait = 1000;

    /**
     * Per-pull RPC budget, ms. Must be < response_wait (enforced at
     * controller construction); shared across all attempts when pulls
     * are retried.
     */
    SimTime rpc_timeout = 900;

    /** Three-band thresholds relative to the effective limit. */
    ThreeBandConfig bands;

    /**
     * If more than this fraction of pulls fail, the aggregation is
     * invalid: no action is taken and an alarm is raised instead
     * (Section III-C1 uses 20 %).
     */
    double max_failure_fraction = 0.2;

    /**
     * Dry-run mode (Section VI, service-aware testing): monitor, run
     * the full decision logic, and log every action it *would* take —
     * but never actually throttle servers or send contractual limits.
     * Logged events carry the "dry-run" detail tag.
     */
    bool dry_run = false;

    /**
     * Extra pull attempts after a failed first try. The rpc_timeout
     * budget is split evenly across attempts so the whole retry chain
     * still finishes before aggregation; retries are spaced by
     * exponential backoff with jitter.
     */
    int pull_retries = 2;

    /** Backoff before the first retry, ms (doubles per attempt). */
    SimTime retry_backoff = 25;

    /** Max uniform jitter added to each backoff, ms. */
    SimTime retry_jitter = 10;

    /**
     * TTL for last-known-good readings, ms. A failed pull is first
     * patched with the endpoint's own cached reading while it is
     * fresher than this; only stale entries fall back to neighbour
     * estimation. 0 selects the default of 4 pull cycles.
     */
    SimTime reading_ttl = 0;

    /**
     * Consecutive invalid aggregations (failure fraction above
     * max_failure_fraction) before the controller drops from NORMAL
     * to DEGRADED and freezes cap releases.
     */
    int degraded_entry_cycles = 2;

    /**
     * Consecutive healthy cycles required in RECOVERING before the
     * controller returns to NORMAL and may release caps again
     * (hysteresis against flapping inputs).
     */
    int recovery_exit_cycles = 3;

    /**
     * Flap window: a capping episode that starts within this many
     * pull cycles of the previous release counts as a *flap* — the
     * controller released too eagerly and was immediately forced to
     * re-cap. Surfaced as the `<prefix>.flaps` counter and audited by
     * the invariant checker; the policy-lab judge scores brains on it.
     */
    int flap_window_cycles = 5;
};

/**
 * Controller health (degraded-mode state machine).
 *
 *   NORMAL --(N consecutive invalid aggregations)--> DEGRADED
 *   DEGRADED --(one valid aggregation)--> RECOVERING
 *   RECOVERING --(M consecutive valid)--> NORMAL
 *   RECOVERING --(any invalid)--> DEGRADED
 *
 * Outside NORMAL the controller still caps on valid data (capping is
 * the safe direction) but never releases caps: uncapping on partial or
 * stale readings could let a genuinely overloaded breaker trip.
 */
enum class HealthState { kNormal, kDegraded, kRecovering };

/** Readable name ("normal", "degraded", "recovering"). */
const char* HealthStateName(HealthState state);

/**
 * RAII wall-clock timer: observes the scope's duration in microseconds
 * into `hist` on destruction. Null-safe — with no histogram attached
 * it never touches the clock, so untelemetered runs pay nothing.
 */
class CycleTimer
{
  public:
    explicit CycleTimer(telemetry::Histogram* hist) : hist_(hist)
    {
        if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
    }

    ~CycleTimer()
    {
        if (hist_ == nullptr) return;
        const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_);
        hist_->Observe(static_cast<double>(us.count()));
    }

    CycleTimer(const CycleTimer&) = delete;
    CycleTimer& operator=(const CycleTimer&) = delete;

  private:
    telemetry::Histogram* hist_;
    std::chrono::steady_clock::time_point start_;
};

/** Abstract controller: one instance protects one power device. */
class Controller
{
  public:
    /**
     * @param sim       Simulation clock.
     * @param transport RPC transport (endpoint registered on Activate).
     * @param endpoint  Logical endpoint / controller name.
     * @param physical_limit  The device breaker's rated power.
     * @param quota     The device's planned-peak power quota.
     * @param config    Shared configuration.
     * @param log       Event log (may be nullptr).
     *
     * @throws std::invalid_argument if the config violates
     *         rpc_timeout < response_wait or has negative retry /
     *         hysteresis knobs.
     */
    Controller(sim::Simulation& sim, rpc::Transport& transport,
               std::string endpoint, Watts physical_limit, Watts quota,
               ControllerBaseConfig config, telemetry::EventLog* log);

    virtual ~Controller();

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    const std::string& endpoint() const { return endpoint_; }

    /** Interned id of this controller's endpoint (hot-path RPC key). */
    rpc::EndpointId endpoint_id() const { return endpoint_id_; }
    Watts physical_limit() const { return physical_limit_; }
    Watts quota() const { return quota_; }

    /**
     * Register the endpoint and start the periodic cycle. The first
     * cycle fires after `initial_delay` ms (default: one full period);
     * deployments stagger this across controllers so hundreds of
     * consolidated instances don't pull in lock-step.
     */
    void Activate(SimTime initial_delay = -1);

    /** Stop cycling and unregister the endpoint. */
    void Deactivate();

    /** Simulated crash (== Deactivate; named for test readability). */
    void Crash() { Deactivate(); }

    bool active() const { return active_; }

    /** Parent-imposed limit (punish-offender-first coordination). */
    void SetContractualLimit(Watts limit) { contractual_limit_ = limit; }
    void ClearContractualLimit() { contractual_limit_.reset(); }

    /**
     * Re-rate the physical limit (grid demand-response / thermal
     * derate scenarios). The effective limit follows immediately; the
     * next cycle's band decision caps toward the derated budget.
     */
    void SetPhysicalLimit(Watts limit) { physical_limit_ = limit; }
    std::optional<Watts> contractual_limit() const { return contractual_limit_; }

    /**
     * Copy the standing contractual limit (and the parent span that set
     * it) from another instance — the warm-restart handover: a planned
     * controller swap moves the contract to the standby *before* it
     * activates, so the device is never momentarily uncontracted the
     * way an unplanned failover leaves it until reaffirmation.
     */
    void InheritContract(const Controller& from)
    {
        contractual_limit_ = from.contractual_limit_;
        contract_span_ = from.contract_span_;
    }

    /**
     * Wire this controller to the fleet's spec-epoch counter (owned by
     * the fleet; outlives the controller). Once attached, outgoing
     * contracts are stamped with the current epoch and incoming
     * ContractUpdates from an older epoch are rejected — they were
     * computed against a topology a reconfiguration has since
     * replaced. Pass nullptr to detach (hand-wired rigs).
     */
    void AttachEpoch(const std::uint64_t* epoch) { epoch_ = epoch; }

    /** Fleet spec epoch this controller observes (0 when detached). */
    std::uint64_t current_epoch() const
    {
        return epoch_ != nullptr ? *epoch_ : 0;
    }

    /** ContractUpdates refused for carrying a stale spec epoch. */
    std::uint64_t stale_epoch_rejections() const
    {
        return stale_epoch_rejections_;
    }

    /** min(physical, contractual): the limit capping decisions use. */
    Watts EffectiveLimit() const
    {
        if (contractual_limit_) return std::min(*contractual_limit_, physical_limit_);
        return physical_limit_;
    }

    /** Last aggregated power (valid only if last_valid()). */
    Watts last_aggregated_power() const { return last_power_; }

    /** False after an invalid aggregation (too many pull failures). */
    bool last_valid() const { return last_valid_; }

    /** True while this controller's caps are in force. */
    bool capping() const { return bands_.capping(); }

    /** Current degraded-mode state. */
    HealthState health() const { return health_; }

    /** True while cap releases are frozen (health != NORMAL). */
    bool releases_frozen() const { return health_ != HealthState::kNormal; }

    /** Times the controller entered DEGRADED. */
    std::uint64_t degraded_entries() const { return degraded_entries_; }

    /** Aggregation cycles spent outside NORMAL so far. */
    std::uint64_t unhealthy_cycles() const { return unhealthy_cycles_; }

    /** Uncap decisions suppressed by the release freeze. */
    std::uint64_t frozen_releases() const { return frozen_releases_; }

    /** Pull retry attempts issued so far. */
    std::uint64_t retries_issued() const { return retries_issued_; }

    /**
     * Capping episodes re-entered within flap_window_cycles of the
     * previous release. Caps adopted from a predecessor never count:
     * adoption re-enters the existing episode instead of starting a
     * fresh one.
     */
    std::uint64_t flaps() const { return flaps_; }

    /** Lowest contractual limit this controller could honor. */
    virtual Watts Floor() const = 0;

    std::uint64_t aggregations() const { return aggregations_; }
    std::uint64_t invalid_aggregations() const { return invalid_aggregations_; }

    /** Operator-facing snapshot of one controller's state. */
    struct Status
    {
        std::string endpoint;
        bool active = false;
        bool capping = false;
        bool last_valid = false;
        HealthState health = HealthState::kNormal;
        Watts physical_limit = 0.0;
        std::optional<Watts> contractual_limit;
        Watts last_power = 0.0;
        std::uint64_t aggregations = 0;
        std::uint64_t invalid_aggregations = 0;
        std::uint64_t degraded_entries = 0;
        std::uint64_t frozen_releases = 0;

        /** Servers capped (leaf) or children contracted (upper). */
        std::size_t controlled = 0;
    };

    /** Snapshot the controller's state. */
    Status GetStatus() const;

    /** One-line human-readable rendering of GetStatus(). */
    std::string StatusLine() const;

    /**
     * Wire this controller into the observability layer. Metric
     * handles (`<prefix>.cycles`, `<prefix>.cycle_us`, `<prefix>.cut_w`,
     * `<prefix>.caps` / `.uncaps` / `.holds`, prefix = MetricPrefix())
     * are resolved once here; decision cycles then emit spans into
     * `traces` and increment through cached pointers. Either argument
     * may be nullptr to leave that half detached.
     */
    void AttachTelemetry(telemetry::MetricsRegistry* registry,
                         telemetry::TraceLog* traces);

    /** Decision-trace sink (nullptr when not attached). */
    telemetry::TraceLog* trace_log() const { return traces_; }

    /**
     * Span id of the parent decision that set the current contractual
     * limit (kNoSpan when none); child decision spans link to it.
     */
    telemetry::SpanId contract_span() const { return contract_span_; }

    /**
     * Serialize the controller's full decision state in canonical
     * binary form: endpoint, activation, contractual limit, band
     * (capping) state, the degraded-mode FSM (health, hysteresis
     * counters, entry/freeze tallies), aggregation counters, and the
     * retry-jitter RNG position. Subclasses extend this with their
     * caches (leaf: per-agent last-known-good readings and issued
     * caps; upper: per-child contract state). Used by replay
     * checkpoints; must not mutate state or the simulation.
     */
    virtual void Snapshot(Archive& ar) const;

  protected:
    /** Subclass contribution to Status::controlled. */
    virtual std::size_t ControlledCount() const = 0;

    /** Metric name prefix for this controller level ("leaf"/"upper"). */
    virtual const char* MetricPrefix() const = 0;

    /** Issue this cycle's pulls; called every pull_cycle while active. */
    virtual void RunCycle() = 0;

    /**
     * Three-band decision with contract-aware target correction.
     *
     * A contractual limit is already the parent's conservative
     * allocation (parent power minus the needed cut). Aiming the usual
     * 5 %-below-limit target at it would stack another cut on top at
     * every hierarchy level — three levels deep that overshoots past
     * the uncap threshold and the whole hierarchy oscillates. Under a
     * binding contract the target is therefore placed just below the
     * contract itself (kContractTargetFrac), which settles each level
     * inside its hysteresis band.
     *
     * With `allow_uncap` false (controller not in NORMAL health) a due
     * release comes back as kHold; callers count it and log kCapHold.
     */
    BandDecision DecideBand(Watts aggregated, bool allow_uncap = true);

    /** Target fraction of a binding contractual limit. */
    static constexpr double kContractTargetFrac = 0.985;

    /** Hook for subclasses to serve extra request types; default nack. */
    virtual rpc::Payload HandleExtra(const rpc::Payload& request);

    /**
     * Success continuation of one pull: the pullee's read result.
     * Sized for a `[this, index]` capture, so a pull's whole retry
     * chain fits inline in one rpc::Completion.
     */
    using PullCallback = InlineFunction<24, void(const api::PowerReadResult&)>;

    /**
     * Issue one PowerReadRequest pull with bounded retry: the
     * rpc_timeout budget is split evenly across 1 + pull_retries
     * attempts; failed attempts are retried after exponential backoff
     * with jitter, the callback moving from attempt to attempt.
     * `on_read` runs at most once, with the first PowerReadResult that
     * arrives while the issuing cycle is still current; a pull that
     * exhausts its attempts, or outlives its cycle, never runs it (the
     * next cycle re-pulls).
     */
    void PullWithRetry(rpc::EndpointId endpoint, PullCallback on_read);

    /**
     * Advance the health state machine after one aggregation attempt
     * (valid or not), logging kDegradedEnter / kDegradedExit events on
     * transitions.
     */
    void UpdateHealth(bool cycle_valid);

    /** Effective last-known-good TTL (resolves the 0 = auto default). */
    SimTime ReadingTtl() const
    {
        return config_.reading_ttl > 0 ? config_.reading_ttl
                                       : 4 * config_.pull_cycle;
    }

    /** Append to the event log (no-op when log is null). */
    void LogEvent(telemetry::EventKind kind, Watts aggregated, Watts limit,
                  int servers_affected, const std::string& detail = "");

    /**
     * Flap accounting: subclasses call NoteCapStart when a fresh
     * capping episode begins (kCap with was_capping false) and
     * NoteRelease on every uncap. A start within flap_window_cycles ×
     * pull_cycle of the last release increments the flap counter.
     * Deliberately NOT part of Snapshot: the committed golden-journal
     * checkpoints predate the counter and the metric is diagnostic,
     * not decision state.
     */
    void NoteCapStart();
    void NoteRelease();

    sim::Simulation& sim_;
    rpc::Transport& transport_;
    ControllerBaseConfig config_;
    ThreeBandPolicy bands_;
    telemetry::EventLog* log_;

    /** Decision-trace sink; nullptr when telemetry is not attached. */
    telemetry::TraceLog* traces_ = nullptr;

    /** Parent span that set the current contractual limit (or kNoSpan). */
    telemetry::SpanId contract_span_ = telemetry::kNoSpan;

    /** Cached metric handles; null when no registry is attached. */
    telemetry::Counter* m_cycles_ = nullptr;
    telemetry::Counter* m_caps_ = nullptr;
    telemetry::Counter* m_uncaps_ = nullptr;
    telemetry::Counter* m_holds_ = nullptr;
    telemetry::Counter* m_flaps_ = nullptr;
    telemetry::Histogram* m_cycle_us_ = nullptr;
    telemetry::Histogram* m_cut_w_ = nullptr;

    Watts last_power_ = 0.0;
    bool last_valid_ = false;
    std::uint64_t aggregations_ = 0;
    std::uint64_t invalid_aggregations_ = 0;
    std::uint64_t frozen_releases_ = 0;

    /** Incremented per cycle; stale async responses are discarded. */
    std::uint64_t cycle_id_ = 0;

  private:
    void PullAttempt(rpc::EndpointId endpoint, PullCallback on_read,
                     int attempt, std::uint64_t cycle);

    rpc::Payload Handle(const rpc::Payload& request);

    std::string endpoint_;
    rpc::EndpointId endpoint_id_ = rpc::kInvalidEndpoint;
    Watts physical_limit_;
    Watts quota_;
    std::optional<Watts> contractual_limit_;
    bool active_ = false;
    sim::TaskHandle cycle_task_;

    /** Fleet spec-epoch counter; nullptr for hand-wired rigs. */
    const std::uint64_t* epoch_ = nullptr;
    std::uint64_t stale_epoch_rejections_ = 0;

    HealthState health_ = HealthState::kNormal;
    int consecutive_invalid_ = 0;
    int consecutive_healthy_ = 0;
    std::uint64_t degraded_entries_ = 0;
    std::uint64_t unhealthy_cycles_ = 0;
    std::uint64_t retries_issued_ = 0;
    Rng retry_rng_;

    /** Flap accounting (see NoteCapStart; excluded from Snapshot). */
    std::uint64_t flaps_ = 0;
    SimTime last_release_time_ = 0;
    bool have_release_time_ = false;
};

}  // namespace dynamo::core

#endif  // DYNAMO_CORE_CONTROLLER_H_
