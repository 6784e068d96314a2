/**
 * @file
 * Discrete-event simulation kernel.
 *
 * All Dynamo timing behaviour under test — 3 s leaf pull cycles, 9 s
 * upper-level cycles, ~2 s RAPL settling, RPC latency, breaker thermal
 * integration — runs against this kernel. Events are closures ordered
 * by (time, insertion sequence), so same-timestamp events run in
 * schedule order and runs are fully deterministic.
 *
 * Implementation: a hierarchical timing wheel (1 ms near wheel plus
 * four overflow levels and a far-future heap) over a slab/free-list
 * event pool. Callbacks are stored in small-buffer-optimized
 * `InlineFunction` slots directly inside the slab, periodic tasks
 * re-arm by relinking their existing slab node (no allocation per
 * firing), and cancellation is lazy: cancelled events are dropped when
 * popped, with a compaction sweep when the cancelled backlog outgrows
 * the live queue. See DESIGN.md §7 for the layout rationale.
 */
#ifndef DYNAMO_SIM_SIMULATION_H_
#define DYNAMO_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_function.h"
#include "common/units.h"

namespace dynamo {
class Archive;
class HashAccumulator;
}  // namespace dynamo

namespace dynamo::sim {

class Simulation;

namespace detail {

/**
 * Cancellation/liveness state shared between the kernel and task
 * handles. Kept apart from the event slab (which owns the callbacks)
 * so handles remain safe to cancel after the Simulation is destroyed.
 */
struct TaskTable
{
    enum State : std::uint8_t { kFree = 0, kQueued = 1, kExecuting = 2 };

    struct Slot
    {
        std::uint32_t gen = 0;
        std::uint8_t state = kFree;
        bool cancelled = false;
    };

    std::vector<Slot> slots;

    /** Events queued and not cancelled (what pending_events reports). */
    std::size_t live = 0;

    /** Cancelled-but-unpopped events awaiting lazy purge. */
    std::size_t lazy_cancelled = 0;
};

}  // namespace detail

/**
 * Kernel internals counters, exposed for observability. The sim layer
 * sits below telemetry in the library graph, so these are plain
 * integers here; the fleet/bench layer copies them into gauges.
 */
struct KernelStats
{
    std::uint64_t cascades = 0;    ///< Upper-level slots cascaded down.
    std::uint64_t far_drains = 0;  ///< Events drained from the far heap.
    std::uint64_t purges = 0;      ///< Eager cancelled-backlog purges.
    std::uint64_t slot_sorts = 0;  ///< L0 chains re-sorted for seq order.
};

/**
 * Handle to a scheduled event or periodic task; allows cancellation.
 * Cancelling an already-fired one-shot event is a harmless no-op.
 */
class TaskHandle
{
  public:
    TaskHandle() = default;

    /** True if the handle refers to a live (not cancelled, not yet
     *  completed) task. */
    bool active() const
    {
        if (!table_) return false;
        const detail::TaskTable::Slot& slot = table_->slots[index_];
        return slot.gen == gen_ && !slot.cancelled &&
               slot.state != detail::TaskTable::kFree;
    }

    /** Cancel the task; pending firings are dropped. */
    void Cancel()
    {
        if (!table_) return;
        detail::TaskTable::Slot& slot = table_->slots[index_];
        if (slot.gen != gen_ || slot.cancelled ||
            slot.state == detail::TaskTable::kFree) {
            return;
        }
        slot.cancelled = true;
        if (slot.state == detail::TaskTable::kQueued) {
            --table_->live;
            ++table_->lazy_cancelled;
        }
    }

  private:
    friend class Simulation;

    TaskHandle(std::shared_ptr<detail::TaskTable> table, std::uint32_t index,
               std::uint32_t gen)
        : table_(std::move(table)), index_(index), gen_(gen)
    {
    }

    std::shared_ptr<detail::TaskTable> table_;
    std::uint32_t index_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * The event loop: a clock plus a hierarchical timing wheel of timed
 * closures.
 *
 * Not thread-safe: one Simulation is always driven by one thread at a
 * time. Fleet-scale runs parallelize *above* this class — the sharded
 * engine (sim/parallel_kernel.h, fleet/sharding.h) gives each shard a
 * private Simulation and hands whole shards to worker threads, with
 * barriers ordering the hand-offs — so the kernel itself stays
 * lock-free and deterministic.
 */
class Simulation
{
  public:
    /**
     * Event callback. 80 bytes of inline storage covers every closure
     * on the hot path without a heap allocation per event: controller
     * ticks (`[this]`, `[this, cycle]`), the transport's call events
     * (`[this, slot]` — requests and completions live in its call
     * slab, not in the closure), and a pull's retry backoff, which
     * carries the caller's pull callback along (64 bytes).
     */
    using Callback = InlineFunction<80>;

    Simulation();
    ~Simulation();
    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /** Current simulated time in milliseconds. */
    SimTime Now() const { return now_; }

    /** Schedule `fn` to run at absolute time `when` (>= Now()). */
    TaskHandle ScheduleAt(SimTime when, Callback fn);

    /** Schedule `fn` to run `delay` milliseconds from now. */
    TaskHandle ScheduleAfter(SimTime delay, Callback fn);

    /**
     * Schedule `fn` every `period` milliseconds, first firing after
     * `initial_delay` (defaults to one full period). The task re-arms
     * itself until cancelled.
     */
    TaskHandle SchedulePeriodic(SimTime period, Callback fn,
                                SimTime initial_delay = -1);

    /** Run until the event queue is empty or `deadline` is reached. */
    void RunUntil(SimTime deadline);

    /** Run `duration` milliseconds past the current time. */
    void RunFor(SimTime duration) { RunUntil(now_ + duration); }

    /** Process every queued event regardless of time (use with care). */
    void RunAll();

    /** Number of events executed since construction. */
    std::uint64_t events_executed() const { return events_executed_; }

    /**
     * Number of live (not cancelled) events currently pending.
     * Cancelled-but-unpopped events are excluded, so re-arming timers
     * under churn does not inflate the reported queue depth.
     */
    std::size_t pending_events() const { return table_->live; }

    /** Cancelled events still occupying queue slots (purged lazily). */
    std::size_t lazily_cancelled() const { return table_->lazy_cancelled; }

    /** Slab size in nodes (diagnostics; bounded under cancel churn). */
    std::size_t event_pool_size() const { return pool_.size(); }

    /** Timing-wheel internals counters (cascades, far drains, …). */
    const KernelStats& kernel_stats() const { return kernel_stats_; }

    /**
     * Deterministic event digest: immediately before each event
     * callback runs, its firing time and kernel sequence number are
     * mixed into `digest` (in that order). The (time, seq) stream is a
     * complete order witness for the run — the replay recorder and the
     * sharded engine fold it into per-window digests to prove two
     * executions fired identical event schedules. A plain pointer, not
     * a callback, so the per-event cost is two inlined mixes. Pass
     * nullptr to detach.
     */
    void set_event_digest(HashAccumulator* digest) { event_digest_ = digest; }

    /**
     * Serialize kernel progress (clock, event/seq counters, queue
     * depth, wheel stats) into `ar`. Pending closures are not
     * serializable; replay restores them by re-executing from the run
     * start, and uses these counters to prove the rebuilt kernel is in
     * the same position.
     */
    void Snapshot(Archive& ar) const;

    /**
     * Eagerly drop every cancelled-but-unpopped event and return their
     * slab nodes to the free list. Called automatically when the
     * cancelled backlog outgrows the live queue.
     */
    void PurgeCancelled();

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    // Near wheel: 1024 slots of 1 ms. Upper levels: 64 slots each,
    // every level's slot spanning the whole level below (1.024 s,
    // ~65.5 s, ~70 min, ~3.1 days). Beyond ~199 days: far heap.
    static constexpr int kL0Bits = 10;
    static constexpr int kL0Slots = 1 << kL0Bits;
    static constexpr int kLevelBits = 6;
    static constexpr int kLevelSlots = 1 << kLevelBits;
    static constexpr int kLevels = 4;

    /** Shift of upper level `k` in [1, kLevels]. */
    static constexpr int LevelShift(int k)
    {
        return kL0Bits + (k - 1) * kLevelBits;
    }

    struct EventNode
    {
        SimTime when = 0;
        std::uint64_t seq = 0;

        /** > 0 for periodic tasks (re-armed after each firing). */
        SimTime period = 0;

        /** Intrusive link: wheel-slot list or free list. */
        std::uint32_t next = kNil;

        Callback fn;
    };

    /** One wheel slot: FIFO list of slab node indices. */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    struct FarEntry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    /** Min-heap comparator for the far heap: later entries sink. */
    static bool FarLater(const FarEntry& a, const FarEntry& b);

    std::uint32_t AllocNode();
    void FreeNode(std::uint32_t idx);

    TaskHandle Schedule(SimTime when, Callback fn, SimTime period);

    /** Place a node into the wheel (or far heap) relative to wheel_time_. */
    void InsertNode(std::uint32_t idx);

    void Append(Bucket& bucket, std::uint32_t idx);

    /**
     * Advance the wheel position to `target`, cascading upper-level
     * slots whose window the position enters and draining newly
     * eligible far-heap events. No-op if `target` is not ahead.
     */
    void SetWheelTime(SimTime target);

    void CascadeBucket(Bucket& bucket);
    void DrainFarHeap();

    /**
     * Find the earliest pending event time <= `limit`, advancing the
     * wheel position to it. Returns false if there is none.
     */
    bool FindNext(SimTime limit, SimTime* out_time);

    /** Execute every event in the level-0 slot at time `t`. */
    void ExecuteSlot(SimTime t);

    /** First occupied L0 slot index >= `from`, or -1. */
    int ScanL0(int from) const;

    void MaybePurge();
    void PurgeBucket(Bucket& bucket);

    bool IsCancelled(std::uint32_t idx) const
    {
        return table_->slots[idx].cancelled;
    }

    SimTime now_ = 0;

    /** Wheel position; invariant: no queued event is earlier. */
    SimTime wheel_time_ = 0;

    std::uint64_t next_seq_ = 0;
    std::uint64_t events_executed_ = 0;
    KernelStats kernel_stats_;
    HashAccumulator* event_digest_ = nullptr;

    std::vector<EventNode> pool_;
    std::uint32_t free_head_ = kNil;
    std::shared_ptr<detail::TaskTable> table_;

    Bucket l0_[kL0Slots];
    std::uint64_t l0_bitmap_[kL0Slots / 64] = {};
    Bucket up_[kLevels][kLevelSlots];
    std::uint64_t up_bitmap_[kLevels] = {};

    /** Min-heap on (when, seq) of events beyond the top wheel level. */
    std::vector<FarEntry> far_;
};

}  // namespace dynamo::sim

#endif  // DYNAMO_SIM_SIMULATION_H_
