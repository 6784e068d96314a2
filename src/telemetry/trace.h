/**
 * @file
 * Hierarchical decision traces.
 *
 * Dynamo operators debug capping incidents from per-cycle evidence:
 * which band the controller was in, how the measured power compared to
 * the threshold, which priority group and power bucket absorbed the
 * cut, which child was an offender over quota, and what contractual
 * limit / RAPL cap was actually sent (PAPER.md §3, Fig. 11/15/16).
 *
 * Each controller cycle that takes (or withholds) an action emits one
 * structured `TraceSpan`. Spans carry a parent id: an upper-level
 * controller stamps its span id onto the contractual-limit commands it
 * sends, and the child's next decision under that contract links back
 * to it — so an MSB decision can be followed through the SB and leaf
 * levels down to the per-server RAPL caps recorded in the leaf span's
 * allocations.
 *
 * The log is a bounded ring: span ids are dense and monotonically
 * increasing, eviction drops the oldest spans, and `Find` resolves an
 * id in O(1) while it is retained. Consumers that must not miss spans
 * (the chaos InvariantChecker) poll incrementally by id watermark.
 */
#ifndef DYNAMO_TELEMETRY_TRACE_H_
#define DYNAMO_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/units.h"

namespace dynamo {
class Archive;
class ArchiveReader;
}  // namespace dynamo

namespace dynamo::telemetry {

/** Span identity; ids are dense, increasing, and never recycled. */
using SpanId = std::uint64_t;

/** "No parent" / "no span". Real ids start at 1. */
inline constexpr SpanId kNoSpan = 0;

/** Which control level emitted a span. */
enum class SpanKind {
    kLeafDecision,   ///< Leaf controller cycle (server-level capping).
    kUpperDecision,  ///< Upper controller cycle (contractual limits).
};

/** Readable name for a span kind ("leaf", "upper"). */
const char* SpanKindName(SpanKind kind);

/** Band action the cycle decided on (mirrors core::BandAction). */
enum class TraceBand { kNone, kCap, kUncap, kHold };

/** Readable name ("none", "cap", "uncap", "hold"). */
const char* TraceBandName(TraceBand band);

/** One priority group's share of a leaf cut. */
struct TraceGroupCut
{
    int priority_group = 0;
    Watts cut = 0.0;
    int servers = 0;  ///< Servers in the group that received a cap.
};

/**
 * One target's share of the plan: a server's RAPL cap (leaf spans) or
 * a child controller's contractual limit (upper spans).
 */
struct TraceAllocation
{
    std::string target;       ///< Agent / child controller endpoint.
    Watts power = 0.0;        ///< Reading the plan was computed from.
    Watts floor = 0.0;        ///< SLA min cap (leaf) or child floor.
    Watts quota = 0.0;        ///< Child quota (upper spans only).
    Watts cut = 0.0;          ///< Allocated cut.
    Watts limit_sent = 0.0;   ///< RAPL cap or contractual limit issued.
    int bucket = -1;          ///< High-bucket-first bucket index; -1 n/a.
    bool offender = false;    ///< power > quota (upper spans only).
};

/** One controller cycle's decision, fully attributable. */
struct TraceSpan
{
    SpanId id = kNoSpan;      ///< Assigned by TraceLog::Append.
    SpanId parent = kNoSpan;  ///< Contract span this decision ran under.
    SimTime time = 0;
    SpanKind kind = SpanKind::kLeafDecision;
    std::string source;       ///< Controller endpoint.

    TraceBand band = TraceBand::kNone;
    bool was_capping = false; ///< Capping already in force before this cycle.

    /**
     * Fleet spec epoch the deciding controller observed. Audits that
     * compare the span against fleet-wide aggregates (cut sums, SLA
     * floors) must evaluate it against this epoch's topology, not the
     * boot-time fleet — reconfiguration can change both mid-run.
     * 0 = controller not attached to a versioned fleet.
     */
    std::uint64_t epoch = 0;

    Watts measured = 0.0;     ///< Aggregated power this cycle.
    Watts limit = 0.0;        ///< Effective limit min(physical, contract).
    Watts threshold = 0.0;    ///< Capping threshold the measure crossed.
    Watts target = 0.0;       ///< Level capping aims at (kCap only).
    Watts cut = 0.0;          ///< Total cut the band policy requested.
    Watts planned_cut = 0.0;  ///< Cut the planner actually allocated.
    bool satisfied = true;    ///< Plan covered the full cut within floors.
    bool dry_run = false;

    std::vector<TraceGroupCut> groups;     ///< Leaf: per-priority-group split.
    std::vector<TraceAllocation> allocs;   ///< Per-server / per-child detail.
};

/**
 * Human-readable band transition for a span, e.g. "settled->capping",
 * "capping->capping", "capping->released", "capping->held".
 */
std::string TraceTransitionName(const TraceSpan& span);

/** Canonical binary encoding of one span (bit-exact doubles). */
void WriteSpan(Archive& ar, const TraceSpan& span);

/** Inverse of WriteSpan; throws std::runtime_error on truncation, and
 *  on a group or allocation count longer than the bytes left. */
TraceSpan ReadSpan(ArchiveReader& ar);

/** Field-exact equality (bit-exact doubles), including allocations. */
bool SpansIdentical(const TraceSpan& a, const TraceSpan& b);

/** Bounded ring of decision spans. */
class TraceLog
{
  public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit TraceLog(std::size_t capacity = kDefaultCapacity);

    /** Record one span; assigns and returns its id. */
    SpanId Append(TraceSpan span);

    /** Retained spans, oldest first. */
    const std::deque<TraceSpan>& spans() const { return spans_; }

    /** Span by id; nullptr if evicted or never appended. */
    const TraceSpan* Find(SpanId id) const;

    /** Retained spans whose parent is `id`, oldest first. */
    std::vector<const TraceSpan*> ChildrenOf(SpanId id) const;

    /** Oldest retained id (kNoSpan when empty). */
    SpanId first_id() const
    {
        return spans_.empty() ? kNoSpan : spans_.front().id;
    }

    /** Id the next Append will assign. */
    SpanId next_id() const { return next_id_; }

    std::size_t size() const { return spans_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Spans appended over the log's lifetime (including evicted). */
    std::uint64_t total_appended() const { return next_id_ - 1; }

    /** Spans dropped by ring eviction. */
    std::uint64_t evicted() const { return evicted_; }

    /** Drop all retained spans (ids keep increasing). */
    void Clear();

    /**
     * Serialize the full ring — every retained span plus the id /
     * eviction counters — in canonical binary form. Restore() on a
     * log of any prior state reproduces the ring exactly: Find()
     * misses on evicted ids, watermark consumers resume at the same
     * next id, and evicted() survives the round trip.
     */
    void Snapshot(Archive& ar) const;

    /** Replace this log's contents with a snapshotted state. */
    void Restore(ArchiveReader& ar);

  private:
    std::size_t capacity_;
    std::deque<TraceSpan> spans_;
    SpanId next_id_ = 1;
    std::uint64_t evicted_ = 0;
};

}  // namespace dynamo::telemetry

#endif  // DYNAMO_TELEMETRY_TRACE_H_
