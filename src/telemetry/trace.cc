#include "telemetry/trace.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/archive.h"

namespace dynamo::telemetry {

const char*
SpanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::kLeafDecision: return "leaf";
      case SpanKind::kUpperDecision: return "upper";
    }
    return "?";
}

const char*
TraceBandName(TraceBand band)
{
    switch (band) {
      case TraceBand::kNone: return "none";
      case TraceBand::kCap: return "cap";
      case TraceBand::kUncap: return "uncap";
      case TraceBand::kHold: return "hold";
    }
    return "?";
}

std::string
TraceTransitionName(const TraceSpan& span)
{
    const char* from = span.was_capping ? "capping" : "settled";
    const char* to = "?";
    switch (span.band) {
      case TraceBand::kNone: to = span.was_capping ? "capping" : "settled"; break;
      case TraceBand::kCap: to = "capping"; break;
      case TraceBand::kUncap: to = "released"; break;
      case TraceBand::kHold: to = "held"; break;
    }
    return std::string(from) + "->" + to;
}

TraceLog::TraceLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

SpanId
TraceLog::Append(TraceSpan span)
{
    span.id = next_id_++;
    spans_.push_back(std::move(span));
    while (spans_.size() > capacity_) {
        spans_.pop_front();
        ++evicted_;
    }
    return spans_.back().id;
}

const TraceSpan*
TraceLog::Find(SpanId id) const
{
    if (spans_.empty()) return nullptr;
    const SpanId first = spans_.front().id;
    if (id < first || id >= next_id_) return nullptr;
    return &spans_[static_cast<std::size_t>(id - first)];
}

std::vector<const TraceSpan*>
TraceLog::ChildrenOf(SpanId id) const
{
    std::vector<const TraceSpan*> out;
    for (const TraceSpan& span : spans_) {
        if (span.parent == id) out.push_back(&span);
    }
    return out;
}

void
TraceLog::Clear()
{
    spans_.clear();
}

void
WriteSpan(Archive& ar, const TraceSpan& span)
{
    ar.U64(span.id);
    ar.U64(span.parent);
    ar.I64(span.time);
    ar.U8(static_cast<std::uint8_t>(span.kind));
    ar.Str(span.source);
    ar.U8(static_cast<std::uint8_t>(span.band));
    ar.Bool(span.was_capping);
    ar.U64(span.epoch);
    ar.F64(span.measured);
    ar.F64(span.limit);
    ar.F64(span.threshold);
    ar.F64(span.target);
    ar.F64(span.cut);
    ar.F64(span.planned_cut);
    ar.Bool(span.satisfied);
    ar.Bool(span.dry_run);
    ar.U64(span.groups.size());
    for (const TraceGroupCut& g : span.groups) {
        ar.I64(g.priority_group);
        ar.F64(g.cut);
        ar.I64(g.servers);
    }
    ar.U64(span.allocs.size());
    for (const TraceAllocation& a : span.allocs) {
        ar.Str(a.target);
        ar.F64(a.power);
        ar.F64(a.floor);
        ar.F64(a.quota);
        ar.F64(a.cut);
        ar.F64(a.limit_sent);
        ar.I64(a.bucket);
        ar.Bool(a.offender);
    }
}

namespace {

/** Smallest encodings WriteSpan gives a group (priority group, cut,
 *  servers) and an allocation (an empty target's length prefix, five
 *  doubles, the bucket and the offender flag). */
constexpr std::uint64_t kGroupMinBytes = 8 + 8 + 8;
constexpr std::uint64_t kAllocationMinBytes = 8 + 5 * 8 + 8 + 1;

/** Refuse a count of `what`s that the bytes left cannot hold, before
 *  reserve() turns a corrupt count into a huge allocation. */
void
CheckCount(const ArchiveReader& ar, std::uint64_t count,
           std::uint64_t min_bytes, const char* what)
{
    if (count > ar.remaining() / min_bytes) {
        throw std::runtime_error(std::string(what) + " count " +
                                 std::to_string(count) + " exceeds the " +
                                 std::to_string(ar.remaining()) +
                                 " bytes left at offset " +
                                 std::to_string(ar.pos()));
    }
}

}  // namespace

TraceSpan
ReadSpan(ArchiveReader& ar)
{
    TraceSpan span;
    span.id = ar.U64();
    span.parent = ar.U64();
    span.time = ar.I64();
    span.kind = static_cast<SpanKind>(ar.U8());
    span.source = ar.Str();
    span.band = static_cast<TraceBand>(ar.U8());
    span.was_capping = ar.Bool();
    span.epoch = ar.U64();
    span.measured = ar.F64();
    span.limit = ar.F64();
    span.threshold = ar.F64();
    span.target = ar.F64();
    span.cut = ar.F64();
    span.planned_cut = ar.F64();
    span.satisfied = ar.Bool();
    span.dry_run = ar.Bool();
    const std::uint64_t groups = ar.U64();
    CheckCount(ar, groups, kGroupMinBytes, "group");
    span.groups.reserve(groups);
    for (std::uint64_t i = 0; i < groups; ++i) {
        TraceGroupCut g;
        g.priority_group = static_cast<int>(ar.I64());
        g.cut = ar.F64();
        g.servers = static_cast<int>(ar.I64());
        span.groups.push_back(g);
    }
    const std::uint64_t allocs = ar.U64();
    CheckCount(ar, allocs, kAllocationMinBytes, "allocation");
    span.allocs.reserve(allocs);
    for (std::uint64_t i = 0; i < allocs; ++i) {
        TraceAllocation a;
        a.target = ar.Str();
        a.power = ar.F64();
        a.floor = ar.F64();
        a.quota = ar.F64();
        a.cut = ar.F64();
        a.limit_sent = ar.F64();
        a.bucket = static_cast<int>(ar.I64());
        a.offender = ar.Bool();
        span.allocs.push_back(std::move(a));
    }
    return span;
}

bool
SpansIdentical(const TraceSpan& a, const TraceSpan& b)
{
    // Serialize-and-compare gives bit-exact double comparison (NaN-safe,
    // -0.0 != +0.0) with no field forgotten when TraceSpan grows.
    Archive aa;
    Archive ab;
    WriteSpan(aa, a);
    WriteSpan(ab, b);
    return aa.bytes() == ab.bytes();
}

void
TraceLog::Snapshot(Archive& ar) const
{
    ar.U64(capacity_);
    ar.U64(next_id_);
    ar.U64(evicted_);
    ar.U64(spans_.size());
    for (const TraceSpan& span : spans_) WriteSpan(ar, span);
}

void
TraceLog::Restore(ArchiveReader& ar)
{
    capacity_ = ar.U64();
    next_id_ = ar.U64();
    evicted_ = ar.U64();
    const std::uint64_t count = ar.U64();
    spans_.clear();
    for (std::uint64_t i = 0; i < count; ++i) spans_.push_back(ReadSpan(ar));
}

}  // namespace dynamo::telemetry
