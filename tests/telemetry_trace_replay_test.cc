/**
 * @file
 * TraceLog ring semantics under snapshot/restore — the behaviors the
 * replay subsystem leans on: id-watermark consumers must resume
 * correctly across a checkpoint restore, Find() must miss (not crash,
 * not alias) for evicted ids, and eviction accounting must survive the
 * round trip.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/archive.h"
#include "telemetry/trace.h"

namespace dynamo::telemetry {
namespace {

TraceSpan
MakeSpan(SimTime time, const std::string& source)
{
    TraceSpan span;
    span.time = time;
    span.source = source;
    span.kind = SpanKind::kLeafDecision;
    span.band = TraceBand::kCap;
    span.measured = 1000.0 + static_cast<double>(time);
    span.limit = 1200.0;
    span.groups.push_back(TraceGroupCut{2, 50.0, 3});
    TraceAllocation alloc;
    alloc.target = "agent:srv-" + source;
    alloc.power = 250.0;
    alloc.cut = 25.0;
    alloc.limit_sent = 225.0;
    alloc.bucket = 4;
    span.allocs.push_back(alloc);
    return span;
}

TEST(TraceLogRing, FindMissesAfterEviction)
{
    TraceLog log(4);
    for (int i = 0; i < 10; ++i) {
        log.Append(MakeSpan(i * 1000, "ctl:rpp0"));
    }
    // Ids 1..6 evicted, 7..10 retained.
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.evicted(), 6u);
    EXPECT_EQ(log.first_id(), 7u);
    for (SpanId id = 1; id <= 6; ++id) {
        EXPECT_EQ(log.Find(id), nullptr) << "id " << id;
    }
    for (SpanId id = 7; id <= 10; ++id) {
        ASSERT_NE(log.Find(id), nullptr) << "id " << id;
        EXPECT_EQ(log.Find(id)->id, id);
    }
}

TEST(TraceLogRing, SnapshotRestoreIsExact)
{
    TraceLog log(8);
    for (int i = 0; i < 13; ++i) {
        log.Append(MakeSpan(i * 500, "ctl:sb0"));
    }
    Archive ar;
    log.Snapshot(ar);

    TraceLog restored(2);  // Different initial shape; Restore overrides.
    ArchiveReader reader(ar.bytes());
    restored.Restore(reader);

    EXPECT_EQ(restored.capacity(), log.capacity());
    EXPECT_EQ(restored.size(), log.size());
    EXPECT_EQ(restored.next_id(), log.next_id());
    EXPECT_EQ(restored.evicted(), log.evicted());
    EXPECT_EQ(restored.first_id(), log.first_id());
    for (SpanId id = log.first_id(); id < log.next_id(); ++id) {
        ASSERT_NE(restored.Find(id), nullptr);
        EXPECT_TRUE(SpansIdentical(*restored.Find(id), *log.Find(id)));
    }

    // Re-snapshot of the restored log is byte-identical.
    Archive again;
    restored.Snapshot(again);
    EXPECT_EQ(again.bytes(), ar.bytes());
}

TEST(TraceLogRing, FindMissesForEvictedIdsAfterRestore)
{
    TraceLog log(3);
    for (int i = 0; i < 9; ++i) log.Append(MakeSpan(i, "ctl:rpp1"));
    Archive ar;
    log.Snapshot(ar);
    TraceLog restored;
    ArchiveReader reader(ar.bytes());
    restored.Restore(reader);
    for (SpanId id = 1; id < restored.first_id(); ++id) {
        EXPECT_EQ(restored.Find(id), nullptr);
    }
}

TEST(TraceLogRing, WatermarkConsumerResumesAcrossRestore)
{
    // A watermark consumer (the recorder, the invariant checker)
    // tracks "next id to read". Snapshot the log mid-stream, restore
    // into a fresh ring, keep appending: the consumer must see every
    // span exactly once, with no gap and no repeat.
    TraceLog log(16);
    SpanId watermark = 1;
    std::size_t consumed = 0;

    const auto drain = [&](TraceLog& from) {
        for (; watermark < from.next_id(); ++watermark) {
            ASSERT_NE(from.Find(watermark), nullptr);
            ++consumed;
        }
    };

    for (int i = 0; i < 5; ++i) log.Append(MakeSpan(i, "ctl:a"));
    drain(log);
    EXPECT_EQ(consumed, 5u);

    Archive ar;
    log.Snapshot(ar);
    TraceLog restored;
    ArchiveReader reader(ar.bytes());
    restored.Restore(reader);

    // Appends to the restored log continue the id sequence exactly.
    for (int i = 5; i < 9; ++i) restored.Append(MakeSpan(i, "ctl:a"));
    drain(restored);
    EXPECT_EQ(consumed, 9u);
    EXPECT_EQ(watermark, restored.next_id());
}

TEST(TraceLogRing, EvictionCountersSurviveRestoreAndKeepCounting)
{
    TraceLog log(2);
    for (int i = 0; i < 7; ++i) log.Append(MakeSpan(i, "ctl:b"));
    EXPECT_EQ(log.evicted(), 5u);
    EXPECT_EQ(log.total_appended(), 7u);

    Archive ar;
    log.Snapshot(ar);
    TraceLog restored;
    ArchiveReader reader(ar.bytes());
    restored.Restore(reader);
    EXPECT_EQ(restored.evicted(), 5u);
    EXPECT_EQ(restored.total_appended(), 7u);

    // Eviction accounting continues from the restored point.
    restored.Append(MakeSpan(100, "ctl:b"));
    EXPECT_EQ(restored.evicted(), 6u);
    EXPECT_EQ(restored.total_appended(), 8u);
}

TEST(TraceLogRing, SpanBinaryRoundTripPreservesEveryField)
{
    TraceSpan span = MakeSpan(1234, "ctl:rpp7");
    span.parent = 42;
    span.was_capping = true;
    span.satisfied = false;
    span.dry_run = true;
    span.target = 1100.25;
    span.planned_cut = 33.125;
    span.allocs[0].offender = true;
    span.allocs[0].quota = 312.5;
    span.id = 77;

    Archive ar;
    WriteSpan(ar, span);
    ArchiveReader reader(ar.bytes());
    const TraceSpan back = ReadSpan(reader);
    EXPECT_TRUE(SpansIdentical(span, back));
    EXPECT_TRUE(reader.AtEnd());

    // Any field mutation is visible to SpansIdentical.
    TraceSpan tweaked = back;
    tweaked.measured += 1e-12;
    EXPECT_FALSE(SpansIdentical(span, tweaked));
}

/** `bytes` with the u64 `at_from_end` bytes before its end set to `v`. */
std::string
WithWordFromEnd(std::string bytes, std::size_t at_from_end, std::uint64_t v)
{
    const std::size_t at = bytes.size() - at_from_end;
    for (std::size_t i = 0; i < 8; ++i) {
        bytes[at + i] = static_cast<char>(v >> (8 * i));
    }
    return bytes;
}

TEST(TraceLogRing, SpanCountsLongerThanTheInputThrowRuntimeError)
{
    // With no groups and no allocations, a span's bytes end in the
    // group count and then the allocation count.
    TraceSpan span = MakeSpan(5, "ctl:rpp1");
    span.groups.clear();
    span.allocs.clear();
    Archive ar;
    WriteSpan(ar, span);
    const std::string tail(200, '\0');

    // Such counts must be refused before vector::reserve sees them: it
    // throws std::length_error for 2^61 allocations, and 2^27 asks it
    // for about 10 GB.
    for (const std::uint64_t count :
         {std::uint64_t{1} << 61, std::uint64_t{1} << 27}) {
        SCOPED_TRACE(count);
        const std::string allocs =
            WithWordFromEnd(ar.bytes(), 8, count) + tail;
        ArchiveReader allocs_reader(allocs);
        EXPECT_THROW(ReadSpan(allocs_reader), std::runtime_error);

        const std::string groups =
            WithWordFromEnd(ar.bytes(), 16, count) + tail;
        ArchiveReader groups_reader(groups);
        EXPECT_THROW(ReadSpan(groups_reader), std::runtime_error);
    }

    // An allocation with an empty target is the smallest there is, and
    // a count that exactly fills the input still reads.
    TraceSpan smallest = span;
    smallest.allocs.emplace_back();
    Archive exact;
    WriteSpan(exact, smallest);
    ArchiveReader reader(exact.bytes());
    EXPECT_TRUE(SpansIdentical(ReadSpan(reader), smallest));
    EXPECT_TRUE(reader.AtEnd());
}

}  // namespace
}  // namespace dynamo::telemetry
