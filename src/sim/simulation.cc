#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "common/archive.h"

namespace dynamo::sim {

namespace {

/** A purge sweep is worth it only past this cancelled backlog. */
constexpr std::size_t kPurgeThreshold = 1024;

}  // namespace

bool Simulation::FarLater(const FarEntry& a, const FarEntry& b)
{
    return a.when > b.when || (a.when == b.when && a.seq > b.seq);
}

Simulation::Simulation() : table_(std::make_shared<detail::TaskTable>()) {}

void Simulation::Snapshot(Archive& ar) const
{
    ar.I64(now_);
    ar.I64(wheel_time_);
    ar.U64(next_seq_);
    ar.U64(events_executed_);
    ar.U64(table_->live);
    ar.U64(table_->lazy_cancelled);
    ar.U64(kernel_stats_.cascades);
    ar.U64(kernel_stats_.far_drains);
    ar.U64(kernel_stats_.purges);
    ar.U64(kernel_stats_.slot_sorts);
}

Simulation::~Simulation() = default;

std::uint32_t Simulation::AllocNode()
{
    if (free_head_ != kNil) {
        const std::uint32_t idx = free_head_;
        free_head_ = pool_[idx].next;
        return idx;
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
    table_->slots.emplace_back();
    return idx;
}

void Simulation::FreeNode(std::uint32_t idx)
{
    EventNode& node = pool_[idx];
    node.fn = Callback{};
    node.next = free_head_;
    free_head_ = idx;
    detail::TaskTable::Slot& slot = table_->slots[idx];
    ++slot.gen;  // invalidates outstanding handles (ABA guard)
    slot.state = detail::TaskTable::kFree;
    slot.cancelled = false;
}

TaskHandle Simulation::ScheduleAt(SimTime when, Callback fn)
{
    assert(when >= now_ && "cannot schedule in the past");
    return Schedule(when, std::move(fn), /*period=*/0);
}

TaskHandle Simulation::ScheduleAfter(SimTime delay, Callback fn)
{
    return Schedule(now_ + delay, std::move(fn), /*period=*/0);
}

TaskHandle Simulation::SchedulePeriodic(SimTime period, Callback fn,
                                        SimTime initial_delay)
{
    assert(period > 0 && "periodic task needs positive period");
    if (initial_delay < 0) initial_delay = period;
    return Schedule(now_ + initial_delay, std::move(fn), period);
}

TaskHandle Simulation::Schedule(SimTime when, Callback fn, SimTime period)
{
    // The wheel position can lag `now_` after an idle RunUntil; catch
    // up before inserting so level selection sees a current origin.
    if (now_ > wheel_time_) SetWheelTime(now_);
    MaybePurge();

    const std::uint32_t idx = AllocNode();
    EventNode& node = pool_[idx];
    node.when = when;
    node.seq = next_seq_++;
    node.period = period;
    node.fn = std::move(fn);

    detail::TaskTable::Slot& slot = table_->slots[idx];
    slot.state = detail::TaskTable::kQueued;
    slot.cancelled = false;
    ++table_->live;

    InsertNode(idx);
    return TaskHandle(table_, idx, slot.gen);
}

void Simulation::Append(Bucket& bucket, std::uint32_t idx)
{
    pool_[idx].next = kNil;
    if (bucket.head == kNil) {
        bucket.head = bucket.tail = idx;
    } else {
        pool_[bucket.tail].next = idx;
        bucket.tail = idx;
    }
}

void Simulation::InsertNode(std::uint32_t idx)
{
    const SimTime when = pool_[idx].when;
    if ((when >> kL0Bits) == (wheel_time_ >> kL0Bits)) {
        const int slot = static_cast<int>(when & (kL0Slots - 1));
        Append(l0_[slot], idx);
        l0_bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
        return;
    }
    for (int k = 1; k <= kLevels; ++k) {
        const int shift = LevelShift(k);
        if ((when >> (shift + kLevelBits)) ==
            (wheel_time_ >> (shift + kLevelBits))) {
            const int slot =
                static_cast<int>((when >> shift) & (kLevelSlots - 1));
            Append(up_[k - 1][slot], idx);
            up_bitmap_[k - 1] |= std::uint64_t{1} << slot;
            return;
        }
    }
    far_.push_back({when, pool_[idx].seq, idx});
    std::push_heap(far_.begin(), far_.end(), FarLater);
}

void Simulation::CascadeBucket(Bucket& bucket)
{
    ++kernel_stats_.cascades;
    std::uint32_t idx = bucket.head;
    bucket.head = bucket.tail = kNil;
    while (idx != kNil) {
        const std::uint32_t next = pool_[idx].next;
        InsertNode(idx);
        idx = next;
    }
}

void Simulation::DrainFarHeap()
{
    const int top = LevelShift(kLevels) + kLevelBits;
    while (!far_.empty() &&
           (far_.front().when >> top) == (wheel_time_ >> top)) {
        const std::uint32_t idx = far_.front().idx;
        std::pop_heap(far_.begin(), far_.end(), FarLater);
        far_.pop_back();
        InsertNode(idx);
        ++kernel_stats_.far_drains;
    }
}

void Simulation::SetWheelTime(SimTime target)
{
    if (target <= wheel_time_) return;
    const SimTime old = wheel_time_;
    wheel_time_ = target;

    const int top = LevelShift(kLevels) + kLevelBits;
    if ((target >> top) != (old >> top)) DrainFarHeap();

    // Entering a new window at level k means the slot now containing
    // the wheel position must cascade down. Top-down, so every event
    // reaches its final level in one pass. Slots skipped by a
    // multi-window jump are provably empty: FindNext advances
    // window-start by window-start in event order, and idle catch-up
    // jumps only to times at or before every queued event.
    for (int k = kLevels; k >= 1; --k) {
        const int shift = LevelShift(k);
        if ((target >> shift) != (old >> shift)) {
            const int slot =
                static_cast<int>((target >> shift) & (kLevelSlots - 1));
            up_bitmap_[k - 1] &= ~(std::uint64_t{1} << slot);
            CascadeBucket(up_[k - 1][slot]);
        }
    }
}

int Simulation::ScanL0(int from) const
{
    int word = from >> 6;
    std::uint64_t bits = l0_bitmap_[word] & (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (bits != 0) return (word << 6) + std::countr_zero(bits);
        if (++word >= kL0Slots / 64) return -1;
        bits = l0_bitmap_[word];
    }
}

bool Simulation::FindNext(SimTime limit, SimTime* out_time)
{
    while (true) {
        // Nearest occupied 1 ms slot in the current level-0 block.
        const int cursor = static_cast<int>(wheel_time_ & (kL0Slots - 1));
        const int slot = ScanL0(cursor);
        if (slot >= 0) {
            const SimTime t =
                (wheel_time_ & ~static_cast<SimTime>(kL0Slots - 1)) + slot;
            if (t > limit) return false;
            wheel_time_ = t;  // same block: no cascades needed
            *out_time = t;
            return true;
        }

        // Otherwise: the earliest candidate window across upper levels
        // and the far heap. A level's own-cursor slot is always empty
        // (those times map to a lower level), so scan past it; the
        // lowest level with a hit bounds all higher levels' windows.
        SimTime best = std::numeric_limits<SimTime>::max();
        bool found = false;
        for (int k = 1; k <= kLevels; ++k) {
            const int shift = LevelShift(k);
            const int cur =
                static_cast<int>((wheel_time_ >> shift) & (kLevelSlots - 1));
            std::uint64_t bits = up_bitmap_[k - 1];
            bits = (cur + 1 < kLevelSlots)
                       ? bits & (~std::uint64_t{0} << (cur + 1))
                       : 0;
            if (bits == 0) continue;
            const int s = std::countr_zero(bits);
            const SimTime base = (wheel_time_ >> (shift + kLevelBits))
                                 << (shift + kLevelBits);
            best = base + (static_cast<SimTime>(s) << shift);
            found = true;
            break;
        }
        if (!far_.empty() && (!found || far_.front().when < best)) {
            best = far_.front().when;
            found = true;
        }
        if (!found || best > limit) return false;
        SetWheelTime(best);  // cascades the chosen window; loop rescans
    }
}

void Simulation::ExecuteSlot(SimTime t)
{
    const int slot = static_cast<int>(t & (kL0Slots - 1));
    Bucket& bucket = l0_[slot];

    // Callbacks can schedule new events for this same millisecond;
    // they land in the (now empty) bucket and the outer loop re-runs.
    while (bucket.head != kNil) {
        std::uint32_t head = bucket.head;
        bucket.head = bucket.tail = kNil;
        l0_bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));

        // Wheel slots are FIFO, so a chain is almost always already in
        // seq order; a cascade merging behind direct inserts can break
        // that, so verify before executing (determinism pin).
        bool sorted = true;
        std::uint64_t prev_seq = 0;
        bool first = true;
        for (std::uint32_t i = head; i != kNil; i = pool_[i].next) {
            if (!first && pool_[i].seq < prev_seq) {
                sorted = false;
                break;
            }
            prev_seq = pool_[i].seq;
            first = false;
        }
        if (!sorted) {
            ++kernel_stats_.slot_sorts;
            std::vector<std::uint32_t> order;
            for (std::uint32_t i = head; i != kNil; i = pool_[i].next) {
                order.push_back(i);
            }
            std::sort(order.begin(), order.end(),
                      [this](std::uint32_t a, std::uint32_t b) {
                          return pool_[a].seq < pool_[b].seq;
                      });
            for (std::size_t i = 0; i + 1 < order.size(); ++i) {
                pool_[order[i]].next = order[i + 1];
            }
            pool_[order.back()].next = kNil;
            head = order.front();
        }

        for (std::uint32_t idx = head; idx != kNil;) {
            // Read the link first: executing can free/reuse this node.
            const std::uint32_t next = pool_[idx].next;
            detail::TaskTable::Slot& state = table_->slots[idx];
            if (state.cancelled) {
                --table_->lazy_cancelled;
                FreeNode(idx);
                idx = next;
                continue;
            }
            state.state = detail::TaskTable::kExecuting;
            --table_->live;
            now_ = t;
            ++events_executed_;
            if (event_digest_ != nullptr) {
                event_digest_->Mix(static_cast<std::uint64_t>(t));
                event_digest_->Mix(pool_[idx].seq);
            }

            // Move the callback out before invoking: the callback may
            // schedule events and grow the slab, invalidating every
            // reference into it — including its own storage.
            Callback fn = std::move(pool_[idx].fn);
            const SimTime period = pool_[idx].period;
            fn();

            detail::TaskTable::Slot& after = table_->slots[idx];
            if (period > 0 && !after.cancelled) {
                // Periodic fast path: relink the same node. Seq is
                // assigned after the callback, matching the seed
                // kernel's re-push order for same-timestamp events.
                EventNode& node = pool_[idx];
                node.when = t + period;
                node.seq = next_seq_++;
                node.fn = std::move(fn);
                after.state = detail::TaskTable::kQueued;
                ++table_->live;
                InsertNode(idx);
            } else {
                FreeNode(idx);
            }
            idx = next;
        }
    }
}

void Simulation::RunUntil(SimTime deadline)
{
    SimTime t = 0;
    while (FindNext(deadline, &t)) ExecuteSlot(t);
    // Advance the clock to the deadline even if the queue drained early
    // so callers can interleave RunFor() with direct state inspection.
    if (now_ < deadline) now_ = deadline;
}

void Simulation::RunAll()
{
    constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
    SimTime t = 0;
    while (FindNext(kForever, &t)) ExecuteSlot(t);
}

void Simulation::MaybePurge()
{
    if (table_->lazy_cancelled >= kPurgeThreshold &&
        table_->lazy_cancelled > table_->live) {
        PurgeCancelled();
    }
}

void Simulation::PurgeBucket(Bucket& bucket)
{
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t idx = bucket.head;
    while (idx != kNil) {
        const std::uint32_t next = pool_[idx].next;
        if (table_->slots[idx].cancelled) {
            --table_->lazy_cancelled;
            FreeNode(idx);
        } else if (head == kNil) {
            head = tail = idx;
            pool_[idx].next = kNil;
        } else {
            pool_[tail].next = idx;
            pool_[idx].next = kNil;
            tail = idx;
        }
        idx = next;
    }
    bucket.head = head;
    bucket.tail = tail;
}

void Simulation::PurgeCancelled()
{
    ++kernel_stats_.purges;
    for (int slot = 0; slot < kL0Slots; ++slot) {
        if (l0_[slot].head == kNil) continue;
        PurgeBucket(l0_[slot]);
        if (l0_[slot].head == kNil) {
            l0_bitmap_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
        }
    }
    for (int k = 0; k < kLevels; ++k) {
        for (int slot = 0; slot < kLevelSlots; ++slot) {
            if (up_[k][slot].head == kNil) continue;
            PurgeBucket(up_[k][slot]);
            if (up_[k][slot].head == kNil) {
                up_bitmap_[k] &= ~(std::uint64_t{1} << slot);
            }
        }
    }
    const auto cancelled = [this](const FarEntry& e) {
        return table_->slots[e.idx].cancelled;
    };
    if (std::any_of(far_.begin(), far_.end(), cancelled)) {
        for (const FarEntry& e : far_) {
            if (cancelled(e)) {
                --table_->lazy_cancelled;
                FreeNode(e.idx);
            }
        }
        far_.erase(std::remove_if(far_.begin(), far_.end(), cancelled),
                   far_.end());
        std::make_heap(far_.begin(), far_.end(), FarLater);
    }
}

}  // namespace dynamo::sim
