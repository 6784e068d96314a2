/**
 * @file
 * Endpoint interning.
 *
 * A 10k-server suite routes millions of RPCs per simulated hour; keying
 * transport routing and fault state by `std::string` makes every call
 * hash and compare a heap string. Endpoints are instead interned once
 * into a dense 32-bit `EndpointId`, and every hot lookup (handler
 * dispatch, fault decision, latency override) becomes a vector index.
 * Human-readable names survive in the table for construction-time
 * resolution and logging edges.
 */
#ifndef DYNAMO_RPC_ENDPOINT_H_
#define DYNAMO_RPC_ENDPOINT_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace dynamo::rpc {

/** Dense interned endpoint identity; index into per-endpoint vectors. */
using EndpointId = std::uint32_t;

/** Sentinel for "no such endpoint". */
inline constexpr EndpointId kInvalidEndpoint = 0xffffffffu;

/**
 * Bidirectional name <-> id intern table. Ids are assigned densely in
 * interning order; a Released id stays valid as a vector index (its
 * per-endpoint state slots survive) and is recycled for the next
 * Intern of a *new* name. Reuse is LIFO, so identical intern/release
 * sequences produce identical id assignments on every run — fleet
 * reconfiguration stays deterministic across thread counts.
 *
 * The table keeps the only copy of every name: agents and leaf rosters
 * hold ids and read names back through Name(). Names sit in a deque,
 * so a reference returned by Name() survives later interning. The
 * name -> id index is open addressing over ids (4 bytes a slot, at
 * most half full, linear probing); a released name leaves a tombstone
 * that the next growth or rebuild sweeps out.
 */
class EndpointTable
{
  public:
    /** Return the id for `name`, interning it on first sight. */
    EndpointId Intern(std::string_view name)
    {
        const EndpointId known = Find(name);
        if (known != kInvalidEndpoint) return known;
        if (2 * (used_ + 1) > index_.size()) Rebuild();
        const std::size_t mask = index_.size() - 1;
        std::size_t slot = Hash(name) & mask;
        while (index_[slot] != kEmptySlot && index_[slot] != kTombstone) {
            slot = (slot + 1) & mask;
        }
        if (index_[slot] == kEmptySlot) ++used_;  // tombstones count already
        EndpointId id;
        if (!free_ids_.empty()) {
            id = free_ids_.back();
            free_ids_.pop_back();
            names_[id] = name;
        } else {
            id = static_cast<EndpointId>(names_.size());
            names_.emplace_back(name);
        }
        index_[slot] = id;
        return id;
    }

    /**
     * Forget `name` and queue its id for reuse. The id remains a valid
     * vector index until re-assigned; Find(name) misses immediately.
     * No-op for names never interned or already released.
     */
    void Release(std::string_view name)
    {
        const std::size_t slot = SlotOf(name);
        if (slot == index_.size()) return;
        free_ids_.push_back(index_[slot]);
        index_[slot] = kTombstone;
    }

    /** Id for `name`, or kInvalidEndpoint if never interned. Takes a
     *  view, so a name parsed out of a wire frame needs no copy. */
    EndpointId Find(std::string_view name) const
    {
        const std::size_t slot = SlotOf(name);
        return slot == index_.size() ? kInvalidEndpoint : index_[slot];
    }

    /** Name for a valid id. The reference stays valid while later
     *  names are interned; a released id keeps its old name until it
     *  is recycled. */
    const std::string& Name(EndpointId id) const { return names_[id]; }

    std::size_t size() const { return names_.size(); }

    /** Released ids awaiting reuse. */
    std::size_t free_count() const { return free_ids_.size(); }

  private:
    static constexpr EndpointId kEmptySlot = kInvalidEndpoint;
    static constexpr EndpointId kTombstone = kInvalidEndpoint - 1;

    static std::size_t Hash(std::string_view name)
    {
        return std::hash<std::string_view>{}(name);
    }

    /** Index slot holding `name`'s id, or index_.size() on a miss. */
    std::size_t SlotOf(std::string_view name) const
    {
        if (index_.empty()) return 0;
        const std::size_t mask = index_.size() - 1;
        for (std::size_t slot = Hash(name) & mask;; slot = (slot + 1) & mask) {
            const EndpointId id = index_[slot];
            if (id == kEmptySlot) return index_.size();
            if (id != kTombstone && names_[id] == name) return slot;
        }
    }

    /**
     * Re-insert the live ids into a fresh index at most a quarter
     * full, dropping tombstones; the size doubles only when the live
     * names need it.
     */
    void Rebuild()
    {
        const std::size_t live = names_.size() - free_ids_.size();
        std::size_t slots = 16;
        while (slots < 4 * (live + 1)) slots *= 2;
        std::vector<EndpointId> old(slots, kEmptySlot);
        old.swap(index_);
        const std::size_t mask = slots - 1;
        for (const EndpointId id : old) {
            if (id == kEmptySlot || id == kTombstone) continue;
            std::size_t slot = Hash(names_[id]) & mask;
            while (index_[slot] != kEmptySlot) slot = (slot + 1) & mask;
            index_[slot] = id;
        }
        used_ = live;
    }

    std::deque<std::string> names_;

    /** Name -> id index: power-of-two size, at most half full. */
    std::vector<EndpointId> index_;

    /** Index slots holding an id or a tombstone. */
    std::size_t used_ = 0;

    std::vector<EndpointId> free_ids_;
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_ENDPOINT_H_
