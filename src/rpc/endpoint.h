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

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
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
 */
class EndpointTable
{
  public:
    /** Return the id for `name`, interning it on first sight. */
    EndpointId Intern(const std::string& name)
    {
        const auto it = by_name_.find(name);
        if (it != by_name_.end()) return it->second;
        EndpointId id;
        if (!free_ids_.empty()) {
            id = free_ids_.back();
            free_ids_.pop_back();
            names_[id] = name;
        } else {
            id = static_cast<EndpointId>(names_.size());
            names_.push_back(name);
        }
        by_name_.emplace(name, id);
        return id;
    }

    /**
     * Forget `name` and queue its id for reuse. The id remains a valid
     * vector index until re-assigned; Find(name) misses immediately.
     * No-op for names never interned or already released.
     */
    void Release(const std::string& name)
    {
        const auto it = by_name_.find(name);
        if (it == by_name_.end()) return;
        free_ids_.push_back(it->second);
        by_name_.erase(it);
    }

    /** Id for `name`, or kInvalidEndpoint if never interned. Takes a
     *  view, so a name parsed out of a wire frame needs no copy. */
    EndpointId Find(std::string_view name) const
    {
        const auto it = by_name_.find(name);
        return it == by_name_.end() ? kInvalidEndpoint : it->second;
    }

    /** Name for a valid id (logging / error edges). */
    const std::string& Name(EndpointId id) const { return names_[id]; }

    std::size_t size() const { return names_.size(); }

    /** Released ids awaiting reuse. */
    std::size_t free_count() const { return free_ids_.size(); }

  private:
    /** Hashes names and views alike, for lookups by view. */
    struct NameHash
    {
        using is_transparent = void;

        std::size_t operator()(std::string_view name) const
        {
            return std::hash<std::string_view>{}(name);
        }
    };

    std::unordered_map<std::string, EndpointId, NameHash, std::equal_to<>>
        by_name_;
    std::vector<std::string> names_;
    std::vector<EndpointId> free_ids_;
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_ENDPOINT_H_
