/**
 * @file
 * Cross-shard message mailbox.
 *
 * Shards in the parallel engine share nothing during a window; the
 * only cross-shard channel is this mailbox, drained at the barrier.
 * A proxy handler on one shard's transport pushes payloads addressed
 * to endpoints living on another shard; the barrier thread drains the
 * queue in FIFO order and hands the whole batch to the target shard's
 * transport as ONE `CallBatch` delivery pass at the window boundary —
 * one kernel event per destination shard per window, never one Call
 * event (plus call record) per message. A message produced in window
 * W is therefore delivered in window W+1 — the contract-visibility
 * latency DESIGN.md §10 documents.
 *
 * Synchronization contract (why there are no atomics here): at most
 * one thread executes a given shard inside a window, so pushes are
 * single-producer; drains happen only on the barrier thread after the
 * worker pool has joined. The pool's handshake orders every push
 * before every drain and every drain before the next window's pushes,
 * so plain vector operations are sufficient and TSan-clean.
 */
#ifndef DYNAMO_RPC_MAILBOX_H_
#define DYNAMO_RPC_MAILBOX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "rpc/endpoint.h"
#include "rpc/transport.h"

namespace dynamo::rpc {

/**
 * One queued cross-shard request. The mailbox stores the transport's
 * batch-delivery item directly, so a drained queue feeds
 * `SimTransport::CallBatch` without re-packing: the `target` is the
 * endpoint id interned in the *destination* shard's transport.
 */
using ShardMessage = BatchItem;

/** FIFO mailbox of requests bound for one shard. */
class ShardMailbox
{
  public:
    /** Enqueue a request (producer side: the sending shard's window). */
    void Push(EndpointId target, Payload payload)
    {
        queue_.push_back(ShardMessage{target, std::move(payload)});
        ++total_pushed_;
    }

    /**
     * Take every queued message, leaving the mailbox empty (consumer
     * side: the barrier thread). FIFO order is part of the determinism
     * contract — the drain replays the sender's issue order, and
     * CallBatch preserves it through delivery.
     */
    std::vector<ShardMessage> Drain()
    {
        std::vector<ShardMessage> out;
        out.swap(queue_);
        return out;
    }

    std::size_t pending() const { return queue_.size(); }

    /** Messages ever pushed (monotonic; survives drains). */
    std::uint64_t total_pushed() const { return total_pushed_; }

  private:
    std::vector<ShardMessage> queue_;
    std::uint64_t total_pushed_ = 0;
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_MAILBOX_H_
