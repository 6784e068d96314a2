/**
 * @file
 * `SocketTransport`: the deployment-mode implementation of the
 * `Transport` interface over real TCP / Unix-domain sockets.
 *
 * This is the piece that lets the daemons (tools/dynamo_agentd,
 * tools/dynamo_controllerd) run the *unchanged* Agent / LeafController
 * / UpperController classes outside the simulator: the controllers see
 * the same asynchronous Call/Register surface, the same two error
 * strings, and the same `rpc.*` metric names as under SimTransport.
 *
 * Structure:
 *
 *   - **Routes**: `AddRoute` maps an endpoint name (e.g.
 *     "agent:sb0/rpp0/s3") to a peer address. It interns the name, so
 *     a call finds its route by `EndpointId`, an index into a table
 *     of distinct peers; the name is only copied into the request
 *     frame. Endpoints registered locally are served in-process
 *     (loopback), matching SimTransport, so a daemon hosting several
 *     components needs no special casing.
 *   - **Connections**: one multiplexed, lazily-dialed, nonblocking
 *     connection per peer address, carrying wire::Frame streams in
 *     both directions; call_ids pair responses with requests.
 *     Outbound frames are encoded in place into the connection's
 *     write buffer, inbound ones are parsed as views into its reader,
 *     and open calls sit in a per-connection table in issue order, so
 *     a call costs constant work and, once the buffers are warm, no
 *     heap allocation.
 *   - **Event loop**: the owner pumps `PollOnce(budget_ms)` — a single
 *     poll(2) pass over the listener and every connection. All
 *     callbacks (handlers and call completions) fire from inside
 *     PollOnce, never re-entrantly from Call, preserving the
 *     SimTransport ordering contract.
 *
 * Failure-semantics parity with SimTransport (the table DESIGN.md §12
 * documents):
 *
 *   SimTransport fate          SocketTransport condition        Reply::error()
 *   kFail / unregistered       no route; connect refused/reset; "connection
 *                              peer error-frame; torn stream     failed"
 *   kBlackhole / slow peer     no response within deadline      "timeout"
 *
 * Both implementations count the former in `rpc.errors` and the
 * latter in `rpc.timeouts` (and both in `rpc.failed`).
 */
#ifndef DYNAMO_RPC_SOCKET_TRANSPORT_H_
#define DYNAMO_RPC_SOCKET_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include <poll.h>

#include "rpc/transport.h"
#include "rpc/wire.h"

namespace dynamo::rpc {

/**
 * A peer address: "unix:/path/to.sock" or "tcp:host:port" (host is a
 * numeric IPv4 address; the control plane uses addresses from the
 * fleet spec, not DNS).
 */
struct SocketAddress
{
    enum class Family { kUnix, kTcp };

    Family family = Family::kUnix;
    std::string path;  // unix: filesystem path
    std::string host;  // tcp: numeric IPv4
    std::uint16_t port = 0;

    /** Parse "unix:..." / "tcp:host:port"; throws std::invalid_argument. */
    static SocketAddress Parse(const std::string& text);

    /** Canonical text form (inverse of Parse). */
    std::string ToString() const;

    bool operator==(const SocketAddress& o) const = default;
};

class SocketTransport final : public Transport
{
  public:
    struct Options
    {
        /** Stamped into every outgoing frame header. */
        std::uint64_t epoch = 0;

        /** Deadline granularity; expired calls are failed on the next
         *  PollOnce, so worst-case timeout slack is one poll budget. */
        std::chrono::milliseconds connect_timeout{1000};
    };

    SocketTransport();
    explicit SocketTransport(Options options);
    ~SocketTransport() override;

    /**
     * Bind and listen on `address`; inbound requests are dispatched to
     * locally registered handlers. A daemon calls this once at boot.
     * Throws std::runtime_error on bind/listen failure (address in
     * use, bad path).
     */
    void Listen(const SocketAddress& address);

    /** The bound listen address (for specs with port 0 — TCP only). */
    const SocketAddress& listen_address() const { return listen_address_; }

    /**
     * Map an endpoint name to the peer daemon serving it, replacing
     * any earlier route of the name. Interns the name, so the route
     * holds whether or not the name was called before.
     */
    void AddRoute(const std::string& endpoint, const SocketAddress& address);

    /** Transport::Deregister, dropping the endpoint's route first, so
     *  a later tenant of the recycled id does not inherit it. */
    void Deregister(EndpointId id) override;
    using Transport::Deregister;

    /**
     * One event-loop pass: accept, connect-complete, read, write,
     * dispatch complete frames, expire deadlines. Blocks in poll(2)
     * for at most `budget_ms` (0 = nonblocking pass). Returns the
     * number of frames dispatched (requests served + responses/errors
     * delivered + timeouts fired) — 0 means the pass was idle.
     */
    std::size_t PollOnce(int budget_ms);

    /** Calls issued and not yet completed (test/shutdown drains). */
    std::size_t pending_calls() const;

    void Call(EndpointId id, Payload request, Completion done,
              SimTime timeout_ms = 1000) override;
    using Transport::Call;

    /**
     * Fire-and-forget batch, as SimTransport::CallBatch: responses are
     * not awaited (frames carry call_id 0, which tells the peer to
     * skip the response), no timeout is armed, and an unroutable item
     * counts as an error at issue time.
     */
    std::size_t CallBatch(std::vector<BatchItem> batch) override;

    /** Update the epoch stamped into outgoing frames. */
    void set_epoch(std::uint64_t epoch) { options_.epoch = epoch; }

  private:
    using Deadline = std::chrono::steady_clock::time_point;

    /** A call outcome captured during a poll pass; fired at the end
     *  of the pass so callbacks never mutate the fd set mid-iteration. */
    struct Finished
    {
        enum class Outcome : std::uint8_t { kOk, kError, kTimeout };

        Outcome outcome = Outcome::kError;
        Payload response;    // kOk
        std::string reason;  // kError: the peer's reason; empty means
                             // kConnectionFailed
        Completion done;
    };

    /**
     * One connection's calls, in issue order. The table assigns call
     * ids, consecutive from 1, so a reply finds its call by offset from
     * the oldest id held. A reply or timeout closes its call in place;
     * once every older call is closed too, the head moves past the
     * whole closed prefix. Slots form a ring, so no call is shifted
     * while the table holds it.
     */
    class PendingTable
    {
      public:
        /** Open a call; returns its id. */
        std::uint64_t Add(Completion done, Deadline deadline);

        /** Close the open call `id`, moving its completion into
         *  `*done`. False when `id` is unknown or closed already (a
         *  reply that raced its own timeout). */
        bool Close(std::uint64_t id, Completion* done);

        /** Close every open call whose deadline is at or before `now`,
         *  in issue order, appending one `outcome` to `done` per call. */
        void CloseDue(Deadline now, Finished::Outcome outcome,
                      std::vector<Finished>& done);

        /** Calls issued and not yet closed. */
        std::size_t open() const { return open_; }

        /** No open call is due before this (a lower bound: calls that
         *  closed early may still hold it down until CloseDue). */
        Deadline earliest() const { return earliest_; }

      private:
        struct Slot
        {
            Completion done;
            Deadline deadline;
            bool open = false;
        };

        /** The i-th held call, oldest first. */
        Slot& At(std::size_t i)
        {
            return slots_[(head_ + i) & (slots_.size() - 1)];
        }

        /** Advance the head past closed calls. */
        void DropClosedPrefix();

        std::vector<Slot> slots_;  // size 0 or a power of two
        std::size_t head_ = 0;     // slot of the oldest held call
        std::size_t held_ = 0;     // calls from head on, open or closed
        std::size_t open_ = 0;
        std::uint64_t next_id_ = 1;
        Deadline earliest_ = Deadline::max();
    };

    /** No route (in routes_), or an accepted connection (peer). */
    static constexpr std::uint32_t kNoPeer = 0xffffffffu;

    struct Connection
    {
        int fd = -1;
        bool connecting = false;   // nonblocking connect in flight
        std::uint32_t peer = kNoPeer;  // dialed: index into peers_
        wire::FrameReader reader;
        std::string write_buffer;  // frames are encoded straight into it
        PendingTable pending;
        Deadline connect_deadline;
    };

    /** Find or dial the connection to the peer `id` is routed to;
     *  nullptr when it has no route or no socket could be made. */
    Connection* ConnectionTo(EndpointId id);

    /** Drain readable bytes of connections_[index]; dispatch complete
     *  frames. Returns false when the connection died (caller must
     *  FailConnection). */
    bool ReadAndDispatch(std::size_t index, std::vector<Finished>& done);

    /**
     * Serve one inbound request frame on connections_[index]: decode
     * the body, run the handler, queue the reply. The views in `frame`
     * are not touched once the handler runs, and the connection is
     * looked up again afterwards, since a handler may issue calls
     * that dial (and so move) connections.
     */
    void ServeRequest(std::size_t index, const wire::FrameView& frame);

    /** Complete one pending call from a response/error frame. */
    void HandleReply(Connection& conn, const wire::FrameView& frame,
                     std::vector<Finished>& done);

    /** Fail every pending call on a dead connection and drop it. */
    void FailConnection(std::size_t index, std::vector<Finished>& done);

    /** Fire captured outcomes (end of a poll pass). */
    std::size_t FireCompletions(std::vector<Finished>& done);

    Options options_;
    int listen_fd_ = -1;
    SocketAddress listen_address_;

    /** The distinct addresses routes lead to. */
    std::vector<SocketAddress> peers_;

    /** Route per EndpointId: an index into peers_, or kNoPeer.
     *  AddRoute interns the name, so a route exists before the name
     *  is first called; Deregister clears it with the name. */
    std::vector<std::uint32_t> routes_;

    std::vector<Connection> connections_;

    /** PollOnce's scratch, kept for its capacity. A pass swaps each
     *  into a local, so a completion that re-enters the transport
     *  works on vectors of its own. */
    std::vector<Finished> done_;
    std::vector<pollfd> fds_;
    std::vector<std::size_t> conn_of_fd_;  // parallel: index into connections_

    /** Calls to locally registered endpoints, served next PollOnce. */
    struct LocalCall
    {
        EndpointId target = kInvalidEndpoint;
        Payload request;
        Completion done;
        bool fire_and_forget = false;
    };
    std::deque<LocalCall> local_calls_;
};

}  // namespace dynamo::rpc

#endif  // DYNAMO_RPC_SOCKET_TRANSPORT_H_
