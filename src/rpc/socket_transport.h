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
 *   - **Routes**: a call targets an endpoint *name* (e.g.
 *     "agent:sb0/rpp0/s3"); `AddRoute` maps names to peer addresses.
 *     Endpoints registered locally are served in-process (loopback),
 *     matching SimTransport, so a daemon hosting several components
 *     needs no special casing.
 *   - **Connections**: one multiplexed, lazily-dialed, nonblocking
 *     connection per peer address, carrying wire::Frame streams in
 *     both directions; call_ids pair responses with requests.
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
#include <map>
#include <string>
#include <vector>

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

    bool operator<(const SocketAddress& o) const
    {
        return ToString() < o.ToString();
    }
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

    /** Map an endpoint name to the peer daemon serving it. */
    void AddRoute(const std::string& endpoint, const SocketAddress& address);

    /** Remove a route (e.g. after a decommission). */
    void RemoveRoute(const std::string& endpoint);

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
    struct PendingCall
    {
        std::uint64_t call_id = 0;
        Completion done;
        std::chrono::steady_clock::time_point deadline;
    };

    struct Connection
    {
        int fd = -1;
        bool connecting = false;   // nonblocking connect in flight
        bool inbound = false;      // accepted, not dialed
        SocketAddress peer;        // dial target (outbound only)
        wire::FrameReader reader;
        std::string write_buffer;
        std::vector<PendingCall> pending;
        std::chrono::steady_clock::time_point connect_deadline;
    };

    /** A call outcome captured during a poll pass; fired at the end
     *  of the pass so callbacks never mutate the fd set mid-iteration. */
    struct Finished
    {
        bool ok = false;
        Payload response;          // ok
        std::string reason;        // !ok: "connection failed" / "timeout"
        bool timed_out = false;    // !ok: counts rpc.timeouts vs rpc.errors
        Completion done;
    };

    /** Find or dial the connection for a peer address. */
    Connection* ConnectionFor(const SocketAddress& address);

    /** Queue an encoded frame on a connection. */
    void QueueFrame(Connection& conn, const wire::Frame& frame);

    /** Drain readable bytes; dispatch complete frames. Returns false
     *  when the connection died (caller must FailConnection). */
    bool ReadAndDispatch(Connection& conn, std::vector<Finished>& done);

    /** Serve one inbound request frame (invoke handler, queue reply). */
    void ServeRequest(Connection& conn, const wire::Frame& frame);

    /** Complete one pending call from a response/error frame. */
    void HandleReply(Connection& conn, const wire::Frame& frame,
                     std::vector<Finished>& done);

    /** Fail every pending call on a dead connection and drop it. */
    void FailConnection(std::size_t index, std::vector<Finished>& done);

    /** Fire captured outcomes (end of a poll pass). */
    std::size_t FireCompletions(std::vector<Finished>& done);

    Options options_;
    int listen_fd_ = -1;
    SocketAddress listen_address_;

    /** Endpoint name → peer address (names, not ids: routes can be
     *  added before the endpoint is ever interned by a call). */
    std::map<std::string, SocketAddress> routes_;

    std::vector<Connection> connections_;
    std::uint64_t next_call_id_ = 1;

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
