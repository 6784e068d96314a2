#include "rpc/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dynamo::rpc {

namespace {

void SetNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") +
                                 std::strerror(errno));
    }
}

/** Build the sockaddr for an address; returns the length used. */
socklen_t FillSockaddr(const SocketAddress& address, sockaddr_storage* out)
{
    std::memset(out, 0, sizeof *out);
    if (address.family == SocketAddress::Family::kUnix) {
        auto* sun = reinterpret_cast<sockaddr_un*>(out);
        sun->sun_family = AF_UNIX;
        if (address.path.size() >= sizeof sun->sun_path) {
            throw std::invalid_argument("unix socket path too long: " +
                                        address.path);
        }
        std::memcpy(sun->sun_path, address.path.c_str(),
                    address.path.size() + 1);
        return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                      address.path.size() + 1);
    }
    auto* sin = reinterpret_cast<sockaddr_in*>(out);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sin->sin_addr) != 1) {
        throw std::invalid_argument("bad IPv4 address: " + address.host);
    }
    return sizeof(sockaddr_in);
}

int DomainOf(const SocketAddress& address)
{
    return address.family == SocketAddress::Family::kUnix ? AF_UNIX : AF_INET;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketAddress
// ---------------------------------------------------------------------------

SocketAddress
SocketAddress::Parse(const std::string& text)
{
    SocketAddress a;
    if (text.rfind("unix:", 0) == 0) {
        a.family = Family::kUnix;
        a.path = text.substr(5);
        if (a.path.empty()) {
            throw std::invalid_argument("empty unix socket path in \"" + text +
                                        "\"");
        }
        return a;
    }
    if (text.rfind("tcp:", 0) == 0) {
        a.family = Family::kTcp;
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size()) {
            throw std::invalid_argument("expected tcp:host:port, got \"" +
                                        text + "\"");
        }
        a.host = rest.substr(0, colon);
        const std::string port_text = rest.substr(colon + 1);
        std::size_t used = 0;
        unsigned long port = 0;
        try {
            port = std::stoul(port_text, &used);
        } catch (const std::exception&) {
            throw std::invalid_argument("bad port \"" + port_text + "\" in \"" +
                                        text + "\"");
        }
        if (used != port_text.size() || port > 65535) {
            throw std::invalid_argument("bad port \"" + port_text + "\" in \"" +
                                        text + "\"");
        }
        a.port = static_cast<std::uint16_t>(port);
        return a;
    }
    throw std::invalid_argument(
        "address must start with unix: or tcp:, got \"" + text + "\"");
}

std::string
SocketAddress::ToString() const
{
    if (family == Family::kUnix) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

SocketTransport::SocketTransport() : SocketTransport(Options{}) {}

SocketTransport::SocketTransport(Options options) : options_(options) {}

SocketTransport::~SocketTransport()
{
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (Connection& conn : connections_) {
        if (conn.fd >= 0) ::close(conn.fd);
    }
}

void
SocketTransport::Listen(const SocketAddress& address)
{
    if (listen_fd_ >= 0) {
        throw std::logic_error("SocketTransport::Listen: already listening on " +
                               listen_address_.ToString());
    }
    const int fd = ::socket(DomainOf(address), SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("socket(): ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    if (address.family == SocketAddress::Family::kTcp) {
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    } else {
        // A crashed predecessor leaves its socket file behind; a
        // restarted daemon must be able to rebind the same path.
        ::unlink(address.path.c_str());
    }
    sockaddr_storage ss;
    const socklen_t len = FillSockaddr(address, &ss);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&ss), len) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("bind(" + address.ToString() +
                                 "): " + std::strerror(err));
    }
    if (::listen(fd, 64) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("listen(" + address.ToString() +
                                 "): " + std::strerror(err));
    }
    SetNonBlocking(fd);
    listen_fd_ = fd;
    listen_address_ = address;
    if (address.family == SocketAddress::Family::kTcp && address.port == 0) {
        sockaddr_in bound;
        socklen_t bound_len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0) {
            listen_address_.port = ntohs(bound.sin_port);
        }
    }
}

void
SocketTransport::AddRoute(const std::string& endpoint,
                          const SocketAddress& address)
{
    const EndpointId id = endpoints_.Intern(endpoint);
    auto peer = std::find(peers_.begin(), peers_.end(), address);
    if (peer == peers_.end()) peer = peers_.insert(peer, address);
    if (routes_.size() <= id) routes_.resize(id + 1, kNoPeer);
    routes_[id] = static_cast<std::uint32_t>(peer - peers_.begin());
}

void
SocketTransport::Deregister(EndpointId id)
{
    if (id < routes_.size()) routes_[id] = kNoPeer;
    Transport::Deregister(id);
}

SocketTransport::Connection*
SocketTransport::ConnectionTo(EndpointId id)
{
    const std::uint32_t peer = id < routes_.size() ? routes_[id] : kNoPeer;
    if (peer == kNoPeer) return nullptr;
    for (Connection& conn : connections_) {
        if (conn.fd >= 0 && conn.peer == peer) return &conn;
    }
    const SocketAddress& address = peers_[peer];
    const int fd = ::socket(DomainOf(address), SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    SetNonBlocking(fd);
    if (address.family == SocketAddress::Family::kTcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    sockaddr_storage ss;
    socklen_t len = 0;
    try {
        len = FillSockaddr(address, &ss);
    } catch (const std::invalid_argument&) {
        ::close(fd);
        return nullptr;
    }
    Connection conn;
    conn.fd = fd;
    conn.peer = peer;
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&ss), len);
    if (rc < 0 && errno != EINPROGRESS) {
        // Prompt refusal (common for unix sockets with no listener):
        // keep the connection object so the caller's pending entry has
        // somewhere to live; the next poll pass fails it cleanly.
        conn.connecting = true;
        conn.connect_deadline = std::chrono::steady_clock::now();
    } else if (rc < 0) {
        conn.connecting = true;
        conn.connect_deadline =
            std::chrono::steady_clock::now() + options_.connect_timeout;
    }
    connections_.push_back(std::move(conn));
    return &connections_.back();
}

// ---------------------------------------------------------------------------
// PendingTable
// ---------------------------------------------------------------------------

std::uint64_t
SocketTransport::PendingTable::Add(Completion done, Deadline deadline)
{
    if (held_ == slots_.size()) {
        // Full: re-lay the held calls from slot 0 into twice the room.
        std::vector<Slot> grown(std::max<std::size_t>(16, 2 * slots_.size()));
        for (std::size_t i = 0; i < held_; ++i) grown[i] = std::move(At(i));
        slots_.swap(grown);
        head_ = 0;
    }
    Slot& slot = At(held_);
    slot.done = std::move(done);
    slot.deadline = deadline;
    slot.open = true;
    ++held_;
    ++open_;
    earliest_ = std::min(earliest_, deadline);
    return next_id_++;
}

bool
SocketTransport::PendingTable::Close(std::uint64_t id, Completion* done)
{
    // Held calls carry ids next_id_ - held_ .. next_id_ - 1; an older
    // id wraps to a huge offset and misses too.
    const std::uint64_t offset = id - (next_id_ - held_);
    if (offset >= held_) return false;
    Slot& slot = At(static_cast<std::size_t>(offset));
    if (!slot.open) return false;
    *done = std::move(slot.done);
    slot.open = false;
    --open_;
    DropClosedPrefix();
    return true;
}

void
SocketTransport::PendingTable::CloseDue(Deadline now, Finished::Outcome outcome,
                                        std::vector<Finished>& done)
{
    if (open_ == 0 || now < earliest_) return;
    Deadline earliest = Deadline::max();
    for (std::size_t i = 0; i < held_; ++i) {
        Slot& slot = At(i);
        if (!slot.open) continue;
        if (slot.deadline > now) {
            earliest = std::min(earliest, slot.deadline);
            continue;
        }
        Finished& finished = done.emplace_back();
        finished.outcome = outcome;
        finished.done = std::move(slot.done);
        slot.open = false;
        --open_;
    }
    earliest_ = earliest;
    DropClosedPrefix();
}

void
SocketTransport::PendingTable::DropClosedPrefix()
{
    while (held_ > 0 && !At(0).open) {
        head_ = (head_ + 1) & (slots_.size() - 1);
        --held_;
    }
    if (held_ == 0) earliest_ = Deadline::max();
}

// ---------------------------------------------------------------------------
// Call issue
// ---------------------------------------------------------------------------

void
SocketTransport::Call(EndpointId id, Payload request, Completion done,
                      SimTime timeout_ms)
{
    CountIssued();

    // Loopback: locally registered endpoints are served in-process,
    // exactly as SimTransport serves co-simulated components.
    if (IsRegistered(id)) {
        local_calls_.push_back(
            LocalCall{id, std::move(request), std::move(done), false});
        return;
    }

    Connection* conn = ConnectionTo(id);
    if (conn == nullptr) {
        // No route / no socket: prompt failure at the next poll pass
        // (never re-entrant from Call).
        local_calls_.push_back(
            LocalCall{kInvalidEndpoint, Payload{}, std::move(done), false});
        return;
    }

    const std::uint64_t call_id = conn->pending.Add(
        std::move(done), std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(timeout_ms));
    wire::AppendFrame(conn->write_buffer, wire::FrameKind::kRequest,
                      options_.epoch, call_id, endpoints_.Name(id), &request);
}

std::size_t
SocketTransport::CallBatch(std::vector<BatchItem> batch)
{
    if (batch.empty()) return 0;
    const std::size_t n = batch.size();
    CountIssued(n);
    for (BatchItem& item : batch) {
        if (IsRegistered(item.target)) {
            local_calls_.push_back(
                LocalCall{item.target, std::move(item.payload), {}, true});
            continue;
        }
        Connection* conn = ConnectionTo(item.target);
        if (conn == nullptr) {
            CountError();
            continue;
        }
        // Call id 0 is fire-and-forget: the peer skips the response.
        wire::AppendFrame(conn->write_buffer, wire::FrameKind::kRequest,
                          options_.epoch, 0, endpoints_.Name(item.target),
                          &item.payload);
        // Best-effort delivery counts as ok at queue time; a torn
        // connection later cannot retroactively fail a forgotten call.
        CountOk();
    }
    return n;
}

std::size_t
SocketTransport::pending_calls() const
{
    std::size_t n = local_calls_.size();
    for (const Connection& conn : connections_) n += conn.pending.open();
    return n;
}

// ---------------------------------------------------------------------------
// Inbound frames
// ---------------------------------------------------------------------------

void
SocketTransport::ServeRequest(std::size_t index, const wire::FrameView& frame)
{
    const std::uint64_t call_id = frame.call_id;
    auto reply_error = [&](std::string_view reason) {
        if (call_id == 0) return;  // fire-and-forget, nothing to say
        wire::AppendFrame(connections_[index].write_buffer,
                          wire::FrameKind::kError, options_.epoch, call_id,
                          reason, nullptr);
    };

    const RequestHandler* handler = HandlerFor(endpoints_.Find(frame.target));
    if (handler == nullptr) {
        // The same reason an unregistered SimTransport endpoint produces.
        reply_error(kConnectionFailed);
        return;
    }

    Payload request;
    try {
        request = wire::DecodeBody(frame.type, frame.payload);
    } catch (const wire::WireError& e) {
        reply_error(e.what());
        return;
    }

    const Payload response = (*handler)(request);
    if (call_id == 0) return;
    wire::AppendFrame(connections_[index].write_buffer,
                      wire::FrameKind::kResponse, options_.epoch, call_id, {},
                      &response);
}

void
SocketTransport::HandleReply(Connection& conn, const wire::FrameView& frame,
                             std::vector<Finished>& done)
{
    Completion completion;
    if (!conn.pending.Close(frame.call_id, &completion)) {
        return;  // raced its own timeout; drop
    }
    Finished& finished = done.emplace_back();
    finished.done = std::move(completion);
    if (frame.kind == wire::FrameKind::kError) {
        finished.reason = frame.target;
        return;
    }
    try {
        finished.response = wire::DecodeBody(frame.type, frame.payload);
        finished.outcome = Finished::Outcome::kOk;
    } catch (const wire::WireError&) {
        // A body the wire cannot decode fails as kConnectionFailed.
    }
}

bool
SocketTransport::ReadAndDispatch(std::size_t index,
                                 std::vector<Finished>& done)
{
    Connection& conn = connections_[index];
    char buffer[65536];
    for (;;) {
        const ssize_t n = ::read(conn.fd, buffer, sizeof buffer);
        if (n > 0) {
            try {
                conn.reader.Feed(std::string_view(buffer,
                                                  static_cast<std::size_t>(n)));
            } catch (const wire::WireError&) {
                return false;  // poisoned stream: drop the connection
            }
            continue;
        }
        if (n == 0) return false;  // peer closed
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // reset or other hard error
    }
    // A handler may dial a connection, which moves connections_, so the
    // connection is indexed afresh per frame. The frames themselves view
    // the reader's buffer, which only Feed (above) changes.
    for (;;) {
        wire::FrameReader& reader = connections_[index].reader;
        if (!reader.HasFrame()) break;
        wire::FrameView frame;
        try {
            frame = reader.NextView();
        } catch (const wire::WireError&) {
            return false;
        }
        if (frame.kind == wire::FrameKind::kRequest) {
            ServeRequest(index, frame);
        } else {
            HandleReply(connections_[index], frame, done);
        }
    }
    return true;
}

void
SocketTransport::FailConnection(std::size_t index,
                                std::vector<Finished>& done)
{
    Connection& conn = connections_[index];
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    conn.pending.CloseDue(Deadline::max(), Finished::Outcome::kError, done);
}

std::size_t
SocketTransport::FireCompletions(std::vector<Finished>& done)
{
    for (Finished& finished : done) {
        switch (finished.outcome) {
          case Finished::Outcome::kOk:
            CountOk();
            if (finished.done) finished.done(Reply(finished.response));
            break;
          case Finished::Outcome::kError:
            CountError();
            if (finished.done) {
                finished.done(Reply(finished.reason.empty()
                                        ? kConnectionFailed
                                        : std::string_view(finished.reason)));
            }
            break;
          case Finished::Outcome::kTimeout:
            CountTimeout();
            if (finished.done) finished.done(Reply(kTimeout));
            break;
        }
    }
    const std::size_t n = done.size();
    done.clear();
    return n;
}

std::size_t
SocketTransport::PollOnce(int budget_ms)
{
    std::vector<Finished> done;
    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_of_fd;
    done.swap(done_);
    fds.swap(fds_);
    conn_of_fd.swap(conn_of_fd_);

    // 1. Loopback calls queued since the last pass.
    std::size_t dispatched = 0;
    while (!local_calls_.empty()) {
        LocalCall call = std::move(local_calls_.front());
        local_calls_.pop_front();
        ++dispatched;
        // An unroutable Call (target kInvalidEndpoint, captured for
        // prompt failure) finds no handler either.
        const RequestHandler* handler = HandlerFor(call.target);
        if (handler == nullptr) {
            if (call.fire_and_forget) {
                CountError();
                continue;
            }
            done.emplace_back().done = std::move(call.done);  // kError
            continue;
        }
        Payload response = (*handler)(call.request);
        if (call.fire_and_forget) {
            CountOk();
            continue;
        }
        Finished& finished = done.emplace_back();
        finished.outcome = Finished::Outcome::kOk;
        finished.response = std::move(response);
        finished.done = std::move(call.done);
    }

    // 2. Build the poll set.
    fds.clear();
    conn_of_fd.clear();
    if (listen_fd_ >= 0) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        conn_of_fd.push_back(static_cast<std::size_t>(-1));
    }
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        Connection& conn = connections_[i];
        if (conn.fd < 0) continue;
        short events = POLLIN;
        if (conn.connecting || !conn.write_buffer.empty()) events |= POLLOUT;
        fds.push_back(pollfd{conn.fd, events, 0});
        conn_of_fd.push_back(i);
    }

    // 3. Don't sleep past the earliest deadline (or at all, if
    // completions are already captured).
    int timeout_ms = done.empty() ? budget_ms : 0;
    const auto now = std::chrono::steady_clock::now();
    for (const Connection& conn : connections_) {
        if (conn.fd < 0) continue;
        auto consider = [&](Deadline deadline) {
            const auto delta =
                std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                      now)
                    .count();
            const int clamped = delta <= 0 ? 0 : static_cast<int>(
                                                     std::min<long long>(
                                                         delta, budget_ms));
            timeout_ms = std::min(timeout_ms, clamped);
        };
        if (conn.connecting) consider(conn.connect_deadline);
        if (conn.pending.open() > 0) consider(conn.pending.earliest());
    }

    const int rc = ::poll(fds.data(), fds.size(),
                          fds.empty() ? std::min(timeout_ms, budget_ms)
                                      : timeout_ms);
    if (rc < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("poll(): ") +
                                 std::strerror(errno));
    }

    // 4. Accept new inbound connections.
    if (listen_fd_ >= 0 && !fds.empty() && (fds[0].revents & POLLIN) != 0) {
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) break;
            SetNonBlocking(fd);
            Connection conn;
            conn.fd = fd;
            connections_.push_back(std::move(conn));
        }
    }

    // 5. Service every ready connection. connections_ may have grown
    // via accept (those fds are not in this poll set yet — next pass)
    // or via a handler's call, so it is indexed afresh after each step.
    for (std::size_t pi = 0; pi < fds.size(); ++pi) {
        const std::size_t ci = conn_of_fd[pi];
        if (ci == static_cast<std::size_t>(-1)) continue;
        if (connections_[ci].fd < 0) continue;

        if (connections_[ci].connecting &&
            (fds[pi].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
            int err = 0;
            socklen_t err_len = sizeof err;
            ::getsockopt(connections_[ci].fd, SOL_SOCKET, SO_ERROR, &err,
                         &err_len);
            if (err != 0) {
                FailConnection(ci, done);
                continue;
            }
            connections_[ci].connecting = false;
        }

        if ((fds[pi].revents & (POLLERR | POLLHUP)) != 0 &&
            (fds[pi].revents & POLLIN) == 0) {
            FailConnection(ci, done);
            continue;
        }

        if ((fds[pi].revents & POLLIN) != 0) {
            if (!ReadAndDispatch(ci, done)) {
                FailConnection(ci, done);
                continue;
            }
        }

        Connection& conn = connections_[ci];
        if (!conn.connecting && !conn.write_buffer.empty() &&
            (fds[pi].revents & POLLOUT) != 0) {
            // MSG_NOSIGNAL: a peer that died since the poll fails the
            // connection below instead of raising SIGPIPE.
            const ssize_t n = ::send(conn.fd, conn.write_buffer.data(),
                                     conn.write_buffer.size(), MSG_NOSIGNAL);
            if (n > 0) {
                conn.write_buffer.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                FailConnection(ci, done);
                continue;
            }
        }
    }

    // 6. Expire deadlines (connects and calls).
    const auto after = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        Connection& conn = connections_[i];
        if (conn.fd < 0) continue;
        if (conn.connecting && after >= conn.connect_deadline) {
            FailConnection(i, done);
            continue;
        }
        conn.pending.CloseDue(after, Finished::Outcome::kTimeout, done);
    }

    // 7. Sweep closed connections (safe now: no iteration in flight).
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const Connection& conn) {
                           return conn.fd < 0 && conn.pending.open() == 0;
                       }),
        connections_.end());
    fds_.swap(fds);
    conn_of_fd_.swap(conn_of_fd);

    // 8. Fire captured completions last, so callbacks (which may issue
    // new Calls) see a consistent transport.
    const std::size_t fired = FireCompletions(done);
    done_.swap(done);
    return dispatched + fired;
}

}  // namespace dynamo::rpc
