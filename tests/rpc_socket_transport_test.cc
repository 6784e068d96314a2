/**
 * @file
 * SocketTransport call bookkeeping over a real unix-domain socket, with
 * both ends in one process:
 *
 *   - every call completes exactly once when the peer answers out of
 *     order: a hand-written peer answers each batch in reverse, and the
 *     batches wrap and then grow the connection's table of open calls;
 *   - a reply that arrives after its call timed out is dropped, and the
 *     call counts once, as a timeout; calls due in the same pass time
 *     out in issue order;
 *   - closing the peer fails every open call with "connection failed",
 *     in issue order;
 *   - a bad header behind good replies costs none of them, and fails
 *     the remaining calls in the same pass;
 *   - routes are keyed by endpoint id: a route added before its name
 *     was ever called holds, and Deregister drops the route with the
 *     name, so a new name on the recycled id fails promptly instead of
 *     dialing the old peer;
 *   - pending_calls() returns to 0 after each.
 */
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rpc/socket_transport.h"
#include "rpc/wire.h"

namespace dynamo::rpc {
namespace {

using Clock = std::chrono::steady_clock;

/** What one call's completion saw. */
struct Outcome
{
    int completions = 0;
    bool ok = false;
    double value = 0.0;
    std::string error;
};

class SocketTransportTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char tmpl[] = "/tmp/dynamo_socket_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        address_ = SocketAddress::Parse("unix:" + dir_ + "/peer.sock");
        client_.AddRoute("peer", address_);
    }

    void TearDown() override
    {
        if (peer_fd_ >= 0) ::close(peer_fd_);
        if (listen_fd_ >= 0) ::close(listen_fd_);
        ::unlink(address_.path.c_str());
        ::rmdir(dir_.c_str());
    }

    /** Call `target` with a TuneEstimate carrying `value`; the
     *  outcome lands in outcomes_ at the call's issue index. */
    void Issue(double value, SimTime timeout_ms = 1000,
               const std::string& target = "peer")
    {
        const std::size_t index = outcomes_.size();
        outcomes_.emplace_back();
        client_.Call(
            target, api::TuneEstimate{value},
            [this, index](const Reply& reply) {
                Outcome& outcome = outcomes_[index];
                ++outcome.completions;
                completion_order_.push_back(index);
                if (const auto* r = reply.get<api::TuneEstimate>()) {
                    outcome.ok = true;
                    outcome.value = r->reference_ratio;
                } else {
                    outcome.error = std::string(reply.error());
                }
            },
            timeout_ms);
    }

    /** Pump `transports` until `done()` holds; false after 2 s. */
    static bool PumpUntil(const std::function<bool()>& done,
                          const std::vector<SocketTransport*>& transports)
    {
        const Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
        while (!done()) {
            if (Clock::now() > deadline) return false;
            for (SocketTransport* transport : transports) transport->PollOnce(1);
        }
        return true;
    }

    // --- the hand-written peer: a bare listening socket ------------------

    void PeerListen()
    {
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(listen_fd_, 0);
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, address_.path.c_str(),
                     sizeof sun.sun_path - 1);
        ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun),
                         sizeof sun),
                  0)
            << std::strerror(errno);
        ASSERT_EQ(::listen(listen_fd_, 4), 0);
    }

    /** Accept the client's connection if need be, then read until `n`
     *  request frames have arrived, pumping the client meanwhile. */
    std::vector<wire::Frame> PeerRead(std::size_t n)
    {
        std::vector<wire::Frame> frames;
        const Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
        while (frames.size() < n && Clock::now() < deadline) {
            client_.PollOnce(0);
            const int fd = peer_fd_ >= 0 ? peer_fd_ : listen_fd_;
            pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, 1) <= 0) continue;
            if (peer_fd_ < 0) {
                peer_fd_ = ::accept(listen_fd_, nullptr, nullptr);
                continue;
            }
            char buffer[4096];
            const ssize_t got = ::read(peer_fd_, buffer, sizeof buffer);
            if (got <= 0) break;
            peer_reader_.Feed(
                std::string_view(buffer, static_cast<std::size_t>(got)));
            while (peer_reader_.HasFrame()) {
                frames.push_back(peer_reader_.Next());
            }
        }
        return frames;
    }

    /** Answer `requests` in reverse, echoing each request's body. */
    void PeerAnswerInReverse(const std::vector<wire::Frame>& requests)
    {
        std::string bytes;
        for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
            wire::Frame reply;
            reply.kind = wire::FrameKind::kResponse;
            reply.type = it->type;
            reply.call_id = it->call_id;
            reply.payload = it->payload;
            bytes += wire::EncodeFrame(reply);
        }
        ASSERT_EQ(::write(peer_fd_, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    std::string dir_;
    SocketAddress address_;
    SocketTransport client_;
    std::vector<Outcome> outcomes_;
    std::vector<std::size_t> completion_order_;

    int listen_fd_ = -1;
    int peer_fd_ = -1;
    wire::FrameReader peer_reader_;
};

TEST_F(SocketTransportTest, EveryCallCompletesOnceWhenRepliesComeInReverse)
{
    PeerListen();
    // 12 calls fill part of the table's first 16 slots; the next 20
    // start at slot 12, wrap, and overflow it, so the table grows while
    // wrapped; 40 grow it again.
    std::size_t first = 0;
    for (const std::size_t batch : {12u, 20u, 40u}) {
        SCOPED_TRACE("batch of " + std::to_string(batch));
        for (std::size_t i = 0; i < batch; ++i) {
            Issue(static_cast<double>(first + i) + 0.5);
        }
        const std::vector<wire::Frame> requests = PeerRead(batch);
        ASSERT_EQ(requests.size(), batch);
        PeerAnswerInReverse(requests);
        ASSERT_TRUE(PumpUntil([&] { return client_.pending_calls() == 0; },
                              {&client_}));

        for (std::size_t i = first; i < first + batch; ++i) {
            EXPECT_EQ(outcomes_[i].completions, 1) << "call " << i;
            EXPECT_TRUE(outcomes_[i].ok) << "call " << i;
            EXPECT_EQ(outcomes_[i].value, static_cast<double>(i) + 0.5);
        }
        // Completions follow the replies, newest call first.
        ASSERT_EQ(completion_order_.size(), first + batch);
        for (std::size_t k = 0; k < batch; ++k) {
            EXPECT_EQ(completion_order_[first + k], first + batch - 1 - k);
        }
        first += batch;
    }
    EXPECT_EQ(client_.calls_succeeded(), first);
    EXPECT_EQ(client_.calls_failed(), 0u);
    EXPECT_EQ(client_.pending_calls(), 0u);
}

TEST_F(SocketTransportTest, LateReplyIsDroppedAndCountsOnceAsTimeout)
{
    SocketTransport server;
    server.Listen(address_);
    int served = 0;
    server.Register("peer", [&](const Payload& request) {
        ++served;
        return request;
    });

    // Deadlines in reverse issue order, all past by the first pass: the
    // three still time out in issue order.
    Issue(1.0, 30);
    Issue(2.0, 20);
    Issue(3.0, 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client_.PollOnce(0);
    ASSERT_EQ(completion_order_, (std::vector<std::size_t>{0, 1, 2}));
    for (const Outcome& outcome : outcomes_) {
        EXPECT_EQ(outcome.completions, 1);
        EXPECT_EQ(outcome.error, kTimeout);
    }
    EXPECT_EQ(client_.pending_calls(), 0u);

    // Now the server answers all three, then a fourth call. Replies on
    // a connection arrive in order, so once the fourth completes the
    // three late replies have been read, and dropped.
    ASSERT_TRUE(PumpUntil([&] { return served == 3; }, {&server, &client_}));
    Issue(4.0);
    ASSERT_TRUE(PumpUntil([&] { return outcomes_[3].completions > 0; },
                          {&server, &client_}));

    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(outcomes_[i].completions, 1) << "call " << i;
        EXPECT_FALSE(outcomes_[i].ok) << "call " << i;
    }
    EXPECT_TRUE(outcomes_[3].ok);
    EXPECT_EQ(outcomes_[3].value, 4.0);
    EXPECT_EQ(client_.calls_timed_out(), 3u);
    EXPECT_EQ(client_.calls_errored(), 0u);
    EXPECT_EQ(client_.calls_failed(), 3u);
    EXPECT_EQ(client_.calls_succeeded(), 1u);
    EXPECT_EQ(client_.pending_calls(), 0u);
}

TEST_F(SocketTransportTest, ClosingThePeerFailsOpenCallsInIssueOrder)
{
    auto server = std::make_unique<SocketTransport>();
    server->Listen(address_);
    server->Register("peer", [](const Payload& request) { return request; });

    constexpr std::size_t kCalls = 5;
    for (std::size_t i = 0; i < kCalls; ++i) Issue(static_cast<double>(i));
    client_.PollOnce(0);  // the requests go out
    server->PollOnce(0);  // the server accepts, but serves nothing yet
    server.reset();       // ...and goes away with every call open
    ASSERT_EQ(client_.pending_calls(), kCalls);

    ASSERT_TRUE(PumpUntil([&] { return client_.pending_calls() == 0; },
                          {&client_}));
    ASSERT_EQ(completion_order_.size(), kCalls);
    for (std::size_t i = 0; i < kCalls; ++i) {
        EXPECT_EQ(completion_order_[i], i);
        EXPECT_EQ(outcomes_[i].completions, 1) << "call " << i;
        EXPECT_EQ(outcomes_[i].error, kConnectionFailed) << "call " << i;
    }
    EXPECT_EQ(client_.calls_errored(), kCalls);
    EXPECT_EQ(client_.calls_timed_out(), 0u);
}

TEST_F(SocketTransportTest, GarbageAfterGoodRepliesFailsTheRestInTheSamePass)
{
    PeerListen();
    constexpr std::size_t kCalls = 3;
    for (std::size_t i = 0; i < kCalls; ++i) Issue(static_cast<double>(i));
    const std::vector<wire::Frame> requests = PeerRead(kCalls);
    ASSERT_EQ(requests.size(), kCalls);

    // One write: replies to the first two calls, then a bad header.
    std::string bytes;
    for (std::size_t i = 0; i < 2; ++i) {
        wire::Frame reply;
        reply.kind = wire::FrameKind::kResponse;
        reply.type = requests[i].type;
        reply.call_id = requests[i].call_id;
        reply.payload = requests[i].payload;
        bytes += wire::EncodeFrame(reply);
    }
    bytes += "XXXXXXXX";
    ASSERT_EQ(::write(peer_fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));

    // The pass that reads the bytes dispatches both replies and fails
    // the connection, so the third call needs no further input.
    ASSERT_TRUE(PumpUntil([&] { return !completion_order_.empty(); },
                          {&client_}));
    ASSERT_EQ(completion_order_.size(), kCalls);
    EXPECT_EQ(client_.pending_calls(), 0u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(outcomes_[i].ok) << "call " << i;
        EXPECT_EQ(outcomes_[i].value, static_cast<double>(i));
    }
    EXPECT_EQ(outcomes_[2].error, kConnectionFailed);
    EXPECT_EQ(client_.calls_succeeded(), 2u);
    EXPECT_EQ(client_.calls_errored(), 1u);
}

TEST_F(SocketTransportTest, RouteAddedBeforeTheNameIsKnownHolds)
{
    SocketTransport server;
    server.Listen(address_);
    server.Register("late", [](const Payload& request) { return request; });

    // Never called or resolved: AddRoute interns the name itself.
    ASSERT_EQ(client_.endpoints().Find("late"), kInvalidEndpoint);
    client_.AddRoute("late", address_);
    Issue(7.0, 1000, "late");
    ASSERT_TRUE(PumpUntil([&] { return outcomes_[0].completions > 0; },
                          {&server, &client_}));
    EXPECT_TRUE(outcomes_[0].ok) << outcomes_[0].error;
    EXPECT_EQ(outcomes_[0].value, 7.0);
}

TEST_F(SocketTransportTest, RecycledIdDoesNotDialADeregisteredRoute)
{
    // A live peer listens at the old route's address, so a call that
    // followed the route would connect and wait instead of failing.
    PeerListen();
    const EndpointId old_id = client_.Resolve("peer");
    client_.Deregister("peer");
    ASSERT_EQ(client_.Resolve("newcomer"), old_id);

    Issue(1.0, 200, "newcomer");
    client_.PollOnce(0);
    ASSERT_EQ(outcomes_[0].completions, 1) << "not failed in the first pass";
    EXPECT_EQ(outcomes_[0].error, kConnectionFailed);
    EXPECT_EQ(client_.calls_errored(), 1u);
    EXPECT_EQ(client_.pending_calls(), 0u);
    // No connection ever reached the old peer.
    pollfd pfd{listen_fd_, POLLIN, 0};
    EXPECT_EQ(::poll(&pfd, 1, 50), 0);
}

}  // namespace
}  // namespace dynamo::rpc
