// Unit tests for the simulated RPC transport: delivery, latency,
// failure injection, timeouts, crash-while-in-flight semantics.
#include "rpc/transport.h"

#include <stdexcept>

#include "common/archive.h"
#include "telemetry/metrics.h"
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dynamo::rpc {
namespace {

/** A test value carried in an api message (TuneEstimate's ratio). */
Payload
Echo(int value)
{
    return api::TuneEstimate{static_cast<double>(value)};
}

int
EchoValue(const Payload& message)
{
    return static_cast<int>(std::get<api::TuneEstimate>(message).reference_ratio);
}

class TransportTest : public ::testing::Test
{
  protected:
    sim::Simulation sim_;
    SimTransport transport_{sim_, 42};
};

TEST_F(TransportTest, DeliversRequestAndResponse)
{
    transport_.Register("svc", [](const Payload& req) {
        return Echo(EchoValue(req) * 2);
    });
    int result = 0;
    transport_.Call("svc", Echo(21), [&](const Reply& reply) {
        ASSERT_TRUE(reply.ok()) << "unexpected error " << reply.error();
        result = EchoValue(reply.response());
    });
    sim_.RunUntil(1000);
    EXPECT_EQ(result, 42);
}

TEST_F(TransportTest, ResponseArrivesLater)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    SimTime response_time = -1;
    transport_.Call("svc", Echo(0), [&](const Reply& reply) {
        if (reply.ok()) response_time = sim_.Now();
    });
    EXPECT_EQ(response_time, -1);  // asynchronous
    sim_.RunUntil(1000);
    EXPECT_GT(response_time, 0);
}

TEST_F(TransportTest, UnregisteredEndpointFails)
{
    std::string reason;
    transport_.Call("missing", Echo(0), [&](const Reply& reply) {
        ASSERT_FALSE(reply.ok());
        reason = reply.error();
    });
    sim_.RunUntil(1000);
    EXPECT_EQ(reason, "connection failed");
    EXPECT_EQ(transport_.calls_failed(), 1u);
}

TEST_F(TransportTest, UnregisterStopsService)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    EXPECT_TRUE(transport_.IsRegistered("svc"));
    transport_.Unregister("svc");
    EXPECT_FALSE(transport_.IsRegistered("svc"));
    bool failed = false;
    transport_.Call("svc", Echo(0), [&](const Reply& reply) {
        ASSERT_FALSE(reply.ok());
        failed = true;
    });
    sim_.RunUntil(1000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, CrashWhileInFlightYieldsTimeout)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    sim_.RunUntil(50);
    std::string reason;
    SimTime failed_at = -1;
    transport_.Call(
        "svc", Echo(0),
        [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            reason = reply.error();
            failed_at = sim_.Now();
        },
        /*timeout_ms=*/100);
    // Unregister before the request latency elapses: the request is
    // dropped on the floor and the caller learns only via timeout, at
    // issue + timeout_ms.
    transport_.Unregister("svc");
    sim_.RunUntil(1000);
    EXPECT_EQ(reason, "timeout");
    EXPECT_EQ(failed_at, 50 + 100);
}

/** Fixed latencies, so a call's event times are exact. */
SimTransport::Options
FixedLatency(SimTime request_ms, SimTime response_ms)
{
    SimTransport::Options options;
    options.request_latency = LatencyModel{request_ms, 0};
    options.response_latency = LatencyModel{response_ms, 0};
    return options;
}

TEST(TransportCallModel, SuccessfulCallIsOneKernelEvent)
{
    sim::Simulation sim;
    SimTransport transport(sim, 42, FixedLatency(3, 4));
    SimTime served_at = -1;
    transport.Register("svc", [&](const Payload& req) {
        served_at = sim.Now();
        return Echo(EchoValue(req) + 1);
    });
    sim.RunUntil(10);

    SimTime completed_at = -1;
    int value = 0;
    transport.Call(
        "svc", Echo(1),
        [&](const Reply& reply) {
            ASSERT_TRUE(reply.ok());
            completed_at = sim.Now();
            value = EchoValue(reply.response());
        },
        /*timeout_ms=*/100);
    // No timeout timer is armed for a call whose response beats its
    // deadline: one event carries the whole round trip.
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.RunUntil(1000);
    EXPECT_EQ(sim.events_executed(), 1u);
    EXPECT_EQ(completed_at, 10 + 3 + 4);
    EXPECT_EQ(served_at, completed_at);  // the handler runs at round trip
    EXPECT_EQ(value, 2);
    EXPECT_EQ(transport.calls_succeeded(), 1u);
}

TEST(TransportCallModel, SlowResponderRunsHandlerButTimesOut)
{
    sim::Simulation sim;
    SimTransport transport(sim, 42, FixedLatency(3, 4));
    SimTime served_at = -1;
    transport.Register("svc", [&](const Payload&) {
        served_at = sim.Now();
        return Echo(1);
    });
    transport.failures().SetEndpointExtraLatency("svc", 200);

    std::string reason;
    SimTime failed_at = -1;
    transport.Call(
        "svc", Echo(0),
        [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            reason = reply.error();
            failed_at = sim.Now();
        },
        /*timeout_ms=*/100);
    sim.RunUntil(1000);
    EXPECT_EQ(reason, "timeout");
    EXPECT_EQ(failed_at, 100);          // the caller's deadline
    EXPECT_EQ(served_at, 3 + 200);      // request arrival, still served
    EXPECT_EQ(transport.calls_timed_out(), 1u);
    EXPECT_EQ(transport.calls_succeeded(), 0u);
}

TEST_F(TransportTest, EndpointDownAlwaysFails)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    transport_.failures().SetEndpointDown("svc", true);
    int errors = 0;
    for (int i = 0; i < 10; ++i) {
        transport_.Call("svc", Echo(0), [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            ++errors;
        });
    }
    sim_.RunUntil(10000);
    EXPECT_EQ(errors, 10);

    transport_.failures().SetEndpointDown("svc", false);
    bool ok = false;
    transport_.Call("svc", Echo(0),
                    [&](const Reply& reply) { ok = reply.ok(); });
    sim_.RunUntil(20000);
    EXPECT_TRUE(ok);
}

TEST_F(TransportTest, FailureProbabilityRoughlyRespected)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    transport_.failures().SetEndpointFailureProbability("svc", 0.5);
    int ok = 0;
    int err = 0;
    for (int i = 0; i < 400; ++i) {
        transport_.Call(
            "svc", Echo(0),
            [&](const Reply& reply) { ++(reply.ok() ? ok : err); },
            /*timeout_ms=*/50);
        sim_.RunFor(100);
    }
    EXPECT_GT(ok, 120);
    EXPECT_GT(err, 120);
    EXPECT_EQ(ok + err, 400);
}

TEST_F(TransportTest, DefaultFailureProbabilityAppliesToAll)
{
    transport_.Register("a", [](const Payload&) { return Echo(1); });
    transport_.failures().SetDefaultFailureProbability(1.0);
    bool failed = false;
    transport_.Call(
        "a", Echo(0),
        [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            failed = true;
        },
        /*timeout_ms=*/50);
    sim_.RunUntil(1000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, PerEndpointOverrideBeatsDefault)
{
    transport_.Register("a", [](const Payload&) { return Echo(1); });
    transport_.failures().SetDefaultFailureProbability(1.0);
    transport_.failures().SetEndpointFailureProbability("a", 0.0);
    bool ok = false;
    transport_.Call("a", Echo(0), [&](const Reply& reply) {
        ASSERT_TRUE(reply.ok());
        ok = true;
    });
    sim_.RunUntil(1000);
    EXPECT_TRUE(ok);

    // Clearing the override restores the default.
    transport_.failures().ClearEndpointFailureProbability("a");
    bool failed = false;
    transport_.Call(
        "a", Echo(0), [&](const Reply& reply) { failed = !reply.ok(); },
        /*timeout_ms=*/50);
    sim_.RunUntil(2000);
    EXPECT_TRUE(failed);
}

TEST_F(TransportTest, ExactlyOneContinuationPerCall)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    int continuations = 0;
    for (int i = 0; i < 100; ++i) {
        transport_.Call(
            "svc", Echo(0), [&](const Reply&) { ++continuations; },
            /*timeout_ms=*/5);
        // Tiny timeout races the response path; either way exactly one
        // continuation must fire.
    }
    sim_.RunUntil(10000);
    EXPECT_EQ(continuations, 100);
    EXPECT_EQ(transport_.calls_issued(), 100u);
    EXPECT_EQ(transport_.calls_succeeded() + transport_.calls_failed(), 100u);
}

TEST_F(TransportTest, HandlerReregistrationThrows)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    EXPECT_THROW(
        transport_.Register("svc", [](const Payload&) { return Echo(2); }),
        std::logic_error);
    // The original handler survives the rejected registration.
    int value = 0;
    transport_.Call("svc", Echo(0), [&](const Reply& reply) {
        if (reply.ok()) value = EchoValue(reply.response());
    });
    sim_.RunUntil(1000);
    EXPECT_EQ(value, 1);
}

TEST_F(TransportTest, UnregisterThenRegisterHandsOver)
{
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    transport_.Unregister("svc");
    transport_.Register("svc", [](const Payload&) { return Echo(2); });
    int value = 0;
    transport_.Call("svc", Echo(0), [&](const Reply& reply) {
        if (reply.ok()) value = EchoValue(reply.response());
    });
    sim_.RunUntil(1000);
    EXPECT_EQ(value, 2);
}

TEST_F(TransportTest, CallBatchDeliversAllItemsInOrder)
{
    std::vector<int> seen;
    transport_.Register("svc", [&](const Payload& req) {
        seen.push_back(EchoValue(req));
        return Echo(0);
    });
    SimTime delivered_at = -1;
    transport_.Register("other", [&](const Payload&) {
        delivered_at = sim_.Now();
        return Echo(0);
    });

    std::vector<BatchItem> batch;
    const EndpointId svc = transport_.Resolve("svc");
    const EndpointId other = transport_.Resolve("other");
    for (int i = 0; i < 5; ++i) batch.push_back({svc, Echo(i)});
    batch.push_back({other, Echo(99)});
    EXPECT_EQ(transport_.CallBatch(std::move(batch)), 6u);
    EXPECT_TRUE(seen.empty());  // asynchronous, like Call

    sim_.RunUntil(1000);
    // Strict FIFO in item order — per-item jitter can never reorder a
    // batch the way independent Calls could.
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_GT(delivered_at, 0);
    EXPECT_EQ(transport_.calls_issued(), 6u);
    EXPECT_EQ(transport_.calls_succeeded(), 6u);
    EXPECT_EQ(transport_.calls_failed(), 0u);
}

TEST_F(TransportTest, CallBatchCountsUnregisteredAndFailedItems)
{
    int delivered = 0;
    transport_.Register("up", [&](const Payload&) {
        ++delivered;
        return Echo(0);
    });
    transport_.Register("down", [](const Payload&) { return Echo(0); });
    transport_.failures().SetEndpointDown("down", true);

    std::vector<BatchItem> batch;
    batch.push_back({transport_.Resolve("up"), Echo(1)});
    batch.push_back({transport_.Resolve("down"), Echo(2)});
    batch.push_back({transport_.Resolve("missing"), Echo(3)});
    batch.push_back({transport_.Resolve("up"), Echo(4)});
    EXPECT_EQ(transport_.CallBatch(std::move(batch)), 4u);
    sim_.RunUntil(1000);

    // Bad items drop individually; good ones around them still land.
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(transport_.calls_issued(), 4u);
    EXPECT_EQ(transport_.calls_succeeded(), 2u);
    EXPECT_EQ(transport_.calls_failed(), 2u);
}

TEST_F(TransportTest, CallBatchObserverSeesEveryItem)
{
    transport_.Register("svc", [](const Payload&) { return Echo(0); });
    HashAccumulator digest;
    transport_.set_call_digest(&digest);

    const EndpointId svc = transport_.Resolve("svc");
    std::vector<BatchItem> batch;
    for (int i = 0; i < 3; ++i) batch.push_back({svc, Echo(i)});
    transport_.CallBatch(std::move(batch));

    // Fates are decided (and digested) at issue time, one per item, so
    // replay digests fold the full stream exactly as with Call.
    HashAccumulator expected;
    for (int i = 0; i < 3; ++i) {
        expected.Mix(svc);
        expected.Mix(static_cast<std::uint64_t>(CallFate::kOk));
        expected.Mix(0);  // issue time
    }
    EXPECT_EQ(digest.value(), expected.value());
    sim_.RunUntil(1000);
    EXPECT_EQ(digest.value(), expected.value());  // delivery adds nothing
}

TEST_F(TransportTest, EmptyCallBatchIsANoOp)
{
    EXPECT_EQ(transport_.CallBatch({}), 0u);
    sim_.RunUntil(100);
    EXPECT_EQ(transport_.calls_issued(), 0u);
}

// ---------------------------------------------------------------------------
// Error/timeout accounting. These counters were once conflated (every
// failed call bumped the timeout counter); the tests below pin the
// split so `rpc.errors` and `rpc.timeouts` stay distinct fault
// signals — a fleet drowning in connection failures must not read as
// a latency problem on dashboards.
// ---------------------------------------------------------------------------

TEST_F(TransportTest, PromptFailureCountsErrorNotTimeout)
{
    telemetry::MetricsRegistry metrics;
    transport_.AttachMetrics(&metrics);
    transport_.Register("svc", [](const Payload&) { return Echo(1); });
    transport_.failures().SetEndpointDown("svc", true);

    std::string reason;
    transport_.Call(
        "svc", Echo(0),
        [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            reason = reply.error();
        },
        /*timeout_ms=*/100);
    sim_.RunUntil(1000);

    EXPECT_EQ(reason, "connection failed");
    EXPECT_EQ(transport_.calls_errored(), 1u);
    EXPECT_EQ(transport_.calls_timed_out(), 0u);
    EXPECT_EQ(transport_.calls_failed(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.errors")->value(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.timeouts")->value(), 0u);
    EXPECT_EQ(metrics.GetCounter("rpc.failed")->value(), 1u);
}

TEST_F(TransportTest, BlackholeCountsTimeoutNotError)
{
    telemetry::MetricsRegistry metrics;
    transport_.AttachMetrics(&metrics);
    transport_.Register("svc", [](const Payload&) { return Echo(1); });

    std::string reason;
    transport_.Call(
        "svc", Echo(0),
        [&](const Reply& reply) {
            ASSERT_FALSE(reply.ok());
            reason = reply.error();
        },
        /*timeout_ms=*/100);
    // Unregister while the request is in flight: the call is
    // blackholed and the caller only learns via its deadline.
    transport_.Unregister("svc");
    sim_.RunUntil(1000);

    EXPECT_EQ(reason, "timeout");
    EXPECT_EQ(transport_.calls_timed_out(), 1u);
    EXPECT_EQ(transport_.calls_errored(), 0u);
    EXPECT_EQ(transport_.calls_failed(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.timeouts")->value(), 1u);
    EXPECT_EQ(metrics.GetCounter("rpc.errors")->value(), 0u);
    EXPECT_EQ(metrics.GetCounter("rpc.failed")->value(), 1u);
}

TEST_F(TransportTest, FailedIsAlwaysErrorsPlusTimeouts)
{
    transport_.Register("up", [](const Payload&) { return Echo(1); });
    transport_.Register("doomed", [](const Payload&) { return Echo(1); });
    transport_.failures().SetEndpointDown("doomed", true);

    for (int i = 0; i < 5; ++i) {
        transport_.Call(
            "doomed", Echo(0),
            [](const Reply& reply) { EXPECT_FALSE(reply.ok()); },
            /*timeout_ms=*/100);
        transport_.Call(
            "missing", Echo(0),
            [](const Reply& reply) { EXPECT_FALSE(reply.ok()); },
            /*timeout_ms=*/100);
    }
    for (int i = 0; i < 3; ++i) {
        transport_.Call("up", Echo(0), {}, /*timeout_ms=*/1);  // too tight
    }
    sim_.RunUntil(10000);

    EXPECT_EQ(transport_.calls_errored(), 10u);
    EXPECT_EQ(transport_.calls_timed_out(), 3u);
    EXPECT_EQ(transport_.calls_failed(),
              transport_.calls_errored() + transport_.calls_timed_out());
    EXPECT_EQ(transport_.calls_issued(),
              transport_.calls_succeeded() + transport_.calls_failed());
}

TEST(LatencyModel, SampleWithinBounds)
{
    Rng rng(1);
    LatencyModel model{10, 5};
    for (int i = 0; i < 1000; ++i) {
        const SimTime l = model.Sample(rng);
        EXPECT_GE(l, 10);
        EXPECT_LE(l, 15);
    }
}

TEST(LatencyModel, ZeroJitterIsConstant)
{
    Rng rng(1);
    LatencyModel model{7, 0};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(model.Sample(rng), 7);
}

}  // namespace
}  // namespace dynamo::rpc
