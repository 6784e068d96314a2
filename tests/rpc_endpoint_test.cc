// Unit tests for endpoint interning and the id-indexed fault injector
// fast paths.
#include "rpc/endpoint.h"

#include <string>

#include <gtest/gtest.h>

#include "rpc/transport.h"

namespace dynamo::rpc {
namespace {

TEST(EndpointTable, InternIsIdempotentAndDense)
{
    EndpointTable table;
    EXPECT_EQ(table.size(), 0u);

    const EndpointId a = table.Intern("agent:0");
    const EndpointId b = table.Intern("agent:1");
    const EndpointId c = table.Intern("ctl:rpp0");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(table.size(), 3u);

    // Re-interning returns the same id without growing the table.
    EXPECT_EQ(table.Intern("agent:1"), b);
    EXPECT_EQ(table.size(), 3u);

    EXPECT_EQ(table.Name(a), "agent:0");
    EXPECT_EQ(table.Name(c), "ctl:rpp0");
}

TEST(EndpointTable, FindDoesNotIntern)
{
    EndpointTable table;
    EXPECT_EQ(table.Find("nope"), kInvalidEndpoint);
    EXPECT_EQ(table.size(), 0u);
    const EndpointId id = table.Intern("svc");
    EXPECT_EQ(table.Find("svc"), id);
}

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

TEST(TransportEndpoints, IdAndStringPathsAreTheSameEndpoint)
{
    sim::Simulation sim;
    SimTransport transport(sim, 42);

    const EndpointId id = transport.Resolve("svc");
    transport.Register(id,
                       [](const Payload& req) { return Echo(EchoValue(req) + 1); });
    EXPECT_TRUE(transport.IsRegistered("svc"));
    EXPECT_TRUE(transport.IsRegistered(id));

    // String-keyed call reaches the handler registered by id.
    int result = 0;
    transport.Call("svc", Echo(1), [&](const Reply& reply) {
        ASSERT_TRUE(reply.ok());
        result = EchoValue(reply.response());
    });
    // Id-keyed call likewise.
    int result2 = 0;
    transport.Call(id, Echo(10), [&](const Reply& reply) {
        ASSERT_TRUE(reply.ok());
        result2 = EchoValue(reply.response());
    });
    sim.RunUntil(1000);
    EXPECT_EQ(result, 2);
    EXPECT_EQ(result2, 11);

    transport.Unregister("svc");
    EXPECT_FALSE(transport.IsRegistered(id));
}

TEST(FailureInjectorFastPath, QuiescentUntilAnyFaultConfigured)
{
    EndpointTable table;
    FailureInjector injector(1, &table);
    const EndpointId id = table.Intern("svc");

    EXPECT_TRUE(injector.quiescent());
    EXPECT_EQ(injector.ExtraLatency(id), 0);
    EXPECT_FALSE(injector.IsEndpointDown(id));
    // Fast path: with nothing configured every call is OK.
    for (int i = 0; i < 100; ++i) EXPECT_EQ(injector.Decide(id), CallFate::kOk);

    injector.SetEndpointDown(id, true);
    EXPECT_FALSE(injector.quiescent());
    EXPECT_TRUE(injector.IsEndpointDown(id));
    EXPECT_EQ(injector.Decide(id), CallFate::kFail);
    injector.SetEndpointDown(id, false);
    EXPECT_TRUE(injector.quiescent());

    injector.SetEndpointExtraLatency(id, 500);
    EXPECT_FALSE(injector.quiescent());
    EXPECT_EQ(injector.ExtraLatency(id), 500);
    injector.ClearEndpointExtraLatency(id);
    EXPECT_TRUE(injector.quiescent());
    EXPECT_EQ(injector.ExtraLatency(id), 0);

    injector.SetEndpointFailureProbability(id, 1.0);
    EXPECT_FALSE(injector.quiescent());
    EXPECT_NE(injector.Decide(id), CallFate::kOk);
    injector.ClearEndpointFailureProbability(id);
    EXPECT_TRUE(injector.quiescent());
    EXPECT_EQ(injector.Decide(id), CallFate::kOk);

    injector.SetDefaultFailureProbability(1.0);
    EXPECT_FALSE(injector.quiescent());
    EXPECT_NE(injector.Decide(id), CallFate::kOk);
    injector.SetDefaultFailureProbability(0.0);
    EXPECT_TRUE(injector.quiescent());
}

TEST(FailureInjectorFastPath, RedundantTransitionsKeepCountersBalanced)
{
    EndpointTable table;
    FailureInjector injector(1, &table);
    const EndpointId a = table.Intern("a");
    const EndpointId b = table.Intern("b");

    // Double-down, double-up: must not wedge the quiescent counter.
    injector.SetEndpointDown(a, true);
    injector.SetEndpointDown(a, true);
    injector.SetEndpointDown(b, true);
    injector.SetEndpointDown(a, false);
    injector.SetEndpointDown(a, false);
    EXPECT_FALSE(injector.quiescent());  // b still down
    injector.SetEndpointDown(b, false);
    EXPECT_TRUE(injector.quiescent());

    injector.SetEndpointExtraLatency(a, 100);
    injector.SetEndpointExtraLatency(a, 200);  // replace, not stack
    EXPECT_EQ(injector.ExtraLatency(a), 200);
    injector.ClearEndpointExtraLatency(a);
    injector.ClearEndpointExtraLatency(a);  // clearing twice is a no-op
    EXPECT_TRUE(injector.quiescent());

    injector.SetEndpointFailureProbability(a, 0.5);
    injector.SetEndpointFailureProbability(a, 0.9);
    injector.ClearEndpointFailureProbability(a);
    injector.ClearEndpointFailureProbability(a);
    EXPECT_TRUE(injector.quiescent());
}

TEST(FailureInjectorFastPath, ZeroProbabilityOverrideStillShadowsDefault)
{
    // An explicit p=0 override is a real override (it must defeat the
    // default), so it keeps the injector out of the quiescent state.
    EndpointTable table;
    FailureInjector injector(1, &table);
    const EndpointId id = table.Intern("svc");

    injector.SetDefaultFailureProbability(1.0);
    injector.SetEndpointFailureProbability(id, 0.0);
    EXPECT_FALSE(injector.quiescent());
    for (int i = 0; i < 50; ++i) EXPECT_EQ(injector.Decide(id), CallFate::kOk);
}

}  // namespace
}  // namespace dynamo::rpc
