// Unit tests for endpoint interning and the id-indexed fault injector
// fast paths.
#include "rpc/endpoint.h"

#include <string>
#include <string_view>

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

TEST(EndpointTable, ReleasedNamesLeaveTombstonesAndReinternRecyclesIds)
{
    EndpointTable table;
    const EndpointId a = table.Intern("agent:a");
    const EndpointId b = table.Intern("agent:b");
    const EndpointId c = table.Intern("agent:c");

    table.Release("agent:b");
    table.Release("agent:b");  // second release is a no-op
    table.Release("never-interned");
    EXPECT_EQ(table.free_count(), 1u);
    EXPECT_EQ(table.Find("agent:b"), kInvalidEndpoint);
    // Probing runs past the tombstone to the names behind it.
    EXPECT_EQ(table.Find("agent:a"), a);
    EXPECT_EQ(table.Find("agent:c"), c);

    // A new name takes the released id; the released name comes back
    // as a brand-new id.
    const EndpointId d = table.Intern("agent:d");
    EXPECT_EQ(d, b);
    EXPECT_EQ(table.Name(d), "agent:d");
    EXPECT_EQ(table.Intern("agent:b"), 3u);
    EXPECT_EQ(table.size(), 4u);
    EXPECT_EQ(table.free_count(), 0u);

    // Release and re-intern the same names many times: tombstones are
    // swept, ids recycle LIFO (the first new name takes the id released
    // last), and the table does not grow.
    EndpointId id_a = a;
    EndpointId id_c = c;
    for (int round = 0; round < 1000; ++round) {
        table.Release("agent:a");
        table.Release("agent:c");
        const EndpointId next_a = table.Intern("agent:a");
        const EndpointId next_c = table.Intern("agent:c");
        ASSERT_EQ(next_a, id_c);
        ASSERT_EQ(next_c, id_a);
        id_a = next_a;
        id_c = next_c;
    }
    EXPECT_EQ(table.size(), 4u);
    EXPECT_EQ(table.free_count(), 0u);
    EXPECT_EQ(table.Find("agent:a"), id_a);
    EXPECT_EQ(table.Find("agent:b"), 3u);
    EXPECT_EQ(table.Find("agent:c"), id_c);
    EXPECT_EQ(table.Find("agent:d"), d);
    EXPECT_EQ(table.Name(id_a), "agent:a");
    EXPECT_EQ(table.Name(id_c), "agent:c");

    // A stream of short-lived names: every one leaves a tombstone, and
    // the rebuilds that sweep them must keep the long-lived names.
    for (int i = 0; i < 5000; ++i) {
        const std::string name = "tmp:" + std::to_string(i);
        ASSERT_EQ(table.Intern(name), 4u);  // always the one free id
        table.Release(name);
        ASSERT_EQ(table.Find(name), kInvalidEndpoint);
    }
    EXPECT_EQ(table.size(), 5u);
    EXPECT_EQ(table.Find("agent:a"), id_a);
    EXPECT_EQ(table.Find("agent:b"), 3u);
    EXPECT_EQ(table.Find("agent:c"), id_c);
    EXPECT_EQ(table.Find("agent:d"), d);
}

TEST(EndpointTable, GrowthKeepsEveryIdAndName)
{
    // 5,000 names force the index through several rebuilds.
    constexpr int kNames = 5000;
    EndpointTable table;
    for (int i = 0; i < kNames; ++i) {
        ASSERT_EQ(table.Intern("agent:" + std::to_string(i)),
                  static_cast<EndpointId>(i));
    }
    ASSERT_EQ(table.size(), static_cast<std::size_t>(kNames));
    for (int i = 0; i < kNames; ++i) {
        const std::string name = "agent:" + std::to_string(i);
        EXPECT_EQ(table.Find(name), static_cast<EndpointId>(i));
        EXPECT_EQ(table.Name(static_cast<EndpointId>(i)), name);
        EXPECT_EQ(table.Intern(name), static_cast<EndpointId>(i));
    }
    EXPECT_EQ(table.size(), static_cast<std::size_t>(kNames));
}

TEST(EndpointTable, FindByViewWorksAfterReleases)
{
    EndpointTable table;
    for (int i = 0; i < 100; ++i) table.Intern("ctl:rpp" + std::to_string(i));
    for (int i = 0; i < 100; i += 2) table.Release("ctl:rpp" + std::to_string(i));

    // Views into a larger buffer, as the socket path parses them out of
    // a wire frame: no terminating NUL, no std::string.
    const std::string frame = "[ctl:rpp41][ctl:rpp42][ctl:rpp4]";
    const std::string_view buffer(frame);
    EXPECT_EQ(table.Find(buffer.substr(1, 9)), 41u);
    EXPECT_EQ(table.Find(buffer.substr(12, 9)), kInvalidEndpoint);
    EXPECT_EQ(table.Find(buffer.substr(23, 8)), kInvalidEndpoint);
    EXPECT_EQ(table.Find(buffer.substr(1, 8)), kInvalidEndpoint);  // "ctl:rpp4"
    for (int i = 1; i < 100; i += 2) {
        EXPECT_EQ(table.Find("ctl:rpp" + std::to_string(i)),
                  static_cast<EndpointId>(i));
    }
}

TEST(EndpointTable, NameReferenceSurvivesLaterInterning)
{
    EndpointTable table;
    const EndpointId id = table.Intern("agent:a-name-longer-than-sso");
    const std::string& name = table.Name(id);
    const std::string* address = &name;
    for (int i = 0; i < 10000; ++i) table.Intern("agent:" + std::to_string(i));
    EXPECT_EQ(&table.Name(id), address);
    EXPECT_EQ(name, "agent:a-name-longer-than-sso");
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
