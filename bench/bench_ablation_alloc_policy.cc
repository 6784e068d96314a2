/**
 * @file
 * Ablation A6: how the leaf splits a cut ("new capping algorithms",
 * paper conclusion).
 *
 * The same overloaded web row runs under every capping brain, plus the
 * paper's three_band brain at bucket_w = 0, which water-fills each
 * priority group instead of cutting high-bucket-first. three_band
 * concentrates the cut on the hottest servers (fewest users affected,
 * punishes likely regressions); waterfill and fairshare spread thin
 * pain over everyone. The bench reports how many servers are
 * throttled, the worst per-server slowdown, and total work lost for
 * each, and exits 1 if any row lets the breaker trip.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "fleet/fleet.h"
#include "policy/capping_policy.h"

using namespace dynamo;

namespace {

struct Outcome
{
    std::size_t max_capped;
    double worst_slowdown_pct;
    double work_loss_pct;
    std::size_t outages;
};

Outcome
Run(policy::PolicyKind kind, Watts bucket_size)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kRpp;
    spec.topology.rpp_rated = 127.5e3;
    spec.servers_per_rpp = 560;
    spec.mix = fleet::ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.deployment.leaf.capping_policy = kind;
    spec.deployment.upper.capping_policy = kind;
    spec.deployment.leaf.bucket_size = bucket_size;
    spec.seed = 73;
    fleet::Fleet fleet(spec);
    fleet.scenario().AddPoint(0, 1.0);
    fleet.scenario().AddPoint(Minutes(3), 1.7);
    fleet.scenario().AddPoint(Minutes(45), 1.7);

    Outcome out{0, 0.0, 0.0, 0};
    double demanded = 0.0;
    double delivered = 0.0;
    for (int minute = 1; minute <= 45; ++minute) {
        fleet.RunFor(Minutes(1));
        std::size_t capped = 0;
        const SimTime now = fleet.sim().Now();
        for (const auto& srv : fleet.servers()) {
            if (srv->capped()) ++capped;
            out.worst_slowdown_pct =
                std::max(out.worst_slowdown_pct, srv->SlowdownPercentAt(now));
        }
        out.max_capped = std::max(out.max_capped, capped);
    }
    for (const auto& srv : fleet.servers()) {
        demanded += srv->demanded_work();
        delivered += srv->delivered_work();
    }
    out.work_loss_pct = 100.0 * (1.0 - delivered / demanded);
    out.outages = fleet.outage_count();
    return out;
}

struct Row
{
    const char* name;
    policy::PolicyKind kind;
    Watts bucket_size;
};

}  // namespace

int
main()
{
    bench::Banner("Ablation A6", "leaf cut split comparison");

    const Watts default_bucket =
        fleet::FleetSpec{}.deployment.leaf.bucket_size;
    std::vector<Row> rows;
    for (policy::PolicyKind kind : policy::AllPolicyKinds()) {
        rows.push_back({policy::PolicyKindName(kind), kind, default_bucket});
    }
    rows.push_back({"three_band bucket_w=0", policy::PolicyKind::kThreeBand,
                    0.0});

    std::printf("%-22s %12s %18s %14s %8s\n", "brain", "max capped",
                "worst slowdown(%)", "work loss(%)", "outages");
    std::size_t outages = 0;
    for (const Row& row : rows) {
        const Outcome out = Run(row.kind, row.bucket_size);
        outages += out.outages;
        std::printf("%-22s %12zu %18.1f %14.2f %8zu\n", row.name,
                    out.max_capped, out.worst_slowdown_pct, out.work_loss_pct,
                    out.outages);
    }

    std::printf(
        "\nAll brains keep the breaker safe; they differ in who pays.\n"
        "three_band and predictive focus the cut on the hottest servers\n"
        "(at bucket_w = 0 three_band levels them to one cap) and leave\n"
        "the rest of the row untouched. waterfill and fairshare spread\n"
        "it over the whole row, and because each cap *update* re-cuts\n"
        "every server from its already-capped power, shallow cuts\n"
        "compound across updates into deeper ones — a dynamic-interaction\n"
        "effect that static, per-decision analyses of cut splits miss,\n"
        "and one more argument for the paper's production choice.\n");
    if (outages > 0) {
        std::printf("\nFAIL: %zu outage(s); the breaker was not kept safe.\n",
                    outages);
        return 1;
    }
    return 0;
}
