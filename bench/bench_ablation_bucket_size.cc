/**
 * @file
 * Ablation A2: high-bucket-first bucket size (paper: 10-30 W works
 * well; 20 W used in production).
 *
 * For a fixed roster and cut, the bucket size trades fairness against
 * blast radius: tiny buckets concentrate the entire cut on the few
 * hottest servers (deep individual caps); huge buckets spread thin
 * cuts over everyone (many servers throttled). The paper's 10-30 W
 * range touches few servers while keeping the per-server cut shallow.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/allocation.h"

using namespace dynamo;
using core::CappingPlan;
using core::ServerPowerInfo;

int
main()
{
    bench::Banner("Ablation A2", "high-bucket-first bucket size sweep");

    Rng rng(77);
    std::vector<ServerPowerInfo> servers;
    for (int i = 0; i < 400; ++i) {
        ServerPowerInfo s;
        s.name = "s" + std::to_string(i);
        s.power = 160.0 + 150.0 * rng.Uniform();
        s.priority_group = 0;
        s.sla_min_cap = 140.0;
        servers.push_back(s);
    }
    const Watts cut = 6000.0;

    std::printf("%12s %10s %14s %14s %16s\n", "bucket(W)", "capped",
                "max cut(W)", "mean cut(W)", "deepest cap(%)");
    for (Watts bucket : {2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0}) {
        const CappingPlan plan = core::ComputeCappingPlan(servers, cut, bucket);
        double max_cut = 0.0;
        double deepest = 0.0;
        for (const auto& a : plan.assignments) {
            max_cut = std::max(max_cut, a.cut);
            for (const auto& s : servers) {
                if (s.name == a.name) {
                    deepest = std::max(deepest, 100.0 * a.cut / s.power);
                }
            }
        }
        std::printf("%12.0f %10zu %14.1f %14.1f %16.1f\n", bucket,
                    plan.assignments.size(), max_cut,
                    plan.planned_cut / std::max<std::size_t>(
                                           plan.assignments.size(), 1),
                    deepest);
    }

    std::printf("\nObservation: the paper's 10-30 W buckets bound the deepest\n"
                "per-server throttle while touching only the hottest servers;\n"
                "the production default of 20 W sits in the knee.\n");
    return 0;
}
