/**
 * @file
 * Figure 16: snapshot of per-server power and computed power caps
 * during a capping event, by service group.
 *
 * Shows the high-bucket-first structure: within the capped (lower
 * priority) groups, every server above the expansion floor receives a
 * cap equal to its current power minus an even per-server cut, the cap
 * never falls below the floor, and cache servers receive no caps.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "core/allocation.h"
#include "common/rng.h"
#include "workload/service.h"

using namespace dynamo;
using core::CapAssignment;
using core::CappingPlan;
using core::ServerPowerInfo;

int
main()
{
    bench::Banner("Fig. 16", "per-server cap snapshot (high-bucket-first)");

    // Roster mirroring the figure: ~200 web, ~160 cache, ~35 feed, with
    // realistic power spread; web/feed in group 1, cache in group 2.
    Rng rng(41);
    std::vector<ServerPowerInfo> servers;
    auto add = [&](const char* prefix, int n, workload::ServiceType service,
                   double lo, double hi) {
        const auto& traits = workload::TraitsFor(service);
        for (int i = 0; i < n; ++i) {
            ServerPowerInfo s;
            s.name = std::string(prefix) + std::to_string(i);
            s.power = lo + (hi - lo) * rng.Uniform();
            s.priority_group = traits.priority_group;
            s.sla_min_cap = 150.0;
            servers.push_back(s);
        }
    };
    add("web", 200, workload::ServiceType::kWeb, 170.0, 310.0);
    add("cache", 160, workload::ServiceType::kCache, 180.0, 260.0);
    add("feed", 35, workload::ServiceType::kNewsfeed, 170.0, 300.0);

    const Watts total_cut = 6000.0;
    const CappingPlan plan = core::ComputeCappingPlan(servers, total_cut, 20.0);

    // Index assignments.
    auto cap_of = [&](const std::string& name) -> const CapAssignment* {
        for (const auto& a : plan.assignments) {
            if (a.name == name) return &a;
        }
        return nullptr;
    };

    double min_cap = 1e18;
    double max_uncapped_power = 0.0;
    int cache_capped = 0;
    for (const auto& s : servers) {
        const CapAssignment* a = cap_of(s.name);
        if (a != nullptr) {
            min_cap = std::min(min_cap, a->cap);
            if (s.name.rfind("cache", 0) == 0) ++cache_capped;
        } else if (s.name.rfind("cache", 0) != 0) {
            max_uncapped_power = std::max(max_uncapped_power, s.power);
        }
    }

    std::printf("total-power-cut=%.0f W, bucket=20 W\n\n", total_cut);
    std::printf("snapshot (sorted by power; every 10th web server shown):\n");
    std::printf("%10s %10s %10s\n", "server", "power(W)", "cap(W)");
    std::vector<ServerPowerInfo> web(servers.begin(), servers.begin() + 200);
    std::sort(web.begin(), web.end(),
              [](const auto& a, const auto& b) { return a.power < b.power; });
    for (std::size_t i = 0; i < web.size(); i += 10) {
        const CapAssignment* a = cap_of(web[i].name);
        std::printf("%10s %10.1f %10s\n", web[i].name.c_str(), web[i].power,
                    a ? std::to_string(static_cast<int>(a->cap)).c_str()
                      : "-");
    }

    std::printf("\nHeadline comparison:\n");
    bench::Compare("effective floor of caps (figure: 210 W)", 210.0, min_cap,
                   "W");
    bench::Compare("cache servers capped", 0.0,
                   static_cast<double>(cache_capped), "servers");
    bench::Compare("uncapped web/feed servers sit below the floor", 1.0,
                   max_uncapped_power <= min_cap + 20.0 + 1.0 ? 1.0 : 0.0,
                   "(1=yes)");
    bench::Compare("planned cut equals requested cut", total_cut,
                   plan.planned_cut, "W");
    return 0;
}
