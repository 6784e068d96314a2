/**
 * @file
 * Ablation A4: punish-offender-first vs uniform child cuts.
 *
 * An SB exceeds its limit because one row runs far over its power
 * quota while three innocent rows stay within theirs. Offender-first
 * sends the whole cut to the offending row; the uniform alternative
 * spreads it over every row, throttling workloads that kept their
 * side of the plan. We measure per-row work loss under both policies.
 */
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "core/allocation.h"
#include "fleet/fleet.h"

using namespace dynamo;

namespace {

struct RowLoss
{
    double offender_pct;
    double innocent_pct;
};

/**
 * Build the SB fleet with one hot row; if `offender_first` is false,
 * emulate a uniform policy by imposing proportional contractual
 * limits directly (bypassing the upper controller's planner).
 */
RowLoss
Run(bool offender_first)
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.topology.rpps_per_sb = 4;
    spec.topology.sb_rated = 330e3;
    spec.topology.quota_fill = 0.95;
    spec.servers_per_rpp = 420;
    spec.mix = fleet::ServiceMix::Single(workload::ServiceType::kWeb);
    spec.diurnal_amplitude = 0.0;
    spec.seed = 91;
    if (!offender_first) {
        // Disable the SB controller; we'll hand out uniform cuts.
        spec.deployment.upper.base.bands.cap_threshold_frac = 0.999;
        spec.deployment.upper.base.bands.cap_target_frac = 0.99;
        spec.deployment.upper.base.bands.uncap_threshold_frac = 0.90;
    }
    fleet::Fleet fleet(spec);

    // Row 0 goes hot: a regression doubles its load.
    for (auto* srv : fleet.ServersUnder("sb0/rpp0")) {
        srv->load().set_balancer_factor(1.9);
    }
    fleet.RunFor(Seconds(15));

    if (!offender_first) {
        // Uniform policy: every row gets the same fractional cut so
        // the SB lands on its capping target.
        const Watts aggregated = fleet.TotalPower();
        const Watts target = 0.95 * 330e3;
        if (aggregated > target) {
            const double scale = target / aggregated;
            for (const auto& leaf : fleet.dynamo()->leaf_controllers()) {
                leaf->SetContractualLimit(leaf->last_aggregated_power() * scale);
            }
        }
    }

    // Measure work over the throttled hour (delta from the snapshot
    // taken just before it starts).
    std::vector<double> demanded(4, 0.0);
    std::vector<double> delivered(4, 0.0);
    auto accumulate = [&](double sign) {
        for (int row = 0; row < 4; ++row) {
            for (auto* srv :
                 fleet.ServersUnder("sb0/rpp" + std::to_string(row))) {
                demanded[row] += sign * srv->demanded_work();
                delivered[row] += sign * srv->delivered_work();
            }
        }
    };
    accumulate(-1.0);
    fleet.RunFor(Hours(1));
    accumulate(+1.0);

    RowLoss loss;
    loss.offender_pct = 100.0 * (1.0 - delivered[0] / demanded[0]);
    double innocent_demanded = 0.0;
    double innocent_delivered = 0.0;
    for (int row = 1; row < 4; ++row) {
        innocent_demanded += demanded[row];
        innocent_delivered += delivered[row];
    }
    loss.innocent_pct = 100.0 * (1.0 - innocent_delivered / innocent_demanded);
    return loss;
}

}  // namespace

int
main()
{
    bench::Banner("Ablation A4", "punish-offender-first vs uniform cuts");

    const RowLoss offender = Run(/*offender_first=*/true);
    const RowLoss uniform = Run(/*offender_first=*/false);

    std::printf("%-24s %18s %18s\n", "policy", "offender row loss",
                "innocent rows loss");
    std::printf("%-24s %17.2f%% %17.2f%%\n", "punish-offender-first",
                offender.offender_pct, offender.innocent_pct);
    std::printf("%-24s %17.2f%% %17.2f%%\n", "uniform", uniform.offender_pct,
                uniform.innocent_pct);

    std::printf("\nHeadline comparison:\n");
    bench::Compare("innocent-row work loss, offender-first", 0.0,
                   offender.innocent_pct, "%");
    bench::Compare("innocent-row loss penalty of uniform policy", 1.0,
                   uniform.innocent_pct - offender.innocent_pct,
                   "%-points (should be > 0)");
    return 0;
}
