/**
 * @file
 * Performance impact of power capping.
 *
 * Fig. 13 of the paper measures web-server latency slowdown against
 * the power reduction applied by capping: performance degrades slowly
 * within a ~20 % power reduction (there is slack — lower frequency,
 * same work) and much faster beyond it, where CPU frequency becomes
 * the bottleneck. We model that as a two-slope piecewise-linear curve
 * per service and derive a throughput throttle factor from it.
 */
#ifndef DYNAMO_WORKLOAD_PERF_MODEL_H_
#define DYNAMO_WORKLOAD_PERF_MODEL_H_

#include "workload/service.h"

namespace dynamo::workload {

/** Two-slope slowdown curve parameters. */
struct PerfModelParams
{
    /** Power-reduction percentage where the slope steepens. */
    double knee_reduction_pct = 20.0;

    /** Slowdown %-points per reduction %-point below the knee. */
    double slope_low = 0.5;

    /** Slowdown %-points per reduction %-point above the knee. */
    double slope_high = 4.0;

    /**
     * Per-service curves; CPU-bound services steepen harder. Entries
     * of one shared, immutable table, so servers refer to them
     * instead of copying them.
     */
    static const PerfModelParams& For(ServiceType service);
};

/**
 * Latency slowdown in percent for a given power reduction in percent
 * (Fig. 13's axes). 0 when reduction <= 0.
 */
double SlowdownPercent(const PerfModelParams& params, double power_reduction_pct);

/**
 * Throughput multiplier in (0, 1] corresponding to a fractional power
 * reduction: throttle = 1 / (1 + slowdown).
 */
double ThrottleFactor(const PerfModelParams& params, double power_reduction_frac);

}  // namespace dynamo::workload

#endif  // DYNAMO_WORKLOAD_PERF_MODEL_H_
