#include "workload/perf_model.h"

#include <algorithm>
#include <cstddef>
#include <iterator>

namespace dynamo::workload {

namespace {

/** One curve per service, in ServiceType order. */
constexpr PerfModelParams kPerfByService[] = {
    // kWeb: matches the Fig. 13 control-group experiment directly.
    {20.0, 0.5, 4.0},
    // kCache: memory-bound, modest latency sensitivity to frequency.
    {25.0, 0.4, 2.5},
    // kHadoop: CPU-bound map-reduce, throughput tracks frequency closely.
    {15.0, 0.8, 4.5},
    // kDatabase.
    {20.0, 0.6, 3.5},
    // kNewsfeed.
    {20.0, 0.6, 4.0},
    // kF4Storage: IO-bound, frequency barely matters until deep cuts.
    {30.0, 0.3, 2.0},
};
static_assert(std::size(kPerfByService) == kAllServices.size());

}  // namespace

const PerfModelParams&
PerfModelParams::For(ServiceType service)
{
    const auto index = static_cast<std::size_t>(service);
    return index < std::size(kPerfByService) ? kPerfByService[index]
                                             : kPerfByService[0];
}

double
SlowdownPercent(const PerfModelParams& params, double power_reduction_pct)
{
    if (power_reduction_pct <= 0.0) return 0.0;
    if (power_reduction_pct <= params.knee_reduction_pct) {
        return params.slope_low * power_reduction_pct;
    }
    return params.slope_low * params.knee_reduction_pct +
           params.slope_high * (power_reduction_pct - params.knee_reduction_pct);
}

double
ThrottleFactor(const PerfModelParams& params, double power_reduction_frac)
{
    const double s =
        SlowdownPercent(params, std::max(0.0, power_reduction_frac) * 100.0) / 100.0;
    return 1.0 / (1.0 + s);
}

}  // namespace dynamo::workload
