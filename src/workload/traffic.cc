#include "workload/traffic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "common/decay.h"

namespace dynamo::workload {

double
DiurnalTraffic::FactorAt(SimTime now) const
{
    const double hours = ToSeconds(now) / 3600.0;
    const double phase = 2.0 * M_PI * (hours - peak_hour_) / 24.0;
    return 1.0 + amplitude_ * std::cos(phase);
}

double
WeeklyTraffic::FactorAt(SimTime now) const
{
    const auto day =
        static_cast<int>((ToSeconds(now) / 86400.0)) % 7;
    return (day == 5 || day == 6) ? weekend_factor_ : 1.0;
}

double
GroupTraffic::FactorAt(SimTime now) const
{
    if (!started_) {
        started_ = true;
        last_time_ = now;
        state_ = rng_.Normal(0.0, sigma_);
    } else if (now > last_time_) {
        const DecayTerms step = DecayOver(now - last_time_, tau_s_);
        last_time_ = now;
        const double noise_std = sigma_ * step.root;
        state_ = state_ * step.decay + rng_.Normal(0.0, noise_std);
    }
    return std::max(min_factor_, 1.0 + state_);
}

double
CompositeTraffic::FactorAt(SimTime now) const
{
    const std::uint64_t changes = CompositeTraffic::changes();
    if (now == memo_now_ && changes == memo_changes_) return memo_factor_;
    double f = 1.0;
    for (const TrafficModel* part : parts_) f *= part->FactorAt(now);
    memo_now_ = now;
    memo_changes_ = changes;
    memo_factor_ = f;
    return f;
}

std::uint64_t
CompositeTraffic::changes() const
{
    std::uint64_t sum = TrafficModel::changes();
    for (const TrafficModel* part : parts_) sum += part->changes();
    return sum;
}

void
PiecewiseTraffic::AddPoint(SimTime time, double factor)
{
    // Scenario scripting is user-facing configuration: fail loudly in
    // every build type rather than silently mis-interpolating.
    if (!points_.empty() && time < points_.back().time) {
        throw std::invalid_argument(
            "PiecewiseTraffic breakpoints must be added in time order");
    }
    points_.push_back(Point{time, factor});
    NoteChange();
}

void
PiecewiseTraffic::AddSquarePulse(SimTime rise, SimTime fall, double low,
                                 double high, SimTime edge_ms)
{
    if (fall < rise + edge_ms) {
        throw std::invalid_argument(
            "PiecewiseTraffic square pulse must hold at least one edge");
    }
    AddPoint(rise, low);
    AddPoint(rise + edge_ms, high);
    AddPoint(fall, high);
    AddPoint(fall + edge_ms, low);
}

double
PiecewiseTraffic::FactorAt(SimTime now) const
{
    if (points_.empty()) return 1.0;
    if (now <= points_.front().time) return points_.front().factor;
    if (now >= points_.back().time) return points_.back().factor;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (now <= points_[i].time) {
            const Point& a = points_[i - 1];
            const Point& b = points_[i];
            if (b.time == a.time) return b.factor;
            const double frac = static_cast<double>(now - a.time) /
                                static_cast<double>(b.time - a.time);
            return a.factor + frac * (b.factor - a.factor);
        }
    }
    return points_.back().factor;
}

}  // namespace dynamo::workload
