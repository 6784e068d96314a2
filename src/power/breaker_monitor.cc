#include "power/breaker_monitor.h"

namespace dynamo::power {

BreakerMonitor::BreakerMonitor(sim::Simulation& sim, PowerDevice& root,
                               SimTime period)
    : sim_(sim), root_(root), period_(period), last_tick_(sim.Now())
{
    task_ = sim_.SchedulePeriodic(period_, [this]() { Tick(); });
}

void
BreakerMonitor::Tick()
{
    const SimTime now = sim_.Now();
    const SimTime dt = now - last_tick_;
    last_tick_ = now;
    if (dt <= 0) return;

    // Sum every draw once, bottom-up, then advance the breakers
    // top-down. A trip zeroes the draw below it at once, but its
    // ancestors keep this tick's draw and see the loss on the next
    // tick (physical breakers do not all react in the same instant
    // either).
    draws_.clear();
    SumDraws(root_, !root_.IsEnergized(), now);
    std::size_t next = 0;
    root_.ForEach([&](PowerDevice& device) {
        const Watts draw = draws_[next++];
        if (device.breaker().tripped()) return;
        if (device.breaker().Advance(device.IsEnergized() ? draw : 0.0, dt)) {
            ++trip_count_;
            NotifyLostRespectingBatteries(device, now);
            if (on_trip_) on_trip_(device, now);
        }
    });
}

Watts
BreakerMonitor::SumDraws(PowerDevice& device, bool dark, SimTime now)
{
    const std::size_t slot = draws_.size();
    draws_.push_back(0.0);
    dark = dark || device.breaker().tripped();
    Watts total = 0.0;
    if (!dark) {
        for (PowerLoad* load : device.loads()) total += load->PowerAt(now);
    }
    for (const auto& child : device.children()) {
        total += SumDraws(*child, dark, now);
    }
    draws_[slot] = total;
    return total;
}

void
BreakerMonitor::NotifyLostRespectingBatteries(PowerDevice& device, SimTime now)
{
    if (device.battery_backup() > 0) {
        // DCUPS ride-through: the subtree keeps serving on battery; it
        // only goes dark if upstream power has not returned when the
        // battery is exhausted.
        sim_.ScheduleAfter(device.battery_backup(), [this, &device]() {
            if (!device.IsEnergized()) device.NotifyPowerLost(sim_.Now());
        });
        return;
    }
    for (PowerLoad* load : device.loads()) load->OnPowerLost(now);
    for (const auto& child : device.children()) {
        NotifyLostRespectingBatteries(*child, now);
    }
}

}  // namespace dynamo::power
