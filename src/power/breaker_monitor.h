/**
 * @file
 * Periodic breaker integration.
 *
 * Breakers are physical devices: their thermal trip state evolves with
 * the actual current, independent of whether Dynamo is watching. The
 * monitor samples every device's draw on a fixed period, advances the
 * breaker accumulators, and reports trips (de-energizing subtrees and
 * invoking an optional callback so experiments can count outages).
 */
#ifndef DYNAMO_POWER_BREAKER_MONITOR_H_
#define DYNAMO_POWER_BREAKER_MONITOR_H_

#include <functional>
#include <vector>

#include "power/device.h"
#include "sim/simulation.h"

namespace dynamo::power {

/** Advances every breaker in a device tree on the simulation clock. */
class BreakerMonitor
{
  public:
    using TripCallback = std::function<void(PowerDevice&, SimTime)>;

    /**
     * @param sim     Simulation to schedule on.
     * @param root    Device tree whose breakers to integrate.
     * @param period  Sampling period in milliseconds (default 1 s).
     */
    BreakerMonitor(sim::Simulation& sim, PowerDevice& root, SimTime period = 1000);

    ~BreakerMonitor() { task_.Cancel(); }

    BreakerMonitor(const BreakerMonitor&) = delete;
    BreakerMonitor& operator=(const BreakerMonitor&) = delete;

    /** Invoke `cb` whenever any breaker trips. */
    void SetTripCallback(TripCallback cb) { on_trip_ = std::move(cb); }

    /** Number of trips observed so far. */
    std::size_t trip_count() const { return trip_count_; }

  private:
    void Tick();

    /**
     * Append the draw of `device` and of every device below it to
     * draws_, in pre-order, and return the device's draw. Each load is
     * read once and the sums run in TotalPower's order, so every draw
     * equals TotalPower's. A subtree that is `dark` or under a tripped
     * breaker draws 0, and its loads are not read.
     */
    Watts SumDraws(PowerDevice& device, bool dark, SimTime now);

    /**
     * Propagate power loss to a tripped device's loads, honoring
     * DCUPS battery ride-through on battery-backed subtrees.
     */
    void NotifyLostRespectingBatteries(PowerDevice& device, SimTime now);

    sim::Simulation& sim_;
    PowerDevice& root_;
    SimTime period_;
    SimTime last_tick_ = 0;
    std::size_t trip_count_ = 0;
    TripCallback on_trip_;
    sim::TaskHandle task_;

    /** Each device's draw this tick, in pre-order (reused scratch). */
    std::vector<Watts> draws_;
};

}  // namespace dynamo::power

#endif  // DYNAMO_POWER_BREAKER_MONITOR_H_
