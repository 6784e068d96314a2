/**
 * @file
 * RAPL (running average power limit) model.
 *
 * The Dynamo agent enforces server power caps through Intel RAPL
 * (via an MSR write or the node-manager IPMI API). Fig. 9 measures the
 * closed-loop behaviour: after a cap or uncap command is issued it
 * takes about two seconds for server power to settle at the new level
 * — the reason the leaf controller must sample slower than 2 s. We
 * model the settling as a first-order exponential toward
 * min(demand, limit) with a ~0.5 s time constant (≈98 % settled at
 * 2 s).
 */
#ifndef DYNAMO_SERVER_RAPL_H_
#define DYNAMO_SERVER_RAPL_H_

#include "common/units.h"

namespace dynamo::server {

/** Per-server power-limit actuator with first-order settling. */
class RaplModel
{
  public:
    /** @param settle_tau_s first-order time constant in seconds. */
    explicit RaplModel(double settle_tau_s = 0.5) : tau_s_(settle_tau_s) {}

    /** Install (or move) the power limit. Takes effect over ~4 tau. */
    void SetLimit(Watts limit) { has_limit_ = true; limit_ = limit; }

    /** Remove the power limit; power recovers toward demand. */
    void ClearLimit() { has_limit_ = false; }

    bool has_limit() const { return has_limit_; }

    /** Current limit; meaningful only when has_limit(). */
    Watts limit() const { return limit_; }

    /**
     * Advance to time `now` under demanded power `demanded` and return
     * the actual power drawn. Reads must be at non-decreasing times.
     */
    Watts Apply(Watts demanded, SimTime now);

    /** Actual power at the last Apply() call. */
    Watts actual() const { return actual_; }

  private:
    double tau_s_;
    Watts limit_ = 0.0;
    Watts actual_ = 0.0;
    SimTime last_time_ = 0;
    bool has_limit_ = false;  // flags last: both share one padded word
    bool started_ = false;
};

}  // namespace dynamo::server

#endif  // DYNAMO_SERVER_RAPL_H_
