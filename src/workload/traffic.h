/**
 * @file
 * Cluster-level traffic models.
 *
 * Server load has a component common to every server in a cluster —
 * the actual user traffic — and an idiosyncratic per-server component
 * (modeled by LoadProcess). The common component is what makes power
 * variation at SB/MSB level nonzero even after aggregating thousands
 * of servers, and it is the lever the scenario drivers use for the
 * Fig. 11 load test and the Fig. 12 outage/recovery surge.
 */
#ifndef DYNAMO_WORKLOAD_TRAFFIC_H_
#define DYNAMO_WORKLOAD_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace dynamo::workload {

/** A multiplicative traffic factor as a function of simulated time. */
class TrafficModel
{
  public:
    virtual ~TrafficModel() = default;

    /** Traffic multiplier at `now` (1.0 = nominal). */
    virtual double FactorAt(SimTime now) const = 0;

    /**
     * How many times this model has been changed. Every mutator bumps
     * it, and a composite adds its parts' counts, so a change anywhere
     * beneath a composite moves the composite's count too.
     */
    virtual std::uint64_t changes() const { return changes_; }

  protected:
    /** Count one change; every mutator calls it. */
    void NoteChange() { ++changes_; }

  private:
    std::uint64_t changes_ = 0;
};

/** Always the same factor. */
class ConstantTraffic : public TrafficModel
{
  public:
    explicit ConstantTraffic(double factor = 1.0) : factor_(factor) {}

    double FactorAt(SimTime) const override { return factor_; }

    void set_factor(double factor)
    {
        factor_ = factor;
        NoteChange();
    }

    double factor() const { return factor_; }

  private:
    double factor_;
};

/**
 * Smooth diurnal curve: factor(t) = 1 + amplitude * sin(...) with the
 * peak at `peak_hour` local time. Repeats every 24 h.
 */
class DiurnalTraffic : public TrafficModel
{
  public:
    DiurnalTraffic(double amplitude, double peak_hour = 20.0)
        : amplitude_(amplitude), peak_hour_(peak_hour)
    {
    }

    double FactorAt(SimTime now) const override;

  private:
    double amplitude_;
    double peak_hour_;
};

/**
 * Weekly modulation on top of the diurnal curve: weekdays run at
 * full traffic, weekends dip. Day 0 of simulated time is a Monday.
 */
class WeeklyTraffic : public TrafficModel
{
  public:
    /** @param weekend_factor multiplier applied on days 5 and 6. */
    explicit WeeklyTraffic(double weekend_factor = 0.85)
        : weekend_factor_(weekend_factor)
    {
    }

    double FactorAt(SimTime now) const override;

  private:
    double weekend_factor_;
};

/**
 * Piecewise-linear schedule through (time, factor) breakpoints;
 * clamped to the first/last factor outside the covered range. Used to
 * script load tests and outage/recovery scenarios.
 */
class PiecewiseTraffic : public TrafficModel
{
  public:
    /** Append a breakpoint; times must be added in increasing order. */
    void AddPoint(SimTime time, double factor);

    /**
     * Append one step of a square wave: ramp from `low` to `high` over
     * `edge_ms` starting at `rise`, hold `high`, ramp back down over
     * `edge_ms` starting at `fall`. The interpolation is linear, so a
     * near-vertical edge is two breakpoints `edge_ms` apart — the
     * synchronized on/off load of an AI-training job (compute phase
     * vs. all-reduce stall), scripted deterministically.
     */
    void AddSquarePulse(SimTime rise, SimTime fall, double low, double high,
                        SimTime edge_ms = 1000);

    double FactorAt(SimTime now) const override;

    std::size_t size() const { return points_.size(); }

  private:
    struct Point
    {
        SimTime time;
        double factor;
    };

    std::vector<Point> points_;
};

/**
 * Mean-reverting stochastic traffic factor shared by a group of
 * servers (e.g. one rack or row running the same service): models
 * correlated dynamics like job phases or request-mix shifts that move
 * a whole group together and therefore survive aggregation. Factor is
 * 1 + OU(sigma, tau), floored at `min_factor`.
 *
 * Queries must use non-decreasing times (same-time re-queries are
 * served from cache), matching how the simulator advances.
 */
class GroupTraffic : public TrafficModel
{
  public:
    GroupTraffic(double sigma, double tau_s, Rng rng, double min_factor = 0.2)
        : sigma_(sigma), tau_s_(tau_s), min_factor_(min_factor), rng_(rng)
    {
    }

    double FactorAt(SimTime now) const override;

  private:
    double sigma_;
    double tau_s_;
    double min_factor_;
    mutable Rng rng_;
    mutable double state_ = 0.0;
    mutable SimTime last_time_ = 0;
    mutable bool started_ = false;
};

/**
 * Product of component models (non-owning; caller keeps them alive).
 *
 * Every server sharing a composite reads it at the same instants (a
 * breaker-monitor tick reads the whole fleet), so the composite keeps
 * its last (now, factor) and answers a repeated instant from it. The
 * memo holds only while `now` and the parts' change counts both stand
 * still, so a part changed at instant t is seen by the next read at t.
 * The parts are pure functions of `now` or, like GroupTraffic, answer a
 * repeated instant from their own state, so a memo hit returns the
 * same bits as asking them again.
 */
class CompositeTraffic : public TrafficModel
{
  public:
    /** Add one multiplicative component. */
    void Add(const TrafficModel* model)
    {
        parts_.push_back(model);
        NoteChange();
    }

    double FactorAt(SimTime now) const override;

    std::uint64_t changes() const override;

  private:
    std::vector<const TrafficModel*> parts_;
    // The empty product is 1 at every instant, so the initial memo is
    // true until the first Add moves the change count.
    mutable SimTime memo_now_ = 0;
    mutable std::uint64_t memo_changes_ = 0;
    mutable double memo_factor_ = 1.0;
};

}  // namespace dynamo::workload

#endif  // DYNAMO_WORKLOAD_TRAFFIC_H_
