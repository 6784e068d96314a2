/**
 * @file
 * Power measurement paths.
 *
 * Nearly all Facebook servers from 2011 on carry an on-board power
 * sensor the agent reads through the sensor firmware; for the small
 * sensorless population, the agent estimates power on-the-fly from
 * system statistics using a model calibrated once against a Yokogawa
 * meter (Section III-B). We model both: an accurate-but-noisy sensor,
 * and a utilization-driven estimator whose calibration can be biased
 * to exercise the validation/tuning loop the paper describes.
 */
#ifndef DYNAMO_SERVER_SENSOR_H_
#define DYNAMO_SERVER_SENSOR_H_

#include "common/rng.h"
#include "common/units.h"
#include "server/power_model.h"

namespace dynamo::server {

/** On-board power sensor: true power plus small multiplicative noise. */
class PowerSensor
{
  public:
    /** @param noise_frac 1-sigma relative reading noise (default 0.5 %). */
    explicit PowerSensor(double noise_frac = 0.005) : noise_frac_(noise_frac) {}

    /** One reading of `true_power`. */
    Watts Read(Watts true_power, Rng& rng) const
    {
        return true_power * (1.0 + rng.Normal(0.0, noise_frac_));
    }

    double noise_frac() const { return noise_frac_; }

  private:
    double noise_frac_;
};

/**
 * Model-based power estimator for sensorless servers: maps observed
 * CPU utilization through a calibrated power curve. `bias_frac`
 * captures calibration drift; `noise_frac` the residual model error.
 *
 * The estimator refers to its curve instead of copying it (a server's
 * estimator points at the server's own spec), so the curve must
 * outlive it; building one from a temporary does not compile.
 */
class PowerEstimator
{
  public:
    PowerEstimator(const ServerPowerSpec& calibrated_spec,
                   double bias_frac = 0.0, double noise_frac = 0.04)
        : spec_(&calibrated_spec), bias_frac_(bias_frac),
          noise_frac_(noise_frac)
    {
    }

    PowerEstimator(ServerPowerSpec&&, double = 0.0, double = 0.04) = delete;

    /** Estimate power from an observed utilization sample. */
    Watts Estimate(double util, Rng& rng) const
    {
        const Watts model = PowerAtUtil(*spec_, util);
        return model * (1.0 + bias_frac_ + rng.Normal(0.0, noise_frac_));
    }

    /**
     * Dynamic re-calibration against a trusted aggregate reading, per
     * the paper's lesson "use the (coarse-grained) power readings from
     * the power breaker to validate and dynamically tune the server
     * power estimation": nudges the bias toward making the estimate
     * match the reference.
     */
    void Tune(Watts estimated_aggregate, Watts reference_aggregate,
              double gain = 0.5)
    {
        if (estimated_aggregate <= 0.0 || reference_aggregate <= 0.0) return;
        const double ratio = reference_aggregate / estimated_aggregate;
        bias_frac_ = (1.0 + bias_frac_) * (1.0 + gain * (ratio - 1.0)) - 1.0;
    }

    double bias_frac() const { return bias_frac_; }

    /**
     * Force the model bias (estimator-drift scenarios: an uncalibrated
     * model walks away from the true curve until Tune() pulls it back).
     */
    void set_bias_frac(double bias_frac) { bias_frac_ = bias_frac; }

  private:
    const ServerPowerSpec* spec_;
    double bias_frac_;
    double noise_frac_;
};

}  // namespace dynamo::server

#endif  // DYNAMO_SERVER_SENSOR_H_
