/**
 * @file
 * The simulated server: workload, power curve, RAPL actuator, sensor,
 * Turbo Boost, and performance accounting in one object.
 *
 * Servers advance lazily — all state has exact closed-form updates for
 * arbitrary time steps — so a 30 K-server characterization sweep needs
 * no per-server periodic events. Reads must use non-decreasing times.
 */
#ifndef DYNAMO_SERVER_SIM_SERVER_H_
#define DYNAMO_SERVER_SIM_SERVER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "power/device.h"
#include "server/platform.h"
#include "server/power_model.h"
#include "server/rapl.h"
#include "server/sensor.h"
#include "workload/load_process.h"
#include "workload/perf_model.h"
#include "workload/service.h"

namespace dynamo {
class Archive;
}  // namespace dynamo

namespace dynamo::server {

/** One simulated server. Implements power::PowerLoad for device trees. */
class SimServer : public power::PowerLoad
{
  public:
    struct Config
    {
        std::string name = "srv";
        ServerGeneration generation = ServerGeneration::kHaswell2015;
        workload::ServiceType service = workload::ServiceType::kWeb;

        /** False for the small sensorless population (agent estimates). */
        bool has_sensor = true;

        /** Turbo Boost enabled in BIOS (Section IV-B experiments). */
        bool turbo_enabled = false;

        /** RAPL settle time constant, seconds (Fig. 9: ~2 s to settle). */
        double rapl_tau_s = 0.5;

        /** Seed for this server's private random stream. */
        std::uint64_t seed = 1;

        /**
         * Optional power-spec override (e.g. a search SKU whose Turbo
         * uplift differs from the stock generation specs). When unset,
         * ServerPowerSpec::For(generation) applies.
         */
        std::optional<ServerPowerSpec> spec_override;

        /**
         * RAPL access path. Defaults per generation: Westmere uses
         * direct MSR writes; Haswell exposes the node-manager API.
         */
        std::optional<RaplAccess> rapl_access;
    };

    /**
     * @param config   Static configuration.
     * @param params   Utilization process parameters (usually
     *                 LoadProcessParams::For(config.service)).
     * @param traffic  Optional shared traffic model (not owned).
     */
    SimServer(Config config, workload::LoadProcessParams params,
              const workload::TrafficModel* traffic = nullptr);

    /** Not copyable: the estimator points at this server's own spec. */
    SimServer(const SimServer&) = delete;
    SimServer& operator=(const SimServer&) = delete;

    const std::string& name() const { return name_; }
    workload::ServiceType service() const { return service_; }
    ServerGeneration generation() const { return generation_; }
    const ServerPowerSpec& spec() const { return spec_; }
    bool has_sensor() const { return has_sensor_; }

    // --- power::PowerLoad ---

    /** Actual electrical draw at `now`; 0 while de-energized. */
    Watts PowerAt(SimTime now) override;

    bool Cappable() const override { return true; }

    void OnPowerLost(SimTime now) override;
    void OnPowerRestored(SimTime now) override;

    /** True while an upstream breaker trip has this server dark. */
    bool dark() const { return dark_; }

    // --- control surface (driven by the Dynamo agent) ---

    /**
     * Install a RAPL power limit. The platform layer quantizes the
     * value and (on the IPMI path) delays actuation; the power then
     * settles over ~2 s.
     */
    void SetPowerLimit(Watts limit, SimTime now);

    /** Remove the RAPL limit; power recovers over ~2 s. */
    void ClearPowerLimit(SimTime now);

    /** True once a cap command is accepted (even if still actuating). */
    bool capped() const
    {
        if (pending_ == PendingCommand::kSet) return true;
        if (pending_ == PendingCommand::kClear) return false;
        return rapl_.has_limit();
    }

    /** The commanded limit (quantized); meaningful when capped(). */
    Watts power_limit() const
    {
        return pending_ == PendingCommand::kSet ? pending_limit_ : rapl_.limit();
    }

    /** Platform (RAPL access path) this server exposes. */
    const PlatformSpec& platform() const { return platform_; }

    /** Enable/disable Turbo Boost at runtime (Section IV-B). */
    void set_turbo_enabled(bool on) { turbo_enabled_ = on; }
    bool turbo_enabled() const { return turbo_enabled_; }

    // --- measurement paths used by the agent ---

    /** Sensor reading (true power + sensor noise); requires has_sensor(). */
    Watts SensorRead(SimTime now);

    /** Estimation-model reading from observed utilization. */
    Watts EstimateRead(SimTime now);

    /** The estimator, exposed for dynamic tuning against breaker data. */
    PowerEstimator& estimator() { return estimator_; }

    /** Power breakdown the agent can report (CPU / memory / other / loss). */
    struct Breakdown
    {
        Watts cpu;
        Watts memory;
        Watts other;
        Watts conversion_loss;
    };

    Breakdown BreakdownAt(SimTime now);

    // --- observability for experiments ---

    /** Demanded utilization (what the workload wants) at `now`. */
    double UtilAt(SimTime now);

    /** Unconstrained power demand at `now`. */
    Watts DemandedPowerAt(SimTime now);

    /** Instantaneous latency slowdown percent due to capping (Fig. 13). */
    double SlowdownPercentAt(SimTime now);

    /** Cumulative work the workload asked for (util-seconds x perf). */
    double demanded_work() const { return demanded_work_; }

    /** Cumulative work actually delivered under capping/outages. */
    double delivered_work() const { return delivered_work_; }

    /** The utilization process, for scenario modulation. */
    workload::LoadProcess& load() { return load_; }

    /**
     * Serialize the server's full dynamic state: workload position,
     * RAPL limit/settling, pending platform-delayed commands, outage
     * darkness, lazily-advanced caches, work accounting, and the
     * private RNG stream. Reads nothing through the lazy-advance path,
     * so snapshotting never perturbs the run.
     */
    void Snapshot(dynamo::Archive& ar) const;

  private:
    /** Advance all internal state to `now` and refresh the cache. */
    void AdvanceTo(SimTime now);

    /** Apply a platform-delayed cap/uncap that has become effective. */
    void ApplyPendingCommand(SimTime now);

    enum class PendingCommand : std::uint8_t { kNone, kSet, kClear };

    // Each fact is stored once. Config's remaining fields (spec
    // override, RAPL access path, seed, RAPL tau) are construction
    // inputs whose values live on in spec_, platform_, rng_ and rapl_.
    std::string name_;
    ServerPowerSpec spec_;
    const PlatformSpec& platform_;            ///< Shared, per access path.
    const workload::PerfModelParams& perf_;  ///< Shared, per service.
    Rng rng_;
    workload::LoadProcess load_;
    RaplModel rapl_;
    PowerSensor sensor_;
    PowerEstimator estimator_;  ///< Points at spec_.

    Watts pending_limit_ = 0.0;
    SimTime pending_effective_ = 0;

    SimTime last_time_ = -1;
    double cached_util_ = 0.0;
    Watts cached_demand_ = 0.0;
    Watts cached_actual_ = 0.0;
    double demanded_work_ = 0.0;
    double delivered_work_ = 0.0;

    // Enums and flags last, packed into one word.
    ServerGeneration generation_;
    workload::ServiceType service_;
    PendingCommand pending_ = PendingCommand::kNone;
    bool has_sensor_;
    bool turbo_enabled_;
    bool dark_ = false;
};

}  // namespace dynamo::server

#endif  // DYNAMO_SERVER_SIM_SERVER_H_
