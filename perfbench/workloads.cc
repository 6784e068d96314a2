/**
 * @file
 * The three benchmark workloads.
 *
 *   sharded-20k   fleet::ShardedFleet, 20,000 servers on one thread:
 *                 the simulated pull path, the window/barrier loop and
 *                 the journal recorder. (At 100,000 servers the windows
 *                 are memory-bound past L3, swing 1.7x with the host's
 *                 load, and a run holds too few of them for a steady
 *                 95th percentile.)
 *   msb-surge     serial fleet::Fleet from spec text (MSB -> 4 SB ->
 *                 8 RPP x 240 servers) with the default deployment and
 *                 a repeating traffic surge that caps at all three
 *                 levels: the write path, breaker-monitor tree walks
 *                 and decision traces beside the same reads.
 *   socket-leaf   one LeafController and 240 DynamoAgents in one
 *                 process over a unix-domain SocketTransport, closed
 *                 loop: DYNW encode/decode and the poll loop with the
 *                 sim kernel and SimTransport idle.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <unistd.h>

#include "bench.h"
#include "common/archive.h"
#include "common/rng.h"
#include "core/agent.h"
#include "core/controller_builder.h"
#include "core/leaf_controller.h"
#include "fleet/fleet.h"
#include "fleet/sharding.h"
#include "fleet/spec_parser.h"
#include "power/topology.h"
#include "replay/journal.h"
#include "rpc/socket_transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/load_process.h"

namespace perfbench {
namespace {

using namespace dynamo;

constexpr SimTime kLeafCycleMs = 3000;
constexpr SimTime kWindowMs = 9000;

double
Ms(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

std::uint64_t
CounterValue(telemetry::MetricsRegistry& registry, const char* name)
{
    return registry.GetCounter(name)->value();
}

double
HistogramSum(telemetry::MetricsRegistry& registry, const char* name)
{
    return registry.GetHistogram(name)->sum();
}

// ---------------------------------------------------------------------------
// sharded-20k
// ---------------------------------------------------------------------------

class ShardedWorkload final : public Workload
{
  public:
    ShardedWorkload(std::uint64_t seed, bool quick)
        : seed_(seed), quick_(quick)
    {
    }

    void Build(Tracer& tracer) override
    {
        const Tracer::Scope span(tracer, "fleet.build");
        fleet::ShardedFleetConfig config;
        config.n_servers = quick_ ? 4800 : 20000;
        config.threads = 1;
        config.seed = seed_;
        config.record_journal = true;
        config.scenario = "perfbench-sharded-20k";
        fleet_ = std::make_unique<fleet::ShardedFleet>(config);
    }

    void WarmUp(Tracer& tracer) override
    {
        // Twelve windows (108 s) run past every activation stagger and
        // make a set-up last about a second, long enough to average over
        // the host's short slow phases (with two, set-up medians of two
        // 10-seed sets differed by 25 %).
        const Tracer::Scope span(tracer, "fleet.warmup");
        fleet_->RunWindows(quick_ ? 2 : 12);
    }

    void RunBlock(Tracer& tracer, Samples& samples) override
    {
        const Tracer::Scope span(tracer, "window");
        const Clock::time_point start = Clock::now();
        fleet_->RunWindows(1);
        const double ms = Ms(start);
        samples.window_ms.push_back(ms);
        // A window holds three leaf cycles; the engine cannot stop
        // between them, so each window yields its per-cycle mean.
        samples.cycle_ms.push_back(ms / 3.0);
        samples.sim_ms += kWindowMs;
    }

    int FixedBlocks() const override { return quick_ ? 4 : 60; }

    std::uint64_t StateDigest() override
    {
        return Fnv1a64(replay::EncodeJournal(fleet_->journal()));
    }

    Counts Read(bool with_journal) override
    {
        Counts c;
        for (std::size_t l = 0; l < fleet_->plan().n_leaves; ++l) {
            const core::LeafController& leaf = fleet_->leaf(l);
            c.pulls += (leaf.aggregations() + leaf.invalid_aggregations()) *
                       leaf.agent_count();
            c.invalid_aggregations += leaf.invalid_aggregations();
            c.estimated += leaf.estimated_readings();
            c.retries += leaf.retries_issued();
        }
        // No transport counters are public on the sharded engine: an
        // attempt is a first pull or a retry, and a failure is a retry
        // (its attempt failed) or a reading replaced by an estimate.
        c.attempted = c.pulls + c.retries;
        c.failed = c.retries + c.estimated;
        c.events = fleet_->events_executed();
        c.sim_ms = fleet_->Now();
        const fleet::BarrierProfile profile = fleet_->barrier_profile();
        c.barrier_s = profile.barrier_total_s;
        c.window_run_s = profile.window_run_s;
        c.windows = profile.windows;
        c.proxy_publishes = profile.proxy_leaves_published;
        c.mailbox_msgs = profile.mailbox_messages;
        if (with_journal) {
            c.journal_bytes = replay::EncodeJournal(fleet_->journal()).size();
        }
        return c;
    }

    std::vector<std::string> Check(const Counts& before,
                                   const Counts& after) override
    {
        std::vector<std::string> failures;
        if (after.pulls <= before.pulls) {
            failures.push_back("no leaf aggregated a pull");
        }
        if (after.invalid_aggregations != before.invalid_aggregations) {
            failures.push_back("invalid leaf aggregations");
        }
        if (after.estimated != 0) {
            failures.push_back("estimated readings in a fault-free fleet");
        }
        for (std::size_t l = 0; l < fleet_->plan().n_leaves; ++l) {
            if (!fleet_->leaf(l).last_valid()) {
                failures.push_back("leaf rpp" + std::to_string(l) +
                                   " holds an invalid aggregation");
                break;
            }
        }
        return failures;
    }

    ProbeShape Shape() override
    {
        ProbeShape shape;
        const double shards = static_cast<double>(fleet_->shard_count());
        shape.events_per_sim_ms = static_cast<double>(fleet_->events_executed()) /
                                  shards / static_cast<double>(fleet_->Now());
        shape.event_chains = static_cast<int>(
            fleet::kShardServersPerLeaf * fleet::kShardLeavesPerSb);
        return shape;
    }

  private:
    std::uint64_t seed_;
    bool quick_;
    std::unique_ptr<fleet::ShardedFleet> fleet_;
};

// ---------------------------------------------------------------------------
// msb-surge
// ---------------------------------------------------------------------------

/** Surge shape: x1.35 traffic for the first 3 of every 8 sim-minutes. */
constexpr int kStepsPerPeriod = 160;  // 8 min of 3 s leaf cycles
constexpr int kSurgeSteps = 60;       // minutes 0..3
constexpr double kSurgeFactor = 1.35;

/**
 * Warm-up: the first surge and one calm minute. Per-step cost rises
 * through the first surge (controllers that capped keep working
 * after it), so measured periods start from a post-surge state.
 */
constexpr int kWarmUpSteps = 80;

/** Ratings over the uncapped, unsurged per-level peak draw. */
constexpr double kRppHeadroom = 1.20;
constexpr double kSbHeadroom = 1.12;
constexpr double kMsbHeadroom = 1.08;

class MsbSurgeWorkload final : public Workload
{
  public:
    MsbSurgeWorkload(std::uint64_t seed, bool quick)
        : seed_(seed), servers_per_rpp_(quick ? 24 : 240)
    {
    }

    void Build(Tracer& tracer) override
    {
        const Tracer::Scope span(tracer, "fleet.build");
        // Rate each level just above its uncapped draw: a slack fleet
        // (no Dynamo, unlimited breakers) measures the per-level peak
        // over one simulated minute.
        double rpp = 0.0;
        double sb = 0.0;
        double msb = 0.0;
        {
            fleet::Fleet slack(fleet::ParseFleetSpecString(MsbSpecText(
                seed_, servers_per_rpp_, 1e9, 1e9, 1e9, false)));
            const std::vector<power::PowerDevice*> rpps =
                slack.root().DevicesAtLevel(power::DeviceLevel::kRpp);
            const std::vector<power::PowerDevice*> sbs =
                slack.root().DevicesAtLevel(power::DeviceLevel::kSb);
            for (int step = 0; step < 20; ++step) {
                slack.RunFor(kLeafCycleMs);
                const SimTime now = slack.sim().Now();
                for (power::PowerDevice* d : rpps) {
                    rpp = std::max(rpp, d->TotalPower(now));
                }
                for (power::PowerDevice* d : sbs) {
                    sb = std::max(sb, d->TotalPower(now));
                }
                msb = std::max(msb, slack.TotalPower());
            }
        }
        slack_spec_ = MsbSpecText(seed_, servers_per_rpp_, kRppHeadroom * rpp,
                                  kSbHeadroom * sb, kMsbHeadroom * msb, false);
        fleet_ = std::make_unique<fleet::Fleet>(fleet::ParseFleetSpecString(
            MsbSpecText(seed_, servers_per_rpp_, kRppHeadroom * rpp,
                        kSbHeadroom * sb, kMsbHeadroom * msb, true)));

        core::Deployment& dynamo = *fleet_->dynamo();
        for (const auto& leaf : dynamo.leaf_controllers()) {
            by_level_[0].push_back(leaf.get());
        }
        for (const auto& upper : dynamo.upper_controllers()) {
            const std::string device = upper->endpoint().substr(4);  // "ctl:"
            const power::PowerDevice* d = fleet_->root().Find(device);
            const bool msb = d != nullptr && d->level() == power::DeviceLevel::kMsb;
            by_level_[msb ? 2 : 1].push_back(upper.get());
        }
    }

    void WarmUp(Tracer& tracer) override
    {
        const Tracer::Scope span(tracer, "fleet.warmup");
        Samples discard;
        RunSteps(tracer, discard, kWarmUpSteps, false);
    }

    /** One whole surge period, so every block holds the same work. */
    void RunBlock(Tracer& tracer, Samples& samples) override
    {
        RunSteps(tracer, samples, kStepsPerPeriod, true);
    }

    int FixedBlocks() const override { return 1; }

    std::uint64_t StateDigest() override
    {
        Archive ar;
        fleet_->Snapshot(ar);
        return Fnv1a64(ar.bytes());
    }

    Counts Read(bool) override
    {
        telemetry::MetricsRegistry& registry = *fleet_->metrics();
        Counts c;
        c.pulls = CounterValue(registry, "agent.reads");
        c.attempted = CounterValue(registry, "rpc.calls");
        for (const auto& leaf : fleet_->dynamo()->leaf_controllers()) {
            c.estimated += leaf->estimated_readings();
            c.invalid_aggregations += leaf->invalid_aggregations();
        }
        c.failed = CounterValue(registry, "rpc.failed") + c.estimated;
        c.events = fleet_->sim().events_executed();
        c.sim_ms = fleet_->sim().Now();
        c.leaf_decide_us = HistogramSum(registry, "leaf.cycle_us");
        c.upper_decide_us = HistogramSum(registry, "upper.cycle_us");
        c.cap_cmds = CounterValue(registry, "agent.caps") +
                     CounterValue(registry, "agent.uncaps");
        c.trace_spans = fleet_->trace_log()->total_appended();
        c.trips = fleet_->outage_count();
        c.monitor_walks = static_cast<std::uint64_t>(
            fleet_->sim().Now() / fleet_->spec().breaker_monitor_period);
        std::copy(capped_steps_, capped_steps_ + 3, c.capped_steps);
        return c;
    }

    std::vector<std::string> Check(const Counts& before,
                                   const Counts& after) override
    {
        std::vector<std::string> failures;
        const char* names[3] = {"RPP", "SB", "MSB"};
        for (int level = 0; level < 3; ++level) {
            if (after.capped_steps[level] == before.capped_steps[level]) {
                failures.push_back(std::string("no capping at ") +
                                   names[level] + " level");
            }
        }
        if (after.trips != 0) failures.push_back("breaker trips");
        if (after.failed != before.failed) failures.push_back("failed calls");
        if (after.invalid_aggregations != before.invalid_aggregations) {
            failures.push_back("invalid leaf aggregations");
        }
        if (after.pulls <= before.pulls) failures.push_back("no agent reads");
        return failures;
    }

    ProbeShape Shape() override
    {
        ProbeShape shape;
        shape.events_per_sim_ms =
            static_cast<double>(fleet_->sim().events_executed()) /
            static_cast<double>(fleet_->sim().Now());
        shape.event_chains = static_cast<int>(fleet_->servers().size());
        telemetry::Histogram* cut = fleet_->metrics()->GetHistogram("leaf.cut_w");
        if (cut->count() > 0) shape.cut_w = cut->mean();
        shape.msb_spec = slack_spec_;
        return shape;
    }

  private:
    /**
     * `steps` leaf cycles of 3 s, grouped into 9 s windows (a trailing
     * group of one or two steps is a "window.tail").
     */
    void RunSteps(Tracer& tracer, Samples& samples, int steps, bool record)
    {
        for (int done = 0; done < steps; done += 3) {
            const int group = std::min(3, steps - done);
            const Tracer::Scope window(tracer,
                                       group == 3 ? "window" : "window.tail");
            const Clock::time_point window_start = Clock::now();
            for (int i = 0; i < group; ++i, ++step_) {
                fleet_->set_global_traffic_factor(
                    step_ % kStepsPerPeriod < kSurgeSteps ? kSurgeFactor : 1.0);
                const Tracer::Scope span(tracer, "step");
                const Clock::time_point start = Clock::now();
                fleet_->RunFor(kLeafCycleMs);
                if (record) samples.cycle_ms.push_back(Ms(start));
                CountCapping();
            }
            if (record && group == 3) {
                samples.window_ms.push_back(Ms(window_start));
            }
        }
        if (record) samples.sim_ms += steps * kLeafCycleMs;
    }

    void CountCapping()
    {
        for (int level = 0; level < 3; ++level) {
            for (const core::Controller* c : by_level_[level]) {
                if (c->capping()) {
                    ++capped_steps_[level];
                    break;
                }
            }
        }
    }

    std::uint64_t seed_;
    std::size_t servers_per_rpp_;
    std::string slack_spec_;
    std::unique_ptr<fleet::Fleet> fleet_;

    /** Leaf cycles run so far; the surge phase follows it. */
    int step_ = 0;

    /** Controllers per level: 0 RPP (leaves), 1 SB, 2 MSB. */
    std::vector<const core::Controller*> by_level_[3];
    std::uint64_t capped_steps_[3] = {0, 0, 0};
};

// ---------------------------------------------------------------------------
// socket-leaf
// ---------------------------------------------------------------------------

constexpr std::size_t kSocketAgents = 240;

class SocketLeafWorkload final : public Workload
{
  public:
    SocketLeafWorkload(std::uint64_t seed, bool quick)
        : seed_(seed), quick_(quick)
    {
        // Relative path: sun_path is short, and the benchmark writes
        // only under its working directory.
        address_ = "unix:perfbench-" + std::to_string(::getpid()) + ".sock";
    }

    ~SocketLeafWorkload() override
    {
        // Components before transports, transports before the file.
        leaf_.reset();
        agents_.clear();
        ctl_tx_.reset();
        agent_tx_.reset();
        if (built_) ::unlink(address_.substr(5).c_str());
    }

    void Build(Tracer& tracer) override
    {
        const Tracer::Scope span(tracer, "fleet.build");
        sim_ = std::make_unique<sim::Simulation>();
        agent_tx_ = std::make_unique<rpc::SocketTransport>();
        agent_tx_->Listen(rpc::SocketAddress::Parse(address_));
        built_ = true;
        ctl_tx_ = std::make_unique<rpc::SocketTransport>();
        const rpc::SocketAddress agents_at = rpc::SocketAddress::Parse(address_);

        servers_ = MakeLeafServers(seed_, kSocketAgents);
        Watts draw = 0.0;
        for (const auto& server : servers_) {
            draw += server->PowerAt(0);
            agents_.push_back(std::make_unique<core::DynamoAgent>(
                *sim_, *agent_tx_, *server, "agent:" + server->name()));
            ctl_tx_->AddRoute(agents_.back()->endpoint(), agents_at);
        }

        // A slack breaker: the loop measures reads, not capping.
        device_ = power::BuildRpp("rpp0", 2.0 * draw, 1.9 * draw);
        core::ControllerBuilder builder(*sim_, *ctl_tx_);
        builder.Endpoint("ctl:rpp0").ForDevice(*device_);
        for (std::size_t i = 0; i < kSocketAgents; ++i) {
            core::AgentInfo info;
            info.endpoint = agents_[i]->endpoint();
            info.service = servers_[i]->service();
            info.priority_group = static_cast<int>(i % 3);
            info.sla_min_cap = 70.0 + static_cast<double>(i % 3) * 15.0;
            builder.Agent(std::move(info));
        }
        leaf_ = builder.BuildLeaf();
        leaf_->Activate(kLeafCycleMs);
    }

    void WarmUp(Tracer& tracer) override
    {
        const Tracer::Scope span(tracer, "fleet.warmup");
        Samples discard;
        for (int i = 0; i < (quick_ ? 30 : 1000); ++i) Cycle(tracer, discard);
    }

    void RunBlock(Tracer& tracer, Samples& samples) override
    {
        const Tracer::Scope span(tracer, "window");
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < 3; ++i) Cycle(tracer, samples);
        samples.window_ms.push_back(Ms(start));
        samples.sim_ms += kWindowMs;
    }

    int FixedBlocks() const override { return quick_ ? 60 : 600; }

    std::uint64_t StateDigest() override
    {
        Archive ar;
        leaf_->Snapshot(ar);
        return Fnv1a64(ar.bytes());
    }

    Counts Read(bool) override
    {
        Counts c;
        for (const auto& agent : agents_) c.pulls += agent->reads_served();
        c.estimated = leaf_->estimated_readings();
        c.invalid_aggregations = leaf_->invalid_aggregations();
        c.attempted = ctl_tx_->calls_issued();
        c.failed = ctl_tx_->calls_failed() + c.estimated;
        c.timeouts = ctl_tx_->calls_timed_out();
        c.events = sim_->events_executed();
        c.sim_ms = sim_->Now();
        c.poll_passes = poll_passes_;
        c.idle_passes = idle_passes_;
        c.invalid_cycles = invalid_cycles_;
        c.stuck_cycles = stuck_cycles_;
        return c;
    }

    std::vector<std::string> Check(const Counts& before,
                                   const Counts& after) override
    {
        std::vector<std::string> failures;
        if (after.pulls <= before.pulls) failures.push_back("no reads served");
        if (after.attempted - before.attempted !=
            after.pulls - before.pulls) {
            failures.push_back("pulls issued but not served");
        }
        if (after.failed != before.failed) failures.push_back("failed pulls");
        if (after.timeouts != before.timeouts) failures.push_back("timeouts");
        if (after.invalid_cycles != before.invalid_cycles) {
            failures.push_back("leaf aggregation invalid after a cycle");
        }
        if (after.stuck_cycles != before.stuck_cycles) {
            failures.push_back("replies missing after the pump deadline");
        }
        return failures;
    }

    ProbeShape Shape() override
    {
        ProbeShape shape;
        shape.events_per_sim_ms = static_cast<double>(sim_->events_executed()) /
                                  static_cast<double>(sim_->Now());
        shape.event_chains = 2;
        return shape;
    }

  private:
    /**
     * One leaf cycle: advance the sim clock to the next cycle (running
     * the previous cycle's aggregation and firing RunCycle's 240
     * pulls), then pump both transports until the last reply lands.
     */
    void Cycle(Tracer& tracer, Samples& samples)
    {
        next_cycle_ += kLeafCycleMs;
        const Tracer::Scope span(tracer, "cycle");
        const Clock::time_point start = Clock::now();
        const std::uint64_t aggregations = leaf_->aggregations();
        {
            const Tracer::Scope issue(tracer, "core.issue");
            sim_->RunUntil(next_cycle_);
        }
        if (aggregations > 0 &&
            (leaf_->aggregations() != aggregations + 1 || !leaf_->last_valid())) {
            ++invalid_cycles_;
        }
        while (ctl_tx_->pending_calls() > 0) {
            std::size_t n = 0;
            {
                const Tracer::Scope poll(tracer, "rpc.ctl_poll");
                n = ctl_tx_->PollOnce(0);
            }
            ++poll_passes_;
            if (n == 0) ++idle_passes_;
            {
                const Tracer::Scope poll(tracer, "rpc.agent_poll");
                n = agent_tx_->PollOnce(0);
            }
            ++poll_passes_;
            if (n == 0) ++idle_passes_;
            if (Ms(start) > 2000.0) {
                ++stuck_cycles_;
                break;
            }
        }
        samples.cycle_ms.push_back(Ms(start));
    }

    std::uint64_t seed_;
    bool quick_;
    std::string address_;
    bool built_ = false;

    std::unique_ptr<sim::Simulation> sim_;
    std::unique_ptr<rpc::SocketTransport> agent_tx_;
    std::unique_ptr<rpc::SocketTransport> ctl_tx_;
    std::vector<std::unique_ptr<server::SimServer>> servers_;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents_;
    std::unique_ptr<power::PowerDevice> device_;
    std::unique_ptr<core::LeafController> leaf_;

    SimTime next_cycle_ = 0;
    std::uint64_t poll_passes_ = 0;
    std::uint64_t idle_passes_ = 0;
    std::uint64_t invalid_cycles_ = 0;
    std::uint64_t stuck_cycles_ = 0;
};

}  // namespace

std::vector<std::unique_ptr<server::SimServer>>
MakeLeafServers(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed ^ (n * 0x9e3779b97f4a7c15ULL));
    const workload::ServiceType services[] = {
        workload::ServiceType::kWeb, workload::ServiceType::kCache,
        workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};
    std::vector<std::unique_ptr<server::SimServer>> servers;
    for (std::size_t i = 0; i < n; ++i) {
        server::SimServer::Config config;
        config.name = "srv" + std::to_string(i);
        config.service = services[i % 4];
        config.generation = (i % 10 < 7)
                                ? server::ServerGeneration::kHaswell2015
                                : server::ServerGeneration::kWestmere2011;
        config.seed = rng.NextU64();
        workload::LoadProcessParams params =
            workload::LoadProcessParams::For(config.service);
        params.base_util = rng.Uniform(0.35, 0.75);
        params.spike_rate_per_hour = 0.0;
        servers.push_back(
            std::make_unique<server::SimServer>(std::move(config), params));
    }
    return servers;
}

std::string
MsbSpecText(std::uint64_t seed, std::size_t servers_per_rpp, double rpp_w,
            double sb_w, double msb_w, bool with_dynamo)
{
    char text[512];
    std::snprintf(text, sizeof text,
                  "scope = msb\n"
                  "servers_per_rpp = %zu\n"
                  "mix = datacenter\n"
                  "diurnal_amplitude = 0\n"
                  "seed = %llu\n"
                  "rpp_rated_w = %.17g\n"
                  "sb_rated_w = %.17g\n"
                  "msb_rated_w = %.17g\n"
                  "with_dynamo = %s\n",
                  servers_per_rpp, static_cast<unsigned long long>(seed),
                  rpp_w, sb_w, msb_w, with_dynamo ? "true" : "false");
    return text;
}

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, std::uint64_t seed, bool quick)
{
    if (name == "sharded-20k") {
        return std::make_unique<ShardedWorkload>(seed, quick);
    }
    if (name == "msb-surge") {
        return std::make_unique<MsbSurgeWorkload>(seed, quick);
    }
    if (name == "socket-leaf") {
        return std::make_unique<SocketLeafWorkload>(seed, quick);
    }
    return nullptr;
}

}  // namespace perfbench
