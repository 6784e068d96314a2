/**
 * @file
 * Fleet-scale control-plane throughput benchmark.
 *
 * Instantiates the full Dynamo control plane — agents, leaf
 * controllers (3 s pull cycles), SB/MSB upper controllers (9 s
 * cycles) — over 1 k / 10 k / 100 k servers and measures how fast the
 * event kernel and the controller hot paths execute it:
 *
 *   - events/sec through the timing-wheel kernel,
 *   - sim-time / wall-time ratio (how many times faster than real
 *     time the suite simulates),
 *   - p50/p99 wall cost of one leaf / upper RunCycle dispatch (the
 *     pull fan-out, the per-cycle hot path).
 *
 * Modes:
 *   bench_scale_throughput                      # full 1k/10k/100k suite
 *   bench_scale_throughput --servers 10000      # one size only
 *   bench_scale_throughput --out BENCH_SCALE.json
 *   bench_scale_throughput --servers 1000 --check BENCH_SCALE.json
 *   bench_scale_throughput --metrics            # instrumented run
 *   bench_scale_throughput --servers 10000 --overhead-check 5
 *   bench_scale_throughput --servers 10000 --threads 4   # sharded engine
 *   bench_scale_throughput --threads 4 --journal run.jrnl
 *   bench_scale_throughput --parallel-suite     # BENCH_PARALLEL.json
 *   bench_scale_throughput --servers 10000 --parallel-check 2.5
 *   bench_scale_throughput --servers 100000 --threads 1 --barrier-breakdown
 *   bench_scale_throughput --mega-smoke         # 1M-server smoke
 *   bench_scale_throughput --threads 4 --scenario "grid-dr(hold_s=120)"
 *
 * --check is the CI perf smoke: it runs each suite five times, takes
 * the best measured sim-seconds per wall-second (realtime_ratio), and
 * compares it against the committed baseline, exiting non-zero on a
 * >3x regression (generous enough to absorb shared-runner noise, tight
 * enough to catch an accidental O(n log n) -> O(n^2) slip). A 1k-server
 * suite times only milliseconds of wall clock, so one run swings
 * several-fold with host load; the best of five does not. It gates
 * simulated time, not kernel events per second, because a change that
 * needs fewer events for the same simulation is faster, not slower.
 *
 * --threads N runs the sharded parallel engine (fleet/sharding.h)
 * instead of the single-kernel fleet: one shard per SB subtree on an
 * N-thread pool, barrier-synchronized every 9 s of sim time. The run
 * records a DYNJRNL1 journal; --journal writes it to disk. When the
 * run ends it prints the process's peak resident set (VmHWM), the
 * fleet-scale memory footprint.
 *
 * --parallel-suite measures the 1/2/4/8-thread scaling curves at 10 k
 * and 100 k servers and writes BENCH_PARALLEL.json (path via --out).
 *
 * --parallel-check MIN is the CI determinism + scaling gate: for each
 * size it runs the sharded engine at 1 and 4 threads, requires the two
 * journals byte-identical, and requires the 4-thread run to reach MIN
 * times the single-thread throughput. The speedup assertion is
 * core-aware: on hosts with fewer than 4 cores the 4-thread arm is
 * time-sliced, so the gate prints a visible notice and skips the
 * throughput floor while still enforcing the byte-identical journals
 * (determinism never depends on core count).
 *
 * --barrier-breakdown prints the per-stage barrier profile after each
 * sharded run (window-run / record / reconfig / proxy-publish /
 * mailbox-drain / checkpoint wall times and the serial share) — the
 * Amdahl instrument for the parallel engine.
 *
 * --checkpoint-every N makes sharded runs checkpoint every N windows,
 * so the parallel checkpoint stage shows up in the breakdown and the
 * determinism gates cover checkpoint bytes.
 *
 * --mega-smoke is the 1,000,000-server arm: constructs the ~4.2 k-leaf
 * topology, runs two windows at 1 and 2 threads with checkpoints on,
 * and requires byte-identical journals. It is a build-and-run
 * feasibility gate (minutes), not a throughput measurement.
 *
 * --reconfig schedules the canonical elastic storm (grow, re-parent,
 * upper promotion + leaf bounce, decommission) onto the sharded run,
 * so the determinism comparison also covers mid-run topology changes.
 *
 * --scenario NAME[(k=v,...)] runs a catalog scenario (replay/scenario.h)
 * on the sharded fleet: the resolved spec is stamped into the journal
 * header and the scenario's barrier-scheduled mutations are journaled
 * as fault records, so --parallel-check also gates the scenario script.
 * --gpu-fraction / --sensorless-fraction seed the server populations
 * that gpu-surge and estimator-drift act on.
 *
 * --metrics wires the telemetry registry + decision-trace log into the
 * transport, every agent, and every controller — the instrumented
 * configuration the fleet harness runs with by default.
 *
 * --overhead-check PCT measures instrumentation cost: for each size it
 * runs metrics-off and metrics-on suites alternating (best-of-3 each,
 * interleaved so thermal/scheduler drift hits both arms equally) and
 * exits non-zero when metrics-on throughput lands more than PCT
 * percent below metrics-off.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <thread>

#include "common/archive.h"
#include "core/agent.h"
#include "core/leaf_controller.h"
#include "core/upper_controller.h"
#include "fleet/sharded_scenarios.h"
#include "fleet/sharding.h"
#include "policy/capping_policy.h"
#include "power/topology.h"
#include "replay/journal.h"
#include "replay/scenario.h"
#include "rpc/transport.h"
#include "server/sim_server.h"
#include "sim/simulation.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workload/load_process.h"

namespace dynamo {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kServersPerLeaf = 240;
constexpr std::size_t kLeavesPerSb = 8;
constexpr std::size_t kSbsPerMsb = 4;

/** Capping brain for every controller in the run (--policy). */
policy::PolicyKind g_policy = policy::PolicyKind::kThreeBand;

/** Catalog scenario for sharded runs (--scenario), if any. */
replay::ScenarioSpec g_scenario;
bool g_scenario_set = false;

/** Server-population knobs for sharded runs (--gpu-fraction etc.). */
double g_gpu_fraction = 0.0;
double g_sensorless_fraction = 0.0;

/** Leaf controller that wall-times each pull-cycle dispatch. */
class TimedLeaf : public core::LeafController
{
  public:
    // Explicit forwarding ctor: the base ctor is protected (builder is
    // the production path), and inherited ctors keep base access.
    TimedLeaf(sim::Simulation& sim, rpc::SimTransport& transport,
              std::string endpoint, power::PowerDevice& device, Config config,
              telemetry::EventLog* log)
        : core::LeafController(sim, transport, std::move(endpoint), device,
                               config, log)
    {
    }

    void set_samples(std::vector<double>* samples) { samples_ = samples; }

  protected:
    void RunCycle() override
    {
        const Clock::time_point t0 = Clock::now();
        core::LeafController::RunCycle();
        samples_->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
    }

  private:
    std::vector<double>* samples_ = nullptr;
};

/** Upper controller that wall-times each pull-cycle dispatch. */
class TimedUpper : public core::UpperController
{
  public:
    TimedUpper(sim::Simulation& sim, rpc::SimTransport& transport,
               std::string endpoint, Watts physical_limit, Watts quota,
               Config config, telemetry::EventLog* log)
        : core::UpperController(sim, transport, std::move(endpoint),
                                physical_limit, quota, config, log)
    {
    }

    void set_samples(std::vector<double>* samples) { samples_ = samples; }

  protected:
    void RunCycle() override
    {
        const Clock::time_point t0 = Clock::now();
        core::UpperController::RunCycle();
        samples_->push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count());
    }

  private:
    std::vector<double>* samples_ = nullptr;
};

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t idx = std::min(
        values.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(values.size())));
    return values[idx];
}

struct SuiteResult
{
    std::size_t servers = 0;
    std::size_t leaf_controllers = 0;
    std::size_t upper_controllers = 0;
    double sim_seconds = 0.0;
    double wall_seconds = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;
    double realtime_ratio = 0.0;
    double leaf_p50_us = 0.0;
    double leaf_p99_us = 0.0;
    double upper_p50_us = 0.0;
    double upper_p99_us = 0.0;
    bool metrics_on = false;
    std::uint64_t rpc_calls = 0;
    std::uint64_t spans = 0;
};

SuiteResult
RunSuite(std::size_t n_servers, SimTime measure_ms, bool with_metrics)
{
    sim::Simulation sim;
    rpc::SimTransport transport(sim, /*seed=*/1234);
    telemetry::MetricsRegistry registry;
    telemetry::TraceLog traces;
    if (with_metrics) transport.AttachMetrics(&registry);
    Rng rng(n_servers * 0x9e3779b97f4a7c15ULL + 7);

    const std::size_t n_leaves =
        (n_servers + kServersPerLeaf - 1) / kServersPerLeaf;
    const std::size_t n_sbs = (n_leaves + kLeavesPerSb - 1) / kLeavesPerSb;
    const std::size_t n_msbs =
        n_sbs > 1 ? (n_sbs + kSbsPerMsb - 1) / kSbsPerMsb : 0;

    // --- Servers and agents ---
    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    servers.reserve(n_servers);
    agents.reserve(n_servers);
    const workload::ServiceType services[] = {
        workload::ServiceType::kWeb, workload::ServiceType::kCache,
        workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};
    for (std::size_t i = 0; i < n_servers; ++i) {
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
        params.spike_rate_per_hour = 0.0;  // steady-state throughput run
        servers.push_back(std::make_unique<server::SimServer>(
            std::move(config), params));
        agents.push_back(std::make_unique<core::DynamoAgent>(
            sim, transport, *servers.back(), "agent:" + std::to_string(i)));
        if (with_metrics) agents.back()->AttachMetrics(&registry);
    }

    // --- Leaf controllers, one per RPP ---
    std::vector<std::unique_ptr<power::PowerDevice>> devices;
    std::vector<std::unique_ptr<TimedLeaf>> leaves;
    std::vector<double> leaf_samples;
    std::vector<Watts> leaf_rated;
    devices.reserve(n_leaves);
    leaves.reserve(n_leaves);
    for (std::size_t l = 0; l < n_leaves; ++l) {
        const std::size_t first = l * kServersPerLeaf;
        const std::size_t last = std::min(first + kServersPerLeaf, n_servers);

        // Size the breaker just above the domain's initial draw so the
        // three-band policy works near its thresholds: OU load noise
        // pushes the aggregate across the cap/uncap bands and the
        // capping hot path (plan + RAPL fan-out) actually runs.
        Watts draw = 0.0;
        for (std::size_t i = first; i < last; ++i) draw += servers[i]->PowerAt(0);
        const Watts rated = draw / 0.965;
        leaf_rated.push_back(rated);
        devices.push_back(power::BuildRpp("rpp" + std::to_string(l), rated,
                                          /*quota=*/0.95 * rated));

        core::LeafController::Config config;
        config.capping_policy = g_policy;
        auto leaf = std::make_unique<TimedLeaf>(
            sim, transport, "ctl:rpp:" + std::to_string(l), *devices.back(),
            config, /*log=*/nullptr);
        leaf->set_samples(&leaf_samples);
        for (std::size_t i = first; i < last; ++i) {
            core::AgentInfo info;
            info.endpoint = agents[i]->endpoint();
            info.service = servers[i]->service();
            info.priority_group = static_cast<int>(i % 3);
            info.sla_min_cap = 70.0 + static_cast<double>(i % 3) * 15.0;
            leaf->AddAgent(std::move(info));
        }
        if (with_metrics) leaf->AttachTelemetry(&registry, &traces);
        // Stagger activation so hundreds of controllers don't pull in
        // lock-step (the deployment does the same).
        leaf->Activate(static_cast<SimTime>((l * 37) % 3000));
        leaves.push_back(std::move(leaf));
    }

    // --- Upper controllers: SBs over leaves, MSBs over SBs ---
    std::vector<std::unique_ptr<TimedUpper>> uppers;
    std::vector<double> upper_samples;
    std::vector<Watts> sb_rated;
    for (std::size_t s = 0; s < n_sbs; ++s) {
        const std::size_t first = s * kLeavesPerSb;
        const std::size_t last = std::min(first + kLeavesPerSb, n_leaves);
        Watts rated = 0.0;
        for (std::size_t l = first; l < last; ++l) rated += leaf_rated[l];
        rated *= 0.99;  // slightly oversubscribed, as real SBs are
        sb_rated.push_back(rated);

        core::UpperController::Config config;
        config.capping_policy = g_policy;
        auto sb = std::make_unique<TimedUpper>(
            sim, transport, "ctl:sb:" + std::to_string(s), rated,
            /*quota=*/0.95 * rated, config, /*log=*/nullptr);
        sb->set_samples(&upper_samples);
        for (std::size_t l = first; l < last; ++l) {
            sb->AddChild("ctl:rpp:" + std::to_string(l));
        }
        if (with_metrics) sb->AttachTelemetry(&registry, &traces);
        sb->Activate(static_cast<SimTime>((s * 113) % 9000));
        uppers.push_back(std::move(sb));
    }
    for (std::size_t m = 0; m < n_msbs; ++m) {
        const std::size_t first = m * kSbsPerMsb;
        const std::size_t last = std::min(first + kSbsPerMsb, n_sbs);
        Watts rated = 0.0;
        for (std::size_t s = first; s < last; ++s) rated += sb_rated[s];
        rated *= 0.99;

        core::UpperController::Config config;
        config.capping_policy = g_policy;
        auto msb = std::make_unique<TimedUpper>(
            sim, transport, "ctl:msb:" + std::to_string(m), rated,
            /*quota=*/0.95 * rated, config, /*log=*/nullptr);
        msb->set_samples(&upper_samples);
        for (std::size_t s = first; s < last; ++s) {
            msb->AddChild("ctl:sb:" + std::to_string(s));
        }
        if (with_metrics) msb->AttachTelemetry(&registry, &traces);
        msb->Activate(static_cast<SimTime>((m * 199) % 9000));
        uppers.push_back(std::move(msb));
    }

    // --- Warm up, then measure ---
    constexpr SimTime kWarmupMs = 15'000;
    sim.RunFor(kWarmupMs);
    leaf_samples.clear();
    upper_samples.clear();

    const std::uint64_t events_before = sim.events_executed();
    const Clock::time_point wall_start = Clock::now();
    sim.RunFor(measure_ms);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    const std::uint64_t events = sim.events_executed() - events_before;

    SuiteResult result;
    result.servers = n_servers;
    result.leaf_controllers = n_leaves;
    result.upper_controllers = uppers.size();
    result.sim_seconds = static_cast<double>(measure_ms) / 1000.0;
    result.wall_seconds = wall_s;
    result.events = events;
    result.events_per_sec =
        wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
    result.realtime_ratio = wall_s > 0.0 ? result.sim_seconds / wall_s : 0.0;
    result.leaf_p50_us = Percentile(leaf_samples, 0.50);
    result.leaf_p99_us = Percentile(leaf_samples, 0.99);
    result.upper_p50_us = Percentile(upper_samples, 0.50);
    result.upper_p99_us = Percentile(upper_samples, 0.99);
    result.metrics_on = with_metrics;
    if (with_metrics) {
        // Kernel counters sit below telemetry; snapshot them into
        // gauges here, the way the fleet harness does.
        const sim::KernelStats& ks = sim.kernel_stats();
        registry.GetGauge("sim.cascades")->Set(static_cast<double>(ks.cascades));
        registry.GetGauge("sim.far_drains")
            ->Set(static_cast<double>(ks.far_drains));
        registry.GetGauge("sim.purges")->Set(static_cast<double>(ks.purges));
        registry.GetGauge("sim.slot_sorts")
            ->Set(static_cast<double>(ks.slot_sorts));
        if (telemetry::Counter* calls = registry.GetCounter("rpc.calls")) {
            result.rpc_calls = calls->value();
        }
        result.spans = traces.total_appended();
    }
    return result;
}

/** One sharded-engine measurement. */
struct ParallelResult
{
    std::size_t servers = 0;
    std::size_t threads = 0;
    std::size_t shards = 0;
    double sim_seconds = 0.0;
    double wall_seconds = 0.0;
    std::uint64_t events = 0;
    double events_per_sec = 0.0;

    /** FNV-1a64 of the encoded DYNJRNL1 bytes (determinism witness). */
    std::uint64_t journal_fnv = 0;

    /** Encoded journal, kept when the caller needs to compare/write. */
    std::string journal_bytes;

    /** Per-stage barrier profile for the whole run (warmup included). */
    fleet::BarrierProfile profile;
};

void
PrintBarrierBreakdown(const fleet::BarrierProfile& p)
{
    std::printf(
        "  barrier breakdown over %llu windows (wall seconds, warmup "
        "included):\n"
        "    window-run     %9.4f   parallel region\n"
        "    record         %9.4f\n"
        "    reconfig       %9.4f\n"
        "    proxy-publish  %9.4f   %llu leaf snapshots\n"
        "    mailbox-drain  %9.4f   %llu messages\n"
        "    checkpoint     %9.4f\n"
        "    barrier-total  %9.4f   serial share %.4f%%\n",
        static_cast<unsigned long long>(p.windows), p.window_run_s, p.record_s,
        p.reconfig_s, p.proxy_publish_s,
        static_cast<unsigned long long>(p.proxy_leaves_published),
        p.mailbox_drain_s, static_cast<unsigned long long>(p.mailbox_messages),
        p.checkpoint_s, p.barrier_total_s, 100.0 * p.serial_share());
}

/**
 * The canonical elastic storm for the determinism gate: grow a leaf,
 * re-home the last leaf onto sb0, promote sb0's upper while bouncing
 * a leaf controller, then decommission a subtree — one transaction
 * per window, all landing after the two warm-up windows.
 */
void
ScheduleBenchStorm(fleet::ShardedFleet& fleet)
{
    const fleet::ShardPlan& plan = fleet.plan();
    if (plan.n_leaves < 4 || plan.n_sbs < 2) {
        std::fprintf(stderr, "--reconfig needs >= 4 leaves and >= 2 SBs; "
                             "skipping the storm\n");
        return;
    }
    const std::size_t last = plan.n_leaves - 1;
    fleet.ScheduleReconfig(2, fleet::ReconfigTxn().AddServers("rpp0", 24));
    if (plan.shard_of_leaf(last) != 0) {
        fleet.ScheduleReconfig(
            3, fleet::ReconfigTxn().Reparent("rpp" + std::to_string(last),
                                             "sb0"));
    }
    fleet.ScheduleReconfig(
        4, fleet::ReconfigTxn().PromoteUpper("sb0").RestartController("rpp1"));
    fleet.ScheduleReconfig(
        5, fleet::ReconfigTxn().RemoveSubtree("rpp" +
                                              std::to_string(last - 1)));
}

ParallelResult
RunParallelSuite(std::size_t n_servers, SimTime measure_ms,
                 std::size_t threads, bool reconfig = false,
                 std::uint64_t checkpoint_every = 0)
{
    fleet::ShardedFleetConfig config;
    config.n_servers = n_servers;
    config.threads = threads;
    config.seed = 1234;
    config.record_journal = true;
    // Hash-only journal by default: cycle records cover the full RPC +
    // kernel event streams. Checkpoints serialize every server at the
    // barrier (in parallel, but still barrier time); opt in with
    // --checkpoint-every to measure or gate that stage.
    config.checkpoint_every = checkpoint_every;
    config.scenario =
        g_scenario_set
            ? replay::FormatScenarioSpec(g_scenario)
            : (reconfig ? "bench-scale-parallel-reconfig"
                        : "bench-scale-parallel");
    config.policy = g_policy;
    config.gpu_fraction = g_gpu_fraction;
    config.sensorless_fraction = g_sensorless_fraction;
    fleet::ShardedFleet fleet(config);
    if (reconfig) ScheduleBenchStorm(fleet);
    if (g_scenario_set && !fleet::ApplyShardedScenario(fleet, g_scenario)) {
        std::fprintf(stderr,
                     "notice: scenario '%s' has no sharded analog; running "
                     "quiet\n",
                     g_scenario.scenario->name.c_str());
    }

    // Warm up two windows (18 s: past every activation stagger), then
    // measure whole windows covering measure_ms.
    fleet.RunWindows(2);
    const std::uint64_t events_before = fleet.events_executed();
    const std::uint64_t windows =
        static_cast<std::uint64_t>((measure_ms + fleet::kShardWindowMs - 1) /
                                   fleet::kShardWindowMs);
    const Clock::time_point wall_start = Clock::now();
    fleet.RunWindows(windows);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - wall_start).count();

    ParallelResult result;
    result.servers = n_servers;
    result.threads = threads;
    result.shards = fleet.shard_count();
    result.sim_seconds =
        static_cast<double>(windows * fleet::kShardWindowMs) / 1000.0;
    result.wall_seconds = wall_s;
    result.events = fleet.events_executed() - events_before;
    result.events_per_sec =
        wall_s > 0.0 ? static_cast<double>(result.events) / wall_s : 0.0;
    result.journal_bytes = replay::EncodeJournal(fleet.journal());
    result.journal_fnv = Fnv1a64(result.journal_bytes);
    result.profile = fleet.barrier_profile();
    return result;
}

/**
 * The 1,000,000-server feasibility smoke: construct the ~4.2 k-leaf /
 * ~520-SB topology, run two windows with a checkpoint, and require the
 * 1-thread and 2-thread journals byte-identical. Returns a process
 * exit code.
 */
int
RunMegaSmoke()
{
    constexpr std::size_t kMegaServers = 1'000'000;
    auto run = [&](std::size_t threads) {
        fleet::ShardedFleetConfig config;
        config.n_servers = kMegaServers;
        config.threads = threads;
        config.seed = 1234;
        config.record_journal = true;
        config.checkpoint_every = 2;  // one parallel checkpoint at window 2
        config.scenario = "mega-smoke";
        std::printf("mega-smoke: constructing %zu servers, %zu thread%s...\n",
                    kMegaServers, threads, threads == 1 ? "" : "s");
        std::fflush(stdout);
        const Clock::time_point t0 = Clock::now();
        fleet::ShardedFleet fleet(config);
        const double build_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        std::printf("  built %zu shards / %zu leaves / %zu SBs + %zu MSBs "
                    "in %.1f s; running 2 windows...\n",
                    fleet.shard_count(), fleet.plan().n_leaves,
                    fleet.plan().n_sbs, fleet.plan().n_msbs, build_s);
        std::fflush(stdout);
        fleet.RunWindows(2);
        PrintBarrierBreakdown(fleet.barrier_profile());
        return replay::EncodeJournal(fleet.journal());
    };
    const std::string serial = run(1);
    const std::string wide = run(2);
    if (serial != wide) {
        std::fprintf(stderr,
                     "MEGA-SMOKE DETERMINISM FAILURE: 2-thread journal "
                     "(fnv 0x%016llx) differs from 1-thread (fnv 0x%016llx)\n",
                     static_cast<unsigned long long>(Fnv1a64(wide)),
                     static_cast<unsigned long long>(Fnv1a64(serial)));
        return 1;
    }
    std::printf("mega-smoke ok: journals byte-identical across threads "
                "(fnv 0x%016llx, %zu bytes)\n",
                static_cast<unsigned long long>(Fnv1a64(serial)),
                serial.size());
    return 0;
}

std::string
ParallelToJson(const std::vector<ParallelResult>& results)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"scale_throughput_parallel\",\n";
#ifdef NDEBUG
    out << "  \"build\": \"release\",\n";
#else
    out << "  \"build\": \"debug\",\n";
#endif
    out << "  \"window_ms\": " << fleet::kShardWindowMs << ",\n";
    out << "  \"host_cores\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"note\": \"speedup_vs_1t compares against the 1-thread "
           "entry of the same size; identical journal_fnv64 across "
           "thread counts is the determinism witness\",\n";
    out << "  \"suites\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ParallelResult& r = results[i];
        // The 1-thread arm of the same size (suite entries are emitted
        // size-major, 1-thread first).
        double base = r.events_per_sec;
        for (const ParallelResult& b : results) {
            if (b.servers == r.servers && b.threads == 1) {
                base = b.events_per_sec;
                break;
            }
        }
        char buf[2048];
        std::snprintf(
            buf, sizeof(buf),
            "    {\n"
            "      \"servers\": %zu,\n"
            "      \"threads\": %zu,\n"
            "      \"shards\": %zu,\n"
            "      \"sim_seconds\": %.1f,\n"
            "      \"wall_seconds\": %.4f,\n"
            "      \"events_executed\": %llu,\n"
            "      \"events_per_sec\": %.0f,\n"
            "      \"speedup_vs_1t\": %.2f,\n"
            "      \"journal_fnv64\": \"0x%016llx\",\n"
            "      \"barrier\": {\n"
            "        \"total_s\": %.6f,\n"
            "        \"serial_share\": %.6f,\n"
            "        \"record_s\": %.6f,\n"
            "        \"reconfig_s\": %.6f,\n"
            "        \"proxy_publish_s\": %.6f,\n"
            "        \"mailbox_drain_s\": %.6f,\n"
            "        \"checkpoint_s\": %.6f,\n"
            "        \"proxy_leaves_published\": %llu,\n"
            "        \"mailbox_messages\": %llu\n"
            "      }\n"
            "    }%s\n",
            r.servers, r.threads, r.shards, r.sim_seconds, r.wall_seconds,
            static_cast<unsigned long long>(r.events), r.events_per_sec,
            base > 0.0 ? r.events_per_sec / base : 0.0,
            static_cast<unsigned long long>(r.journal_fnv),
            r.profile.barrier_total_s, r.profile.serial_share(),
            r.profile.record_s, r.profile.reconfig_s,
            r.profile.proxy_publish_s, r.profile.mailbox_drain_s,
            r.profile.checkpoint_s,
            static_cast<unsigned long long>(r.profile.proxy_leaves_published),
            static_cast<unsigned long long>(r.profile.mailbox_messages),
            i + 1 < results.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

std::string
ToJson(const std::vector<SuiteResult>& results)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"scale_throughput\",\n";
#ifdef NDEBUG
    out << "  \"build\": \"release\",\n";
#else
    out << "  \"build\": \"debug\",\n";
#endif
    out << "  \"cycle_cost_note\": \"leaf/upper cycle cost is the wall time "
           "of one RunCycle pull fan-out dispatch\",\n";
    out << "  \"suites\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SuiteResult& r = results[i];
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "    {\n"
            "      \"servers\": %zu,\n"
            "      \"leaf_controllers\": %zu,\n"
            "      \"upper_controllers\": %zu,\n"
            "      \"sim_seconds\": %.1f,\n"
            "      \"wall_seconds\": %.4f,\n"
            "      \"events_executed\": %llu,\n"
            "      \"events_per_sec\": %.0f,\n"
            "      \"realtime_ratio\": %.1f,\n"
            "      \"leaf_cycle_us\": {\"p50\": %.1f, \"p99\": %.1f},\n"
            "      \"upper_cycle_us\": {\"p50\": %.1f, \"p99\": %.1f}\n"
            "    }%s\n",
            r.servers, r.leaf_controllers, r.upper_controllers, r.sim_seconds,
            r.wall_seconds, static_cast<unsigned long long>(r.events),
            r.events_per_sec, r.realtime_ratio, r.leaf_p50_us, r.leaf_p99_us,
            r.upper_p50_us, r.upper_p99_us,
            i + 1 < results.size() ? "," : "");
        out << buf;
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

/**
 * Pull one suite's realtime_ratio out of a baseline BENCH_SCALE.json.
 * Hand-rolled scan (no JSON dependency): finds the `"servers": N`
 * entry, then the following `"realtime_ratio"` value.
 */
bool
BaselineRealtimeRatio(const std::string& json, std::size_t servers,
                      double* out)
{
    const std::string anchor = "\"servers\": " + std::to_string(servers);
    const std::size_t at = json.find(anchor);
    if (at == std::string::npos) return false;
    const std::string key = "\"realtime_ratio\": ";
    const std::size_t kat = json.find(key, at);
    if (kat == std::string::npos) return false;
    *out = std::strtod(json.c_str() + kat + key.size(), nullptr);
    return *out > 0.0;
}

/**
 * Peak resident set of this process, MB (VmHWM, as perfbench reads
 * it); 0 when /proc is unavailable.
 */
double
PeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    return 0.0;
}

}  // namespace
}  // namespace dynamo

int
main(int argc, char** argv)
{
    using namespace dynamo;

    std::vector<std::size_t> sizes = {1'000, 10'000, 100'000};
    SimTime measure_ms = 60'000;
    std::string out_path;
    std::string check_path;
    std::string journal_path;
    bool with_metrics = false;
    double overhead_pct = 0.0;
    std::size_t threads = 0;  // 0 = classic single-kernel fleet
    bool reconfig = false;
    bool parallel_suite = false;
    double parallel_check = 0.0;
    bool barrier_breakdown = false;
    std::uint64_t checkpoint_every = 0;
    bool mega_smoke = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--servers") {
            sizes = {static_cast<std::size_t>(std::strtoull(next(), nullptr, 10))};
        } else if (arg == "--sim-seconds") {
            measure_ms = static_cast<SimTime>(std::strtoll(next(), nullptr, 10)) *
                         1000;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--check") {
            check_path = next();
        } else if (arg == "--metrics") {
            with_metrics = true;
        } else if (arg == "--overhead-check") {
            overhead_pct = std::strtod(next(), nullptr);
            if (overhead_pct <= 0.0) {
                std::fprintf(stderr, "--overhead-check needs a positive "
                                     "percentage\n");
                return 2;
            }
        } else if (arg == "--threads") {
            threads = static_cast<std::size_t>(
                std::strtoull(next(), nullptr, 10));
            if (threads == 0) {
                std::fprintf(stderr, "--threads needs a positive count\n");
                return 2;
            }
        } else if (arg == "--journal") {
            journal_path = next();
        } else if (arg == "--reconfig") {
            reconfig = true;
        } else if (arg == "--parallel-suite") {
            parallel_suite = true;
        } else if (arg == "--parallel-check") {
            parallel_check = std::strtod(next(), nullptr);
            if (parallel_check <= 0.0) {
                std::fprintf(stderr, "--parallel-check needs a positive "
                                     "minimum speedup\n");
                return 2;
            }
        } else if (arg == "--barrier-breakdown") {
            barrier_breakdown = true;
        } else if (arg == "--checkpoint-every") {
            checkpoint_every = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--mega-smoke") {
            mega_smoke = true;
        } else if (arg == "--policy") {
            const char* name = next();
            if (!policy::ParsePolicyKind(name, &g_policy)) {
                std::fprintf(stderr,
                             "--policy must be three_band|predictive|"
                             "waterfill|fairshare; got '%s'\n",
                             name);
                return 2;
            }
        } else if (arg == "--scenario") {
            try {
                g_scenario = replay::ParseScenarioSpec(next());
            } catch (const std::invalid_argument& e) {
                std::fprintf(stderr, "--scenario: %s\n", e.what());
                return 2;
            }
            g_scenario_set = true;
        } else if (arg == "--gpu-fraction") {
            g_gpu_fraction = std::strtod(next(), nullptr);
            if (g_gpu_fraction < 0.0 || g_gpu_fraction > 1.0) {
                std::fprintf(stderr, "--gpu-fraction must be in [0,1]\n");
                return 2;
            }
        } else if (arg == "--sensorless-fraction") {
            g_sensorless_fraction = std::strtod(next(), nullptr);
            if (g_sensorless_fraction < 0.0 || g_sensorless_fraction > 1.0) {
                std::fprintf(stderr,
                             "--sensorless-fraction must be in [0,1]\n");
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--servers N] [--sim-seconds S] "
                         "[--out FILE] [--check BASELINE] [--metrics] "
                         "[--overhead-check PCT] [--threads N] "
                         "[--journal FILE] [--reconfig] [--parallel-suite] "
                         "[--parallel-check MIN_SPEEDUP] "
                         "[--barrier-breakdown] [--checkpoint-every N] "
                         "[--mega-smoke] [--policy NAME] "
                         "[--scenario NAME[(k=v,...)]] [--gpu-fraction F] "
                         "[--sensorless-fraction F]\n",
                         argv[0]);
            return 2;
        }
    }

#ifndef NDEBUG
    std::fprintf(stderr,
                 "warning: debug build; throughput numbers are not "
                 "comparable to the committed Release baseline\n");
#endif

    if (mega_smoke) return RunMegaSmoke();

    if (parallel_check > 0.0) {
        // CI determinism + scaling gate. The scaling half only means
        // something when the host can actually run 4 workers at once;
        // detect that at runtime instead of trusting the CI label.
        const unsigned host_cores = std::thread::hardware_concurrency();
        const bool assert_speedup = host_cores >= 4;
        if (!assert_speedup) {
            std::printf("NOTICE: host reports %u core%s (< 4); the >= %.2fx "
                        "speedup assertion is SKIPPED (4 workers would be "
                        "time-sliced). Determinism byte-compare still "
                        "enforced.\n",
                        host_cores, host_cores == 1 ? "" : "s",
                        parallel_check);
        }
        bool ok = true;
        for (const std::size_t n : sizes) {
            std::printf("parallel check at %zu servers: 1-thread arm...\n", n);
            std::fflush(stdout);
            const ParallelResult serial =
                RunParallelSuite(n, measure_ms, 1, reconfig, checkpoint_every);
            std::printf("  1 thread: %.2fM events/s (%zu shards)\n"
                        "parallel check at %zu servers: 4-thread arm...\n",
                        serial.events_per_sec / 1e6, serial.shards, n);
            std::fflush(stdout);
            const ParallelResult wide =
                RunParallelSuite(n, measure_ms, 4, reconfig, checkpoint_every);
            const double speedup =
                serial.events_per_sec > 0.0
                    ? wide.events_per_sec / serial.events_per_sec
                    : 0.0;
            if (wide.journal_bytes != serial.journal_bytes) {
                std::fprintf(stderr,
                             "DETERMINISM FAILURE: %zu servers, 4-thread "
                             "journal (fnv 0x%016llx) differs from 1-thread "
                             "(fnv 0x%016llx)\n",
                             n,
                             static_cast<unsigned long long>(wide.journal_fnv),
                             static_cast<unsigned long long>(
                                 serial.journal_fnv));
                ok = false;
            }
            if (assert_speedup && speedup < parallel_check) {
                std::fprintf(stderr,
                             "SCALING FAILURE: %zu servers, 4 threads ran "
                             "%.2fx the 1-thread throughput (%.0f vs %.0f "
                             "events/s), need >= %.2fx\n",
                             n, speedup, wide.events_per_sec,
                             serial.events_per_sec, parallel_check);
                ok = false;
            }
            if (ok) {
                std::printf("  4 threads: %.2fM events/s, %.2fx speedup%s, "
                            "journal identical (fnv 0x%016llx)\n",
                            wide.events_per_sec / 1e6, speedup,
                            assert_speedup ? "" : " (not asserted)",
                            static_cast<unsigned long long>(wide.journal_fnv));
            }
            if (barrier_breakdown) {
                PrintBarrierBreakdown(serial.profile);
            }
        }
        return ok ? 0 : 1;
    }

    if (parallel_suite || threads > 0) {
        // Sharded-engine measurements. --parallel-suite sweeps the
        // scaling curves (including the 1 M-server suite, at a shorter
        // measurement so the sweep stays minutes, not hours); plain
        // --threads measures the requested sizes at one pool width.
        if (parallel_suite) sizes = {10'000, 100'000, 1'000'000};
        const std::vector<std::size_t> widths =
            parallel_suite ? std::vector<std::size_t>{1, 2, 4, 8}
                           : std::vector<std::size_t>{threads};
        std::vector<ParallelResult> results;
        for (const std::size_t n : sizes) {
            const SimTime size_measure_ms =
                (parallel_suite && n >= 1'000'000)
                    ? std::min<SimTime>(measure_ms, 27'000)
                    : measure_ms;
            for (const std::size_t t : widths) {
                std::printf("running sharded %zu-server suite, %zu thread%s "
                            "(%lld sim-seconds)...\n",
                            n, t, t == 1 ? "" : "s",
                            static_cast<long long>(size_measure_ms / 1000));
                std::fflush(stdout);
                results.push_back(RunParallelSuite(n, size_measure_ms, t,
                                                   reconfig,
                                                   checkpoint_every));
                const ParallelResult& r = results.back();
                std::printf("  %zu shards: %.2fM events/s, journal fnv "
                            "0x%016llx\n",
                            r.shards, r.events_per_sec / 1e6,
                            static_cast<unsigned long long>(r.journal_fnv));
                if (barrier_breakdown) PrintBarrierBreakdown(r.profile);
                std::fflush(stdout);
            }
        }
        if (!parallel_suite) {
            std::printf("peak RSS (VmHWM): %.1f MB\n", PeakRssMb());
        }
        if (!journal_path.empty()) {
            const ParallelResult& last = results.back();
            std::ofstream out(journal_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             journal_path.c_str());
                return 1;
            }
            out << last.journal_bytes;
            std::printf("wrote %s (%zu bytes)\n", journal_path.c_str(),
                        last.journal_bytes.size());
        }
        const std::string json = ParallelToJson(results);
        if (parallel_suite) {
            const std::string path =
                out_path.empty() ? "BENCH_PARALLEL.json" : out_path;
            std::ofstream out(path);
            out << json;
            std::printf("wrote %s\n", path.c_str());
        } else if (!out_path.empty()) {
            std::ofstream out(out_path);
            out << json;
            std::printf("wrote %s\n", out_path.c_str());
        } else {
            std::printf("%s", json.c_str());
        }
        return 0;
    }

    if (overhead_pct > 0.0) {
        // Instrumentation-overhead gate: alternate off/on arms so slow
        // drift (turbo, thermal, noisy neighbours) biases neither.
        bool ok = true;
        for (const std::size_t n : sizes) {
            constexpr int kReps = 3;
            double best_off = 0.0;
            double best_on = 0.0;
            for (int rep = 0; rep < kReps; ++rep) {
                std::printf("overhead rep %d/%d at %zu servers...\n", rep + 1,
                            kReps, n);
                std::fflush(stdout);
                best_off = std::max(
                    best_off,
                    RunSuite(n, measure_ms, /*with_metrics=*/false)
                        .events_per_sec);
                best_on = std::max(
                    best_on,
                    RunSuite(n, measure_ms, /*with_metrics=*/true)
                        .events_per_sec);
            }
            const double floor = best_off * (1.0 - overhead_pct / 100.0);
            const double drop =
                best_off > 0.0 ? 100.0 * (1.0 - best_on / best_off) : 0.0;
            if (best_on < floor) {
                std::fprintf(stderr,
                             "METRICS OVERHEAD: %zu servers ran at %.0f "
                             "events/s with metrics vs %.0f without "
                             "(%.1f%% drop, budget %.1f%%)\n",
                             n, best_on, best_off, drop, overhead_pct);
                ok = false;
            } else {
                std::printf("overhead check ok: %zu servers, metrics-on %.0f "
                            "events/s vs metrics-off %.0f (%.1f%% drop, "
                            "budget %.1f%%)\n",
                            n, best_on, best_off, drop, overhead_pct);
            }
        }
        return ok ? 0 : 1;
    }

    const int reps = check_path.empty() ? 1 : 5;  // --check: best of five
    std::vector<SuiteResult> results;
    for (const std::size_t n : sizes) {
        for (int rep = 0; rep < reps; ++rep) {
            std::printf("running %zu-server suite (%lld sim-seconds)%s",
                        n, static_cast<long long>(measure_ms / 1000),
                        with_metrics ? " with metrics" : "");
            if (reps > 1) std::printf(", run %d/%d", rep + 1, reps);
            std::printf("...\n");
            std::fflush(stdout);
            SuiteResult run = RunSuite(n, measure_ms, with_metrics);
            if (rep == 0) {
                results.push_back(run);
            } else if (run.realtime_ratio > results.back().realtime_ratio) {
                results.back() = run;
            }
        }
        const SuiteResult& r = results.back();
        std::printf(
            "  %zu servers%s: %.2fM events/s, %.0fx real-time, "
            "leaf cycle p50/p99 %.0f/%.0f us, upper %.0f/%.0f us\n",
            r.servers, reps > 1 ? " (best run)" : "", r.events_per_sec / 1e6,
            r.realtime_ratio, r.leaf_p50_us, r.leaf_p99_us, r.upper_p50_us,
            r.upper_p99_us);
        if (r.metrics_on) {
            std::printf("  telemetry: %llu rpc calls counted, %llu decision "
                        "spans\n",
                        static_cast<unsigned long long>(r.rpc_calls),
                        static_cast<unsigned long long>(r.spans));
        }
        std::fflush(stdout);
    }

    const std::string json = ToJson(results);
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << json;
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        std::printf("%s", json.c_str());
    }

    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         check_path.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::string baseline = buffer.str();
        bool ok = true;
        for (const SuiteResult& r : results) {
            double want = 0.0;
            if (!BaselineRealtimeRatio(baseline, r.servers, &want)) {
                std::fprintf(stderr,
                             "baseline has no %zu-server suite; skipping\n",
                             r.servers);
                continue;
            }
            const double floor = want / 3.0;
            if (r.realtime_ratio < floor) {
                std::fprintf(stderr,
                             "PERF REGRESSION: %zu servers ran at %.1fx "
                             "real time, baseline %.1fx (floor %.1fx)\n",
                             r.servers, r.realtime_ratio, want, floor);
                ok = false;
            } else {
                std::printf("perf check ok: %zu servers at %.1fx real time "
                            "(baseline %.1fx, floor %.1fx)\n",
                            r.servers, r.realtime_ratio, want, floor);
            }
        }
        if (!ok) return 1;
    }
    return 0;
}
