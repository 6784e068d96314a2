/**
 * @file
 * Shared pieces of the end-to-end benchmark: the span recorder used by
 * the traced run, per-run samples and counters, and the workload
 * interface the run loop in main.cc drives.
 *
 * The benchmark reaches the program only through construction and run
 * calls (ShardedFleet / Fleet / ControllerBuilder / SocketTransport),
 * fleet spec text, the metrics registry, barrier_profile() and public
 * counters; the traced run adds probes that call single layers.
 */
#ifndef DYNAMO_PERFBENCH_BENCH_H_
#define DYNAMO_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dynamo::server {
class SimServer;
}  // namespace dynamo::server

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Linear-interpolated percentile (q in [0, 1]) of unsorted values. */
double Percentile(std::vector<double> values, double q);

inline double
Median(std::vector<double> values)
{
    return Percentile(std::move(values), 0.5);
}

/**
 * In-memory span recorder. Disabled tracers record nothing and cost
 * one branch per scope. Spans carry the run id of the traced pass
 * they belong to, so the two traced passes of one invocation can be
 * told apart in the written file.
 */
class Tracer
{
  public:
    struct Span
    {
        const char* name = "";
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;
        std::uint32_t run = 0;
    };

    /** RAII span; a no-op on a disabled tracer. */
    class Scope
    {
      public:
        Scope(Tracer& tracer, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& tracer_;
        std::int32_t index_ = -1;
        std::int32_t saved_parent_ = -1;
    };

    explicit Tracer(bool enabled = false);

    /** Start a new traced pass; later spans carry this id. */
    void BeginRun(std::uint32_t run) { run_ = run; }

    const std::vector<Span>& spans() const { return spans_; }

    /** Write every span as one JSON object per line. */
    bool WriteJsonLines(const std::string& path) const;

  private:
    std::int64_t NowNs() const;

    bool enabled_;
    std::uint32_t run_ = 0;
    std::int32_t current_ = -1;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Wall-time samples of one measured phase. */
struct Samples
{
    Samples()
    {
        cycle_ms.reserve(1 << 16);
        window_ms.reserve(1 << 14);
    }

    /** Wall time per 3 s leaf pull cycle, ms. */
    std::vector<double> cycle_ms;

    /** Wall time per 9 s window (three leaf cycles), ms. */
    std::vector<double> window_ms;

    /** Simulated time covered, ms. */
    std::int64_t sim_ms = 0;
};

/**
 * Counters read at block boundaries. Every field is cumulative since
 * construction; main.cc takes deltas over the measured phase.
 */
struct Counts
{
    /** Leaf-to-agent power reads whose outcome was aggregated. */
    std::uint64_t pulls = 0;

    /** Calls attempted / failed (errored, timed out, or estimated). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Leaf-side failure detail behind `failed`. */
    std::uint64_t estimated = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t invalid_aggregations = 0;

    /** Kernel events executed and the simulated clock, ms. */
    std::uint64_t events = 0;
    std::int64_t sim_ms = 0;

    /** Breaker trips, and breaker-monitor tree walks so far. */
    std::uint64_t trips = 0;
    std::uint64_t monitor_walks = 0;

    /** Leaf cycles ending with some RPP / SB / MSB controller capping. */
    std::uint64_t capped_steps[3] = {0, 0, 0};

    /** Socket loop: cycles whose aggregation was invalid or whose
     *  replies missed the pump deadline. */
    std::uint64_t invalid_cycles = 0;
    std::uint64_t stuck_cycles = 0;

    /** Sharded barrier profile (zero elsewhere). */
    double barrier_s = 0.0;
    double window_run_s = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t proxy_publishes = 0;
    std::uint64_t mailbox_msgs = 0;

    /** Controller decision time from the cycle_us histograms, us. */
    double leaf_decide_us = 0.0;
    double upper_decide_us = 0.0;

    /** Cap + uncap commands applied by agents. */
    std::uint64_t cap_cmds = 0;

    /** Decision-trace spans appended. */
    std::uint64_t trace_spans = 0;

    /** Encoded journal size, bytes (sampled only when asked). */
    std::uint64_t journal_bytes = 0;

    /** Socket poll passes, and passes that dispatched nothing. */
    std::uint64_t poll_passes = 0;
    std::uint64_t idle_passes = 0;
};

/** Sizes and rates a probe needs to mimic one workload. */
struct ProbeShape
{
    /** Kernel events per simulated ms in one shard / world kernel. */
    double events_per_sim_ms = 1.0;

    /** Pending event chains to keep in flight (about one per agent). */
    int event_chains = 240;

    /** Mean leaf cut while capping, W (0 = use a 3 % cut). */
    double cut_w = 0.0;

    /** Spec text of an uncontrolled msb-surge tree (power-walk probe);
     *  empty = the default-rated tree for the seed. */
    std::string msb_spec;
};

/**
 * The scale fleet's server recipe for one leaf domain of `n` servers:
 * web/cache/hadoop/database round-robin, 70 % Haswell, base utilization
 * uniform in [0.35, 0.75], no load spikes.
 */
std::vector<std::unique_ptr<dynamo::server::SimServer>> MakeLeafServers(
    std::uint64_t seed, std::size_t n);

/** Fleet spec text of the msb-surge topology. */
std::string MsbSpecText(std::uint64_t seed, std::size_t servers_per_rpp,
                        double rpp_w, double sb_w, double msb_w,
                        bool with_dynamo);

/**
 * One benchmark workload. Build() and WarmUp() are the set-up; each
 * RunBlock() advances one indivisible unit of work (a window, a surge
 * period, a leaf cycle) and records its wall-time samples.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void Build(Tracer& tracer) = 0;
    virtual void WarmUp(Tracer& tracer) = 0;
    virtual void RunBlock(Tracer& tracer, Samples& samples) = 0;

    /**
     * Blocks of the fixed-work phases: each traced pass (so counts
     * repeat), and the untraced run's first world before it reads
     * peak_rss_mb.
     */
    virtual int FixedBlocks() const = 0;

    /** Digest of deterministic state after warm-up. */
    virtual std::uint64_t StateDigest() = 0;

    /** Cumulative counters; `with_journal` also sizes the journal. */
    virtual Counts Read(bool with_journal) = 0;

    /**
     * Output checks over the measured phase [before, after]; returns
     * the failures as messages (empty when correct).
     */
    virtual std::vector<std::string> Check(const Counts& before,
                                           const Counts& after) = 0;

    /** What the probes should mimic. */
    virtual ProbeShape Shape() = 0;
};

/** Factory; returns nullptr for an unknown name. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, bool quick);

/** Layer probe results (traced run only). */
struct ProbeResults
{
    double event_ns = 0.0;
    double pull_ns = 0.0;
    double wire_encode_ns = 0.0;
    double wire_decode_ns = 0.0;
    double wire_bytes_per_pull = 0.0;
    double plan_us = 0.0;
    double read_ns = 0.0;
    double walk_us = 0.0;
};

ProbeResults RunProbes(const ProbeShape& shape, std::uint64_t seed,
                       bool quick);

}  // namespace perfbench

#endif  // DYNAMO_PERFBENCH_BENCH_H_
