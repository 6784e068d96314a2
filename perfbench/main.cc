/**
 * @file
 * dynamo_perfbench: one benchmark workload per invocation.
 *
 *   dynamo_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--quick] [--trace-out FILE]
 *
 * Untraced (--trace 0): sets the workload up three times (the median
 * is setup_s; each set-up must reach the same post-warm-up state
 * digest), each world running whole blocks for a third of S seconds,
 * and prints the end-to-end metrics.
 *
 * Traced (--trace 1): one untraced pass and two traced passes over a
 * fixed amount of work (spans in memory, the counting allocator on),
 * then the layer probes; prints the per-layer metrics, each with the
 * end-to-end metric and workload it should move, and writes the spans
 * as JSON lines to FILE. The two traced passes must agree exactly on
 * their deterministic counts.
 *
 * --quick runs each workload at a tiny size with the same checks and
 * metric names. The last stdout line is the JSON result; the exit code
 * is non-zero when an output check fails.
 */
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

double
Percentile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t
Tracer::NowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer)
{
    if (!tracer_.enabled_) return;
    if (tracer_.spans_.size() == tracer_.spans_.capacity()) {
        // Growing the span buffer is the tracer's allocation, not the
        // program's: keep it out of the allocation counts.
        const bool counting = AllocCounting();
        SetAllocCounting(false);
        tracer_.spans_.reserve(tracer_.spans_.capacity() * 2);
        SetAllocCounting(counting);
    }
    Span span;
    span.name = name;
    span.parent = tracer_.current_;
    span.run = tracer_.run_;
    span.start_ns = tracer_.NowNs();
    index_ = static_cast<std::int32_t>(tracer_.spans_.size());
    saved_parent_ = tracer_.current_;
    tracer_.spans_.push_back(span);
    tracer_.current_ = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0) return;
    tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.NowNs();
    tracer_.current_ = saved_parent_;
}

bool
Tracer::WriteJsonLines(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"run\":" << s.run << ",\"id\":" << i << ",\"parent\":"
            << s.parent << ",\"name\":\"" << s.name << "\",\"start_ns\":"
            << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    return static_cast<bool>(out);
}

namespace {

constexpr int kSetups = 3;

std::string
Number(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Peak resident set of this program image, MB. VmHWM rather than
 * getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so a
 * small benchmark launched from a larger parent would report the
 * parent's peak.
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
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** One line of the per-layer table: what a metric should move. */
struct LayerInfo
{
    const char* name;
    const char* unit;
    const char* moves;
    const char* on;
    const char* flat_on;
};

const LayerInfo kLayers[] = {
    {"fleet.build_s", "s", "setup_s", "sharded-20k, msb-surge", "-"},
    {"fleet.warmup_s", "s", "setup_s", "sharded-20k, msb-surge", "-"},
    {"fleet.window_ms_p50", "ms", "cycle_p95_ms", "sharded-20k", "msb-surge"},
    {"fleet.window_ms_p90", "ms", "cycle_p95_ms", "sharded-20k", "msb-surge"},
    {"fleet.barrier_share", "ratio", "cycle_p95_ms", "sharded-20k", "msb-surge"},
    {"fleet.proxy_publishes_per_window", "count", "cycle_p95_ms", "sharded-20k",
     "msb-surge"},
    {"fleet.mailbox_msgs_per_window", "count", "cycle_p95_ms", "sharded-20k",
     "msb-surge"},
    {"fleet.allocs_per_pull", "count", "cycle_p95_ms", "sharded-20k, msb-surge",
     "-"},
    {"fleet.alloc_bytes_per_pull", "B", "cycle_p95_ms", "sharded-20k, msb-surge",
     "-"},
    {"sim.events_per_pull", "count", "cycle_p95_ms", "sharded-20k, msb-surge",
     "socket-leaf"},
    {"sim.event_ns", "ns", "cycle_p95_ms", "sharded-20k", "socket-leaf"},
    {"rpc.pull_ns", "ns", "cycle_p95_ms", "sharded-20k, msb-surge", "socket-leaf"},
    {"rpc.failed_share", "ratio", "failure gate", "all", "-"},
    {"rpc.ctl_poll_us", "us", "cycle_p95_ms", "socket-leaf",
     "sharded-20k, msb-surge"},
    {"rpc.agent_poll_us", "us", "cycle_p95_ms", "socket-leaf",
     "sharded-20k, msb-surge"},
    {"rpc.poll_passes_per_cycle", "count", "cycle_p95_ms", "socket-leaf", "-"},
    {"rpc.idle_pass_share", "ratio", "cycle_p95_ms", "socket-leaf", "-"},
    {"rpc.wire_encode_ns", "ns", "cycle_p95_ms", "socket-leaf",
     "sharded-20k, msb-surge"},
    {"rpc.wire_decode_ns", "ns", "cycle_p95_ms", "socket-leaf",
     "sharded-20k, msb-surge"},
    {"rpc.wire_bytes_per_pull", "B", "cycle_p95_ms", "socket-leaf",
     "sharded-20k, msb-surge"},
    {"rpc.socket_allocs_per_pull", "count", "cycle_p95_ms", "socket-leaf", "-"},
    {"core.issue_us", "us", "cycle_p95_ms", "socket-leaf", "-"},
    {"core.leaf_decide_share", "ratio", "cycle_p95_ms (at most by its share)",
     "msb-surge", "sharded-20k"},
    {"core.upper_decide_share", "ratio", "cycle_p95_ms (at most by its share)",
     "msb-surge", "sharded-20k"},
    {"core.cap_cmds_per_min", "1/min", "- (write-path work)", "msb-surge",
     "sharded-20k"},
    {"policy.plan_us", "us", "cycle_p95_ms (at most by its share)", "msb-surge",
     "sharded-20k, socket-leaf"},
    {"server.read_ns", "ns", "cycle_p95_ms", "sharded-20k, msb-surge", "-"},
    {"power.walk_us", "us", "cycle_p95_ms", "msb-surge", "sharded-20k"},
    {"power.walks_per_sim_s", "1/s", "cycle_p95_ms", "msb-surge", "sharded-20k"},
    {"telemetry.spans_per_min", "1/min", "cycle_p95_ms", "msb-surge",
     "sharded-20k"},
    {"replay.journal_bytes_per_window", "B", "cycle_p95_ms, peak_rss_mb",
     "sharded-20k", "msb-surge"},
    {"trace.unexplained_share", "ratio", "- (probe coverage)", "all", "-"},
    {"trace.overhead", "ratio", "- (tracing cost)", "all", "-"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    std::string trace_out;
};

[[noreturn]] void
Usage(const char* message)
{
    std::fprintf(stderr,
                 "dynamo_perfbench: %s\n"
                 "usage: dynamo_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--quick] [--trace-out FILE]\n",
                 message);
    std::exit(2);
}

Options
ParseOptions(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = next();
            } else if (arg == "--seed") {
                o.seed = std::stoull(next());
            } else if (arg == "--seconds") {
                o.seconds = std::stod(next());
            } else if (arg == "--trace") {
                o.trace = std::stoi(next()) != 0;
            } else if (arg == "--quick") {
                o.quick = true;
            } else if (arg == "--trace-out") {
                o.trace_out = next();
            } else {
                Usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            Usage(("bad value for " + arg).c_str());
        }
    }
    if (o.workload.empty()) Usage("--workload is required");
    if (!(o.seconds > 0.0)) Usage("--seconds must be positive");
    return o;
}

/**
 * Pin the process to the highest-numbered CPU it may run on. The
 * benchmark is single-threaded; without pinning the scheduler moves it
 * between vCPUs, and on a shared 4-vCPU VM the run-to-run range of the
 * timings was about twice as wide. Best effort: on failure the run
 * stays unpinned.
 */
void
PinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        ::sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

std::unique_ptr<Workload>
Make(const Options& o)
{
    std::unique_ptr<Workload> w = MakeWorkload(o.workload, o.seed, o.quick);
    if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());
    return w;
}

void
PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric>& metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
                "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

void
ReportFailures(const std::vector<std::string>& failures)
{
    for (const std::string& f : failures) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics
// ---------------------------------------------------------------------------

int
RunTimed(const Options& o)
{
    Tracer off(false);
    std::vector<std::string> failures;
    std::vector<double> setups;
    std::vector<std::uint64_t> digests;
    Samples samples;
    double wall = 0.0;
    double peak_rss_mb = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Each set-up builds a fresh world that then measures its share of
    // the run, so the set-ups sample the host at the start, a third and
    // two thirds of the way in rather than all in its first seconds.
    // A share ends at a cumulative target, so a block's overshoot does
    // not add up across worlds.
    for (int k = 0; k < kSetups; ++k) {
        std::unique_ptr<Workload> w = Make(o);
        const Clock::time_point setup_start = Clock::now();
        w->Build(off);
        w->WarmUp(off);
        setups.push_back(SecondsSince(setup_start));
        digests.push_back(w->StateDigest());

        const double target = o.seconds * (k + 1) / kSetups;
        const Counts before = w->Read(false);
        const Clock::time_point start = Clock::now();
        int blocks = 0;
        do {
            w->RunBlock(off, samples);
            ++blocks;
            // Peak memory after a fixed amount of work: some state grows
            // with simulated time, so a reading at the end of a timed
            // phase would grow with the host's (or the program's) speed.
            if (k == 0 && blocks == w->FixedBlocks()) peak_rss_mb = PeakRssMb();
        } while (wall + SecondsSince(start) < target ||
                 (k == 0 && blocks < w->FixedBlocks()));
        wall += SecondsSince(start);
        const Counts after = w->Read(false);
        for (std::string& f : w->Check(before, after)) failures.push_back(std::move(f));
        attempted += after.attempted - before.attempted;
        failed += after.failed - before.failed;
    }
    if (std::adjacent_find(digests.begin(), digests.end(),
                           std::not_equal_to<>()) != digests.end()) {
        failures.push_back("set-ups of one seed reached different states");
    }
    if (failed != 0) failures.push_back("failed calls in the measured phase");
    if (attempted == 0) failures.push_back("no calls attempted");

    const double sim_s = static_cast<double>(samples.sim_ms) / 1000.0;
    std::printf("workload %s seed %llu: %.1f sim-s in %.3f s wall, %zu cycles, "
                "state digest 0x%016llx\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                sim_s, wall, samples.cycle_ms.size(),
                static_cast<unsigned long long>(digests.back()));
    std::printf("set-ups (s):");
    for (double s : setups) std::printf(" %.4f", s);
    // Only the 95th-percentile cycle is gated. On a shared host each
    // stretch of a run goes at one of two speeds (slow phases, from
    // ~10 ms to whole runs, cost 1.5-1.7x), so the mean (sim_rate) and
    // the median move with the slow share of a run, and the median
    // jumps between the two speeds. The 95th percentile stays in the
    // slow mode: over ten seeds on a 4-vCPU KVM guest its quartile
    // spread was 10-13 % of the median, against 19-31 % for sim_rate.
    std::printf("\nnot gated: sim_rate %.4f sim_s/s; cycle_p50_ms %.4f, "
                "cycle_p90_ms %.4f, cycle_p99_ms %.4f over %zu cycles\n",
                sim_s / wall, Percentile(samples.cycle_ms, 0.5),
                Percentile(samples.cycle_ms, 0.9), Percentile(samples.cycle_ms, 0.99),
                samples.cycle_ms.size());
    ReportFailures(failures);

    const std::vector<Metric> metrics = {
        {"cycle_p95_ms", Percentile(samples.cycle_ms, 0.95), "ms"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    const bool correct = failures.empty();
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------------

struct Pass
{
    Counts before;
    Counts after;
    AllocCounts allocs_before;
    AllocCounts allocs_after;
    Samples samples;
    double wall_s = 0.0;
    std::size_t first_span = 0;
};

/** Per parent span named `parent`, the summed duration of its children
 *  named `child`, in us; spans before `from` are ignored. */
std::vector<double>
ChildSumsUs(const Tracer& tracer, std::size_t from, const char* parent,
            const char* child)
{
    const std::vector<Tracer::Span>& spans = tracer.spans();
    std::map<std::int32_t, double> sums;
    for (std::size_t i = from; i < spans.size(); ++i) {
        if (std::string(spans[i].name) == parent) {
            sums[static_cast<std::int32_t>(i)] += 0.0;
        }
    }
    for (std::size_t i = from; i < spans.size(); ++i) {
        const auto it = sums.find(spans[i].parent);
        if (it == sums.end() || std::string(spans[i].name) != child) continue;
        it->second += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
    }
    std::vector<double> out;
    for (const auto& [index, sum] : sums) out.push_back(sum);
    return out;
}

/** Durations (us) of the spans named `name` among spans [from, to). */
std::vector<double>
DurationsUs(const Tracer& tracer, std::size_t from, std::size_t to,
            const char* name)
{
    std::vector<double> out;
    const std::vector<Tracer::Span>& spans = tracer.spans();
    for (std::size_t i = from; i < to && i < spans.size(); ++i) {
        if (std::string(spans[i].name) == name) {
            out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                          1e3);
        }
    }
    return out;
}

double
Sum(const std::vector<double>& values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

int
RunTraced(const Options& o)
{
    std::vector<std::string> failures;

    // Untraced reference over the same fixed work, for the overhead.
    double untraced_s_per_sim_s = 0.0;
    {
        Tracer off(false);
        std::unique_ptr<Workload> w = Make(o);
        w->Build(off);
        w->WarmUp(off);
        Samples samples;
        const Clock::time_point start = Clock::now();
        for (int b = 0; b < w->FixedBlocks(); ++b) w->RunBlock(off, samples);
        untraced_s_per_sim_s =
            SecondsSince(start) / (static_cast<double>(samples.sim_ms) / 1000.0);
    }

    Tracer tracer(true);
    Pass passes[2];
    std::size_t pass_first_span[2] = {0, 0};
    std::unique_ptr<Workload> w;
    for (int r = 0; r < 2; ++r) {
        w.reset();
        Pass& p = passes[r];
        tracer.BeginRun(static_cast<std::uint32_t>(r + 1));
        pass_first_span[r] = tracer.spans().size();
        w = Make(o);
        w->Build(tracer);
        w->WarmUp(tracer);
        p.before = w->Read(true);
        p.first_span = tracer.spans().size();
        SetAllocCounting(true);
        p.allocs_before = AllocCountsNow();
        const Clock::time_point start = Clock::now();
        for (int b = 0; b < w->FixedBlocks(); ++b) w->RunBlock(tracer, p.samples);
        p.wall_s = SecondsSince(start);
        p.allocs_after = AllocCountsNow();
        SetAllocCounting(false);
        p.after = w->Read(true);
        for (std::string& f : w->Check(p.before, p.after)) {
            failures.push_back(std::move(f));
        }
    }

    // Deterministic counts must repeat exactly across the two passes.
    auto delta = [](const Pass& p, std::uint64_t Counts::*field) {
        return p.after.*field - p.before.*field;
    };
    const struct
    {
        const char* what;
        std::uint64_t a;
        std::uint64_t b;
    } repeats[] = {
        {"pulls", delta(passes[0], &Counts::pulls), delta(passes[1], &Counts::pulls)},
        {"events", delta(passes[0], &Counts::events),
         delta(passes[1], &Counts::events)},
        {"allocations",
         passes[0].allocs_after.allocs - passes[0].allocs_before.allocs,
         passes[1].allocs_after.allocs - passes[1].allocs_before.allocs},
        {"allocated bytes",
         passes[0].allocs_after.bytes - passes[0].allocs_before.bytes,
         passes[1].allocs_after.bytes - passes[1].allocs_before.bytes},
    };
    for (const auto& rep : repeats) {
        if (rep.a != rep.b) {
            failures.push_back(std::string("traced passes disagree on ") +
                               rep.what + ": " + std::to_string(rep.a) +
                               " vs " + std::to_string(rep.b));
        }
    }

    const ProbeShape shape = w->Shape();
    w.reset();
    const ProbeResults probes = RunProbes(shape, o.seed, o.quick);

    // Metrics from the second traced pass.
    const Pass& p = passes[1];
    const std::size_t from = p.first_span;
    const Counts& a = p.after;
    const Counts& b = p.before;
    const double pulls = static_cast<double>(a.pulls - b.pulls);
    const double sim_s = static_cast<double>(a.sim_ms - b.sim_ms) / 1000.0;
    const double sim_min = sim_s / 60.0;
    const double allocs =
        static_cast<double>(p.allocs_after.allocs - p.allocs_before.allocs);
    const double alloc_bytes =
        static_cast<double>(p.allocs_after.bytes - p.allocs_before.bytes);
    const double windows = static_cast<double>(a.windows - b.windows);
    const double cycles = static_cast<double>(p.samples.cycle_ms.size());
    const bool socket = o.workload == "socket-leaf";

    const std::vector<double> ctl_poll = ChildSumsUs(tracer, from, "cycle", "rpc.ctl_poll");
    const std::vector<double> agent_poll =
        ChildSumsUs(tracer, from, "cycle", "rpc.agent_poll");
    const std::size_t end = tracer.spans().size();

    // What the probes account for in the measured wall time; the rest
    // is unexplained (libc/libstdc++, heap traffic, syscalls).
    double explained_s = 0.0;
    if (socket) {
        explained_s = pulls * (probes.wire_encode_ns + probes.wire_decode_ns +
                               probes.read_ns) / 1e9;
    } else {
        explained_s = pulls * probes.pull_ns / 1e9 + (a.barrier_s - b.barrier_s) +
                      static_cast<double>(a.monitor_walks - b.monitor_walks) *
                          probes.walk_us / 1e6;
    }
    const double traced_s_per_sim_s = p.wall_s / sim_s;

    std::map<std::string, double> v;
    v["fleet.build_s"] =
        Sum(DurationsUs(tracer, pass_first_span[1], from, "fleet.build")) / 1e6;
    v["fleet.warmup_s"] =
        Sum(DurationsUs(tracer, pass_first_span[1], from, "fleet.warmup")) / 1e6;
    v["fleet.window_ms_p50"] = Percentile(p.samples.window_ms, 0.5);
    v["fleet.window_ms_p90"] = Percentile(p.samples.window_ms, 0.9);
    v["fleet.barrier_share"] =
        Ratio(a.barrier_s - b.barrier_s,
              (a.barrier_s - b.barrier_s) + (a.window_run_s - b.window_run_s));
    v["fleet.proxy_publishes_per_window"] =
        Ratio(static_cast<double>(a.proxy_publishes - b.proxy_publishes), windows);
    v["fleet.mailbox_msgs_per_window"] =
        Ratio(static_cast<double>(a.mailbox_msgs - b.mailbox_msgs), windows);
    v["fleet.allocs_per_pull"] = Ratio(allocs, pulls);
    v["fleet.alloc_bytes_per_pull"] = Ratio(alloc_bytes, pulls);
    v["sim.events_per_pull"] = Ratio(static_cast<double>(a.events - b.events), pulls);
    v["sim.event_ns"] = probes.event_ns;
    v["rpc.pull_ns"] = probes.pull_ns;
    v["rpc.failed_share"] = Ratio(static_cast<double>(a.failed - b.failed),
                                  static_cast<double>(a.attempted - b.attempted));
    v["rpc.ctl_poll_us"] = Median(ctl_poll);
    v["rpc.agent_poll_us"] = Median(agent_poll);
    v["rpc.poll_passes_per_cycle"] =
        socket ? Ratio(static_cast<double>(a.poll_passes - b.poll_passes), cycles) : 0.0;
    v["rpc.idle_pass_share"] = Ratio(static_cast<double>(a.idle_passes - b.idle_passes),
                                     static_cast<double>(a.poll_passes - b.poll_passes));
    v["rpc.wire_encode_ns"] = probes.wire_encode_ns;
    v["rpc.wire_decode_ns"] = probes.wire_decode_ns;
    v["rpc.wire_bytes_per_pull"] = probes.wire_bytes_per_pull;
    v["rpc.socket_allocs_per_pull"] = socket ? Ratio(allocs, pulls) : 0.0;
    v["core.issue_us"] = Median(DurationsUs(tracer, from, end, "core.issue"));
    v["core.leaf_decide_share"] =
        Ratio((a.leaf_decide_us - b.leaf_decide_us) / 1e6, p.wall_s);
    v["core.upper_decide_share"] =
        Ratio((a.upper_decide_us - b.upper_decide_us) / 1e6, p.wall_s);
    v["core.cap_cmds_per_min"] =
        Ratio(static_cast<double>(a.cap_cmds - b.cap_cmds), sim_min);
    v["policy.plan_us"] = probes.plan_us;
    v["server.read_ns"] = probes.read_ns;
    v["power.walk_us"] = probes.walk_us;
    v["power.walks_per_sim_s"] =
        Ratio(static_cast<double>(a.monitor_walks - b.monitor_walks), sim_s);
    v["telemetry.spans_per_min"] =
        Ratio(static_cast<double>(a.trace_spans - b.trace_spans), sim_min);
    v["replay.journal_bytes_per_window"] =
        Ratio(static_cast<double>(a.journal_bytes - b.journal_bytes), windows);
    v["trace.unexplained_share"] = 1.0 - Ratio(explained_s, p.wall_s);
    v["trace.overhead"] = traced_s_per_sim_s / untraced_s_per_sim_s - 1.0;

    std::printf("traced %s seed %llu: %.1f sim-s per pass, %.0f pulls, "
                "%zu spans\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                sim_s, pulls, tracer.spans().size());
    std::vector<Metric> metrics;
    for (const LayerInfo& info : kLayers) {
        const double value = v.at(info.name);
        std::printf("  %-34s %14.6g %-6s moves %s on %s; flat on %s\n", info.name,
                    value, info.unit, info.moves, info.on, info.flat_on);
        metrics.push_back({info.name, value, info.unit});
    }
    if (!o.trace_out.empty() && !tracer.WriteJsonLines(o.trace_out)) {
        failures.push_back("cannot write spans to " + o.trace_out);
    }
    ReportFailures(failures);

    const std::uint64_t attempted = a.attempted - b.attempted;
    const std::uint64_t failed = a.failed - b.failed;
    if (failed != 0) failures.push_back("failed calls in the traced pass");
    const bool correct = failures.empty();
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    const perfbench::Options options = perfbench::ParseOptions(argc, argv);
    perfbench::PinToOneCpu();
    try {
        return options.trace ? perfbench::RunTraced(options)
                             : perfbench::RunTimed(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "dynamo_perfbench: %s\n", e.what());
        return 1;
    }
}
