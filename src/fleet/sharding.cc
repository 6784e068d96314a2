#include "fleet/sharding.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/archive.h"
#include "common/rng.h"
#include "core/api.h"
#include "core/controller_builder.h"
#include "power/topology.h"
#include "telemetry/metrics.h"
#include "workload/load_process.h"

namespace dynamo::fleet {

namespace {

/** Stable per-shard transport seed (independent of thread count). */
std::uint64_t
ShardSeed(std::uint64_t base, const std::string& label)
{
    return base ^ Fnv1a64(label);
}

}  // namespace

ShardPlan
ShardPlan::For(std::size_t n_servers)
{
    ShardPlan plan;
    plan.n_servers = n_servers;
    plan.n_leaves =
        (n_servers + kShardServersPerLeaf - 1) / kShardServersPerLeaf;
    plan.n_sbs =
        (plan.n_leaves + kShardLeavesPerSb - 1) / kShardLeavesPerSb;
    plan.n_msbs = plan.n_sbs > 1
                      ? (plan.n_sbs + kShardSbsPerMsb - 1) / kShardSbsPerMsb
                      : 0;
    plan.shards.reserve(plan.n_sbs);
    for (std::size_t s = 0; s < plan.n_sbs; ++s) {
        Shard shard;
        shard.first_leaf = s * kShardLeavesPerSb;
        shard.last_leaf =
            std::min(shard.first_leaf + kShardLeavesPerSb, plan.n_leaves);
        plan.shards.push_back(shard);
    }
    return plan;
}

/**
 * One SB subtree as a private sub-world. Everything here is touched by
 * exactly one thread per window; the pool barrier orders windows.
 */
struct ShardedFleet::WorkerShard : sim::ShardRunner
{
    WorkerShard(std::size_t index_in, std::uint64_t transport_seed)
        : index(index_in), transport(sim, transport_seed)
    {
        sim.set_event_digest(&kernel_hash);
        transport.set_call_digest(&rpc_hash);
    }

    void RunWindow(SimTime until) override
    {
        sim.RunUntil(until);
        StageLeafSnapshots();
    }

    /** Canonical state bytes for merged checkpoints. */
    void Snapshot(Archive& ar) const
    {
        ar.U64(index);
        sim.Snapshot(ar);
        transport.Snapshot(ar);
        ar.U64(servers.size());
        for (const auto& server : servers) server->Snapshot(ar);
        ar.U64(leaves.size());
        for (const auto& leaf : leaves) leaf->Snapshot(ar);
    }

    /**
     * What the barrier publishes to one leaf's proxy: the exact fields
     * a real leaf answers a PowerReadRequest with.
     */
    struct LeafStage
    {
        Watts power = 0.0;
        Watts quota = 0.0;
        Watts floor = 0.0;
        bool valid = false;

        bool operator==(const LeafStage&) const = default;
    };

    /**
     * End-of-window capture, run by this shard's worker thread inside
     * the parallel region: read every local leaf's proxy-served fields
     * and diff them against the last published copy, recording changed
     * local indices in `dirty`. The barrier then publishes only the
     * dirty entries — O(changed leaves) of serial work instead of a
     * full O(n_leaves) sweep with a cross-shard pointer chase per leaf.
     *
     * The capture happens *before* the barrier commits reconfiguration
     * transactions, so a commit's effect on quota/floor surfaces one
     * window later than the old in-barrier sweep published it. That
     * staleness is already part of the contract: the pull cadence
     * absorbs a full window everywhere else (DESIGN.md §10).
     */
    void StageLeafSnapshots()
    {
        if (published.size() != leaves.size()) {
            // First window: sentinel power forces every leaf to
            // publish once (a real power can never be negative).
            LeafStage sentinel;
            sentinel.power = -1.0;
            published.resize(leaves.size(), sentinel);
        }
        dirty.clear();
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            const core::LeafController& leaf = *leaves[i];
            LeafStage stage;
            stage.power = leaf.last_aggregated_power();
            stage.quota = leaf.quota();
            stage.floor = leaf.Floor();
            stage.valid = leaf.last_valid();
            if (stage != published[i]) {
                published[i] = stage;
                dirty.push_back(i);
            }
        }
    }

    std::size_t index;
    sim::Simulation sim;
    rpc::SimTransport transport;

    std::vector<std::unique_ptr<server::SimServer>> servers;
    std::vector<std::unique_ptr<core::DynamoAgent>> agents;
    std::vector<std::unique_ptr<power::PowerDevice>> devices;
    std::vector<std::unique_ptr<core::LeafController>> leaves;

    /**
     * Inbound contract updates from the control shard. Written by the
     * *control* shard's thread mid-window (the proxy push), drained by
     * the barrier — its own cache line so those pushes never contend
     * with this shard's per-event hash writes below.
     */
    alignas(64) rpc::ShardMailbox mailbox;

    /**
     * Hot per-window state written by this shard's worker thread:
     * digests mixed on every event/call, and the staged leaf snapshots
     * captured at window close. Cache-line aligned away from the
     * mailbox for the same false-sharing reason.
     */
    alignas(64) HashAccumulator rpc_hash;
    HashAccumulator kernel_hash;

    /** Last values handed to the proxies (local leaf index). */
    std::vector<LeafStage> published;

    /** Local leaf indices whose `published` entry changed this window. */
    std::vector<std::uint32_t> dirty;
};

/** The upper-controller world plus the per-leaf proxy state. */
struct ShardedFleet::ControlShard : sim::ShardRunner
{
    explicit ControlShard(std::uint64_t transport_seed)
        : transport(sim, transport_seed)
    {
        sim.set_event_digest(&kernel_hash);
        transport.set_call_digest(&rpc_hash);
    }

    void RunWindow(SimTime until) override { sim.RunUntil(until); }

    void Snapshot(Archive& ar) const
    {
        sim.Snapshot(ar);
        transport.Snapshot(ar);
        ar.U64(uppers.size());
        for (const auto& upper : uppers) upper->Snapshot(ar);
    }

    /**
     * What the proxy endpoint for one leaf serves its SB parent: the
     * exact fields a real leaf answers a PowerReadRequest with, frozen
     * at the last barrier.
     */
    struct LeafProxy
    {
        std::string endpoint;
        Watts power = 0.0;
        Watts quota = 0.0;
        Watts floor = 0.0;

        /** Mirrors LeafController::last_valid(); false until the leaf
         *  has aggregated once, so uppers see the same cold start a
         *  real child would give them. */
        bool valid = false;
    };

    sim::Simulation sim;
    rpc::SimTransport transport;

    /** SB uppers first (index = SB index), then MSB uppers. */
    std::vector<std::unique_ptr<core::UpperController>> uppers;

    /**
     * Uppers replaced by a promotion: deactivated but kept alive, since
     * pulls they issued may still complete and those callbacks hold
     * `this`. Not part of the snapshot.
     */
    std::vector<std::unique_ptr<core::UpperController>> retired_uppers;

    /** Indexed by global leaf. */
    std::vector<LeafProxy> proxies;

    std::uint64_t reads_proxied = 0;
    std::uint64_t contracts_forwarded = 0;

    HashAccumulator rpc_hash;
    HashAccumulator kernel_hash;
};

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(std::move(config)), plan_(ShardPlan::For(config_.n_servers))
{
    std::vector<Watts> leaf_rated;
    leaf_rated.reserve(plan_.n_leaves);

    shards_.reserve(plan_.shards.size());
    for (std::size_t s = 0; s < plan_.shards.size(); ++s) {
        shards_.push_back(std::make_unique<WorkerShard>(
            s, ShardSeed(config_.seed, "shard:" + std::to_string(s))));
    }
    control_ = std::make_unique<ControlShard>(
        ShardSeed(config_.seed, "control"));

    // --- Servers, agents, leaf controllers, routed to owning shards.
    // One global RNG sequence over global server order, so per-server
    // seeds depend only on the config (the bench fleet's recipe).
    Rng rng(config_.seed ^ (config_.n_servers * 0x9e3779b97f4a7c15ULL));
    const workload::ServiceType services[] = {
        workload::ServiceType::kWeb, workload::ServiceType::kCache,
        workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};

    leaf_alive_.assign(plan_.n_leaves, 1);
    leaf_parent_.reserve(plan_.n_leaves);
    leaf_agents_.resize(plan_.n_leaves);
    for (std::size_t l = 0; l < plan_.n_leaves; ++l) {
        WorkerShard& shard = *shards_[plan_.shard_of_leaf(l)];
        const std::size_t first = l * kShardServersPerLeaf;
        const std::size_t last =
            std::min(first + kShardServersPerLeaf, plan_.n_servers);
        leaf_parent_.push_back(plan_.shard_of_leaf(l));

        const std::size_t leaf_first_server = shard.servers.size();
        for (std::size_t i = first; i < last; ++i) {
            server::SimServer::Config server_config;
            server_config.name = "srv" + std::to_string(i);
            server_config.service = services[i % 4];
            server_config.generation =
                (i % 10 < 7) ? server::ServerGeneration::kHaswell2015
                             : server::ServerGeneration::kWestmere2011;
            // Conditional draws: a zero fraction consumes nothing, so
            // pre-catalog seeds keep their exact per-server streams.
            if (config_.gpu_fraction > 0.0 &&
                rng.Bernoulli(config_.gpu_fraction)) {
                server_config.generation =
                    server::ServerGeneration::kGpuTrain2024;
            }
            if (config_.sensorless_fraction > 0.0) {
                server_config.has_sensor =
                    !rng.Bernoulli(config_.sensorless_fraction);
            }
            server_config.seed = rng.NextU64();
            workload::LoadProcessParams params =
                workload::LoadProcessParams::For(server_config.service);
            params.base_util = rng.Uniform(0.35, 0.75);
            params.spike_rate_per_hour = 0.0;  // steady-state scale run
            shard.servers.push_back(std::make_unique<server::SimServer>(
                std::move(server_config), params));
            shard.agents.push_back(std::make_unique<core::DynamoAgent>(
                shard.sim, shard.transport, *shard.servers.back(),
                "agent:" + std::to_string(i)));
            leaf_agents_[l].push_back(shard.agents.size() - 1);
        }

        // Size the breaker just above the domain's initial draw (the
        // bench fleet's rule) so the three-band policy works near its
        // thresholds and capping actually runs.
        Watts draw = 0.0;
        for (std::size_t k = leaf_first_server; k < shard.servers.size();
             ++k) {
            draw += shard.servers[k]->PowerAt(0);
        }
        const Watts rated = draw / 0.965;
        leaf_rated.push_back(rated);
        shard.devices.push_back(power::BuildRpp("rpp" + std::to_string(l),
                                                rated, /*quota=*/0.95 * rated));

        core::ControllerBuilder builder(shard.sim, shard.transport);
        builder.Endpoint("ctl:rpp:" + std::to_string(l))
            .ForDevice(*shard.devices.back())
            .Policy(config_.policy);
        for (std::size_t k = leaf_first_server; k < shard.servers.size();
             ++k) {
            const std::size_t i = first + (k - leaf_first_server);
            core::AgentInfo info;
            info.endpoint = shard.agents[k]->endpoint();
            info.service = shard.servers[k]->service();
            info.priority_group = static_cast<int>(i % 3);
            info.sla_min_cap = 70.0 + static_cast<double>(i % 3) * 15.0;
            builder.Agent(std::move(info));
        }
        shard.leaves.push_back(builder.BuildLeaf());
        shard.leaves.back()->AttachEpoch(&spec_epoch_);
        shard.leaves.back()->Activate(static_cast<SimTime>((l * 37) % 3000));
        leaf_targets_.push_back(shard.leaves.back()->endpoint_id());
    }

    BuildControlShard(leaf_rated);

    // --- Execution: shard-index order is the canonical merge order;
    // the control shard runs last in it.
    runners_.reserve(shards_.size() + 1);
    for (const auto& shard : shards_) runners_.push_back(shard.get());
    runners_.push_back(control_.get());
    pool_ = std::make_unique<sim::WorkerPool>(config_.threads);
    kernel_ = std::make_unique<sim::ParallelKernel>(
        *pool_, runners_, kShardWindowMs,
        [this](SimTime t) { Barrier(t); });

    if (config_.record_journal) {
        std::ostringstream spec;
        spec << "sharded-fleet v1\n"
             << "servers=" << plan_.n_servers << "\n"
             << "shards=" << plan_.shards.size() << "\n"
             << "seed=" << config_.seed << "\n"
             << "window_ms=" << kShardWindowMs << "\n";
        // Non-default only: committed sharded goldens predate the
        // policy lab and must keep their exact spec text.
        if (config_.policy != policy::PolicyKind::kThreeBand) {
            spec << "policy=" << policy::PolicyKindName(config_.policy)
                 << "\n";
        }
        if (config_.sensorless_fraction != 0.0) {
            spec << "sensorless_fraction=" << config_.sensorless_fraction
                 << "\n";
        }
        if (config_.gpu_fraction != 0.0) {
            spec << "gpu_fraction=" << config_.gpu_fraction << "\n";
        }
        journal_.spec_text = spec.str();
        journal_.scenario = config_.scenario;
        journal_.cycle_period = kShardWindowMs;
        journal_.checkpoint_every = config_.checkpoint_every;
    }
}

ShardedFleet::~ShardedFleet() = default;

void
ShardedFleet::BuildControlShard(const std::vector<Watts>& leaf_rated)
{
    // Per-leaf proxy endpoints stand in for the children; register
    // them before the uppers so the control transport's intern order
    // is leaf-major (fixed, therefore hash-stable).
    control_->proxies.resize(plan_.n_leaves);
    for (std::size_t l = 0; l < plan_.n_leaves; ++l) {
        ControlShard::LeafProxy& proxy = control_->proxies[l];
        proxy.endpoint = "ctl:rpp:" + std::to_string(l);
        control_->transport.Register(
            proxy.endpoint, [this, l](const rpc::Payload& request) {
                return ProxyHandle(l, request);
            });
    }

    sb_rated_.reserve(plan_.n_sbs);
    for (std::size_t s = 0; s < plan_.n_sbs; ++s) {
        const ShardPlan::Shard& shard = plan_.shards[s];
        Watts rated = 0.0;
        for (std::size_t l = shard.first_leaf; l < shard.last_leaf; ++l) {
            rated += leaf_rated[l];
        }
        rated *= 0.99;  // slightly oversubscribed, as real SBs are
        sb_rated_.push_back(rated);

        core::ControllerBuilder builder(control_->sim, control_->transport);
        builder.Endpoint("ctl:sb:" + std::to_string(s))
            .Limits(rated, /*quota=*/0.95 * rated)
            .Policy(config_.policy);
        for (std::size_t l = shard.first_leaf; l < shard.last_leaf; ++l) {
            builder.Child("ctl:rpp:" + std::to_string(l));
        }
        control_->uppers.push_back(builder.BuildUpper());
        control_->uppers.back()->AttachEpoch(&spec_epoch_);
        control_->uppers.back()->Activate(
            static_cast<SimTime>((s * 113) % 9000));
    }

    for (std::size_t m = 0; m < plan_.n_msbs; ++m) {
        const std::size_t first = m * kShardSbsPerMsb;
        const std::size_t last =
            std::min(first + kShardSbsPerMsb, plan_.n_sbs);
        Watts rated = 0.0;
        for (std::size_t s = first; s < last; ++s) rated += sb_rated_[s];
        rated *= 0.99;

        core::ControllerBuilder builder(control_->sim, control_->transport);
        builder.Endpoint("ctl:msb:" + std::to_string(m))
            .Limits(rated, /*quota=*/0.95 * rated)
            .Policy(config_.policy);
        for (std::size_t s = first; s < last; ++s) {
            builder.Child("ctl:sb:" + std::to_string(s));
        }
        control_->uppers.push_back(builder.BuildUpper());
        control_->uppers.back()->AttachEpoch(&spec_epoch_);
        control_->uppers.back()->Activate(
            static_cast<SimTime>((m * 199) % 9000));
    }
}

rpc::Payload
ShardedFleet::ProxyHandle(std::size_t global_leaf,
                          const rpc::Payload& request)
{
    ControlShard::LeafProxy& proxy = control_->proxies[global_leaf];
    if (std::holds_alternative<api::PowerReadRequest>(request)) {
        ++control_->reads_proxied;
        api::PowerReadResult result;
        result.source = proxy.endpoint;
        result.power = proxy.power;
        result.quota = proxy.quota;
        result.floor = proxy.floor;
        if (!proxy.valid) {
            result.status =
                api::Status::Unavailable("aggregation invalid");
        }
        return result;
    }
    if (std::holds_alternative<api::ContractUpdate>(request)) {
        // Accepted for forwarding: the ack means "queued", delivery
        // lands at the next barrier. The parent's punish-offender
        // protocol already tolerates a cycle of staleness, so the
        // extra window behaves like ordinary pull-cadence lag.
        ++control_->contracts_forwarded;
        shards_[plan_.shard_of_leaf(global_leaf)]->mailbox.Push(
            leaf_targets_[global_leaf], request);
        return api::CapResult{api::Status::Ok()};
    }
    if (std::holds_alternative<api::HealthProbe>(request)) {
        return api::HealthResult{api::Status::Ok()};
    }
    return api::CapResult{
        api::Status::Unimplemented("unknown proxy request")};
}

void
ShardedFleet::Barrier(SimTime barrier_time)
{
    using Clock = std::chrono::steady_clock;
    // Each call returns the seconds since the previous call (or since
    // barrier entry), so `profile_.x += clock()` closes stage x.
    auto clock = [t = Clock::now()]() mutable {
        const Clock::time_point now = Clock::now();
        const double s = std::chrono::duration<double>(now - t).count();
        t = now;
        return s;
    };

    // 1. Close the window's journal record first: hashes must cover
    //    exactly the window's events, and the mailbox drain below
    //    issues calls whose digest mixes count toward the *next*
    //    window.
    if (config_.record_journal) RecordWindow(barrier_time);
    profile_.record_s += clock();

    // 2. Commit reconfiguration transactions scheduled for the window
    //    that just closed. Single-threaded, after the record and
    //    before the proxy refresh: the closed window hashed the old
    //    topology, the next one runs wholly on the new.
    if (!pending_reconfigs_.empty()) {
        auto it = pending_reconfigs_.begin();
        while (it != pending_reconfigs_.end()) {
            if (it->first == barriers_completed_) {
                ApplyReconfig(barrier_time, it->second);
                it = pending_reconfigs_.erase(it);
            } else {
                ++it;
            }
        }
    }
    // Scenario actions for the closed window run after reconfigs, in
    // schedule order, and are journaled as faults so the byte-compare
    // gate covers the scenario script too.
    if (!pending_actions_.empty()) {
        auto it = pending_actions_.begin();
        while (it != pending_actions_.end()) {
            if (it->window == barriers_completed_) {
                it->action();
                if (config_.record_journal) {
                    journal_.faults.push_back(
                        replay::FaultRecord{barrier_time, it->description});
                }
                it = pending_actions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    ++barriers_completed_;
    profile_.reconfig_s += clock();

    // 3. Publish the staged leaf snapshots the uppers will read next
    //    window. The workers already captured and diffed their leaves
    //    inside the parallel region (StageLeafSnapshots), so the
    //    serial step is a copy of just the *changed* entries, walked
    //    in shard-index order (= global leaf order, since shards own
    //    contiguous leaf ranges). Decommissioned leaves keep their
    //    last snapshot but stay invalid — and parentless, so nothing
    //    reads them anyway.
    for (const auto& shard : shards_) {
        const std::size_t first = plan_.shards[shard->index].first_leaf;
        for (const std::uint32_t local : shard->dirty) {
            const std::size_t l = first + local;
            if (leaf_alive_[l] == 0) continue;
            const WorkerShard::LeafStage& stage = shard->published[local];
            ControlShard::LeafProxy& proxy = control_->proxies[l];
            proxy.power = stage.power;
            proxy.valid = stage.valid;
            proxy.quota = stage.quota;
            proxy.floor = stage.floor;
            ++profile_.proxy_leaves_published;
        }
        shard->dirty.clear();
    }
    profile_.proxy_publish_s += clock();

    // 4. Deliver queued contract updates, shard-index order outside,
    //    FIFO inside: each shard's drained queue becomes ONE batched
    //    transport delivery issued at the window boundary, so every
    //    message reaches its leaf (after one shared latency sample)
    //    early in window W+1. A crashed leaf drops its item at
    //    delivery; the parent re-issues every settled cycle.
    for (const auto& shard : shards_) {
        std::vector<rpc::ShardMessage> messages = shard->mailbox.Drain();
        if (messages.empty()) continue;
        mailbox_delivered_ += messages.size();
        profile_.mailbox_messages += messages.size();
        shard->transport.CallBatch(std::move(messages));
    }
    profile_.mailbox_drain_s += clock();

    // 5. Checkpoint last: it must capture the post-commit, post-drain
    //    state the next window starts from.
    if (config_.record_journal && config_.checkpoint_every > 0 &&
        windows_completed() % config_.checkpoint_every == 0) {
        RecordCheckpoint(barrier_time);
    }
    profile_.checkpoint_s += clock();
}

void
ShardedFleet::RecordWindow(SimTime barrier_time)
{
    // Merge per-shard window digests in shard-index order (control
    // last). Completion order of the worker threads never appears in
    // the journal.
    HashAccumulator rpc_merged;
    HashAccumulator kernel_merged;
    for (const auto& shard : shards_) {
        rpc_merged.Mix(shard->rpc_hash.value());
        kernel_merged.Mix(shard->kernel_hash.value());
        shard->rpc_hash.Reset();
        shard->kernel_hash.Reset();
    }
    rpc_merged.Mix(control_->rpc_hash.value());
    kernel_merged.Mix(control_->kernel_hash.value());
    control_->rpc_hash.Reset();
    control_->kernel_hash.Reset();

    replay::CycleRecord record;
    record.cycle = journal_.cycles.size();
    record.time = barrier_time;
    record.rpc_hash = rpc_merged.value();
    record.kernel_hash = kernel_merged.value();
    journal_.cycles.push_back(std::move(record));
}

void
ShardedFleet::RecordCheckpoint(SimTime barrier_time)
{
    Archive ar;
    ar.Str("sharded-fleet-checkpoint");
    ar.U64(spec_epoch_);
    ar.U64(shards_.size());

    // Fill one private archive per shard on the worker pool, then fold
    // them into the master archive in canonical order (shards by
    // index, control last). Archive::Append is byte-exact, so the
    // checkpoint is identical to the old serial sweep — only the wall
    // time is divided by the thread count.
    const std::size_t n = shards_.size();
    std::vector<Archive> parts(n + 1);
    const sim::WorkerPool::StageFn fill = [&](std::size_t i) {
        if (i < n) {
            shards_[i]->Snapshot(parts[i]);
        } else {
            control_->Snapshot(parts[n]);
        }
    };
    pool_->RunStage(fill, n + 1);
    for (const Archive& part : parts) ar.Append(part);

    replay::CheckpointRecord record;
    record.cycle = journal_.cycles.empty() ? 0 : journal_.cycles.size() - 1;
    record.time = barrier_time;
    record.digest = ar.digest();
    record.state = ar.TakeBytes();
    journal_.checkpoints.push_back(std::move(record));
}

std::size_t
ShardedFleet::LeafIndex(const std::string& target) const
{
    std::size_t pos = 0;
    while (pos < target.size() && (target[pos] < '0' || target[pos] > '9')) {
        ++pos;
    }
    if (pos == target.size()) {
        throw std::invalid_argument("sharded reconfig: leaf target \"" +
                                    target + "\" has no index");
    }
    std::size_t l = 0;
    try {
        l = std::stoul(target.substr(pos));
    } catch (const std::out_of_range&) {
        // stoul throws out_of_range for an index too wide for unsigned
        // long; surface it as the same invalid-argument class every
        // other malformed target gets, with the offending string.
        throw std::invalid_argument("sharded reconfig: leaf target \"" +
                                    target + "\" index overflows");
    }
    if (l >= plan_.n_leaves) {
        throw std::invalid_argument("sharded reconfig: leaf index " +
                                    std::to_string(l) + " out of range (" +
                                    std::to_string(plan_.n_leaves) +
                                    " leaves)");
    }
    return l;
}

std::size_t
ShardedFleet::UpperIndex(const std::string& target) const
{
    std::size_t pos = 0;
    while (pos < target.size() && (target[pos] < '0' || target[pos] > '9')) {
        ++pos;
    }
    if (pos == target.size()) {
        throw std::invalid_argument("sharded reconfig: upper target \"" +
                                    target + "\" has no index");
    }
    std::size_t s = 0;
    try {
        s = std::stoul(target.substr(pos));
    } catch (const std::out_of_range&) {
        throw std::invalid_argument("sharded reconfig: upper target \"" +
                                    target + "\" index overflows");
    }
    if (s >= plan_.n_sbs) {
        throw std::invalid_argument("sharded reconfig: SB index " +
                                    std::to_string(s) + " out of range (" +
                                    std::to_string(plan_.n_sbs) + " SBs)");
    }
    return s;
}

void
ShardedFleet::ScheduleReconfig(std::uint64_t window, ReconfigTxn txn)
{
    if (txn.empty()) {
        throw std::invalid_argument("sharded reconfig: empty transaction");
    }
    if (window < barriers_completed_) {
        throw std::invalid_argument(
            "sharded reconfig: window " + std::to_string(window) +
            " already closed (" + std::to_string(barriers_completed_) +
            " barriers done)");
    }
    for (const ReconfigOp& op : txn.ops) {
        switch (op.kind) {
          case ReconfigOp::Kind::kAddServers:
            if (op.count == 0) {
                throw std::invalid_argument(
                    "sharded reconfig: add-servers(" + op.target +
                    ") with count 0");
            }
            LeafIndex(op.target);
            break;
          case ReconfigOp::Kind::kRemoveSubtree:
          case ReconfigOp::Kind::kRestartController:
            LeafIndex(op.target);
            break;
          case ReconfigOp::Kind::kReparent:
            LeafIndex(op.target);
            UpperIndex(op.new_parent);
            break;
          case ReconfigOp::Kind::kPromoteUpper:
            UpperIndex(op.target);
            break;
        }
    }
    pending_reconfigs_.emplace_back(window, std::move(txn));
}

void
ShardedFleet::ScheduleAction(std::uint64_t window, std::string description,
                             std::function<void()> action)
{
    if (window < barriers_completed_) {
        throw std::invalid_argument(
            "sharded action: window " + std::to_string(window) +
            " already closed (" + std::to_string(barriers_completed_) +
            " barriers done)");
    }
    pending_actions_.push_back(
        PendingAction{window, std::move(description), std::move(action)});
}

void
ShardedFleet::ForEachServer(const std::function<void(server::SimServer&)>& fn)
{
    for (const auto& shard : shards_) {
        for (const auto& server : shard->servers) fn(*server);
    }
}

void
ShardedFleet::ApplyReconfig(SimTime barrier_time, const ReconfigTxn& txn)
{
    ++spec_epoch_;
    for (const ReconfigOp& op : txn.ops) {
        switch (op.kind) {
          case ReconfigOp::Kind::kAddServers: ApplyAddServers(op); break;
          case ReconfigOp::Kind::kRemoveSubtree:
            ApplyRemoveSubtree(op);
            break;
          case ReconfigOp::Kind::kReparent: ApplyReparent(op); break;
          case ReconfigOp::Kind::kRestartController:
            ApplyRestartController(op);
            break;
          case ReconfigOp::Kind::kPromoteUpper: ApplyPromoteUpper(op); break;
        }
    }
    ++reconfigs_applied_;
    if (config_.record_journal) {
        journal_.reconfigs.push_back(
            replay::ReconfigRecord{spec_epoch_, barrier_time, txn.Describe()});
    }
}

void
ShardedFleet::ApplyAddServers(const ReconfigOp& op)
{
    const std::size_t l = LeafIndex(op.target);
    if (leaf_alive_[l] == 0) {
        throw std::runtime_error("sharded reconfig: add-servers target \"" +
                                 op.target + "\" was decommissioned");
    }
    WorkerShard& shard = *shards_[plan_.shard_of_leaf(l)];
    core::LeafController& lf = leaf(l);

    // Epoch-keyed RNG: provisioning draws never perturb the boot-time
    // sequence, and repeated expansions stay distinct.
    Rng rng(config_.seed ^ (0x9e3779b97f4a7c15ULL * spec_epoch_));
    const workload::ServiceType services[] = {
        workload::ServiceType::kWeb, workload::ServiceType::kCache,
        workload::ServiceType::kHadoop, workload::ServiceType::kDatabase};

    for (std::size_t i = 0; i < op.count; ++i) {
        const std::string name = "srv:" + op.target + ":e" +
                                 std::to_string(spec_epoch_) + "s" +
                                 std::to_string(i);
        server::SimServer::Config server_config;
        server_config.name = name;
        server_config.service = services[i % 4];
        server_config.generation =
            (i % 10 < 7) ? server::ServerGeneration::kHaswell2015
                         : server::ServerGeneration::kWestmere2011;
        if (config_.gpu_fraction > 0.0 &&
            rng.Bernoulli(config_.gpu_fraction)) {
            server_config.generation = server::ServerGeneration::kGpuTrain2024;
        }
        if (config_.sensorless_fraction > 0.0) {
            server_config.has_sensor =
                !rng.Bernoulli(config_.sensorless_fraction);
        }
        server_config.seed = rng.NextU64();
        workload::LoadProcessParams params =
            workload::LoadProcessParams::For(server_config.service);
        params.base_util = rng.Uniform(0.35, 0.75);
        params.spike_rate_per_hour = 0.0;
        shard.servers.push_back(std::make_unique<server::SimServer>(
            std::move(server_config), params));
        shard.agents.push_back(std::make_unique<core::DynamoAgent>(
            shard.sim, shard.transport, *shard.servers.back(),
            "agent:" + name));
        leaf_agents_[l].push_back(shard.agents.size() - 1);

        core::AgentInfo info;
        info.endpoint = shard.agents.back()->endpoint();
        info.service = services[i % 4];
        info.priority_group = static_cast<int>(i % 3);
        info.sla_min_cap = 70.0 + static_cast<double>(i % 3) * 15.0;
        lf.AddAgent(std::move(info));
    }
}

void
ShardedFleet::ApplyRemoveSubtree(const ReconfigOp& op)
{
    const std::size_t l = LeafIndex(op.target);
    if (leaf_alive_[l] == 0) {
        throw std::runtime_error("sharded reconfig: \"" + op.target +
                                 "\" was already decommissioned");
    }
    leaf_alive_[l] = 0;

    // Parent drops the child before teardown, so no poll or contract
    // routes to the proxy while it disappears.
    control_->uppers[leaf_parent_[l]]->RemoveChild(
        control_->proxies[l].endpoint);
    control_->transport.Deregister(control_->proxies[l].endpoint);
    control_->proxies[l].valid = false;

    leaf(l).Deactivate();
    WorkerShard& shard = *shards_[plan_.shard_of_leaf(l)];
    for (const std::size_t idx : leaf_agents_[l]) {
        shard.agents[idx]->Crash();
    }
    leaf_agents_[l].clear();
    // Server and agent objects stay, dormant: their snapshot bytes are
    // part of the checkpoint, and dropping them would make the state
    // layout depend on reconfiguration history in fragile ways.
}

void
ShardedFleet::ApplyReparent(const ReconfigOp& op)
{
    const std::size_t l = LeafIndex(op.target);
    const std::size_t s = UpperIndex(op.new_parent);
    if (leaf_alive_[l] == 0) {
        throw std::runtime_error("sharded reconfig: reparent target \"" +
                                 op.target + "\" was decommissioned");
    }
    if (leaf_parent_[l] == s) {
        throw std::runtime_error("sharded reconfig: \"" + op.target +
                                 "\" is already fed from \"" + op.new_parent +
                                 "\"");
    }
    // Roster-only: the leaf's shard placement never changes (the proxy
    // is the only cross-shard edge), so re-homing is two roster edits.
    // The leaf keeps its standing contract; the new parent discovers
    // it through the adoption path on its next read.
    control_->uppers[leaf_parent_[l]]->RemoveChild(
        control_->proxies[l].endpoint);
    control_->uppers[s]->AddChild(control_->proxies[l].endpoint);
    leaf_parent_[l] = s;
}

void
ShardedFleet::ApplyRestartController(const ReconfigOp& op)
{
    const std::size_t l = LeafIndex(op.target);
    if (leaf_alive_[l] == 0) {
        throw std::runtime_error("sharded reconfig: restart target \"" +
                                 op.target + "\" was decommissioned");
    }
    // Planned rolling restart: in-place bounce with the build-time
    // phase. Object state — including the contractual limit — survives,
    // mirroring the serial engine's warm swap (no uncap glitch).
    core::LeafController& lf = leaf(l);
    lf.Deactivate();
    lf.Activate(static_cast<SimTime>((l * 37) % 3000));
}

void
ShardedFleet::ApplyPromoteUpper(const ReconfigOp& op)
{
    const std::size_t s = UpperIndex(op.target);

    // Kill the SB and promote a contract-blank replacement on the same
    // endpoint (same interned id, so the MSB's roster is untouched).
    // The replacement re-learns child contracts via reaffirmation and
    // the adoption path — the sharded analogue of backup promotion.
    control_->uppers[s]->Deactivate();
    control_->retired_uppers.push_back(std::move(control_->uppers[s]));

    core::ControllerBuilder builder(control_->sim, control_->transport);
    builder.Endpoint("ctl:sb:" + std::to_string(s))
        .Limits(sb_rated_[s], /*quota=*/0.95 * sb_rated_[s])
        .Policy(config_.policy);
    for (std::size_t l = 0; l < plan_.n_leaves; ++l) {
        if (leaf_alive_[l] != 0 && leaf_parent_[l] == s) {
            builder.Child(control_->proxies[l].endpoint);
        }
    }
    control_->uppers[s] = builder.BuildUpper();
    control_->uppers[s]->AttachEpoch(&spec_epoch_);
    control_->uppers[s]->Activate(static_cast<SimTime>((s * 113) % 9000));
}

void
ShardedFleet::RunWindows(std::uint64_t n)
{
    kernel_->RunWindows(n);
}

void
ShardedFleet::RunFor(SimTime duration_ms)
{
    kernel_->RunFor(duration_ms);
}

SimTime
ShardedFleet::Now() const
{
    return kernel_->Now();
}

std::size_t
ShardedFleet::thread_count() const
{
    return pool_->thread_count();
}

std::uint64_t
ShardedFleet::windows_completed() const
{
    return kernel_->windows_completed();
}

std::uint64_t
ShardedFleet::events_executed() const
{
    std::uint64_t total = control_->sim.events_executed();
    for (const auto& shard : shards_) total += shard->sim.events_executed();
    return total;
}

std::uint64_t
ShardedFleet::reads_proxied() const
{
    return control_->reads_proxied;
}

std::uint64_t
ShardedFleet::contracts_forwarded() const
{
    return control_->contracts_forwarded;
}

std::uint64_t
ShardedFleet::mailbox_delivered() const
{
    return mailbox_delivered_;
}

BarrierProfile
ShardedFleet::barrier_profile() const
{
    BarrierProfile profile = profile_;
    profile.window_run_s = kernel_->window_wall_s();
    profile.barrier_total_s = kernel_->barrier_wall_s();
    profile.windows = kernel_->windows_completed();
    return profile;
}

void
ShardedFleet::PublishBarrierProfile(telemetry::MetricsRegistry* registry) const
{
    if (registry == nullptr) return;
    const BarrierProfile p = barrier_profile();
    registry->GetGauge("barrier.window_run_s")->Set(p.window_run_s);
    registry->GetGauge("barrier.record_s")->Set(p.record_s);
    registry->GetGauge("barrier.reconfig_s")->Set(p.reconfig_s);
    registry->GetGauge("barrier.proxy_publish_s")->Set(p.proxy_publish_s);
    registry->GetGauge("barrier.mailbox_drain_s")->Set(p.mailbox_drain_s);
    registry->GetGauge("barrier.checkpoint_s")->Set(p.checkpoint_s);
    registry->GetGauge("barrier.total_s")->Set(p.barrier_total_s);
    registry->GetGauge("barrier.serial_share")->Set(p.serial_share());
    // Counters are cumulative; publish-once semantics match the gauges
    // (call after the run, not per window).
    registry->GetCounter("barrier.windows")->Inc(p.windows);
    registry->GetCounter("barrier.proxy_leaves_published")
        ->Inc(p.proxy_leaves_published);
    registry->GetCounter("barrier.mailbox_messages")
        ->Inc(p.mailbox_messages);
}

void
ShardedFleet::InjectContract(std::size_t global_leaf,
                             std::optional<Watts> limit)
{
    control_->transport.Call(control_->proxies[global_leaf].endpoint,
                             api::ContractUpdate{limit, /*span_id=*/0}, {});
}

core::LeafController&
ShardedFleet::leaf(std::size_t global_leaf)
{
    WorkerShard& shard = *shards_[plan_.shard_of_leaf(global_leaf)];
    return *shard.leaves[global_leaf - plan_.shards[shard.index].first_leaf];
}

core::UpperController&
ShardedFleet::sb(std::size_t index)
{
    return *control_->uppers[index];
}

std::size_t
ShardedFleet::mailbox_pending(std::size_t shard) const
{
    return shards_[shard]->mailbox.pending();
}

}  // namespace dynamo::fleet
