/**
 * @file
 * The run recorder: hooks a live fleet and captures a replay journal.
 *
 * The recorder installs three observers —
 *
 *   - `SimTransport::set_call_digest`: every RPC delivery/failure
 *     (endpoint, fate, time) is folded into a per-window rolling hash,
 *     so any divergence in the message stream is caught at the exact
 *     window it first occurs;
 *   - `Simulation::set_event_digest`: every timing-wheel firing
 *     ((time, seq)) is folded into a second per-window hash, catching
 *     scheduling-order divergence even when it has no RPC effect yet;
 *   - `CampaignEngine::set_fault_observer` (wired by the caller via
 *     `RecordFault`): the chaos fault stream is journaled verbatim —
 *
 * and a periodic task on the simulation clock that closes a recording
 * window every `cycle_period` ms: it drains newly appended TraceSpans
 * from the deployment's trace ring (by id watermark), emits a
 * kCycle record, and every `checkpoint_every` windows also emits a
 * kCheckpoint carrying the complete `Fleet::Snapshot` bytes + digest.
 *
 * Both hashes reset at each window boundary, so a replay started from
 * a mid-run checkpoint compares its tail windows against the journal
 * without needing the hash state of earlier windows.
 */
#ifndef DYNAMO_REPLAY_RECORDER_H_
#define DYNAMO_REPLAY_RECORDER_H_

#include <cstdint>
#include <string>

#include "common/archive.h"
#include "fleet/fleet.h"
#include "replay/journal.h"
#include "sim/simulation.h"

namespace dynamo::replay {

/** Recording cadence. */
struct RecorderConfig
{
    /** Window length, ms. Align with the leaf pull cycle for legible
     * journals; any value works. */
    SimTime cycle_period = 3000;

    /** Take a full fleet checkpoint every this many windows. */
    std::uint64_t checkpoint_every = 10;

    /** Scenario name stamped into the journal header. */
    std::string scenario = "quiet";

    /** Stamped into the journal: an InvariantChecker is armed, and
     * replay must recreate one (see Journal::invariants_checked). */
    bool invariants_checked = false;
};

/**
 * Captures one fleet run into a Journal. Must outlive neither the
 * fleet nor the run: construct before RunFor, call Finish() after.
 */
class Recorder
{
  public:
    /** Installs observers and schedules the window task. */
    Recorder(fleet::Fleet& fleet, RecorderConfig config);

    /** Uninstalls the observers. */
    ~Recorder();

    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /** Journal a chaos fault (wire to CampaignEngine::set_fault_observer). */
    void RecordFault(SimTime time, const std::string& description);

    /** Windows recorded so far. */
    std::uint64_t cycles_recorded() const { return journal_.cycles.size(); }

    /**
     * Close out the recording and return the journal. The recorder
     * stays attached (a longer run can keep recording), but the
     * returned copy is complete as of now.
     */
    Journal Finish() const { return journal_; }

    /** The journal built so far (no copy). */
    const Journal& journal() const { return journal_; }

  private:
    void CloseWindow();

    fleet::Fleet& fleet_;
    RecorderConfig config_;
    Journal journal_;
    HashAccumulator rpc_hash_;
    HashAccumulator kernel_hash_;
    std::uint64_t window_index_ = 0;
    telemetry::SpanId span_watermark_ = 1;
    sim::TaskHandle task_;
};

}  // namespace dynamo::replay

#endif  // DYNAMO_REPLAY_RECORDER_H_
