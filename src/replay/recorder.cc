#include "replay/recorder.h"

#include <utility>

#include "fleet/spec_parser.h"
#include "telemetry/trace.h"

namespace dynamo::replay {

Recorder::Recorder(fleet::Fleet& fleet, RecorderConfig config)
    : fleet_(fleet), config_(std::move(config))
{
    journal_.spec_text = fleet::SerializeFleetSpec(fleet_.spec());
    journal_.scenario = config_.scenario;
    journal_.cycle_period = config_.cycle_period;
    journal_.checkpoint_every = config_.checkpoint_every;
    journal_.invariants_checked = config_.invariants_checked;

    if (telemetry::TraceLog* traces = fleet_.trace_log()) {
        span_watermark_ = traces->next_id();
    }

    fleet_.transport().set_call_digest(&rpc_hash_);
    fleet_.sim().set_event_digest(&kernel_hash_);
    fleet_.set_reconfig_observer([this](std::uint64_t epoch, SimTime time,
                                        const std::string& description) {
        journal_.reconfigs.push_back(ReconfigRecord{epoch, time, description});
    });

    // Phase the window close at the end of each period; the first
    // window covers (start, start + period].
    task_ = fleet_.sim().SchedulePeriodic(config_.cycle_period,
                                          [this]() { CloseWindow(); });
}

Recorder::~Recorder()
{
    task_.Cancel();
    fleet_.transport().set_call_digest(nullptr);
    fleet_.sim().set_event_digest(nullptr);
    fleet_.set_reconfig_observer({});
}

void
Recorder::RecordFault(SimTime time, const std::string& description)
{
    journal_.faults.push_back(FaultRecord{time, description});
}

void
Recorder::CloseWindow()
{
    CycleRecord rec;
    rec.cycle = window_index_;
    rec.time = fleet_.sim().Now();
    rec.rpc_hash = rpc_hash_.value();
    rec.kernel_hash = kernel_hash_.value();
    rpc_hash_.Reset();
    kernel_hash_.Reset();

    if (telemetry::TraceLog* traces = fleet_.trace_log()) {
        // Drain spans appended since the last window by id watermark.
        // Eviction can outrun a slow cadence; count what was lost so
        // comparisons know the window is incomplete rather than empty.
        const telemetry::SpanId first = traces->first_id();
        if (first > span_watermark_ && traces->evicted() > 0) {
            rec.spans_missed = first - span_watermark_;
            span_watermark_ = first;
        }
        for (telemetry::SpanId id = span_watermark_; id < traces->next_id();
             ++id) {
            if (const telemetry::TraceSpan* span = traces->Find(id)) {
                rec.spans.push_back(*span);
            }
        }
        span_watermark_ = traces->next_id();
    }
    journal_.cycles.push_back(std::move(rec));

    if (config_.checkpoint_every > 0 &&
        (window_index_ + 1) % config_.checkpoint_every == 0) {
        Archive state;
        fleet_.Snapshot(state);
        CheckpointRecord cp;
        cp.cycle = window_index_;
        cp.time = fleet_.sim().Now();
        cp.digest = state.digest();
        cp.state = state.TakeBytes();
        journal_.checkpoints.push_back(std::move(cp));
    }
    ++window_index_;
}

}  // namespace dynamo::replay
