#include "replayer/replayer.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fault_plan.h"
#include "replayer/spsc_queue.h"
#include "stream/stream_file.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"

namespace graphtides {

Result<ReplayStats> StreamReplayer::Replay(const std::vector<Event>& events,
                                           EventSink* sink,
                                           const ReplayCheckpoint* resume) {
  size_t index = 0;
  return Run(
      [&events, index]() mutable -> Result<std::optional<Event>> {
        if (index >= events.size()) return std::optional<Event>(std::nullopt);
        return std::optional<Event>(events[index++]);
      },
      sink, resume);
}

Result<ReplayStats> StreamReplayer::ReplayFile(const std::string& path,
                                               EventSink* sink,
                                               const ReplayCheckpoint* resume) {
  // Auto-detect by magic: v2 streams decode through the block reader,
  // anything else parses as CSV. Both sources feed the same Run(), so
  // replay semantics are format-independent.
  GT_ASSIGN_OR_RETURN(const StreamFormat format, DetectStreamFormat(path));
  if (format == StreamFormat::kV2) {
    auto reader = std::make_shared<V2StreamReader>();
    GT_RETURN_NOT_OK(reader->Open(path));
    return Run(
        [reader]() -> Result<std::optional<Event>> {
          GT_ASSIGN_OR_RETURN(const std::optional<EventView> view,
                              reader->Next());
          if (!view.has_value()) return std::optional<Event>(std::nullopt);
          return std::optional<Event>(view->Materialize());
        },
        sink, resume);
  }
  auto reader = std::make_shared<StreamFileReader>();
  GT_RETURN_NOT_OK(reader->Open(path));
  return Run([reader]() { return reader->Next(); }, sink, resume);
}

Result<ReplayStats> StreamReplayer::Run(const SourceFn& source,
                                        EventSink* sink,
                                        const ReplayCheckpoint* resume) {
  if (options_.checkpoint_every > 0 && options_.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every requires checkpoint_path");
  }
  const uint64_t skip_entries = resume ? resume->entries_consumed : 0;

  RunTelemetry* const telem =
      kTelemetryCompiled ? options_.telemetry : nullptr;
  const size_t tshard = options_.telemetry_shard;

  SpscQueue<Event> queue(options_.queue_capacity);
  std::atomic<bool> reader_done{false};
  std::atomic<bool> abort{false};
  Status reader_status;  // written by reader thread before reader_done

  std::thread reader([&] {
    // Resume: fast-forward over the entries a previous segment already
    // emitted. Every source entry counts (graph + marker + control);
    // blank/comment lines never reach the source interface.
    uint64_t to_skip = skip_entries;
    MonotonicClock read_clock;
    uint32_t read_tick = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      // Read-stage span, sampled 1-in-N: how long the source parse/pull
      // takes (RecordStage is internally locked, so the reader thread may
      // share the emitter's slot).
      const bool sample_read =
          telem != nullptr && ++read_tick % telem->sample_every() == 0;
      const Timestamp read_start =
          sample_read ? read_clock.Now() : Timestamp{};
      Result<std::optional<Event>> next = source();
      if (sample_read) {
        telem->RecordStage(tshard, ReplayStage::kRead,
                           read_clock.Now() - read_start);
      }
      if (!next.ok()) {
        reader_status = next.status();
        break;
      }
      if (!next->has_value()) {  // end of stream
        if (to_skip > 0) {
          reader_status = Status::InvalidArgument(
              "resume checkpoint lies beyond the end of the stream (" +
              std::to_string(to_skip) + " entries short)");
        }
        break;
      }
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      Event event = std::move(**next);
      while (!queue.TryPush(std::move(event))) {
        if (abort.load(std::memory_order_relaxed)) {
          reader_done.store(true, std::memory_order_release);
          return;
        }
        std::this_thread::yield();
      }
    }
    reader_done.store(true, std::memory_order_release);
  });

  MonotonicClock clock;
  RateController rate(options_.base_rate_eps, &clock);
  double rate_target = options_.base_rate_eps;
  ReplayStats stats;
  if (resume != nullptr) {
    stats.events_delivered = resume->events_delivered;
    stats.markers = resume->markers;
    stats.controls = resume->controls;
    if (options_.honor_control_events) rate.SetFactor(resume->rate_factor);
    if (options_.checkpoint_rng != nullptr) {
      options_.checkpoint_rng->RestoreState(resume->rng_state);
    }
  }
  // Resume baseline: a resumed run uses a fresh sink chain whose own
  // counters start at zero, so the checkpointed telemetry is added back in.
  const SinkTelemetry telemetry_base =
      resume != nullptr ? resume->telemetry : SinkTelemetry{};
  progress_.store(stats.events_delivered, std::memory_order_relaxed);
  uint64_t entries = skip_entries;
  const uint64_t stop_at = options_.stop_after_events > 0
                               ? stats.events_delivered +
                                     options_.stop_after_events
                               : 0;
  stats.started = clock.Now();

  Timestamp bin_start = stats.started;
  size_t bin_count = 0;
  auto roll_bins = [&](Timestamp now) {
    while (now - bin_start >= options_.stats_bin) {
      stats.rate_series.push_back({bin_start, bin_count});
      bin_start = bin_start + options_.stats_bin;
      bin_count = 0;
    }
  };

  auto current_telemetry = [&] {
    SinkTelemetry t = telemetry_base;
    t.Merge(sink->Telemetry());
    return t;
  };
  // Byte offset the sink chain had already flushed when this segment
  // resumed; the checkpoint records cumulative offsets across segments.
  const uint64_t sink_bytes_base =
      resume != nullptr && !resume->sink_bytes.empty() ? resume->sink_bytes[0]
                                                       : 0;
  const CheckpointStore store(
      {options_.checkpoint_path,
       std::max<size_t>(1, options_.checkpoint_generations)});
  Status checkpoint_status;
  auto write_checkpoint = [&]() -> bool {
    if (options_.checkpoint_path.empty()) return true;
    ReplayCheckpoint cp;
    cp.entries_consumed = entries;
    cp.events_delivered = stats.events_delivered;
    cp.markers = stats.markers;
    cp.controls = stats.controls;
    cp.rate_factor = rate.factor();
    if (options_.checkpoint_rng != nullptr) {
      cp.rng_state = options_.checkpoint_rng->SaveState();
    }
    cp.telemetry = current_telemetry();
    if (options_.record_sink_bytes) {
      // Flush before recording: a crash right after this checkpoint must
      // not be able to lose bytes the record counts as delivered.
      checkpoint_status = sink->Flush();
      if (!checkpoint_status.ok()) return false;
      cp.sink_bytes = {sink_bytes_base + sink->bytes_delivered()};
    }
    checkpoint_status = store.Save(cp);
    if (checkpoint_status.ok()) ++stats.checkpoints_written;
    return checkpoint_status.ok();
  };

  Status emit_status;
  // Paced runs flush the transport while waiting for the next slot once
  // the oldest unflushed event is SendHold::kMaxHold overdue (the rule the
  // sharded lanes share); a failing flush ends the run like a failed
  // delivery.
  SendHold hold;
  auto on_idle = [&](Timestamp now) {
    emit_status = hold.Release(now, [&] { return sink->Flush(); });
  };
  bool cancelled = false;
  bool stopped = false;
  while (true) {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      cancelled = true;
      break;
    }
    std::optional<Event> popped = queue.TryPop();
    if (!popped.has_value()) {
      if (reader_done.load(std::memory_order_acquire)) {
        // Drain anything pushed between the failed pop and the flag read.
        popped = queue.TryPop();
        if (!popped.has_value()) break;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    const Event& event = *popped;
    ++entries;

    if (IsControl(event.type)) {
      ++stats.controls;
      if (options_.honor_control_events) {
        if (event.type == EventType::kSetRate) {
          rate.SetFactor(event.rate_factor);
        } else {
          rate.Defer(event.pause);
        }
      }
      continue;
    }
    if (event.type == EventType::kMarker) {
      ++stats.markers;
      const Timestamp now = clock.Now();
      stats.marker_log.push_back({event.payload, now, stats.events_delivered});
      if (telem != nullptr) telem->markers().MarkerSent(event.payload, now);
      continue;
    }

    if (options_.rate_target_eps != nullptr) {
      const double target =
          options_.rate_target_eps->load(std::memory_order_relaxed);
      if (target > 0.0 && target != rate_target) {
        rate.Retarget(target);
        rate_target = target;
      }
    }

    // Sampled per-stage spans: the decision is made once per event, then
    // every stage of that event is timed (throttle -> deliver -> ack).
    const bool sampled = telem != nullptr && telem->ShouldSample(tshard);
    const Timestamp span_start = sampled ? clock.Now() : Timestamp{};
    const Timestamp slot = rate.WaitForNextSlot(on_idle);
    if (!emit_status.ok()) break;
    Timestamp deliver_start;
    if (sampled) {
      deliver_start = clock.Now();
      telem->RecordStage(tshard, ReplayStage::kThrottle,
                         deliver_start - span_start);
    }
    emit_status = sink->Deliver(event);
    Timestamp ack_start;
    if (sampled) {
      ack_start = clock.Now();
      telem->RecordStage(tshard, ReplayStage::kDeliver,
                         ack_start - deliver_start);
    }
    if (!emit_status.ok()) {
      break;
    }
    // Crash window: the sink acknowledged the event, the accounting has
    // not seen it yet. A resume must not re-deliver it past a flushed
    // checkpoint (resume truncation handles the unflushed tail).
    FaultPlan::Global().Hit(kCrashPostDelivery);
    hold.Held(slot);
    ++stats.events_delivered;
    progress_.store(stats.events_delivered, std::memory_order_relaxed);
    stats.lag.Record(clock.Now() - slot);
    roll_bins(slot);
    ++bin_count;
    if (telem != nullptr) {
      telem->AddDelivered(tshard, 1);
      if (sampled) {
        telem->UpdateDeliveryCounters(tshard,
                                      ToDeliveryCounters(current_telemetry()));
        telem->RecordStage(tshard, ReplayStage::kAck, clock.Now() - ack_start);
      }
    }
    if (options_.checkpoint_every > 0 &&
        stats.events_delivered % options_.checkpoint_every == 0 &&
        !write_checkpoint()) {
      break;
    }
    if (stop_at != 0 && stats.events_delivered >= stop_at) {
      stopped = true;
      break;
    }
  }

  abort.store(true, std::memory_order_relaxed);
  reader.join();
  stats.finished = clock.Now();
  if (bin_count > 0) stats.rate_series.push_back({bin_start, bin_count});
  stats.entries_consumed = entries;

  if (cancelled || stopped) {
    // Clean abort: flush the sink so every delivered event is durable,
    // then record the exact abort point — the resumed segment starts
    // where this one verifiably ended (exactly-once across the boundary).
    const Status finish_status = sink->Finish();
    stats.telemetry = current_telemetry();
    if (telem != nullptr) {
      telem->UpdateDeliveryCounters(tshard,
                                    ToDeliveryCounters(stats.telemetry));
    }
    write_checkpoint();
    stats.stopped_early = true;
    if (cancelled) {
      const std::string reason = options_.cancel->reason();
      return Status::Cancelled(reason.empty() ? "replay cancelled" : reason);
    }
    GT_RETURN_NOT_OK(checkpoint_status.WithContext("final checkpoint"));
    GT_RETURN_NOT_OK(finish_status.WithContext("sink finish"));
    return stats;
  }

  if (!emit_status.ok()) return emit_status.WithContext("sink delivery");
  if (!checkpoint_status.ok()) {
    return checkpoint_status.WithContext("periodic checkpoint");
  }
  if (!reader_status.ok()) return reader_status.WithContext("stream source");
  GT_RETURN_NOT_OK(sink->Finish());
  stats.telemetry = current_telemetry();
  if (telem != nullptr) {
    telem->UpdateDeliveryCounters(tshard, ToDeliveryCounters(stats.telemetry));
  }
  if (options_.checkpoint_every > 0 && !write_checkpoint()) {
    return checkpoint_status.WithContext("final checkpoint");
  }
  return stats;
}

}  // namespace graphtides
