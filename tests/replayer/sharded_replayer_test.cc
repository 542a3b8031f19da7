// Golden determinism for the sharded replay pipeline: replaying the same
// stream with --shards 1 and --shards N into per-shard capture sinks and
// merging the captures by global sequence number must reproduce the exact
// single-lane event order and identical marker epochs; each lane's output
// must be an order-preserving subsequence of the stream.
#include "replayer/sharded_replayer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replayer/replayer.h"
#include "stream/v2_format.h"

namespace graphtides {
namespace {

// A stream that exercises every routing rule: interleaved vertex and edge
// ops over a small entity set (so per-entity order is genuinely at risk),
// a marker every `marker_every` events, and a SET_RATE change mid-stream.
std::vector<Event> MixedStream(size_t graph_events, size_t marker_every) {
  std::vector<Event> events;
  events.reserve(graph_events + graph_events / marker_every + 2);
  size_t emitted = 0;
  uint64_t next_vertex = 0;
  while (emitted < graph_events) {
    const uint64_t v = next_vertex++;
    events.push_back(Event::AddVertex(v, "s" + std::to_string(v)));
    ++emitted;
    if (v >= 2 && emitted < graph_events) {
      events.push_back(Event::AddEdge(v, v / 2, "w" + std::to_string(v)));
      ++emitted;
    }
    if (v >= 4 && v % 3 == 0 && emitted < graph_events) {
      events.push_back(Event::UpdateVertex(v - 2, "u" + std::to_string(v)));
      ++emitted;
    }
    if (v >= 6 && v % 5 == 0 && emitted < graph_events) {
      events.push_back(Event::RemoveEdge(v - 2, (v - 2) / 2));
      ++emitted;
    }
    if (emitted % marker_every == 0) {
      events.push_back(Event::Marker("m" + std::to_string(emitted)));
    }
    if (emitted == graph_events / 2) {
      events.push_back(Event::SetRate(2.0));
    }
  }
  return events;
}

/// Captures (global sequence number, canonical line) pairs per shard.
class SequencedCaptureSink final : public EventSink {
 public:
  Status Deliver(const Event& event) override {
    return DeliverSequenced(event, 0);
  }
  Status DeliverSequenced(const Event& event, uint64_t seq) override {
    captured_.emplace_back(seq, event.ToCsvLine());
    return Status::OK();
  }

  const std::vector<std::pair<uint64_t, std::string>>& captured() const {
    return captured_;
  }

 private:
  std::vector<std::pair<uint64_t, std::string>> captured_;
};

struct ShardedRun {
  ShardedReplayStats stats;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> per_shard;
  /// All captures merged back into global sequence order.
  std::vector<std::pair<uint64_t, std::string>> merged;
};

ShardedRun RunSharded(const std::vector<Event>& events, size_t shards) {
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = 4e6;  // fast enough that pacing is a no-op
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  EXPECT_TRUE(stats.ok()) << stats.status();
  ShardedRun run;
  if (stats.ok()) run.stats = std::move(*stats);
  for (const auto& sink : sinks) {
    run.per_shard.push_back(sink->captured());
    run.merged.insert(run.merged.end(), sink->captured().begin(),
                      sink->captured().end());
  }
  std::sort(run.merged.begin(), run.merged.end());
  return run;
}

TEST(ShardOfEventTest, EdgeOpsFollowTheirSourceVertex) {
  for (uint64_t v = 0; v < 200; ++v) {
    const size_t vertex_shard =
        ShardOfEvent(EventType::kAddVertex, v, {}, 4);
    const size_t edge_shard =
        ShardOfEvent(EventType::kAddEdge, 0, {v, v + 7}, 4);
    EXPECT_EQ(edge_shard, vertex_shard) << "source vertex " << v;
    EXPECT_LT(vertex_shard, 4u);
  }
}

TEST(ShardOfEventTest, SingleShardAlwaysRoutesToLaneZero) {
  for (uint64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(ShardOfVertex(v, 1), 0u);
  }
}

TEST(ShardOfEventTest, HashSpreadsSequentialIdsAcrossLanes) {
  std::map<size_t, size_t> counts;
  const size_t shards = 4;
  for (uint64_t v = 0; v < 4000; ++v) ++counts[ShardOfVertex(v, shards)];
  ASSERT_EQ(counts.size(), shards);
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, 4000u / shards / 2) << "shard " << shard;
  }
}

TEST(ShardedReplayerTest, GoldenDeterminismAcrossShardCounts) {
  const std::vector<Event> events = MixedStream(4000, 500);
  const ShardedRun one = RunSharded(events, 1);
  const ShardedRun four = RunSharded(events, 4);

  // Merged by sequence number, the four-lane replay reproduces the
  // single-lane event order exactly.
  ASSERT_EQ(one.merged.size(), four.merged.size());
  EXPECT_EQ(one.merged, four.merged);

  // Sequence numbers are the contiguous global order 0..N-1.
  for (size_t i = 0; i < four.merged.size(); ++i) {
    ASSERT_EQ(four.merged[i].first, i);
  }

  // Identical marker epochs: same labels, same events-delivered-before, in
  // the same order.
  ASSERT_EQ(one.stats.aggregate.marker_log.size(),
            four.stats.aggregate.marker_log.size());
  for (size_t i = 0; i < one.stats.aggregate.marker_log.size(); ++i) {
    EXPECT_EQ(one.stats.aggregate.marker_log[i].label,
              four.stats.aggregate.marker_log[i].label);
    EXPECT_EQ(one.stats.aggregate.marker_log[i].events_before,
              four.stats.aggregate.marker_log[i].events_before);
  }
  EXPECT_EQ(one.stats.aggregate.events_delivered,
            four.stats.aggregate.events_delivered);
  EXPECT_EQ(four.stats.aggregate.markers, one.stats.aggregate.markers);
  EXPECT_EQ(four.stats.aggregate.controls, one.stats.aggregate.controls);
}

TEST(ShardedReplayerTest, MatchesSingleThreadedStreamReplayerOrder) {
  const std::vector<Event> events = MixedStream(2000, 500);
  std::vector<std::string> reference;
  CallbackSink reference_sink([&](const Event& e) {
    reference.push_back(e.ToCsvLine());
    return Status::OK();
  });
  ReplayerOptions reference_options;
  reference_options.base_rate_eps = 4e6;
  StreamReplayer reference_replayer(reference_options);
  ASSERT_TRUE(reference_replayer.Replay(events, &reference_sink).ok());

  const ShardedRun four = RunSharded(events, 4);
  ASSERT_EQ(four.merged.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(four.merged[i].second, reference[i]) << "position " << i;
  }
}

TEST(ShardedReplayerTest, LaneOutputsAreOrderPreservingSubsequences) {
  const std::vector<Event> events = MixedStream(3000, 1000);
  const ShardedRun four = RunSharded(events, 4);
  size_t total = 0;
  for (size_t s = 0; s < four.per_shard.size(); ++s) {
    const auto& lane = four.per_shard[s];
    total += lane.size();
    for (size_t i = 1; i < lane.size(); ++i) {
      ASSERT_LT(lane[i - 1].first, lane[i].first)
          << "lane " << s << " emitted out of stream order at " << i;
    }
  }
  EXPECT_EQ(total, four.stats.aggregate.events_delivered);
  // With the splitmix hash over thousands of entities, no lane may sit
  // empty — all four were genuinely exercised.
  for (size_t s = 0; s < four.per_shard.size(); ++s) {
    EXPECT_FALSE(four.per_shard[s].empty()) << "lane " << s;
  }
}

TEST(ShardedReplayerTest, ReplayFileMatchesInMemoryReplay) {
  const std::vector<Event> events = MixedStream(1500, 400);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("gt_sharded_" + std::to_string(::getpid()) + ".stream");
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    out << "# golden determinism fixture\n\n";
    for (const Event& e : events) out << e.ToCsvLine() << '\n';
  }

  ShardedReplayerOptions options;
  options.shards = 4;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < 4; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const Result<ShardedReplayStats> stats =
      replayer.ReplayFile(path.string(), sink_ptrs);
  std::filesystem::remove(path);
  ASSERT_TRUE(stats.ok()) << stats.status();

  std::vector<std::pair<uint64_t, std::string>> merged;
  for (const auto& sink : sinks) {
    merged.insert(merged.end(), sink->captured().begin(),
                  sink->captured().end());
  }
  std::sort(merged.begin(), merged.end());

  const ShardedRun in_memory = RunSharded(events, 4);
  EXPECT_EQ(merged, in_memory.merged);
  EXPECT_EQ(stats->aggregate.entries_consumed,
            in_memory.stats.aggregate.entries_consumed);
}

TEST(ShardedReplayerTest, StopAfterEventsStopsExactly) {
  const std::vector<Event> events = MixedStream(2000, 500);
  ShardedReplayerOptions options;
  options.shards = 4;
  options.total_rate_eps = 4e6;
  options.stop_after_events = 777;
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < 4; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->aggregate.stopped_early);
  EXPECT_EQ(stats->aggregate.events_delivered, 777u);
  size_t total = 0;
  for (const auto& sink : sinks) total += sink->captured().size();
  EXPECT_EQ(total, 777u);
}

TEST(ShardedReplayerTest, SinkFailurePropagatesWithoutHanging) {
  const std::vector<Event> events = MixedStream(2000, 500);
  ShardedReplayerOptions options;
  options.shards = 3;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  SequencedCaptureSink ok_a;
  SequencedCaptureSink ok_b;
  size_t delivered_to_bad = 0;
  CallbackSink bad([&](const Event&) {
    if (++delivered_to_bad > 50) return Status::IoError("injected failure");
    return Status::OK();
  });
  const std::vector<EventSink*> sink_ptrs = {&ok_a, &bad, &ok_b};
  const Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError()) << stats.status();
}

TEST(ShardedReplayerTest, RejectsSinkCountMismatch) {
  ShardedReplayerOptions options;
  options.shards = 2;
  ShardedReplayer replayer(options);
  SequencedCaptureSink only;
  const Result<ShardedReplayStats> stats =
      replayer.Replay({Event::AddVertex(1)}, {&only});
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

TEST(ShardedReplayerTest, ProgressReflectsDeliveries) {
  const std::vector<Event> events = MixedStream(1000, 500);
  ShardedReplayerOptions options;
  options.shards = 2;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  SequencedCaptureSink a;
  SequencedCaptureSink b;
  ASSERT_TRUE(replayer.Replay(events, {&a, &b}).ok());
  EXPECT_EQ(replayer.progress(), a.captured().size() + b.captured().size());
}

// ---------------------------------------------------------------------------
// Send-side hold. A paced lane that idles hands the staged part of its
// batch to the sink and flushes it once the oldest unflushed event is
// SendHold::kMaxHold overdue; a saturated lane never idles and keeps one
// DeliverSerialized call per full batch.
// ---------------------------------------------------------------------------

/// Byte-oriented capture: the serialized (pipe/TCP) path, with call counts.
class SerializedCaptureSink final : public EventSink {
 public:
  Status Deliver(const Event& event) override {
    bytes_ += event.ToCsvLine();
    bytes_ += '\n';
    return Status::OK();
  }
  bool SupportsSerialized() const override { return true; }
  Status DeliverSerialized(std::string_view lines, size_t count) override {
    bytes_.append(lines);
    ++deliver_calls_;
    events_ += count;
    return Status::OK();
  }
  Status Flush() override {
    ++flushes_;
    return Status::OK();
  }

  const std::string& bytes() const { return bytes_; }
  size_t deliver_calls() const { return deliver_calls_; }
  size_t events() const { return events_; }
  size_t flushes() const { return flushes_; }

 private:
  std::string bytes_;
  size_t deliver_calls_ = 0;
  size_t events_ = 0;
  size_t flushes_ = 0;
};

std::vector<std::unique_ptr<SerializedCaptureSink>> RunSerialized(
    const std::vector<Event>& events, size_t shards, double rate_eps) {
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = rate_eps;
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SerializedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    sinks.push_back(std::make_unique<SerializedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  EXPECT_TRUE(stats.ok()) << stats.status();
  if (stats.ok()) {
    size_t delivered = 0;
    for (const auto& sink : sinks) delivered += sink->events();
    // Partial deliveries are counted exactly once.
    EXPECT_EQ(stats->aggregate.events_delivered, delivered);
    EXPECT_EQ(replayer.progress(), delivered);
  }
  return sinks;
}

TEST(ShardedReplayerTest, PacedIdleFlushGoldenLaneBytesMatchUnpaced) {
  // 1500 graph events at 20k ev/s aggregate (40k after the SET_RATE): about
  // 65 ms per run with events 50-200 us apart per lane, so lanes idle
  // between slots and the 1 ms hold bound trips many times per run.
  const std::vector<Event> events = MixedStream(1500, 500);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const auto unpaced = RunSerialized(events, shards, 1e12);
    const auto paced = RunSerialized(events, shards, 20000.0);
    size_t flushes = 0;
    size_t calls = 0;
    size_t unpaced_calls = 0;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(paced[s]->bytes(), unpaced[s]->bytes())
          << shards << " shard(s), lane " << s;
      EXPECT_FALSE(paced[s]->bytes().empty()) << "lane " << s;
      flushes += paced[s]->flushes();
      calls += paced[s]->deliver_calls();
      unpaced_calls += unpaced[s]->deliver_calls();
    }
    // The idle flush fired, handing batches over in parts...
    EXPECT_GT(flushes, 0u) << shards << " shard(s)";
    EXPECT_GT(calls, unpaced_calls) << shards << " shard(s)";
    // ...bounded by the hold, not one call per event.
    EXPECT_LT(calls, 1500u / 2) << shards << " shard(s)";
  }
}

TEST(ShardedReplayerTest, SaturatedLanesDeliverOneCallPerFullBatch) {
  // Graph events only (markers and controls cut batches short at their
  // barriers), replayed at the unpaced benchmark rate: no lane ever waits,
  // so every lane makes exactly ceil(n / 256) delivery calls and never an
  // idle flush.
  std::vector<Event> events;
  for (uint64_t v = 0; v < 3000; ++v) {
    events.push_back(Event::AddVertex(v, "s" + std::to_string(v)));
    if (v >= 2) events.push_back(Event::AddEdge(v, v / 2));
  }
  const size_t batch = ShardedReplayerOptions{}.batch_events;
  ASSERT_EQ(batch, 256u);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const auto sinks = RunSerialized(events, shards, 1e12);
    size_t total = 0;
    for (size_t s = 0; s < shards; ++s) {
      const size_t n = sinks[s]->events();
      total += n;
      EXPECT_EQ(sinks[s]->deliver_calls(), (n + batch - 1) / batch)
          << shards << " shard(s), lane " << s << ", " << n << " events";
      EXPECT_EQ(sinks[s]->flushes(), 0u) << "lane " << s;
    }
    EXPECT_EQ(total, events.size());
  }
}

/// v2 wire capture: checks that every delivery call carries whole sealed
/// blocks holding exactly the call's event count.
class V2ChunkCheckingSink final : public EventSink {
 public:
  Status Deliver(const Event&) override {
    return Status::Internal("v2 lanes deliver serialized blocks");
  }
  bool SupportsSerialized() const override { return true; }
  Result<WireFormat> NegotiateWireFormat(WireFormat preferred) override {
    return preferred;
  }
  Status DeliverSerialized(std::string_view chunk, size_t count) override {
    ++calls_;
    size_t records = 0;
    while (!chunk.empty()) {
      if (chunk.size() < kV2BlockHeaderBytes) {
        return Status::ParseError("torn block header");
      }
      GT_ASSIGN_OR_RETURN(const V2BlockHeader header,
                          ParseV2BlockHeader(chunk.substr(0, kV2BlockHeaderBytes)));
      chunk.remove_prefix(kV2BlockHeaderBytes);
      if (chunk.size() < header.body_bytes()) {
        return Status::ParseError("torn block body");
      }
      GT_RETURN_NOT_OK(
          CheckV2BlockBody(header, chunk.substr(0, header.body_bytes())));
      chunk.remove_prefix(header.body_bytes());
      records += header.record_count;
    }
    if (records != count) {
      return Status::ParseError("call carries " + std::to_string(records) +
                                " sealed records for " +
                                std::to_string(count) + " events");
    }
    events_ += count;
    return Status::OK();
  }

  size_t calls() const { return calls_; }
  size_t events() const { return events_; }

 private:
  size_t calls_ = 0;
  size_t events_ = 0;
};

TEST(ShardedReplayerTest, PacedV2WireSealsABlockBeforeEachPartialDelivery) {
  const std::vector<Event> events = MixedStream(1500, 500);
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    ShardedReplayerOptions options;
    options.shards = shards;
    options.total_rate_eps = 20000.0;
    options.wire_format = WireFormat::kV2;
    ShardedReplayer replayer(options);
    std::vector<std::unique_ptr<V2ChunkCheckingSink>> sinks;
    std::vector<EventSink*> sink_ptrs;
    for (size_t s = 0; s < shards; ++s) {
      sinks.push_back(std::make_unique<V2ChunkCheckingSink>());
      sink_ptrs.push_back(sinks.back().get());
    }
    const Result<ShardedReplayStats> stats =
        replayer.Replay(events, sink_ptrs);
    ASSERT_TRUE(stats.ok()) << stats.status();
    size_t calls = 0;
    size_t delivered = 0;
    for (const auto& sink : sinks) {
      calls += sink->calls();
      delivered += sink->events();
    }
    EXPECT_EQ(delivered, 1500u);
    // Partial deliveries happened: more calls than batches and barriers.
    EXPECT_GT(calls, 1500u / 256 + 3 * shards) << shards << " shard(s)";
  }
}

/// Per-event capture (no serialized path) that counts transport flushes.
class FlushCountingSink final : public EventSink {
 public:
  Status Deliver(const Event& event) override {
    lines_.push_back(event.ToCsvLine());
    return Status::OK();
  }
  Status Flush() override {
    ++flushes_;
    return Status::OK();
  }

  const std::vector<std::string>& lines() const { return lines_; }
  size_t flushes() const { return flushes_; }

 private:
  std::vector<std::string> lines_;
  size_t flushes_ = 0;
};

TEST(ShardedReplayerTest, PacedDecoratedLanesFlushWhileIdle) {
  // Per-event (decorated) path: nothing to hand over early, only the
  // transport flush. Output and accounting stay exact.
  const std::vector<Event> events = MixedStream(600, 500);
  ShardedReplayerOptions options;
  options.shards = 2;
  options.total_rate_eps = 10000.0;
  ShardedReplayer replayer(options);
  FlushCountingSink a;
  FlushCountingSink b;
  const Result<ShardedReplayStats> stats = replayer.Replay(events, {&a, &b});
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(a.flushes() + b.flushes(), 0u);
  EXPECT_EQ(stats->aggregate.events_delivered, 600u);
  EXPECT_EQ(replayer.progress(), 600u);

  const ShardedRun golden = RunSharded(events, 2);
  const FlushCountingSink* lanes[] = {&a, &b};
  for (size_t s = 0; s < 2; ++s) {
    std::vector<std::string> want;
    for (const auto& [seq, line] : golden.per_shard[s]) want.push_back(line);
    EXPECT_EQ(lanes[s]->lines(), want) << "lane " << s;
  }
}

TEST(ShardedReplayerTest, FailingIdleFlushFailsTheLane) {
  const std::vector<Event> events = MixedStream(600, 500);
  ShardedReplayerOptions options;
  options.shards = 2;
  options.total_rate_eps = 10000.0;
  ShardedReplayer replayer(options);
  SerializedCaptureSink ok;
  class FlushFailingSink final : public EventSink {
   public:
    Status Deliver(const Event&) override { return Status::OK(); }
    bool SupportsSerialized() const override { return true; }
    Status DeliverSerialized(std::string_view, size_t) override {
      return Status::OK();
    }
    Status Flush() override { return Status::IoError("flush refused"); }
  };
  FlushFailingSink bad;
  const Result<ShardedReplayStats> stats = replayer.Replay(events, {&ok, &bad});
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError()) << stats.status();
  EXPECT_NE(stats.status().ToString().find("flush refused"), std::string::npos);
}

}  // namespace
}  // namespace graphtides
