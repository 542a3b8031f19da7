#include "replayer/replayer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "stream/stream_file.h"

namespace graphtides {
namespace {

std::vector<Event> VertexStream(size_t n) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  return events;
}

TEST(ReplayerTest, DeliversAllEventsInOrder) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  StreamReplayer replayer(options);
  std::vector<VertexId> seen;
  CallbackSink sink([&](const Event& e) {
    seen.push_back(e.vertex);
    return Status::OK();
  });
  auto stats = replayer.Replay(VertexStream(1000), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_delivered, 1000u);
  ASSERT_EQ(seen.size(), 1000u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ReplayerTest, MarkersLoggedNotDelivered) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  StreamReplayer replayer(options);
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 5, Event::Marker("HALFWAY"));
  events.push_back(Event::Marker("END"));
  size_t delivered = 0;
  CallbackSink sink([&](const Event& e) {
    EXPECT_NE(e.type, EventType::kMarker);
    ++delivered;
    return Status::OK();
  });
  auto stats = replayer.Replay(events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(delivered, 10u);
  EXPECT_EQ(stats->markers, 2u);
  ASSERT_EQ(stats->marker_log.size(), 2u);
  EXPECT_EQ(stats->marker_log[0].label, "HALFWAY");
  EXPECT_EQ(stats->marker_log[0].events_before, 5u);
  EXPECT_EQ(stats->marker_log[1].label, "END");
  EXPECT_EQ(stats->marker_log[1].events_before, 10u);
  EXPECT_LE(stats->marker_log[0].time, stats->marker_log[1].time);
}

TEST(ReplayerTest, AchievesTargetRateApproximately) {
  ReplayerOptions options;
  options.base_rate_eps = 20000.0;
  StreamReplayer replayer(options);
  NullSink sink;
  auto stats = replayer.Replay(VertexStream(4000), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->AchievedRateEps(), 20000.0, 3000.0);
}

TEST(ReplayerTest, PauseControlDelaysStream) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  StreamReplayer replayer(options);
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 5, Event::Pause(Duration::FromMillis(50)));
  NullSink sink;
  auto stats = replayer.Replay(events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->controls, 1u);
  EXPECT_GE(stats->Elapsed().millis(), 50);
}

TEST(ReplayerTest, SetRateControlChangesThroughput) {
  // 1000 events at 100k eps (10 ms), then SET_RATE 0.1 -> 100 more events
  // at 10k eps (10 ms). Without the control the run would take ~11 ms.
  ReplayerOptions options;
  options.base_rate_eps = 100000.0;
  StreamReplayer replayer(options);
  std::vector<Event> events = VertexStream(1000);
  events.push_back(Event::SetRate(0.1));
  for (VertexId v = 0; v < 100; ++v) {
    events.push_back(Event::AddVertex(10000 + v));
  }
  NullSink sink;
  auto stats = replayer.Replay(events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Elapsed().millis(), 18);
}

TEST(ReplayerTest, ControlsIgnoredWhenDisabled) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  options.honor_control_events = false;
  StreamReplayer replayer(options);
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 2, Event::Pause(Duration::FromSeconds(5.0)));
  NullSink sink;
  auto stats = replayer.Replay(events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->Elapsed().millis(), 1000);
  EXPECT_EQ(stats->controls, 1u);  // counted but not honored
}

TEST(ReplayerTest, SinkErrorAbortsRun) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  StreamReplayer replayer(options);
  size_t delivered = 0;
  CallbackSink sink([&](const Event&) -> Status {
    if (++delivered == 50) return Status::IoError("sink broke");
    return Status::OK();
  });
  auto stats = replayer.Replay(VertexStream(100000), &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError());
  EXPECT_EQ(delivered, 50u);
}

TEST(ReplayerTest, RateSeriesAccountsForAllEvents) {
  ReplayerOptions options;
  options.base_rate_eps = 100000.0;
  options.stats_bin = Duration::FromMillis(10);
  StreamReplayer replayer(options);
  NullSink sink;
  auto stats = replayer.Replay(VertexStream(5000), &sink);
  ASSERT_TRUE(stats.ok());
  size_t total = 0;
  for (const RateSample& sample : stats->rate_series) total += sample.events;
  EXPECT_EQ(total, 5000u);
  EXPECT_GE(stats->rate_series.size(), 4u);
}

TEST(ReplayerTest, ReplayFileStreamsFromDisk) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gt_replay_" + std::to_string(::getpid()) + ".gts"))
          .string();
  std::vector<Event> events = VertexStream(500);
  events.push_back(Event::Marker("EOF_MARK"));
  ASSERT_TRUE(WriteStreamFile(path, events).ok());

  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  StreamReplayer replayer(options);
  size_t delivered = 0;
  CallbackSink sink([&](const Event&) {
    ++delivered;
    return Status::OK();
  });
  auto stats = replayer.ReplayFile(path, &sink);
  std::filesystem::remove(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(delivered, 500u);
  EXPECT_EQ(stats->markers, 1u);
}

TEST(ReplayerTest, ReplayMissingFileFails) {
  StreamReplayer replayer(ReplayerOptions{});
  NullSink sink;
  auto stats = replayer.ReplayFile("/nonexistent/file.gts", &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError());
}

TEST(ReplayerTest, EmptyStreamFinishesCleanly) {
  StreamReplayer replayer(ReplayerOptions{});
  NullSink sink;
  auto stats = replayer.Replay({}, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_delivered, 0u);
}

TEST(ReplayerTest, QueueSmallerThanStreamStillDeliversAll) {
  ReplayerOptions options;
  options.base_rate_eps = 1e6;
  options.queue_capacity = 16;  // force reader/emitter handoff pressure
  StreamReplayer replayer(options);
  size_t delivered = 0;
  CallbackSink sink([&](const Event&) {
    ++delivered;
    return Status::OK();
  });
  auto stats = replayer.Replay(VertexStream(10000), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(delivered, 10000u);
}

// The send-side hold rule is shared with the sharded lanes: a paced run
// flushes the transport while it waits for its next slot once the oldest
// unflushed event is SendHold::kMaxHold overdue; an unpaced run never
// waits and never flushes early.
TEST(ReplayerTest, PacedRunFlushesIdleTransportWithinTheHoldBound) {
  class FlushCountingSink final : public EventSink {
   public:
    Status Deliver(const Event& event) override {
      seen.push_back(event.vertex);
      return Status::OK();
    }
    Status Flush() override {
      ++flushes;
      return Status::OK();
    }
    std::vector<VertexId> seen;
    size_t flushes = 0;
  };
  for (const double rate : {20000.0, 1e12}) {
    ReplayerOptions options;
    options.base_rate_eps = rate;
    StreamReplayer replayer(options);
    FlushCountingSink sink;
    auto stats = replayer.Replay(VertexStream(1000), &sink);
    ASSERT_TRUE(stats.ok()) << stats.status();
    ASSERT_EQ(sink.seen.size(), 1000u);
    for (size_t i = 0; i < sink.seen.size(); ++i) EXPECT_EQ(sink.seen[i], i);
    if (rate < 1e6) {
      // 50 ms of schedule: about one flush per millisecond, not per event.
      EXPECT_GT(sink.flushes, 0u);
      EXPECT_LT(sink.flushes, 500u);
    } else {
      EXPECT_EQ(sink.flushes, 0u);
    }
  }
}

TEST(ReplayerTest, FailingIdleFlushAbortsRun) {
  ReplayerOptions options;
  options.base_rate_eps = 20000.0;
  StreamReplayer replayer(options);
  class FlushFailingSink final : public EventSink {
   public:
    Status Deliver(const Event&) override { return Status::OK(); }
    Status Flush() override { return Status::IoError("flush refused"); }
  };
  FlushFailingSink sink;
  auto stats = replayer.Replay(VertexStream(1000), &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError()) << stats.status();
}

}  // namespace
}  // namespace graphtides
