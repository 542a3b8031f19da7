#include "replayer/rate_controller.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace graphtides {
namespace {

// NextDeadline against a virtual clock exercises the scheduling math
// without wall-clock flakiness.
TEST(RateControllerTest, DeadlinesUniformAtBaseRate) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  const Timestamp first = rate.NextDeadline();
  EXPECT_EQ(first.nanos(), 0);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(rate.NextDeadline().nanos(), i * 1000000);
  }
}

TEST(RateControllerTest, FactorScalesInterval) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t=0
  rate.SetFactor(2.0);  // 0.5 ms interval
  EXPECT_EQ(rate.NextDeadline().nanos(), 500000);
  EXPECT_EQ(rate.NextDeadline().nanos(), 1000000);
  rate.SetFactor(0.5);  // 2 ms interval
  EXPECT_EQ(rate.NextDeadline().nanos(), 3000000);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 500.0);
}

TEST(RateControllerTest, InvalidFactorIgnored) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.SetFactor(0.0);
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
  rate.SetFactor(-2.0);
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
}

TEST(RateControllerTest, DeferPushesSchedule) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // 0; next = 1ms
  rate.Defer(Duration::FromMillis(20));
  EXPECT_EQ(rate.NextDeadline().nanos(), 21000000);
}

TEST(RateControllerTest, DeferBeforeStartAnchorsToNow) {
  VirtualClock clock;
  clock.Advance(Duration::FromMillis(5));
  RateController rate(1000.0, &clock);
  rate.Defer(Duration::FromMillis(10));
  EXPECT_EQ(rate.NextDeadline().nanos(), 15000000);
}

TEST(RateControllerTest, LagMeasuredAgainstSchedule) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  EXPECT_EQ(rate.Lag(), Duration::Zero());
  rate.NextDeadline();  // next deadline = 1 ms
  clock.Advance(Duration::FromMillis(5));
  EXPECT_EQ(rate.Lag().millis(), 4);
}

// Drift audit: with a fractional interval (1e9 / rate not an integer
// nanosecond count), the schedule must stay anchored to k * interval
// instead of accumulating a per-event truncation error. Repeatedly adding
// a truncated integer interval would drift by ~1/3 ns per event here —
// several microseconds over the run — while the anchored schedule stays
// within rounding (±0.5 ns) of the ideal for any k.
TEST(RateControllerTest, NoCumulativeDriftOnFractionalIntervals) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();      // t = 0 anchors the schedule
  rate.SetFactor(3.0);      // 333333.33... ns interval
  const int events = 10000;
  Timestamp last;
  for (int i = 0; i < events; ++i) last = rate.NextDeadline();
  const double ideal_nanos = events * (1e9 / 3000.0);
  EXPECT_NEAR(static_cast<double>(last.nanos()), ideal_nanos, 1.0)
      << "cumulative drift " << (ideal_nanos - last.nanos()) << " ns";
}

TEST(RateControllerTest, NoCumulativeDriftAtHighRate) {
  // 3 MHz schedule: a 333.33 ns interval truncated to 333 ns would lose
  // 33 us over 100k events; the anchored schedule must not.
  VirtualClock clock;
  RateController rate(3.0e6, &clock);
  const int events = 100000;
  Timestamp last;
  for (int i = 0; i < events; ++i) last = rate.NextDeadline();
  const double ideal_nanos = (events - 1) * (1e9 / 3.0e6);
  EXPECT_NEAR(static_cast<double>(last.nanos()), ideal_nanos, 1.0)
      << "cumulative drift " << (ideal_nanos - last.nanos()) << " ns";
}

TEST(RateControllerTest, FactorChangesKeepScheduleExact) {
  // Re-anchoring at SetFactor must not inherit drift from the previous
  // segment nor introduce a discontinuity beyond rounding.
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  Timestamp last;
  double ideal = 0.0;
  const double factors[] = {3.0, 7.0, 1.0, 0.3};
  for (const double factor : factors) {
    rate.SetFactor(factor);
    for (int i = 0; i < 1000; ++i) last = rate.NextDeadline();
    ideal += 1000 * (1e9 / (1000.0 * factor));
    EXPECT_NEAR(static_cast<double>(last.nanos()), ideal, 2.0)
        << "after factor " << factor;
    // Re-sync the ideal to the rounded actual so per-segment rounding
    // (sub-ns) does not accumulate into the comparison itself.
    ideal = static_cast<double>(last.nanos());
  }
}

TEST(RateControllerTest, WallClockWaitHitsTargetRate) {
  MonotonicClock clock;
  RateController rate(20000.0, &clock);  // 50 us interval
  const Timestamp start = clock.Now();
  const int events = 2000;
  for (int i = 0; i < events; ++i) rate.WaitForNextSlot();
  const double elapsed = (clock.Now() - start).seconds();
  const double achieved = events / elapsed;
  // Within 15% of the 20k target on a loaded CI machine.
  EXPECT_NEAR(achieved, 20000.0, 3000.0);
}

TEST(RateControllerTest, WaitNeverReturnsEarly) {
  MonotonicClock clock;
  RateController rate(50000.0, &clock);
  for (int i = 0; i < 100; ++i) {
    const Timestamp deadline = rate.WaitForNextSlot();
    EXPECT_GE(clock.Now(), deadline);
  }
}

// ---------------------------------------------------------------------------
// Clock-jump properties. The schedule is anchor + k*interval, consulted
// against the clock only inside the wait loop — so a clock that leaps
// forward must cause bounded catch-up (not drift), and one that leaps
// backward must cause a longer wait (never a livelock, never a deadline
// that recedes, never a "negative sleep" where the controller tries to
// schedule into the past).
// ---------------------------------------------------------------------------

// A settable clock for jump tests. Each Now() also ticks time forward a
// little, the way a real clock advances while the wait loop polls it —
// without the tick, WaitForNextSlot against a frozen clock would spin
// forever after a backward jump.
class JumpClock final : public Clock {
 public:
  explicit JumpClock(Duration tick) : tick_(tick) {}

  Timestamp Now() const override {
    now_ = now_ + tick_;
    ++reads_;
    return now_;
  }

  /// Moves the clock by `d`, forward or backward.
  void Jump(Duration d) { now_ = now_ + d; }
  uint64_t reads() const { return reads_; }

 private:
  Duration tick_;
  mutable Timestamp now_;
  mutable uint64_t reads_ = 0;
};

TEST(RateControllerTest, ForwardClockJumpCatchesUpWithoutScheduleDrift) {
  JumpClock clock(Duration::FromNanos(200));
  RateController rate(100000.0, &clock);  // 10 us interval
  const Timestamp first = rate.WaitForNextSlot();

  Timestamp prev = first;
  for (int i = 1; i <= 200; ++i) {
    if (i == 50) clock.Jump(Duration::FromSeconds(5.0));
    const Timestamp deadline = rate.WaitForNextSlot();
    // Deadlines never recede, and the slot spacing stays exactly one
    // interval: the jump makes the controller late, not the schedule fast.
    EXPECT_GE(deadline, prev) << "slot " << i;
    prev = deadline;
    EXPECT_NEAR(static_cast<double>((deadline - first).nanos()),
                i * 10000.0, 1.0)
        << "slot " << i;
  }

  // Catch-up after the jump is immediate: a deadline already in the past
  // needs exactly one clock read to release, no sleeping toward it.
  const uint64_t before = clock.reads();
  rate.WaitForNextSlot();
  EXPECT_LE(clock.reads() - before, 2u);
}

TEST(RateControllerTest, BackwardClockJumpWaitsLongerButNeverLivelocks) {
  JumpClock clock(Duration::FromMicros(1));
  RateController rate(1000.0, &clock);  // 1 ms interval
  const Timestamp first = rate.WaitForNextSlot();
  rate.WaitForNextSlot();

  // The clock leaps 5 ms into the past; the next deadline is now ~7 ms of
  // clock-reads away. The wait must cover the gap by polling forward —
  // if the controller instead recomputed the schedule from Now() or
  // attempted a negative sleep, the spacing or ordering would break.
  clock.Jump(Duration::FromMillis(-5));
  const Timestamp third = rate.WaitForNextSlot();
  EXPECT_NEAR(static_cast<double>((third - first).nanos()), 2.0e6, 1.0);

  Timestamp prev = third;
  for (int i = 3; i <= 10; ++i) {
    const Timestamp deadline = rate.WaitForNextSlot();
    EXPECT_GE(deadline, prev);
    EXPECT_GE(clock.Now(), deadline);  // released at/after its slot
    prev = deadline;
  }
  // Slots 0..10 released: ten intervals separate the last from the first.
  EXPECT_NEAR(static_cast<double>((prev - first).nanos()), 10.0e6, 1.0);
}

// ---------------------------------------------------------------------------
// Retarget properties (capacity search drives this live). A retarget must
// keep the anchored-deadline schedule: ahead-of-schedule it splices the
// new interval seamlessly at the previous deadline; behind schedule it
// resumes from the last observed time — never a burst of past deadlines.
// ---------------------------------------------------------------------------

TEST(RateControllerTest, RetargetOnScheduleSplicesSeamlessly) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  rate.NextDeadline();                  // t = 0
  rate.NextDeadline();                  // 1 ms
  const Timestamp prev = rate.NextDeadline();  // 2 ms
  rate.Retarget(2000.0);                       // 0.5 ms interval
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 2000.0);
  // New-rate deadlines continue from the previous deadline, exactly like
  // SetFactor: no gap, no overlap.
  EXPECT_EQ(rate.NextDeadline().nanos(), prev.nanos() + 500000);
  EXPECT_EQ(rate.NextDeadline().nanos(), prev.nanos() + 1000000);
}

TEST(RateControllerTest, RetargetResetsControlFactor) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();
  rate.SetFactor(4.0);
  rate.Retarget(2000.0);
  // The factor scales the NEW base, not a leftover of the old one.
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 2000.0);
}

TEST(RateControllerTest, RetargetWhileLaggingDoesNotBurstCatchUp) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  rate.WaitForNextSlot();               // t = 0, schedule anchored

  // Emission stalls: the clock runs 10 ms ahead of the schedule. The next
  // wait observes now = 10 ms against a 1 ms deadline (released late).
  clock.Advance(Duration::FromMillis(10));
  rate.WaitForNextSlot();

  // Retargeting mid-lag must resume from the observed now, not from the
  // stale 1 ms deadline — anchoring there would put the whole new-rate
  // schedule in the past and release an unpaced catch-up burst.
  rate.Retarget(500.0);  // 2 ms interval
  const Timestamp now = clock.Now();
  const Timestamp first = rate.NextDeadline();
  EXPECT_GE(first, now);  // strictly in the future: no burst
  EXPECT_EQ(first.nanos(), now.nanos() + 2000000);
  EXPECT_EQ(rate.NextDeadline().nanos(), now.nanos() + 4000000);
}

TEST(RateControllerTest, RetargetInvalidRateIgnored) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  rate.Retarget(0.0);
  rate.Retarget(-100.0);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 1000.0);
  EXPECT_EQ(rate.NextDeadline().nanos(), 1000000);  // schedule untouched
}

TEST(RateControllerTest, RetargetSequencePreservesExactSchedule) {
  // Drift audit across many retargets while on schedule: every segment
  // stays anchor + k * interval; truncation errors never accumulate.
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  Timestamp last;
  double ideal = 0.0;
  const double rates[] = {3000.0, 7000.0, 1000.0, 300.0};
  for (const double r : rates) {
    rate.Retarget(r);
    for (int i = 0; i < 1000; ++i) last = rate.NextDeadline();
    ideal += 1000 * (1e9 / r);
    EXPECT_NEAR(static_cast<double>(last.nanos()), ideal, 2.0)
        << "after retarget to " << r;
    ideal = static_cast<double>(last.nanos());
  }
}

TEST(RateControllerTest, RandomJumpSequencePreservesExactScheduleSpan) {
  // Property sweep: whatever sequence of forward/backward leaps the clock
  // takes between slots, the emitted schedule stays anchor + k*interval —
  // monotone, no cumulative drift, span independent of every jump.
  Rng rng(42);
  VirtualClock clock;
  clock.Advance(Duration::FromSeconds(1.0));
  RateController rate(250000.0, &clock);  // 4 us interval
  const Timestamp first = rate.NextDeadline();

  Timestamp prev = first;
  for (int i = 1; i <= 5000; ++i) {
    // Jumps up to ±1 ms between slots (250x the interval).
    const int64_t jump_nanos =
        static_cast<int64_t>(rng.NextU64() % 2000001) - 1000000;
    clock.Advance(Duration::FromNanos(jump_nanos));
    const Timestamp deadline = rate.NextDeadline();
    ASSERT_GE(deadline, prev) << "slot " << i;
    prev = deadline;
  }
  EXPECT_NEAR(static_cast<double>((prev - first).nanos()), 5000 * 4000.0, 1.0);
}

// ---------------------------------------------------------------------------
// Idle hook: runs once per wait whose slot a clock read shows is still in
// the future, never on the lagging / unpaced fast paths, and never moves
// the anchored schedule however long it takes.
// ---------------------------------------------------------------------------

TEST(RateControllerTest, IdleHookRunsOncePerFutureSlot) {
  JumpClock clock(Duration::FromMicros(1));
  RateController rate(1000.0, &clock);  // 1 ms interval, ~1000 reads/wait
  int calls = 0;
  Timestamp hook_now;
  auto hook = [&](Timestamp now) {
    ++calls;
    hook_now = now;
  };
  // The first slot is anchored at "now": open, no wait, no hook.
  rate.WaitForNextSlot(hook);
  EXPECT_EQ(calls, 0);
  for (int i = 1; i <= 20; ++i) {
    const Timestamp deadline = rate.WaitForNextSlot(hook);
    EXPECT_EQ(calls, i) << "slot " << i;
    EXPECT_LT(hook_now, deadline) << "slot " << i;
  }
}

TEST(RateControllerTest, IdleHookNeverRunsWhenSlotIsOpen) {
  int calls = 0;
  auto hook = [&](Timestamp) { ++calls; };

  // Lagging: the clock leaps 1 s past the schedule; the next 500 slots
  // are all in the past and release without ever reaching the hook.
  JumpClock lagging(Duration::FromMicros(1));
  RateController paced(1000.0, &lagging);
  paced.WaitForNextSlot(hook);
  lagging.Jump(Duration::FromSeconds(1.0));
  for (int i = 0; i < 500; ++i) paced.WaitForNextSlot(hook);
  EXPECT_EQ(calls, 0);

  // Unpaced (1e12 ev/s, the saturated benchmark rate): every slot is open.
  JumpClock fast(Duration::FromNanos(1));
  RateController unpaced(1e12, &fast);
  for (int i = 0; i < 100000; ++i) unpaced.WaitForNextSlot(hook);
  EXPECT_EQ(calls, 0);
  // And the fast path keeps its cost: far fewer clock reads than slots.
  EXPECT_LT(fast.reads(), 1000u);
}

TEST(RateControllerTest, SlowIdleHookDoesNotShiftAnchoredSchedule) {
  JumpClock clock(Duration::FromMicros(1));
  RateController rate(1000.0, &clock);  // 1 ms interval
  const Timestamp first = rate.WaitForNextSlot();
  int calls = 0;
  for (int i = 1; i <= 40; ++i) {
    // Alternate a hook that eats most of the interval with one that
    // overshoots it by 2.5 slots: late slots release late, never re-anchor.
    const Duration cost = i % 5 == 0 ? Duration::FromMicros(2500)
                                     : Duration::FromMicros(700);
    const Timestamp deadline = rate.WaitForNextSlot([&](Timestamp) {
      ++calls;
      clock.Jump(cost);
    });
    EXPECT_EQ((deadline - first).nanos(), i * 1000000LL) << "slot " << i;
    EXPECT_GE(clock.Now(), deadline) << "slot " << i;
  }
  // The overshooting hooks left the next slots in the past: those waits
  // skipped the hook entirely.
  EXPECT_GT(calls, 0);
  EXPECT_LT(calls, 40);
}

TEST(SendHoldTest, ReleasesOnlyOnceTheOldestHeldEventIsOverdue) {
  SendHold hold;
  int releases = 0;
  auto release = [&] {
    ++releases;
    return Status::OK();
  };
  // Nothing held: never releases.
  EXPECT_TRUE(hold.Release(Timestamp::FromSeconds(10.0), release).ok());
  EXPECT_EQ(releases, 0);

  const Timestamp t0 = Timestamp::FromMillis(100);
  hold.Held(t0);
  hold.Held(t0 + Duration::FromMicros(900));  // younger: does not reset
  EXPECT_TRUE(hold.Release(t0 + SendHold::kMaxHold - Duration::FromNanos(1),
                           release)
                  .ok());
  EXPECT_EQ(releases, 0);
  EXPECT_TRUE(hold.Release(t0 + SendHold::kMaxHold, release).ok());
  EXPECT_EQ(releases, 1);
  // Released: nothing held until the next event.
  EXPECT_TRUE(hold.Release(t0 + SendHold::kMaxHold * 5, release).ok());
  EXPECT_EQ(releases, 1);
}

TEST(SendHoldTest, FailedReleaseKeepsTheHoldAndReturnsTheError) {
  SendHold hold;
  const Timestamp t0 = Timestamp::FromMillis(5);
  hold.Held(t0);
  const Timestamp late = t0 + SendHold::kMaxHold * 2;
  const Status failed =
      hold.Release(late, [] { return Status::IoError("socket gone"); });
  EXPECT_TRUE(failed.IsIoError());
  int releases = 0;
  EXPECT_TRUE(hold.Release(late, [&] {
                    ++releases;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(releases, 1);
}

}  // namespace
}  // namespace graphtides
