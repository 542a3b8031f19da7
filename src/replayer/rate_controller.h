// RateController: paces event emission at a uniform, tunable rate (§5.1:
// "emitting stream events is handled by a dedicated thread that uses high
// precision timestamps and busy-waiting for timeliness").
#ifndef GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_
#define GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_

#include <cstdint>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/status.h"

namespace graphtides {

/// \brief Computes and enforces per-event emission deadlines.
///
/// The schedule is deadline-based rather than sleep-based: the next
/// deadline advances by exactly one interval per event, so transient delays
/// are caught up instead of accumulating drift. SET_RATE control events map
/// to SetFactor, PAUSE control events to Defer.
///
/// Deadlines are computed as anchor + k * interval with the interval held
/// in fractional nanoseconds, not by repeatedly adding a truncated integer
/// interval — per-event truncation would otherwise accumulate without bound
/// (e.g. a 3x factor at 1 kHz truncates 1/3 ns per event, several µs of
/// schedule drift over a 10k-event run). SetFactor/Defer re-anchor the
/// schedule at the previous deadline, so rate changes stay exact too.
class RateController {
 public:
  /// `base_rate_eps` is the initial rate in events per second (factor 1.0).
  RateController(double base_rate_eps, const Clock* clock);

  /// Changes the speed-up factor (1.0 = base rate).
  void SetFactor(double factor);
  double factor() const { return factor_; }
  double current_rate_eps() const { return base_rate_eps_ * factor_; }

  /// \brief Changes the base rate mid-run (capacity search): the new
  /// interval applies from the next emission, re-anchored like SetFactor
  /// so the fractional schedule stays exact.
  ///
  /// Unlike SetFactor (driven by in-stream SET_RATE controls, which arrive
  /// paced), Retarget is driven externally and can land while emission
  /// lags the schedule — deadlines in the past. Re-anchoring at the stale
  /// previous deadline would put the whole new-rate schedule in the past
  /// and release a catch-up burst at unbounded speed; Retarget therefore
  /// anchors at max(previous deadline, last observed time), so the new
  /// rate takes effect from "now" without a burst and without drifting
  /// the anchored-deadline spacing. The speed-up factor resets to 1.0, so
  /// a later SET_RATE control scales the new base.
  void Retarget(double rate_eps);

  /// Pushes the schedule into the future (PAUSE control event).
  void Defer(Duration pause);

  /// Blocks (busy-waits near the deadline) until the next emission slot,
  /// then advances the schedule. Returns the deadline that was enforced.
  ///
  /// Clock reads are amortized when emission lags the schedule: a
  /// previously observed clock value at/past the deadline proves the slot
  /// is open without reading again (the clock is monotone), so a
  /// saturated replay pays one clock read per elapsed wait, not per
  /// event.
  Timestamp WaitForNextSlot();

  /// \brief WaitForNextSlot with an idle hook: `on_idle(now)` runs once,
  /// only after a clock read (`now`) shows the slot is still in the
  /// future — the emitter is ahead of schedule and about to wait, so work
  /// done there (handing buffered events to the transport, SendHold)
  /// costs no emission time. Lagging and unpaced emission never reach the
  /// hook and pay nothing for it. The deadline is fixed before the hook
  /// runs: a slow hook makes this slot late, it never shifts the
  /// anchored schedule.
  template <typename IdleFn>
  Timestamp WaitForNextSlot(IdleFn&& on_idle);

  /// Non-blocking variant for virtual-time use: the deadline for the next
  /// event; the caller advances its own clock.
  Timestamp NextDeadline();

  /// Positive when emission lags behind the schedule.
  Duration Lag() const;

 private:
  double IntervalNanos() const { return 1e9 / (base_rate_eps_ * factor_); }

  double base_rate_eps_;
  double factor_ = 1.0;
  const Clock* clock_;
  /// Schedule origin: deadlines are anchor_ + round(k * interval).
  Timestamp anchor_;
  /// Events scheduled since the last re-anchor.
  int64_t events_since_anchor_ = 0;
  Timestamp prev_deadline_;
  Duration pending_defer_;
  /// Largest clock value observed so far; deadlines at/below it have
  /// provably passed without another clock read.
  Timestamp observed_now_;
  bool started_ = false;
};

template <typename IdleFn>
Timestamp RateController::WaitForNextSlot(IdleFn&& on_idle) {
  const Timestamp deadline = NextDeadline();
  // Lag fast path: time already observed at/past the deadline means the
  // slot is open — no clock read. When replay runs behind schedule this
  // releases whole stretches of slots off one observation (~35 ns per
  // steady_clock read saved per event on a typical VM).
  if (observed_now_ >= deadline) return deadline;
  // Two-stage wait: yield while far from the deadline, spin when close.
  // Yielding keeps the reader thread runnable on loaded machines; the final
  // busy-wait gives microsecond-precision release times.
  constexpr Duration kSpinWindow = Duration::FromMicros(50);
  bool idle_ran = false;
  while (true) {
    const Timestamp now = clock_->Now();
    observed_now_ = now;
    if (now >= deadline) break;
    if (!idle_ran) {
      idle_ran = true;
      on_idle(now);
      continue;  // the hook took time: re-read the clock
    }
    if (deadline - now > kSpinWindow) {
      std::this_thread::yield();
    }
    // else: pure busy-wait
  }
  return deadline;
}

/// \brief Bounds how long a paced emitter's already-due events wait in
/// send-side buffers — the lane's pending batch and the transport's
/// user-space buffer (TcpSink holds bytes until 16 KiB build up).
///
/// The emitter notes every event it leaves buffered (Held) and consults
/// the hold from RateController's idle hook (Release): when the oldest
/// event not yet pushed to the transport was due at least kMaxHold ago,
/// the emitter hands over what it holds and flushes. A saturated emitter
/// never waits, so its batches and transport buffers stay full; an idle
/// one flushes at most once per kMaxHold, whatever the rate. Both replay
/// engines apply this one rule.
class SendHold {
 public:
  /// Flushing on every idle wait would cost one delivery call per event;
  /// 1 ms keeps paced latency far below a batch's worth of slots at
  /// ordinary rates while adding at most 1000 flushes/s per lane.
  static constexpr Duration kMaxHold = Duration::FromMillis(1);

  /// Notes that the event due at `slot` is buffered, not yet flushed; only
  /// the oldest such event counts.
  void Held(Timestamp slot) {
    if (!holding_) {
      holding_ = true;
      oldest_ = slot;
    }
  }

  /// \brief Runs `release` — hand buffered events to the transport and
  /// flush it, returning its Status — when the oldest held event was due
  /// at least kMaxHold before `now`. The hold clears only when `release`
  /// succeeds; its error is returned for the emitter to fail on.
  template <typename ReleaseFn>
  Status Release(Timestamp now, ReleaseFn&& release) {
    if (!holding_ || now - oldest_ < kMaxHold) return Status::OK();
    Status status = std::forward<ReleaseFn>(release)();
    if (status.ok()) holding_ = false;
    return status;
  }

 private:
  bool holding_ = false;
  Timestamp oldest_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_
