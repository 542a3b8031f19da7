#include "replayer/resilient_sink.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace graphtides {

Result<DegradationPolicy> ParseDegradationPolicy(const std::string& name) {
  if (name == "fail" || name == "failfast") return DegradationPolicy::kFailFast;
  if (name == "drop") return DegradationPolicy::kDropAndCount;
  if (name == "block") return DegradationPolicy::kBlock;
  return Status::InvalidArgument("unknown degradation policy: " + name +
                                 " (expected fail|drop|block)");
}

std::string_view DegradationPolicyName(DegradationPolicy policy) {
  switch (policy) {
    case DegradationPolicy::kFailFast:
      return "fail";
    case DegradationPolicy::kDropAndCount:
      return "drop";
    case DegradationPolicy::kBlock:
      return "block";
  }
  return "unknown";
}

ResilientSink::ResilientSink(EventSink* inner, ResilientSinkOptions options,
                             ReconnectFn reconnect)
    : inner_(inner),
      options_(options),
      reconnect_(std::move(reconnect)),
      clock_(&default_clock_),
      jitter_rng_(options.jitter_seed) {
  sleep_ = [](Duration d) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d.nanos()));
  };
}

bool ResilientSink::Retryable(const Status& status) const {
  if (status.IsUnavailable() || status.IsIoError() || status.IsTimeout() ||
      status.IsCapacityExceeded()) {
    return true;
  }
  // A disconnected transport reports PreconditionFailed; retryable only if
  // we can actually reconnect it.
  return status.IsPreconditionFailed() && reconnect_ != nullptr;
}

Duration ResilientSink::BackoffFor(uint32_t retry) {
  const double max_ns = static_cast<double>(options_.max_backoff.nanos());
  double ns = static_cast<double>(options_.initial_backoff.nanos());
  for (uint32_t i = 0; i < retry && ns < max_ns; ++i) {
    ns *= options_.backoff_multiplier;
  }
  ns = std::min(ns, max_ns);
  if (options_.jitter > 0.0) {
    ns *= 1.0 + options_.jitter * (2.0 * jitter_rng_.NextDouble() - 1.0);
  }
  return Duration::FromNanos(std::max<int64_t>(0, static_cast<int64_t>(ns)));
}

template <typename AttemptFn>
Status ResilientSink::Retry(AttemptFn&& attempt, bool flush) {
  const Timestamp start = clock_->Now();
  uint32_t retry = 0;
  while (true) {
    if (!flush) ++stats_.attempts;
    Status last = attempt();
    if (last.ok()) return last;
    if (!Retryable(last)) {
      ++stats_.giveups;
      return last;
    }
    const bool timed_out =
        options_.deliver_timeout > Duration::Zero() &&
        clock_->Now() - start >= options_.deliver_timeout;
    const bool budget_left = options_.policy == DegradationPolicy::kBlock ||
                             retry < options_.retry_budget;
    if (timed_out || !budget_left) {
      if (options_.policy == DegradationPolicy::kDropAndCount) {
        if (!flush) ++stats_.drops;
        return Status::OK();
      }
      ++stats_.giveups;
      if (timed_out) {
        return Status::Timeout(std::string(flush ? "flush" : "delivery") +
                               " timed out after " +
                               std::to_string(retry + 1) +
                               " attempts; last: " + last.ToString());
      }
      return last.WithContext("retry budget exhausted (" +
                              std::to_string(options_.retry_budget) +
                              " retries)");
    }
    const Duration backoff = BackoffFor(retry);
    ++retry;
    ++stats_.retries;
    stats_.backoff_time += backoff;
    sleep_(backoff);
    // IoError: the transport broke mid-write (peer reset, chaos
    // disconnect). PreconditionFailed: it is down already. Both need a
    // fresh connection before the next attempt.
    if (reconnect_ && (last.IsIoError() || last.IsPreconditionFailed())) {
      if (reconnect_().ok()) {
        ++stats_.reconnects;
      } else {
        ++stats_.failed_reconnects;
      }
    }
  }
}

Status ResilientSink::Deliver(const Event& event) {
  ++stats_.deliveries;
  return Retry([&] { return inner_->Deliver(event); }, /*flush=*/false);
}

Status ResilientSink::Flush() {
  return Retry([&] { return inner_->Flush(); }, /*flush=*/true);
}

SinkTelemetry ResilientSink::Telemetry() const {
  SinkTelemetry t = inner_->Telemetry();
  SinkTelemetry own;
  own.retries = stats_.retries;
  own.reconnects = stats_.reconnects;
  own.drops_after_retry = stats_.drops;
  own.giveups = stats_.giveups;
  own.backoff_s = stats_.backoff_time.seconds();
  return t.Merge(own);
}

}  // namespace graphtides
