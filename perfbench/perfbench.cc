// End-to-end benchmark: generate -> replay -> ingest -> analyze.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE]
//   perfbench --selftest
//
// One run generates the workload's stream with the given seed, replays it
// over loopback TCP into an in-process endpoint that parses every line and
// applies it to a Graph, and runs the Table 1 kernels on the endpoint's
// final graph. Each phase is repeated within its share of --seconds and
// reported as a median. Every replay is checked against a reference graph
// built from the generated file; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics
// are the per-layer figures (each layer timed from outside, around calls
// into its public functions) and a layer table precedes the JSON.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/statistics.h"
#include "algorithms/triangles.h"
#include "common/clock.h"
#include "common/parallel.h"
#include "faults/chaos_sink.h"
#include "generator/event_consumer.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "generator/stream_pipeline.h"
#include "generator/v2_consumer.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/telemetry/latency_histogram.h"
#include "harness/telemetry/run_telemetry.h"
#include "measure.h"
#include "replayer/checkpoint.h"
#include "replayer/rate_controller.h"
#include "replayer/resilient_sink.h"
#include "replayer/sharded_replayer.h"
#include "replayer/tcp.h"
#include "selftest.h"
#include "stream/block_reader.h"
#include "stream/event_view.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"
#include "stream/v2_writer.h"

using namespace graphtides;

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Secs(int64_t ns) { return static_cast<double>(ns) / 1e9; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Workloads.

enum class ModelKind { kSocial, kMix, kBlockchain };

struct Workload {
  const char* name;
  ModelKind model;
  /// Evolution-phase rounds; sized so that one replay of the stream takes
  /// about a second (a few seconds when paced) on a 4-core VM.
  size_t rounds;
  bool v2_file;
  /// Offered replay rate in events/s; 0 = unpaced (far above capacity).
  double rate_eps;
  /// Lane sink is ResilientSink(ChaosSink(TcpSink)) with periodic
  /// checkpoints, driving the per-event Deliver path.
  bool chaos;
  /// A RunTelemetry hub is attached to the replayer (no snapshotter).
  bool telemetry_hub;
};

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"social-csv-saturate", ModelKind::kSocial, 600000, false, 0.0, false,
     false},
    {"mix-v2-paced-20k", ModelKind::kMix, 60000, true, 20000.0, false, true},
    {"blockchain-csv-retry", ModelKind::kBlockchain, 250000, false, 0.0, true,
     false},
};

/// Unpaced replays run at this rate: slots are 1 ps apart, so the rate
/// controller never waits.
constexpr double kUnpacedRate = 1e12;
constexpr size_t kShards = 1;
/// Chaos layer: transient failures only, retried with zero backoff.
constexpr double kChaosFailProbability = 0.002;
constexpr uint64_t kCheckpointEvery = 100000;
/// Timed rounds per run: at least kMinRounds, then until --seconds passed.
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 500;
/// Minimum generate time per round (short streams are generated several
/// times per round).
constexpr double kPhaseSliceS = 0.4;
/// Share of --seconds spent on analyze passes, after the rounds.
constexpr double kAnalyzeShare = 0.25;
constexpr int kMinAnalyzePasses = 5;
/// Set-up is a few hundred microseconds and sensitive to thread wake-ups,
/// so each round also starts this many replays that stop after their first
/// event.
constexpr int kSetupCyclesPerRound = 20;

std::unique_ptr<GeneratorModel> MakeModel(ModelKind kind) {
  switch (kind) {
    case ModelKind::kSocial:
      return std::make_unique<SocialNetworkModel>();
    case ModelKind::kBlockchain:
      return std::make_unique<BlockchainModel>();
    case ModelKind::kMix: {
      // A small BA bootstrap, so most of the stream is evolution churn.
      EventMixModelOptions options;
      options.ba = BarabasiAlbertParams{2000, 20, 4};
      return std::make_unique<EventMixModel>(options);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written out at exit.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (!enabled_ || id < 0) return;
    spans_[id].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  void Write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    out << "{" << header << ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << "}";
    }
    out << "\n]}\n";
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Generate phase.

class DiscardConsumer final : public EventConsumer {
 public:
  Status Consume(Event&&) override { return Status::OK(); }
};

StreamGeneratorOptions GenOptions(const Workload& w, uint64_t seed) {
  StreamGeneratorOptions options;
  options.seed = seed;
  options.rounds = w.rounds;
  return options;
}

/// Generates the workload's stream into `path`; returns entries written.
size_t GenerateFile(const Workload& w, uint64_t seed, const std::string& path) {
  std::unique_ptr<GeneratorModel> model = MakeModel(w.model);
  StreamGenerator generator(model.get(), GenOptions(w, seed));
  std::FILE* file = std::fopen(path.c_str(), w.v2_file ? "wb" : "w");
  if (file == nullptr) Die("cannot create " + path);
  Result<GenerateSummary> summary = [&]() -> Result<GenerateSummary> {
    if (w.v2_file) {
      V2WriterConsumer writer(file);
      return generator.GenerateTo(writer);
    }
    PipelinedWriterConsumer writer(file);
    return generator.GenerateTo(writer);
  }();
  if (std::fclose(file) != 0) Die("cannot close " + path);
  CheckOk(summary.status(), "generate");
  return summary->total_events;
}

size_t GenerateDiscard(const Workload& w, uint64_t seed) {
  std::unique_ptr<GeneratorModel> model = MakeModel(w.model);
  StreamGenerator generator(model.get(), GenOptions(w, seed));
  DiscardConsumer discard;
  Result<GenerateSummary> summary = generator.GenerateTo(discard);
  CheckOk(summary.status(), "generate (model only)");
  return summary->total_events;
}

/// Reads a stream file (CSV or v2) back into owned events.
std::vector<Event> ReadBack(const std::string& path) {
  std::vector<Event> events;
  Result<StreamFormat> format = DetectStreamFormat(path);
  CheckOk(format.status(), "detect format");
  if (*format == StreamFormat::kV2) {
    V2StreamReader reader;
    CheckOk(reader.Open(path), "open v2");
    while (true) {
      Result<std::optional<EventView>> next = reader.Next();
      CheckOk(next.status(), "read v2");
      if (!next->has_value()) break;
      events.push_back((*next)->Materialize());
    }
    return events;
  }
  BlockLineReader reader;
  CheckOk(reader.Open(path), "open csv");
  std::string scratch;
  while (true) {
    Result<std::optional<std::string_view>> line = reader.NextLine();
    CheckOk(line.status(), "read csv");
    if (!line->has_value()) break;
    Result<EventView> view = ParseEventLineView(**line, &scratch);
    if (!view.ok() && view.status().IsNotFound()) continue;
    CheckOk(view.status(), "parse csv");
    events.push_back(view->Materialize());
  }
  return events;
}

// ---------------------------------------------------------------------------
// Replay phase: sinks and endpoint.

/// Pass-through sink at the top of each lane's chain: times the delivery
/// calls it forwards and records when they happened.
class ProbeSink final : public EventSink {
 public:
  ProbeSink(EventSink* inner, bool record_all, bool timed)
      : inner_(inner), record_all_(record_all), timed_(timed) {}

  Status Deliver(const Event& event) override {
    return Forward(1, [&] { return inner_->Deliver(event); });
  }
  bool SupportsSerialized() const override {
    return inner_->SupportsSerialized();
  }
  Status DeliverSerialized(std::string_view lines, size_t count) override {
    return Forward(count,
                   [&] { return inner_->DeliverSerialized(lines, count); });
  }
  Result<WireFormat> NegotiateWireFormat(WireFormat preferred) override {
    return inner_->NegotiateWireFormat(preferred);
  }
  Status Finish() override { return inner_->Finish(); }
  Status Flush() override { return inner_->Flush(); }
  uint64_t bytes_delivered() const override {
    return inner_->bytes_delivered();
  }
  SinkTelemetry Telemetry() const override { return inner_->Telemetry(); }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  int64_t first_call_ns() const { return first_call_ns_; }
  uint64_t calls() const { return calls_; }
  int64_t blocked_ns() const { return blocked_ns_; }
  /// Call end times, parallel to deliveries() (traced runs only).
  const std::vector<int64_t>& call_ends() const { return call_ends_; }

 private:
  template <typename Fn>
  Status Forward(size_t count, Fn&& fn) {
    const bool need_time = record_all_ || timed_ || calls_ == 0;
    const int64_t start = need_time ? NowNs() : 0;
    if (calls_ == 0) first_call_ns_ = start;
    if (record_all_) deliveries_.push_back({start, events_, count});
    const Status st = fn();
    if (timed_) {
      const int64_t end = NowNs();
      blocked_ns_ += end - start;
      call_ends_.push_back(end);
    }
    ++calls_;
    if (st.ok()) events_ += count;
    return st;
  }

  EventSink* inner_;
  bool record_all_;
  bool timed_;
  std::vector<Delivery> deliveries_;
  std::vector<int64_t> call_ends_;
  int64_t first_call_ns_ = 0;
  uint64_t calls_ = 0;
  uint64_t events_ = 0;
  int64_t blocked_ns_ = 0;
};

/// The ingesting endpoint: parses each received line and applies it to a
/// Graph. Runs on the TcpLineServer thread.
class Endpoint {
 public:
  explicit Endpoint(bool timed) : timed_(timed) {}

  void OnLine(std::string_view line) {
    const int64_t t0 = timed_ ? NowNs() : 0;
    Result<EventView> view = ParseEventLineView(line, &scratch_);
    if (!view.ok()) {
      if (!view.status().IsNotFound()) ++rejected_;
      return;
    }
    event_.type = view->type;
    event_.vertex = view->vertex;
    event_.edge = view->edge;
    event_.payload.assign(view->payload);
    const int64_t t1 = timed_ ? NowNs() : 0;
    const Status st = graph_.Apply(event_);
    if (st.ok()) {
      ++applied_;
    } else {
      ++rejected_;
    }
    const int64_t t2 = NowNs();
    apply_done_ns_.push_back(t2);
    if (timed_) {
      if (first_ns_ == 0) first_ns_ = t0;
      last_ns_ = t2;
      parse_ns_ += t1 - t0;
      apply_ns_ += t2 - t1;
      apply_samples_.push_back(static_cast<double>(t2 - t1));
      receipt_ns_.push_back(t0);
    }
  }

  Graph& graph() { return graph_; }
  uint64_t applied() const { return applied_; }
  uint64_t rejected() const { return rejected_; }
  const std::vector<int64_t>& apply_done_ns() const { return apply_done_ns_; }
  const std::vector<int64_t>& receipt_ns() const { return receipt_ns_; }
  std::vector<double>& apply_samples() { return apply_samples_; }
  int64_t parse_ns() const { return parse_ns_; }
  int64_t apply_ns() const { return apply_ns_; }
  int64_t active_ns() const { return last_ns_ - first_ns_; }

 private:
  bool timed_;
  Graph graph_;
  std::string scratch_;
  Event event_;
  uint64_t applied_ = 0;
  uint64_t rejected_ = 0;
  std::vector<int64_t> apply_done_ns_;
  std::vector<int64_t> receipt_ns_;
  std::vector<double> apply_samples_;
  int64_t parse_ns_ = 0;
  int64_t apply_ns_ = 0;
  int64_t first_ns_ = 0;
  int64_t last_ns_ = 0;
};

struct ReplayRep {
  double setup_s = 0.0;
  double ingest_eps = 0.0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t giveups = 0;
  bool digest_ok = false;
  std::string digest;
  /// Per-event latency, due time -> applied: median, p99 and counts.
  double lat_p50_ms = 0.0;
  double lat_p99_ms = 0.0;
  uint64_t lat_samples = 0;
  uint64_t lat_beyond_p99 = 0;
  // Traced reps only.
  double deliver_ns_per_event = 0.0;
  double deliver_calls_per_kevent = 0.0;
  double sink_blocked_frac = 0.0;
  std::vector<double> batch_hold_ms;
  std::vector<double> transport_hold_ms;
  double emit_lag_p99_ms = 0.0;
  uint64_t checkpoints = 0;
  SinkTelemetry telemetry;
  double apply_ns = 0.0;
  std::vector<double> apply_samples_ns;
  double endpoint_parse_ns = 0.0;
  double endpoint_busy_frac = 0.0;
  std::unique_ptr<Graph> graph;
};

enum class ReplayKind {
  kUntraced,
  /// Layer calls are timed (per-layer metrics).
  kTraced,
  /// Stops after the first event: measures set-up only.
  kSetupOnly,
};

ReplayRep RunReplay(const Workload& w, const std::string& stream_path,
                    const std::string& checkpoint_dir, uint64_t seed,
                    const GraphDigest& want, ReplayKind kind,
                    bool keep_graph) {
  const bool timed = kind == ReplayKind::kTraced;
  ReplayRep rep;
  const bool paced = w.rate_eps > 0.0;
  const int64_t t0 = NowNs();

  Endpoint endpoint(timed);
  TcpLineServer server;
  Result<uint16_t> port =
      server.Start([&endpoint](std::string_view line) { endpoint.OnLine(line); });
  CheckOk(port.status(), "endpoint start");

  TcpSink tcp;
  CheckOk(tcp.Connect("127.0.0.1", *port), "connect");
  std::unique_ptr<ChaosSink> chaos;
  std::unique_ptr<ResilientSink> resilient;
  EventSink* chain = &tcp;
  if (w.chaos) {
    ChaosOptions chaos_options;
    chaos_options.seed = seed;
    chaos_options.fail_probability = kChaosFailProbability;
    chaos = std::make_unique<ChaosSink>(&tcp, chaos_options);
    ResilientSinkOptions retry;
    retry.retry_budget = 16;
    retry.initial_backoff = Duration::Zero();
    retry.max_backoff = Duration::Zero();
    retry.jitter = 0.0;
    retry.policy = DegradationPolicy::kFailFast;
    resilient = std::make_unique<ResilientSink>(chaos.get(), retry);
    chain = resilient.get();
  }
  ProbeSink probe(chain, paced || timed, timed);

  ShardedReplayerOptions options;
  options.shards = kShards;
  options.total_rate_eps = paced ? w.rate_eps : kUnpacedRate;
  std::unique_ptr<RunTelemetry> hub;
  if (w.telemetry_hub) {
    RunTelemetryOptions hub_options;
    hub_options.shards = kShards;
    hub = std::make_unique<RunTelemetry>(hub_options);
    options.telemetry = hub.get();
  }
  if (w.chaos) {
    options.checkpoint_every = kCheckpointEvery;
    options.checkpoint_path = checkpoint_dir + "/replay.ckpt";
  }
  if (kind == ReplayKind::kSetupOnly) options.stop_after_events = 1;
  ShardedReplayer replayer(options);
  Result<ShardedReplayStats> stats = replayer.ReplayFile(stream_path, {&probe});
  if (!stats.ok()) {
    server.Stop();
    server.Join();
    Die("replay: " + stats.status().ToString());
  }
  server.Join();
  const int64_t t_end = NowNs();

  const double rate = paced ? w.rate_eps : kUnpacedRate;
  const int64_t anchor = paced ? EstimateAnchorNs(probe.deliveries(), rate)
                               : probe.first_call_ns();
  rep.setup_s = Secs(anchor - t0);
  if (kind == ReplayKind::kSetupOnly) return rep;
  rep.applied = endpoint.applied();
  rep.rejected = endpoint.rejected();
  const int64_t last_apply = endpoint.apply_done_ns().empty()
                                ? t_end
                                : endpoint.apply_done_ns().back();
  rep.ingest_eps = static_cast<double>(rep.applied) / Secs(last_apply - anchor);
  rep.telemetry = stats->aggregate.telemetry;
  rep.giveups = rep.telemetry.giveups + rep.telemetry.drops_after_retry;
  rep.checkpoints = stats->aggregate.checkpoints_written;

  const GraphDigest got = DigestOf(endpoint.graph());
  rep.digest_ok = got == want;
  rep.digest = got.ToString();

  {
    const double interval_ns = 1e9 / rate;
    const std::vector<int64_t>& done = endpoint.apply_done_ns();
    std::vector<double> latency_ms;
    latency_ms.reserve(done.size());
    for (size_t k = 0; k < done.size(); ++k) {
      const double due = static_cast<double>(anchor) +
                         static_cast<double>(k) * interval_ns;
      latency_ms.push_back((static_cast<double>(done[k]) - due) / 1e6);
    }
    std::sort(latency_ms.begin(), latency_ms.end());
    const Tail p99 = PickTail(latency_ms, {99.0});
    if (p99.percentile != 99.0) Die("too few latency samples for p99");
    rep.lat_p50_ms = Quantile(latency_ms, 0.5);
    rep.lat_p99_ms = p99.value;
    rep.lat_samples = p99.samples;
    rep.lat_beyond_p99 = p99.beyond;
  }

  if (timed) {
    const double events = static_cast<double>(std::max<uint64_t>(1, rep.applied));
    rep.deliver_ns_per_event = static_cast<double>(probe.blocked_ns()) / events;
    rep.deliver_calls_per_kevent =
        1000.0 * static_cast<double>(probe.calls()) / events;
    rep.sink_blocked_frac =
        static_cast<double>(probe.blocked_ns()) /
        static_cast<double>(std::max<int64_t>(1, t_end - anchor));
    const std::vector<Delivery>& ds = probe.deliveries();
    const std::vector<int64_t>& ends = probe.call_ends();
    const double interval_ns = 1e9 / rate;
    for (size_t b = 0; b < ds.size(); ++b) {
      // Paced: the batch's first event was due at its schedule slot.
      // Unpaced there is no schedule; the lane starts on a batch when its
      // previous delivery call returns.
      const double due =
          paced ? static_cast<double>(anchor) +
                      static_cast<double>(ds[b].first) * interval_ns
                : static_cast<double>(b == 0 ? anchor : ends[b - 1]);
      rep.batch_hold_ms.push_back((static_cast<double>(ds[b].at_ns) - due) /
                                  1e6);
    }
    const std::vector<int64_t>& receipts = endpoint.receipt_ns();
    size_t b = 0;
    for (size_t k = 0; k < receipts.size() && !ds.empty(); ++k) {
      while (b + 1 < ds.size() && ds[b + 1].first <= k) ++b;
      rep.transport_hold_ms.push_back(
          static_cast<double>(receipts[k] - ds[b].at_ns) / 1e6);
    }
    rep.emit_lag_p99_ms =
        static_cast<double>(stats->aggregate.lag.ValueAtQuantileNanos(0.99)) /
        1e6;
    rep.apply_ns = static_cast<double>(endpoint.apply_ns()) / events;
    rep.apply_samples_ns = std::move(endpoint.apply_samples());
    rep.endpoint_parse_ns = static_cast<double>(endpoint.parse_ns()) / events;
    rep.endpoint_busy_frac =
        static_cast<double>(endpoint.parse_ns() + endpoint.apply_ns()) /
        static_cast<double>(std::max<int64_t>(1, endpoint.active_ns()));
  }
  if (keep_graph) rep.graph = std::make_unique<Graph>(std::move(endpoint.graph()));
  return rep;
}

// ---------------------------------------------------------------------------
// Analyze phase.

constexpr size_t kPageRankIterations = 20;

struct KernelResults {
  CsrGraph csr;
  GraphStatistics stats;
  PageRankResult pagerank;
  ComponentsResult wcc;
  uint64_t triangles = 0;
};

struct KernelTimes {
  double total_s = 0.0;
  double csr_ms = 0.0;
  double statistics_ms = 0.0;
  double pagerank_ms = 0.0;
  double wcc_ms = 0.0;
  double triangles_ms = 0.0;
};

KernelResults RunKernels(const Graph& graph, size_t threads, KernelTimes* t) {
  KernelResults r;
  const int64_t a = NowNs();
  r.csr = CsrGraph::FromGraph(graph, threads);
  const int64_t b = NowNs();
  r.stats = ComputeGraphStatistics(r.csr, threads);
  const int64_t c = NowNs();
  PageRankOptions pr;
  pr.max_iterations = kPageRankIterations;
  pr.tolerance = 0.0;
  pr.threads = threads;
  r.pagerank = PageRank(r.csr, pr);
  const int64_t d = NowNs();
  ComponentsOptions wcc;
  wcc.threads = threads;
  r.wcc = WeaklyConnectedComponents(r.csr, wcc);
  const int64_t e = NowNs();
  r.triangles = CountTriangles(r.csr, threads);
  const int64_t f = NowNs();
  t->total_s = Secs(f - a);
  t->csr_ms = (b - a) / 1e6;
  t->statistics_ms = (c - b) / 1e6;
  t->pagerank_ms = (d - c) / 1e6;
  t->wcc_ms = (e - d) / 1e6;
  t->triangles_ms = (f - e) / 1e6;
  return r;
}

bool SameResults(const KernelResults& x, const KernelResults& y) {
  return x.csr.ids() == y.csr.ids() &&
         x.csr.out_offsets() == y.csr.out_offsets() &&
         x.csr.num_edges() == y.csr.num_edges() &&
         x.stats.num_vertices == y.stats.num_vertices &&
         x.stats.num_edges == y.stats.num_edges &&
         x.stats.max_out_degree == y.stats.max_out_degree &&
         x.stats.max_in_degree == y.stats.max_in_degree &&
         x.stats.isolated_vertices == y.stats.isolated_vertices &&
         x.stats.out_degree_gini == y.stats.out_degree_gini &&
         x.pagerank.ranks == y.pagerank.ranks &&
         x.pagerank.iterations == y.pagerank.iterations &&
         x.wcc.component == y.wcc.component && x.triangles == y.triangles;
}

// ---------------------------------------------------------------------------
// Host and process facts.

size_t UsableCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string clean;
        for (char c : model) clean += (c == '"' || c == '\\') ? ' ' : c;
        return clean;
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

template <typename Fn>
double TimeNsPer(size_t n, Fn&& fn) {
  const int64_t a = NowNs();
  fn();
  return static_cast<double>(NowNs() - a) / static_cast<double>(std::max<size_t>(1, n));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--workdir") {
      a.workdir = value();
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  return a;
}

int Run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  if (args.workdir.empty()) Die("--workdir is required");
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");

  // Thread budget: during replay the reader (this thread), one emitter per
  // lane and the endpoint thread are busy, plus one connection per lane.
  // Refuse rather than measure an oversubscribed host.
  const size_t cores = UsableCores();
  const size_t replay_busy = 1 + kShards + 1 + kShards;
  if (replay_busy > cores) {
    Die("workload " + std::string(w->name) + " needs " +
        std::to_string(replay_busy) +
        " busy threads+connections during replay but only " +
        std::to_string(cores) + " cores are usable; refusing to run");
  }
  const size_t threads = cores;  // analyze phase: one kernel thread per core

  const std::string fingerprint =
      "\"host\":{\"cores\":" + std::to_string(cores) + ",\"cpu_model\":\"" +
      CpuModel() + "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
      "\",\"gt_telemetry\":\"" PERFBENCH_TELEMETRY "\"},\"workload\":\"" +
      w->name + "\",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + std::to_string(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0");
  std::printf("{%s}\n", fingerprint.c_str());

  Tracer tracer(args.trace);
  const int root = tracer.Begin("run");
  const std::string stream_path =
      args.workdir + (w->v2_file ? "/stream.gts2" : "/stream.gts");
  const std::string checkpoint_dir = args.workdir + "/checkpoints";
  ::mkdir(checkpoint_dir.c_str(), 0755);
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  auto layer = [&](const std::string& name, double value, const char* unit) {
    layers.push_back({name, value, unit});
  };

  size_t entries = 0;
  std::vector<double> gen_s;
  auto generate = [&](bool timed) {
    SpanScope span(tracer, "generate");
    const int64_t a = NowNs();
    entries = GenerateFile(*w, args.seed, stream_path);
    if (timed) gen_s.push_back(Secs(NowNs() - a));
  };

  // --- Warm-up round: generate, build the oracle's reference graph, replay
  // once (its graph is the one analyzed) and run the kernels at 1 thread
  // (the reference results) and once at `threads` (the pool grows lazily).
  generate(false);
  std::vector<Event> events;
  GraphDigest want;
  uint64_t graph_events = 0;
  {
    SpanScope span(tracer, "oracle.reference");
    events = ReadBack(stream_path);
    if (events.size() != entries) Die("read back a different entry count");
    for (const Event& e : events) graph_events += IsGraphOp(e.type) ? 1 : 0;
    Graph reference;
    CheckOk(reference.ApplyAll(events), "reference ApplyAll");
    want = DigestOf(reference);
  }
  if (!args.trace) std::vector<Event>().swap(events);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  auto replay = [&](bool timed, bool keep_graph) {
    SpanScope span(tracer, timed ? "replay.traced" : "replay");
    ReplayRep rep = RunReplay(
        *w, stream_path, checkpoint_dir, args.seed, want,
        timed ? ReplayKind::kTraced : ReplayKind::kUntraced, keep_graph);
    attempted += graph_events;
    const uint64_t missing =
        graph_events > rep.applied ? graph_events - rep.applied : 0;
    failed += missing + rep.rejected + rep.giveups;
    if (!rep.digest_ok || rep.applied != graph_events) {
      correct = false;
      std::fprintf(stderr,
                   "perfbench: endpoint graph differs from the reference: "
                   "got %s, want %s (%llu of %llu events applied)\n",
                   rep.digest.c_str(), want.ToString().c_str(),
                   static_cast<unsigned long long>(rep.applied),
                   static_cast<unsigned long long>(graph_events));
    }
    return rep;
  };
  const ReplayRep analyzed = replay(false, /*keep_graph=*/true);
  const Graph& graph = *analyzed.graph;
  KernelTimes one_thread;
  KernelResults reference;
  {
    SpanScope span(tracer, "analyze.1thread");
    reference = RunKernels(graph, 1, &one_thread);
  }
  {
    SpanScope span(tracer, "analyze.warmup");
    KernelTimes ignored;
    if (!SameResults(RunKernels(graph, threads, &ignored), reference)) {
      correct = false;
      std::fprintf(stderr, "perfbench: kernel results at %zu threads differ "
                           "from the 1-thread results\n", threads);
    }
  }

  // --- Timed rounds of generate + replay. Alternating the two phases lets
  // a burst of load from elsewhere on the host land on a few samples of
  // each instead of on all samples of one.
  std::vector<ReplayRep> reps;
  std::vector<ReplayRep> traced_reps;
  std::vector<KernelTimes> passes;
  std::vector<double> setup_s;
  double replay_cpu_s = 0.0;
  const int64_t rounds_start = NowNs();
  for (int round = 0; round < kMaxRounds; ++round) {
    if (round >= kMinRounds &&
        Secs(NowNs() - rounds_start) >= (1.0 - kAnalyzeShare) * args.seconds) {
      break;
    }
    SpanScope span(tracer, "round");
    const int64_t gen_start = NowNs();
    do {
      generate(true);
    } while (Secs(NowNs() - gen_start) < kPhaseSliceS);

    {
      SpanScope setup_span(tracer, "setup");
      for (int i = 0; i < kSetupCyclesPerRound; ++i) {
        setup_s.push_back(RunReplay(*w, stream_path, checkpoint_dir, args.seed,
                                    want, ReplayKind::kSetupOnly, false)
                              .setup_s);
      }
    }

    const double cpu_before = CpuSeconds();
    reps.push_back(replay(false, false));
    replay_cpu_s += CpuSeconds() - cpu_before;
    if (args.trace) traced_reps.push_back(replay(true, false));
  }

  // --- Analyze: one block after the rounds. Interleaved with the other
  // phases, each pass would start with a cold cache and a parked pool.
  {
    SpanScope span(tracer, "analyze");
    const int64_t analyze_start = NowNs();
    int pass = 0;
    do {
      SpanScope pass_span(tracer, "analyze.pass");
      KernelTimes t;
      const KernelResults r = RunKernels(graph, threads, &t);
      if (r.triangles != reference.triangles) correct = false;
      passes.push_back(t);
      ++pass;
    } while (pass < kMinAnalyzePasses ||
             Secs(NowNs() - analyze_start) < kAnalyzeShare * args.seconds);
  }

  auto median_of = [](const std::vector<ReplayRep>& rs, auto field) {
    std::vector<double> v;
    for (const ReplayRep& r : rs) v.push_back(field(r));
    return Median(v);
  };
  auto pass_median = [&](double KernelTimes::*field) {
    std::vector<double> v;
    for (const KernelTimes& t : passes) v.push_back(t.*field);
    return Median(v);
  };
  const double gen_median_s = Median(gen_s);
  const double ingest_eps =
      median_of(reps, [](const ReplayRep& r) { return r.ingest_eps; });
  const double compute_s = pass_median(&KernelTimes::total_s);
  e2e.push_back({"setup_s", Median(setup_s), "s"});
  e2e.push_back({"gen_eps", static_cast<double>(entries) / gen_median_s,
                 "events/s"});
  e2e.push_back({"ingest_eps", ingest_eps, "events/s"});
  e2e.push_back({"lat_p50_ms",
                 median_of(reps, [](const ReplayRep& r) { return r.lat_p50_ms; }),
                 "ms"});
  e2e.push_back({"lat_p99_ms",
                 median_of(reps, [](const ReplayRep& r) { return r.lat_p99_ms; }),
                 "ms"});
  e2e.push_back({"compute_s", compute_s, "s"});
  e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  e2e.push_back({"cpu_s_per_mev",
                 replay_cpu_s / (static_cast<double>(entries * reps.size()) / 1e6),
                 "s/Mevent"});

  // Per-repetition spread of the timed phases, next to their medians.
  auto spread = [](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::printf("  %-12s n=%-4zu min %.6g  median %.6g  max %.6g\n", name,
                v.size(), v.front(), Median(v), v.back());
  };
  std::printf("repetitions (%zu rounds):\n", reps.size());
  spread("generate_s", gen_s);
  {
    std::vector<double> ingest, p50, p99, compute;
    for (const ReplayRep& r : reps) {
      ingest.push_back(r.ingest_eps);
      p50.push_back(r.lat_p50_ms);
      p99.push_back(r.lat_p99_ms);
    }
    for (const KernelTimes& t : passes) compute.push_back(t.total_s);
    spread("setup_s", setup_s);
    spread("ingest_eps", ingest);
    spread("lat_p50_ms", p50);
    spread("lat_p99_ms", p99);
    spread("compute_s", compute);
  }
  std::printf("latency: %s; %llu samples per replay (every graph event), "
              "%llu beyond p99\n",
              w->rate_eps > 0.0
                  ? "open loop, due time = schedule anchor + k / rate"
                  : "unpaced: every event is due at the anchor, so this is "
                    "backlog wait and tracks ingest_eps",
              static_cast<unsigned long long>(reps.front().lat_samples),
              static_cast<unsigned long long>(reps.front().lat_beyond_p99));
  std::printf("stream: %zu entries (%llu graph events), %.1f bytes/entry; "
              "final graph %zu vertices, %zu edges; %zu generate, %zu replay, "
              "%zu analyze repetitions\n",
              entries, static_cast<unsigned long long>(graph_events),
              static_cast<double>(FileBytes(stream_path)) /
                  static_cast<double>(entries),
              graph.num_vertices(), graph.num_edges(), gen_s.size(),
              reps.size() + traced_reps.size(), passes.size());

  if (args.trace) {
    SpanScope span(tracer, "layers");
    // Generator: model alone vs the full generate phase.
    std::vector<double> model_s;
    for (int i = 0; i < 3; ++i) {
      SpanScope s(tracer, "generator.model");
      const int64_t a = NowNs();
      GenerateDiscard(*w, args.seed);
      model_s.push_back(Secs(NowNs() - a));
    }
    const double n = static_cast<double>(entries);
    const double model_ns = Median(model_s) * 1e9 / n;
    layer("generator.model_ns_per_event", model_ns, "ns");
    layer("generator.writer_ns_per_event",
          std::max(0.0, gen_median_s * 1e9 / n - model_ns), "ns");

    // Stream layer on the workload's own events.
    std::string text;
    double format_ns = 0.0;
    {
      SpanScope s(tracer, "stream.csv_format");
      format_ns = TimeNsPer(events.size(), [&] {
        EventView view;
        for (const Event& e : events) {
          view.type = e.type;
          view.vertex = e.vertex;
          view.edge = e.edge;
          view.payload = e.payload;
          view.rate_factor = e.rate_factor;
          view.pause = e.pause;
          view.AppendLine(&text);
        }
      });
    }
    std::vector<std::string_view> lines;
    for (size_t pos = 0; pos < text.size();) {
      const size_t nl = text.find('\n', pos);
      lines.emplace_back(text.data() + pos, nl - pos);
      pos = nl + 1;
    }
    double parse_ns = 0.0;
    {
      SpanScope s(tracer, "stream.csv_parse");
      std::string scratch;
      uint64_t ok = 0;
      parse_ns = TimeNsPer(lines.size(), [&] {
        for (std::string_view line : lines) {
          ok += ParseEventLineView(line, &scratch).ok() ? 1 : 0;
        }
      });
      if (ok != lines.size()) Die("csv parse of formatted lines failed");
    }
    std::string v2_path = stream_path;
    if (!w->v2_file) {
      v2_path = args.workdir + "/stream-twin.gts2";
      CheckOk(WriteV2StreamFile(v2_path, events), "write v2 twin");
    }
    double v2_ns = 0.0;
    {
      SpanScope s(tracer, "stream.v2_next");
      V2StreamReader reader;
      CheckOk(reader.Open(v2_path), "open v2");
      uint64_t count = 0;
      v2_ns = TimeNsPer(events.size(), [&] {
        while (true) {
          Result<std::optional<EventView>> next = reader.Next();
          CheckOk(next.status(), "v2 next");
          if (!next->has_value()) break;
          ++count;
        }
      });
      if (count != events.size()) Die("v2 twin entry count differs");
    }
    layer("stream.csv_parse_ns", parse_ns, "ns");
    layer("stream.csv_format_ns", format_ns, "ns");
    layer("stream.v2_next_ns", v2_ns, "ns");
    layer("stream.bytes_per_event",
          static_cast<double>(FileBytes(stream_path)) / n, "bytes");

    // Replayer: routing and pacing at the workload's settings.
    double route_ns = 0.0;
    {
      SpanScope s(tracer, "replayer.route");
      size_t sink = 0;
      route_ns = TimeNsPer(events.size(), [&] {
        for (const Event& e : events) {
          sink += ShardOfEvent(e.type, e.vertex, e.edge, kShards);
        }
      });
      if (sink != 0) Die("one-lane routing left lane 0");
    }
    double pace_ns = 0.0;
    {
      SpanScope s(tracer, "replayer.pace");
      MonotonicClock clock;
      RateController rate(kUnpacedRate, &clock);
      pace_ns = TimeNsPer(events.size(), [&] {
        for (size_t i = 0; i < events.size(); ++i) rate.WaitForNextSlot();
      });
    }
    layer("replayer.route_ns", route_ns, "ns");
    layer("replayer.pace_ns", pace_ns, "ns");

    auto traced_median = [&](auto field) { return median_of(traced_reps, field); };
    auto pooled = [&](std::vector<double> ReplayRep::*field) {
      std::vector<double> all;
      for (ReplayRep& r : traced_reps) {
        all.insert(all.end(), (r.*field).begin(), (r.*field).end());
      }
      std::sort(all.begin(), all.end());
      return all;
    };
    const double deliver_ns =
        traced_median([](const ReplayRep& r) { return r.deliver_ns_per_event; });
    layer("replayer.deliver_ns_per_event", deliver_ns, "ns");
    layer("replayer.deliver_calls_per_kevent",
          traced_median([](const ReplayRep& r) { return r.deliver_calls_per_kevent; }),
          "count");
    layer("replayer.sink_blocked_frac",
          traced_median([](const ReplayRep& r) { return r.sink_blocked_frac; }),
          "fraction");
    layer("replayer.batch_hold_ms_p50",
          Quantile(pooled(&ReplayRep::batch_hold_ms), 0.5), "ms");
    layer("replayer.transport_hold_ms_p50",
          Quantile(pooled(&ReplayRep::transport_hold_ms), 0.5), "ms");
    layer("replayer.emit_lag_p99_ms",
          traced_median([](const ReplayRep& r) { return r.emit_lag_p99_ms; }),
          "ms");

    // Checkpointing: the workload's own record, saved to the run's store.
    std::vector<double> save_ms;
    {
      SpanScope s(tracer, "replayer.checkpoint");
      const CheckpointStore store({checkpoint_dir + "/layer.ckpt", 1});
      ReplayCheckpoint cp;
      cp.entries_consumed = entries;
      cp.events_delivered = graph_events;
      cp.local_events = graph_events;
      cp.telemetry = analyzed.telemetry;
      for (int i = 0; i < 10; ++i) {
        const int64_t a = NowNs();
        CheckOk(store.Save(cp), "checkpoint save");
        save_ms.push_back((NowNs() - a) / 1e6);
      }
    }
    layer("replayer.checkpoint_ms", Median(save_ms), "ms");
    layer("replayer.checkpoints", static_cast<double>(analyzed.checkpoints),
          "count");

    const SinkTelemetry& ft = analyzed.telemetry;
    layer("faults.injected_failures", static_cast<double>(ft.injected_failures),
          "count");
    layer("faults.retries", static_cast<double>(ft.retries), "count");
    layer("faults.attempts_per_delivery",
          static_cast<double>(graph_events + ft.retries) /
              static_cast<double>(graph_events),
          "ratio");

    const double apply_ns =
        traced_median([](const ReplayRep& r) { return r.apply_ns; });
    layer("graph.apply_ns", apply_ns, "ns");
    const std::vector<double> apply_samples = pooled(&ReplayRep::apply_samples_ns);
    layer("graph.apply_p99_us", Quantile(apply_samples, 0.99) / 1e3, "us");
    layer("graph.csr_build_ms", pass_median(&KernelTimes::csr_ms), "ms");
    const double endpoint_parse_ns =
        traced_median([](const ReplayRep& r) { return r.endpoint_parse_ns; });
    layer("endpoint.parse_ns", endpoint_parse_ns, "ns");
    layer("endpoint.busy_frac",
          traced_median([](const ReplayRep& r) { return r.endpoint_busy_frac; }),
          "fraction");

    layer("algorithms.pagerank_ms", pass_median(&KernelTimes::pagerank_ms), "ms");
    layer("algorithms.wcc_ms", pass_median(&KernelTimes::wcc_ms), "ms");
    layer("algorithms.triangles_ms", pass_median(&KernelTimes::triangles_ms), "ms");
    layer("algorithms.statistics_ms", pass_median(&KernelTimes::statistics_ms),
          "ms");
    // The single-threaded baseline: the first (oracle) pass plus two more.
    std::vector<double> one_thread_s = {one_thread.total_s};
    for (int i = 0; i < 2; ++i) {
      SpanScope s(tracer, "analyze.1thread");
      KernelTimes t;
      RunKernels(graph, 1, &t);
      one_thread_s.push_back(t.total_s);
    }
    const double one_thread_ms = Median(one_thread_s) * 1e3;
    layer("algorithms.kernels_1t_ms", one_thread_ms, "ms");
    layer("algorithms.parallel_speedup", one_thread_ms / (compute_s * 1e3),
          "ratio");

    double record_ns = 0.0;
    {
      SpanScope s(tracer, "harness.histogram_record");
      LatencyHistogram h;
      const size_t count = std::max<size_t>(events.size(), 100000);
      record_ns = TimeNsPer(count, [&] {
        uint64_t x = args.seed;
        for (size_t i = 0; i < count; ++i) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
          h.RecordNanos(static_cast<int64_t>(x >> 40));
        }
      });
      if (h.count() != count) Die("histogram lost samples");
    }
    layer("harness.histogram_record_ns", record_ns, "ns");
    const double traced_ingest =
        traced_median([](const ReplayRep& r) { return r.ingest_eps; });
    // Each round's traced replay runs right after its untraced one; the
    // ratio within a round cancels drift in host speed across the run.
    std::vector<double> traced_ratio;
    for (size_t i = 0; i < traced_reps.size(); ++i) {
      traced_ratio.push_back(traced_reps[i].ingest_eps / reps[i].ingest_eps);
    }
    layer("trace.overhead_frac", 1.0 - Median(traced_ratio), "fraction");

    // Layer table: ns/event per thread of the replay pipeline against the
    // end-to-end ns/event. The pipeline's threads run concurrently, so the
    // busiest one sets the pace; its remainder is time no layer explains
    // (socket reads, line splitting, waiting).
    const double e2e_ns = 1e9 / traced_ingest;
    const double reader_read = w->v2_file ? v2_ns : parse_ns;
    const double reader_sum = reader_read + route_ns;
    const double lane_sum = pace_ns + (w->chaos ? 0.0 : format_ns) + deliver_ns;
    const double endpoint_sum = endpoint_parse_ns + apply_ns;
    std::printf("layer table (traced replay, ns per graph event; end to end "
                "%.1f ns = 1e9 / %.0f ev/s)\n", e2e_ns, traced_ingest);
    std::printf("  %-10s %-28s %10s\n", "thread", "layer", "ns/event");
    auto row = [](const char* thread, const char* name, double ns) {
      std::printf("  %-10s %-28s %10.1f\n", thread, name, ns);
    };
    row("reader", w->v2_file ? "stream.v2_next" : "stream.csv_parse", reader_read);
    row("reader", "replayer.route", route_ns);
    row("reader", "= sum", reader_sum);
    row("lane", "replayer.pace", pace_ns);
    if (!w->chaos) row("lane", "stream.csv_format", format_ns);
    row("lane", "replayer.deliver (sink calls)", deliver_ns);
    row("lane", "= sum", lane_sum);
    row("endpoint", "endpoint.parse", endpoint_parse_ns);
    row("endpoint", "graph.apply", apply_ns);
    row("endpoint", "= sum", endpoint_sum);
    const double busiest = std::max({reader_sum, lane_sum, endpoint_sum});
    const char* busiest_name = busiest == endpoint_sum ? "endpoint"
                               : busiest == lane_sum   ? "lane"
                                                       : "reader";
    std::printf("  blocking path: %s thread, %.1f ns of %.1f ns explained, "
                "remainder %.1f ns (%.0f%%)\n",
                busiest_name, busiest, e2e_ns, e2e_ns - busiest,
                100.0 * (e2e_ns - busiest) / e2e_ns);
    if (w->rate_eps > 0.0) {
      std::printf("  paced at %.0f ev/s: the offered rate sets the end-to-end "
                  "figure, so the remainder is idle time\n", w->rate_eps);
    }
  }

  tracer.End(root);
  if (args.trace && !args.trace_out.empty()) {
    tracer.Write(args.trace_out, fingerprint);
  }
  std::fflush(stdout);
  std::printf("%s\n", Json(args.trace ? layers : e2e, correct, attempted,
                           failed).c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed memory in the heap instead of returning it to the kernel:
  // otherwise every repetition page-faults its large buffers afresh, and
  // page-fault cost on a VM varies enough to dominate the spread of the
  // analyze and generate phases.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  if (!perfbench::RunSelfTests()) {
    std::fprintf(stderr, "perfbench: self-tests failed; not measuring\n");
    return 1;
  }
  if (args.selftest) {
    std::printf("perfbench self-tests passed\n");
    return 0;
  }
  return perfbench::Run(args);
}
