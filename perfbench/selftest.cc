// Self-tests of the benchmark's own measurement helpers. They run at the
// start of every benchmark run (a run whose oracle or latency estimator is
// broken must not report numbers) and alone with `perfbench --selftest`.
#include "selftest.h"

#include <cstdio>
#include <vector>

#include "graph/graph.h"
#include "measure.h"

namespace perfbench {

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++failures;
  }
}

graphtides::Graph SmallGraph() {
  graphtides::Graph g;
  (void)g.AddVertex(1, "a");
  (void)g.AddVertex(2, "b");
  (void)g.AddVertex(3, "c");
  (void)g.AddEdge(1, 2, "x");
  (void)g.AddEdge(2, 3, "y");
  (void)g.AddEdge(3, 1, "");
  return g;
}

void DigestTests() {
  const graphtides::Graph base = SmallGraph();
  const GraphDigest want = DigestOf(base);

  // Same content built in another order.
  graphtides::Graph reordered;
  (void)reordered.AddVertex(3, "c");
  (void)reordered.AddVertex(1, "a");
  (void)reordered.AddVertex(2, "b");
  (void)reordered.AddEdge(3, 1, "");
  (void)reordered.AddEdge(2, 3, "y");
  (void)reordered.AddEdge(1, 2, "x");
  Check(DigestOf(reordered) == want, "digest is order-independent");

  graphtides::Graph changed = SmallGraph();
  (void)changed.UpdateVertexState(2, "B");
  Check(!(DigestOf(changed) == want), "digest detects a changed vertex state");
  graphtides::Graph changed_edge = SmallGraph();
  (void)changed_edge.UpdateEdgeState(2, 3, "z");
  Check(!(DigestOf(changed_edge) == want),
        "digest detects a changed edge state");

  graphtides::Graph missing = SmallGraph();
  (void)missing.RemoveEdge(2, 3);
  Check(!(DigestOf(missing) == want), "digest detects a missing edge");

  // A Graph cannot hold an edge twice, so duplication is checked on the
  // record multiset the digest is defined over.
  GraphDigest duplicated = want;
  duplicated.AddEdge(2, 3, "y");
  Check(!(duplicated == want), "digest detects a duplicated edge");
  // Same record count, different multisets: duplicates must not cancel.
  GraphDigest twice_a;
  twice_a.AddEdge(2, 3, "y");
  twice_a.AddEdge(2, 3, "y");
  GraphDigest twice_b;
  twice_b.AddEdge(3, 1, "");
  twice_b.AddEdge(3, 1, "");
  Check(!(twice_a == twice_b), "duplicated edges do not cancel out");
}

void AnchorTests() {
  // 10 batches of 256 events at 20k ev/s, anchored at t = 5 s. Every
  // batch is delivered 0.2 ms after its last slot, except the first, which
  // is 4 ms late.
  const double rate = 20000.0;
  const int64_t anchor = 5'000'000'000;
  const int64_t interval = 50'000;  // ns
  std::vector<Delivery> deliveries;
  for (uint64_t b = 0; b < 10; ++b) {
    const uint64_t first = b * 256;
    const int64_t last_slot = anchor + static_cast<int64_t>(first + 255) * interval;
    const int64_t late = b == 0 ? 4'000'000 : 200'000;
    deliveries.push_back({last_slot + late, first, 256});
  }
  const int64_t got = EstimateAnchorNs(deliveries, rate);
  Check(got - anchor == 200'000,
        "anchor estimate ignores a late first batch");
  // The first batch alone would have been 4 ms off.
  std::vector<Delivery> first_only(deliveries.begin(), deliveries.begin() + 1);
  Check(EstimateAnchorNs(first_only, rate) - anchor == 4'000'000,
        "anchor estimate of a single late batch carries its delay");
  Check(EstimateAnchorNs({}, rate) == 0, "no deliveries, no anchor");
}

void TailTests() {
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  const std::vector<double> candidates = {50, 90, 99, 99.9, 99.99};
  Tail t = PickTail(sorted, candidates);
  Check(t.percentile == 99.0, "1000 samples support p99, not p99.9");
  Check(t.beyond == 10 && t.value == 990.0, "p99 of 1..1000 is 990, 10 beyond");
  Check(t.samples == 1000, "tail reports the sample count");

  sorted.resize(999);
  t = PickTail(sorted, candidates);
  Check(t.percentile == 90.0, "999 samples leave only 9 beyond p99");
  Check(t.beyond >= 10, "picked tail keeps at least 10 samples beyond");

  sorted.assign(5, 1.0);
  t = PickTail(sorted, candidates);
  Check(t.percentile == 0.0, "5 samples support no tail");
  Check(Median({3, 1, 2}) == 2.0 && Median({4, 1, 2, 3}) == 2.5,
        "median of odd and even counts");
}

}  // namespace

bool RunSelfTests() {
  failures = 0;
  DigestTests();
  AnchorTests();
  TailTests();
  return failures == 0;
}

}  // namespace perfbench
