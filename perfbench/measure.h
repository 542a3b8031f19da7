// Measurement helpers of the end-to-end benchmark that are checked by its
// self-tests: the order-independent graph digest (correctness oracle), the
// schedule-anchor estimator (open-loop latency), and the tail-percentile
// picker (which percentile a sample set can support).
#ifndef GRAPHTIDES_PERFBENCH_MEASURE_H_
#define GRAPHTIDES_PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

/// \brief Order-independent digest of a multiset of vertex and edge
/// records.
///
/// Each record is hashed with its state and the hashes are summed (not
/// xor-ed), so a record present twice changes the digest just like a
/// missing or altered one. Two digests are equal when the graphs hold the
/// same vertex ids, edge pairs and states, in any order.
struct GraphDigest {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t vertex_sum = 0;
  uint64_t edge_sum = 0;

  void AddVertex(graphtides::VertexId id, std::string_view state);
  void AddEdge(graphtides::VertexId src, graphtides::VertexId dst,
               std::string_view state);

  bool operator==(const GraphDigest&) const = default;
  std::string ToString() const;
};

GraphDigest DigestOf(const graphtides::Graph& graph);

/// \brief One sink delivery call: when it happened, the stream index of
/// its first graph event and how many events it carried.
struct Delivery {
  int64_t at_ns = 0;
  uint64_t first = 0;
  uint64_t count = 0;
};

/// \brief Recovers the replayer's schedule anchor (the due time of event 0)
/// from its deliveries at a fixed rate.
///
/// A call carrying events [first, first + count) is made only after the
/// slot of its last event, so every call gives an upper bound
/// at_ns - (first + count - 1) * 1e9 / rate on the anchor. The estimate is
/// the smallest bound over all calls: one late batch (the first one, say)
/// cannot move it. Returns 0 when `deliveries` is empty.
int64_t EstimateAnchorNs(const std::vector<Delivery>& deliveries,
                         double rate_eps);

/// \brief A tail percentile a sample set supports.
struct Tail {
  /// Percentile in (0, 100), e.g. 99 for p99.
  double percentile = 0.0;
  double value = 0.0;
  /// Samples strictly beyond the percentile's rank.
  uint64_t beyond = 0;
  uint64_t samples = 0;
};

/// Value at quantile q (0 <= q <= 1) of `sorted` (nearest rank).
double Quantile(const std::vector<double>& sorted, double q);

/// \brief Picks the highest of `candidates` (percentiles, ascending) that
/// leaves at least `min_beyond` samples beyond it in `sorted`.
///
/// Returns a Tail with percentile 0 when none qualifies.
Tail PickTail(const std::vector<double>& sorted,
              const std::vector<double>& candidates, uint64_t min_beyond = 10);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // GRAPHTIDES_PERFBENCH_MEASURE_H_
