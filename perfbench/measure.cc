#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void GraphDigest::AddVertex(graphtides::VertexId id, std::string_view state) {
  ++vertices;
  vertex_sum += Mix(Mix(id) ^ HashBytes(state));
}

void GraphDigest::AddEdge(graphtides::VertexId src, graphtides::VertexId dst,
                          std::string_view state) {
  ++edges;
  edge_sum += Mix(Mix(Mix(src) ^ dst) ^ HashBytes(state));
}

std::string GraphDigest::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu vertices, %llu edges, %016llx/%016llx",
                static_cast<unsigned long long>(vertices),
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(vertex_sum),
                static_cast<unsigned long long>(edge_sum));
  return buf;
}

GraphDigest DigestOf(const graphtides::Graph& graph) {
  GraphDigest d;
  graph.ForEachVertex([&](graphtides::VertexId id, const std::string& state) {
    d.AddVertex(id, state);
  });
  graph.ForEachEdge([&](graphtides::VertexId src, graphtides::VertexId dst,
                        const std::string& state) { d.AddEdge(src, dst, state); });
  return d;
}

int64_t EstimateAnchorNs(const std::vector<Delivery>& deliveries,
                         double rate_eps) {
  if (deliveries.empty()) return 0;
  const double interval_ns = 1e9 / rate_eps;
  int64_t anchor = std::numeric_limits<int64_t>::max();
  for (const Delivery& d : deliveries) {
    if (d.count == 0) continue;
    const double last_slot = static_cast<double>(d.first + d.count - 1);
    anchor = std::min(
        anchor, d.at_ns - static_cast<int64_t>(std::llround(last_slot *
                                                            interval_ns)));
  }
  return anchor == std::numeric_limits<int64_t>::max() ? 0 : anchor;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

Tail PickTail(const std::vector<double>& sorted,
              const std::vector<double>& candidates, uint64_t min_beyond) {
  Tail best;
  best.samples = sorted.size();
  for (double p : candidates) {
    const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const uint64_t at = rank < 1.0 ? 1 : static_cast<uint64_t>(rank);
    if (at > sorted.size()) continue;
    const uint64_t beyond = sorted.size() - at;
    if (beyond < min_beyond) continue;
    best.percentile = p;
    best.value = sorted[at - 1];
    best.beyond = beyond;
  }
  return best;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
