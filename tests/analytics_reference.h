// In-memory reference implementations of the relational graph analytics
// (graph/analytics.h): PageRank by power iteration, WCC by union-find and
// triangle counting over the canonical undirected edge set. The analytics
// tests and bench/bench_analytics.cc --check compare the SQL results with
// these.

#ifndef SQLGRAPH_TESTS_ANALYTICS_REFERENCE_H_
#define SQLGRAPH_TESTS_ANALYTICS_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "graph/analytics.h"

namespace sqlgraph {
namespace graph {

/// Directed edges as (source, destination) vertex ids.
using EdgeList = std::vector<std::pair<int64_t, int64_t>>;

/// Reference PageRank matching the analytics semantics: dangling mass
/// dropped, damping d, base (1-d)/N, fixed iteration count.
inline std::map<int64_t, double> ReferencePageRank(
    int64_t n, const EdgeList& edges, const AnalyticsOptions& opts) {
  std::map<int64_t, double> rank;
  std::map<int64_t, int64_t> outdeg;
  for (int64_t v = 0; v < n; ++v) rank[v] = 1.0 / static_cast<double>(n);
  for (const auto& [s, d] : edges) ++outdeg[s];
  const double base = (1.0 - opts.damping) / static_cast<double>(n);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    std::map<int64_t, double> next;
    for (int64_t v = 0; v < n; ++v) next[v] = base;
    for (const auto& [s, d] : edges) {
      next[d] += opts.damping * rank[s] / static_cast<double>(outdeg[s]);
    }
    double delta = 0;
    for (const auto& [v, r] : next) delta += std::fabs(r - rank[v]);
    rank = std::move(next);
    if (delta < opts.tolerance) break;
  }
  return rank;
}

/// Reference WCC by union-find.
inline std::map<int64_t, int64_t> ReferenceWcc(int64_t n,
                                               const EdgeList& edges) {
  std::vector<int64_t> parent(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) parent[static_cast<size_t>(v)] = v;
  std::function<int64_t(int64_t)> find = [&](int64_t v) -> int64_t {
    while (parent[static_cast<size_t>(v)] != v) {
      parent[static_cast<size_t>(v)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(v)])];
      v = parent[static_cast<size_t>(v)];
    }
    return v;
  };
  for (const auto& [s, d] : edges) {
    int64_t a = find(s), b = find(d);
    if (a != b) parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
  }
  // Component label = smallest vertex id in the component.
  std::map<int64_t, int64_t> label;
  for (int64_t v = 0; v < n; ++v) {
    int64_t root = find(v);
    auto it = label.find(root);
    if (it == label.end() || v < it->second) label[root] = std::min(root, v);
  }
  std::map<int64_t, int64_t> out;
  for (int64_t v = 0; v < n; ++v) out[v] = label[find(v)];
  return out;
}

/// Reference triangle count over the canonical undirected edge set.
inline int64_t ReferenceTriangles(const EdgeList& edges) {
  std::set<std::pair<int64_t, int64_t>> canon;
  for (const auto& [s, d] : edges) {
    if (s != d) canon.emplace(std::min(s, d), std::max(s, d));
  }
  int64_t count = 0;
  for (const auto& [a, b] : canon) {
    for (const auto& [a2, c] : canon) {
      if (a2 != b) continue;  // need edge (b, c) with b < c
      if (canon.count({a, c})) ++count;
    }
  }
  return count;
}

}  // namespace graph
}  // namespace sqlgraph

#endif  // SQLGRAPH_TESTS_ANALYTICS_REFERENCE_H_
