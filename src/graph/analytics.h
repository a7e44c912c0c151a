// Relational graph analytics over the SQLGraph schema (§5 workloads beyond
// point traversals): PageRank, weakly-connected components, and triangle
// counting expressed as iterated SQL self-joins over the adjacency data.
//
// Each algorithm snapshots the live adjacency out of EA into index-free
// scratch tables (`__an_*`), so every iteration runs as a full-table
// scan + hash join + aggregate pipeline over column batches;
// bench/bench_analytics.cc times the three and checks them against
// reference implementations. Scratch tables are dropped before returning.
//
// Declared in src/graph for discoverability next to the generators, but
// compiled into sqlgraph_core (like wal/durability.cc) because it needs the
// store and the SQL executor.

#ifndef SQLGRAPH_GRAPH_ANALYTICS_H_
#define SQLGRAPH_GRAPH_ANALYTICS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace sqlgraph {
namespace core {
class SqlGraphStore;
}  // namespace core

namespace graph {

struct AnalyticsOptions {
  /// PageRank iteration cap (WCC and triangles iterate to fixpoint).
  int max_iterations = 20;
  double damping = 0.85;
  /// PageRank early-exit: stop when the L1 rank delta drops below this.
  double tolerance = 1e-9;
};

struct PageRankResult {
  /// (vertex id, rank), sorted by vertex id. Ranks sum to <= 1 (dangling
  /// mass is not redistributed, matching the simple power iteration).
  std::vector<std::pair<int64_t, double>> ranks;
  int iterations = 0;
};

struct WccResult {
  /// (vertex id, component label), sorted by vertex id; the label is the
  /// smallest vertex id in the component.
  std::vector<std::pair<int64_t, int64_t>> components;
  int iterations = 0;
};

/// Power-iteration PageRank: per iteration, contributions rank/outdeg are
/// materialized into __an_rank and folded with
///   SELECT t.DST, SUM(r.CONTRIB) FROM __an_rank r, __an_edge t
///   WHERE t.SRC = r.VID GROUP BY t.DST
util::Result<PageRankResult> PageRank(core::SqlGraphStore* store,
                                      const AnalyticsOptions& options = {});

/// Min-label propagation over the undirected edge set until fixpoint.
util::Result<WccResult> WeaklyConnectedComponents(core::SqlGraphStore* store);

/// Counts undirected triangles via a canonical (SRC < DST) edge table
/// self-joined three ways; every triangle matches exactly once.
util::Result<int64_t> TriangleCount(core::SqlGraphStore* store);

}  // namespace graph
}  // namespace sqlgraph

#endif  // SQLGRAPH_GRAPH_ANALYTICS_H_
