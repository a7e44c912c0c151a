// Relational graph analytics (graph/analytics.h): PageRank, weakly-
// connected components, and triangle counting through the SQL executor over
// one store. Every case is first checked against the in-memory reference
// implementations (tests/analytics_reference.h), then timed.
//
//   ./bench_analytics [--n=3000] [--deg=8] [--runs=4] [--quick] [--check]
//
// --quick shrinks the graph and run count for CI smoke use; --check exits
// non-zero when a SQL result differs from its reference (the ci/check.sh
// analytics smoke stage).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <random>
#include <string>

#include "../tests/analytics_reference.h"
#include "bench_common.h"
#include "graph/analytics.h"
#include "graph/property_graph.h"
#include "sqlgraph/store.h"

namespace sqlgraph {
namespace bench {
namespace {

/// Uniform random digraph: controllable density, deterministic seed.
graph::PropertyGraph RandomGraph(int64_t n, int64_t deg) {
  std::mt19937 rng(20150531);
  graph::PropertyGraph g;
  for (int64_t v = 0; v < n; ++v) g.AddVertex();
  std::uniform_int_distribution<int64_t> pick(0, n - 1);
  for (int64_t e = 0; e < n * deg; ++e) {
    (void)g.AddEdge(pick(rng), pick(rng), e % 2 ? "knows" : "likes");
  }
  return g;
}

/// Runs each algorithm once and compares it with its reference; prints the
/// first mismatch and returns false on any.
bool MatchesReferences(core::SqlGraphStore* s, const graph::PropertyGraph& g,
                       const graph::AnalyticsOptions& opts) {
  const auto n = static_cast<int64_t>(g.NumVertices());
  graph::EdgeList edges;
  for (const auto& e : g.edges()) edges.emplace_back(e.src, e.dst);

  auto pr = graph::PageRank(s, opts);
  if (!pr.ok()) {
    std::fprintf(stderr, "pagerank failed: %s\n",
                 pr.status().ToString().c_str());
    return false;
  }
  const std::map<int64_t, double> want_pr =
      graph::ReferencePageRank(n, edges, opts);
  if (pr->ranks.size() != want_pr.size()) {
    std::fprintf(stderr, "pagerank: %zu ranks, reference has %zu\n",
                 pr->ranks.size(), want_pr.size());
    return false;
  }
  for (const auto& [vid, rank] : pr->ranks) {
    auto it = want_pr.find(vid);
    if (it == want_pr.end() || std::fabs(rank - it->second) > 1e-9) {
      std::fprintf(stderr, "pagerank differs from the reference at vid %lld\n",
                   static_cast<long long>(vid));
      return false;
    }
  }

  auto wcc = graph::WeaklyConnectedComponents(s);
  if (!wcc.ok()) {
    std::fprintf(stderr, "wcc failed: %s\n", wcc.status().ToString().c_str());
    return false;
  }
  const std::map<int64_t, int64_t> want_wcc = graph::ReferenceWcc(n, edges);
  if (wcc->components.size() != want_wcc.size()) {
    std::fprintf(stderr, "wcc: %zu labels, reference has %zu\n",
                 wcc->components.size(), want_wcc.size());
    return false;
  }
  for (const auto& [vid, label] : wcc->components) {
    auto it = want_wcc.find(vid);
    if (it == want_wcc.end() || it->second != label) {
      std::fprintf(stderr, "wcc differs from the reference at vid %lld\n",
                   static_cast<long long>(vid));
      return false;
    }
  }

  auto tri = graph::TriangleCount(s);
  if (!tri.ok()) {
    std::fprintf(stderr, "triangles failed: %s\n",
                 tri.status().ToString().c_str());
    return false;
  }
  const int64_t want_tri = graph::ReferenceTriangles(edges);
  if (*tri != want_tri) {
    std::fprintf(stderr, "triangles: %lld, reference %lld\n",
                 static_cast<long long>(*tri),
                 static_cast<long long>(want_tri));
    return false;
  }
  std::printf("reference check ok: %zu ranks, %zu components, %lld "
              "triangles\n",
              pr->ranks.size(), wcc->components.size(),
              static_cast<long long>(*tri));
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace sqlgraph

int main(int argc, char** argv) {
  using namespace sqlgraph;
  using namespace sqlgraph::bench;

  const bool quick = FlagBool(argc, argv, "--quick");
  const bool check = FlagBool(argc, argv, "--check");
  const int64_t n = FlagInt(argc, argv, "--n", quick ? 500 : 3000);
  const int64_t deg = FlagInt(argc, argv, "--deg", 8);
  const int runs = static_cast<int>(
      FlagInt(argc, argv, "--runs", quick ? 3 : 4));

  Banner("graph analytics: PageRank, WCC and triangles as SQL");
  std::printf("graph: %lld vertices, avg out-degree %lld; %d timed runs\n",
              static_cast<long long>(n), static_cast<long long>(deg), runs);

  graph::PropertyGraph g = RandomGraph(n, deg);
  auto store = core::SqlGraphStore::Build(g);
  if (!store.ok()) {
    std::fprintf(stderr, "store build failed: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  core::SqlGraphStore* s = store->get();
  graph::AnalyticsOptions opts;
  opts.max_iterations = quick ? 4 : 8;
  opts.tolerance = 0;  // fixed iteration count: identical work every run

  if (check && !MatchesReferences(s, g, opts)) {
    std::fprintf(stderr, "CHECK FAILED: SQL analytics differ from the "
                         "references\n");
    return 1;
  }

  struct Case {
    const char* name;
    std::function<bool()> run;
  };
  const Case cases[] = {
      {"pagerank", [&] { return graph::PageRank(s, opts).ok(); }},
      {"wcc", [&] { return graph::WeaklyConnectedComponents(s).ok(); }},
      {"triangles", [&] { return graph::TriangleCount(s).ok(); }},
  };
  for (const Case& c : cases) {
    util::Samples t = TimedRuns(runs, [&] {
      if (!c.run()) std::abort();
    });
    const double ms = t.Percentile(0.5);
    std::printf("%-10s %9.2f ms\n", c.name, ms);
    JsonLine("bench_analytics")
        .Str("case", c.name)
        .Num("vertices", static_cast<double>(n))
        .Num("avg_degree", static_cast<double>(deg))
        .Num("ms_p50", ms)
        .Emit();
  }
  return 0;
}
