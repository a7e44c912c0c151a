// Paper Fig. 3 — adjacency micro-benchmark (§3.2): the 11 Table-1 traversal
// queries on (a) the shredded relational hash adjacency tables (SQLGraph,
// whole-query SQL) vs (b) the JSON adjacency documents (Fig. 2c).
//
//   ./bench_fig3_adjacency [--scale=0.3] [--runs=4]

#include <algorithm>

#include "bench_common.h"
#include "gremlin/runtime.h"
#include "sqlgraph/micro_schemas.h"
#include "util/string_util.h"

using namespace sqlgraph;
using namespace sqlgraph::bench;

namespace {

/// BFS with per-hop dedup over the JSON adjacency store (same semantics as
/// the translated query: frontier at hop k).
int64_t RunJsonTraversal(core::JsonAdjacencyStore* store,
                         std::vector<graph::VertexId> frontier,
                         const AdjacencyQuery& q) {
  for (int hop = 0; hop < q.hops; ++hop) {
    auto next = q.both ? store->BothHop(frontier, q.label)
                       : store->OutHop(frontier, q.label);
    if (!next.ok()) return -1;
    frontier = std::move(next).value();
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
  }
  return static_cast<int64_t>(frontier.size());
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = FlagDouble(argc, argv, "--scale", 0.3);
  const int runs = static_cast<int>(FlagInt(argc, argv, "--runs", 4));

  graph::PropertyGraph g = BuildDbpediaGraph(scale);
  auto store = core::SqlGraphStore::Build(g, DbpediaStoreConfig());
  if (!store.ok()) return 1;
  auto json_store = core::JsonAdjacencyStore::Build(g);
  if (!json_store.ok()) return 1;
  gremlin::GremlinRuntime runtime(store->get());

  // Start sets per tag, for the JSON side (SQL side resolves via index).
  auto start_set = [&](const std::string& tag) {
    std::vector<graph::VertexId> out;
    for (const auto& v : g.vertices()) {
      if (v.attrs.Find(tag) != nullptr) out.push_back(v.id);
    }
    return out;
  };

  Banner("Fig. 3 — adjacency micro-benchmark (ms per query)");
  TextTable table({"query", "hops", "input", "result", "HashAdj(ms)",
                   "hash p50/p95/p99", "JsonAdj(ms)", "json/hash"});
  util::RunningStat hash_stat, json_stat;
  for (const auto& q : Table1Queries()) {
    const std::string text = q.ToGremlin();
    int64_t result = -1;
    util::Samples hash_ms = TimedRuns(runs, [&] {
      auto r = runtime.Count(text);
      if (r.ok()) result = *r;
    });
    const std::vector<graph::VertexId> starts = start_set(q.start_tag);
    int64_t json_result = -1;
    util::Samples json_ms = TimedRuns(runs, [&] {
      json_result = RunJsonTraversal(json_store->get(), starts, q);
    });
    if (result != json_result) {
      std::fprintf(stderr, "MISMATCH on lq%d: %lld vs %lld\n", q.id,
                   static_cast<long long>(result),
                   static_cast<long long>(json_result));
    }
    hash_stat.Add(hash_ms.mean());
    json_stat.Add(json_ms.mean());
    table.AddRow({util::StrFormat("lq%d", q.id), std::to_string(q.hops),
                  std::to_string(starts.size()), std::to_string(result),
                  FormatMs(hash_ms.mean()), FormatPercentiles(hash_ms),
                  FormatMs(json_ms.mean()),
                  util::StrFormat("%.1fx", json_ms.mean() /
                                               std::max(0.001, hash_ms.mean()))});
    // Machine-readable line per query.
    JsonLine("bench_fig3_adjacency")
        .Str("query", util::StrFormat("lq%d", q.id))
        .Num("median_ns", hash_ms.Percentile(0.5) * 1e6)
        .Num("p95_ns", hash_ms.Percentile(0.95) * 1e6)
        .Emit();
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nHash adjacency: mean %.1f ms (sd %.1f) | JSON adjacency: mean %.1f "
      "ms (sd %.1f)\n",
      hash_stat.mean(), hash_stat.stddev(), json_stat.mean(),
      json_stat.stddev());
  std::printf("(paper, 300M-edge DBpedia: hash mean 3.2s sd 2.2 vs JSON mean "
              "18.0s sd 11.9 — shredded relational wins)\n");
  return 0;
}
