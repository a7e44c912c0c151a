// Relational graph analytics (graph/analytics.h): PageRank, WCC, and
// triangle counting validated against straightforward in-memory reference
// implementations (tests/analytics_reference.h).

#include "graph/analytics.h"

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "analytics_reference.h"
#include "graph/property_graph.h"
#include "gtest/gtest.h"
#include "sqlgraph/store.h"

namespace sqlgraph {
namespace graph {
namespace {

/// Random directed multigraph (self-loops and reciprocal edges included, to
/// exercise the canonicalization in triangle counting).
PropertyGraph RandomGraph(uint32_t seed, int64_t n, int64_t m,
                          EdgeList* edges) {
  std::mt19937 rng(seed);
  PropertyGraph g;
  for (int64_t v = 0; v < n; ++v) g.AddVertex();
  std::uniform_int_distribution<int64_t> pick(0, n - 1);
  for (int64_t e = 0; e < m; ++e) {
    int64_t s = pick(rng), d = pick(rng);
    EXPECT_TRUE(g.AddEdge(s, d, e % 2 ? "knows" : "likes").ok());
    edges->emplace_back(s, d);
  }
  return g;
}

TEST(AnalyticsTest, PageRankMatchesReference) {
  EdgeList edges;
  PropertyGraph g = RandomGraph(7, 40, 160, &edges);
  auto store = core::SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  AnalyticsOptions opts;
  auto pr = PageRank(store->get(), opts);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  std::map<int64_t, double> expect = ReferencePageRank(40, edges, opts);
  ASSERT_EQ(pr->ranks.size(), expect.size());
  for (const auto& [vid, rank] : pr->ranks) {
    EXPECT_NEAR(rank, expect.at(vid), 1e-9) << "vid " << vid;
  }
  EXPECT_GT(pr->iterations, 1);
}

TEST(AnalyticsTest, WccMatchesReference) {
  // Sparse graph so there are several components.
  EdgeList edges;
  PropertyGraph g = RandomGraph(11, 60, 45, &edges);
  auto store = core::SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto wcc = WeaklyConnectedComponents(store->get());
  ASSERT_TRUE(wcc.ok()) << wcc.status().ToString();
  std::map<int64_t, int64_t> expect = ReferenceWcc(60, edges);
  ASSERT_EQ(wcc->components.size(), expect.size());
  for (const auto& [vid, lbl] : wcc->components) {
    EXPECT_EQ(lbl, expect.at(vid)) << "vid " << vid;
  }
}

TEST(AnalyticsTest, TriangleCountMatchesReference) {
  EdgeList edges;
  PropertyGraph g = RandomGraph(13, 30, 180, &edges);
  auto store = core::SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto tri = TriangleCount(store->get());
  ASSERT_TRUE(tri.ok()) << tri.status().ToString();
  EXPECT_EQ(*tri, ReferenceTriangles(edges));
  EXPECT_GT(*tri, 0);  // dense 30-vertex graph must contain triangles
}

TEST(AnalyticsTest, EmptyGraph) {
  PropertyGraph g;
  auto store = core::SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto pr = PageRank(store->get());
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  EXPECT_TRUE(pr->ranks.empty());
  auto wcc = WeaklyConnectedComponents(store->get());
  ASSERT_TRUE(wcc.ok()) << wcc.status().ToString();
  EXPECT_TRUE(wcc->components.empty());
  auto tri = TriangleCount(store->get());
  ASSERT_TRUE(tri.ok()) << tri.status().ToString();
  EXPECT_EQ(*tri, 0);
}

TEST(AnalyticsTest, ScratchTablesAreDropped) {
  EdgeList edges;
  PropertyGraph g = RandomGraph(17, 10, 20, &edges);
  auto store = core::SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(PageRank(store->get()).ok());
  ASSERT_TRUE(WeaklyConnectedComponents(store->get()).ok());
  ASSERT_TRUE(TriangleCount(store->get()).ok());
  for (const char* name :
       {"__an_edge", "__an_und", "__an_cedge", "__an_rank", "__an_lbl"}) {
    EXPECT_EQ((*store)->db()->GetTable(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace graph
}  // namespace sqlgraph
