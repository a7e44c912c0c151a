// Tests for the core SQLGraph store: schema/loader shredding, CRUD stored
// procedures, soft deletes + compaction, and the micro-benchmark schemas.

#include <algorithm>

#include "graph/dbpedia_gen.h"
#include "graph/property_graph.h"
#include "gtest/gtest.h"
#include "sqlgraph/micro_schemas.h"
#include "sqlgraph/store.h"
#include "util/string_util.h"

namespace sqlgraph {
namespace core {
namespace {

using graph::PropertyGraph;
using graph::VertexId;
using rel::Value;

json::JsonValue Attrs(std::initializer_list<std::pair<const char*, json::JsonValue>>
                          members) {
  json::JsonValue obj = json::JsonValue::Object();
  for (const auto& [k, v] : members) obj.Set(k, v);
  return obj;
}

/// The paper's running example (Fig. 2a): marko(0), vadas(1), lop(2),
/// josh(3). Edge ids 0..4.
PropertyGraph SampleGraph() {
  PropertyGraph g;
  g.AddVertex(Attrs({{"name", json::JsonValue("marko")},
                     {"age", json::JsonValue(29)}}));
  g.AddVertex(Attrs({{"name", json::JsonValue("vadas")},
                     {"age", json::JsonValue(27)}}));
  g.AddVertex(Attrs({{"name", json::JsonValue("lop")},
                     {"lang", json::JsonValue("java")}}));
  g.AddVertex(Attrs({{"name", json::JsonValue("josh")},
                     {"age", json::JsonValue(32)}}));
  auto w = [](double x) {
    return Attrs({{"weight", json::JsonValue(x)}});
  };
  EXPECT_TRUE(g.AddEdge(0, 1, "knows", w(0.5)).ok());    // e0
  EXPECT_TRUE(g.AddEdge(0, 3, "knows", w(1.0)).ok());    // e1
  EXPECT_TRUE(g.AddEdge(0, 2, "created", w(0.4)).ok());  // e2
  EXPECT_TRUE(g.AddEdge(3, 2, "created", w(0.2)).ok());  // e3
  EXPECT_TRUE(g.AddEdge(3, 1, "likes", w(0.8)).ok());    // e4
  return g;
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = SqlGraphStore::Build(SampleGraph());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    store_ = std::move(built).value();
  }
  std::unique_ptr<SqlGraphStore> store_;
};

TEST_F(StoreTest, SchemaTablesExist) {
  for (const char* t : {"OPA", "IPA", "OSA", "ISA", "VA", "EA"}) {
    EXPECT_NE(store_->db()->GetTable(t), nullptr) << t;
  }
  EXPECT_EQ(store_->db()->GetTable("VA")->NumRows(), 4u);
  EXPECT_EQ(store_->db()->GetTable("EA")->NumRows(), 5u);
}

TEST_F(StoreTest, ColoringSeparatesCooccurringLabels) {
  // marko has knows+created out-edges; josh has created+likes.
  const auto& h = store_->schema().out_hash;
  EXPECT_NE(h.ColorOf("knows") % store_->schema().out_colors,
            h.ColorOf("created") % store_->schema().out_colors);
  EXPECT_NE(h.ColorOf("likes") % store_->schema().out_colors,
            h.ColorOf("created") % store_->schema().out_colors);
}

TEST_F(StoreTest, MultiValuedLabelUsesSecondaryTable) {
  // marko --knows--> {vadas, josh} is multi-valued → OSA rows (Fig. 5b).
  EXPECT_EQ(store_->db()->GetTable("OSA")->NumRows(), 2u);
  EXPECT_EQ(store_->load_stats().osa_rows, 2u);
  // Adjacency expansion resolves through the list.
  auto out = store_->Out(0, "knows");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Sorted(*out), (std::vector<VertexId>{1, 3}));
}

TEST_F(StoreTest, LoadStatsShape) {
  const LoadStats& s = store_->load_stats();
  EXPECT_EQ(s.num_vertices, 4u);
  EXPECT_EQ(s.num_edges, 5u);
  EXPECT_EQ(s.num_out_labels, 3u);
  EXPECT_EQ(s.out_spill_rows, 0u);  // coloring fits everything in one row
  EXPECT_EQ(s.in_spill_rows, 0u);
}

TEST_F(StoreTest, OutInNeighborsMatchSample) {
  EXPECT_EQ(Sorted(*store_->Out(0)), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(Sorted(*store_->Out(3)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(Sorted(*store_->In(2)), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(Sorted(*store_->In(1)), (std::vector<VertexId>{0, 3}));
  EXPECT_TRUE(store_->Out(1)->empty());
  EXPECT_EQ(Sorted(*store_->Out(0, "created")), (std::vector<VertexId>{2}));
}

TEST_F(StoreTest, GetVertexAndEdge) {
  auto marko = store_->GetVertex(0);
  ASSERT_TRUE(marko.ok());
  EXPECT_EQ(marko->Find("name")->AsString(), "marko");
  auto e0 = store_->GetEdge(0);
  ASSERT_TRUE(e0.ok());
  EXPECT_EQ(e0->src, 0);
  EXPECT_EQ(e0->dst, 1);
  EXPECT_EQ(e0->label, "knows");
  EXPECT_DOUBLE_EQ(e0->attrs.Find("weight")->AsDouble(), 0.5);
  EXPECT_TRUE(store_->GetVertex(99).status().IsNotFound());
  EXPECT_TRUE(store_->GetEdge(99).status().IsNotFound());
}

TEST_F(StoreTest, AddVertexAndEdgeCrud) {
  auto peter = store_->AddVertex(Attrs({{"name", json::JsonValue("peter")}}));
  ASSERT_TRUE(peter.ok());
  EXPECT_EQ(*peter, 4);
  auto e = store_->AddEdge(*peter, 2, "created", Attrs({}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Sorted(*store_->Out(*peter)), (std::vector<VertexId>{2}));
  EXPECT_EQ(Sorted(*store_->In(2)), (std::vector<VertexId>{0, 3, 4}));
  // EA and adjacency stay consistent.
  auto rec = store_->GetEdge(*e);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->src, *peter);
  EXPECT_EQ(rec->dst, 2);
}

TEST_F(StoreTest, AddEdgeConvertsSingleToMultiValue) {
  // josh --created--> lop is single-valued; adding a second `created` edge
  // from josh must convert it to a list.
  const size_t osa_before = store_->db()->GetTable("OSA")->NumRows();
  ASSERT_TRUE(store_->AddEdge(3, 0, "created", Attrs({})).ok());
  EXPECT_EQ(store_->db()->GetTable("OSA")->NumRows(), osa_before + 2);
  EXPECT_EQ(Sorted(*store_->Out(3, "created")), (std::vector<VertexId>{0, 2}));
}

TEST_F(StoreTest, AddEdgeWithNewLabelSpillsOnConflict) {
  // Force a conflicting label by crafting one that hashes to the same color
  // as an occupied triad — simplest trigger: add many distinct labels.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        store_->AddEdge(0, 1, "newlabel_" + std::to_string(i), Attrs({})).ok());
  }
  auto out = store_->Out(0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u + 12u);
}

TEST_F(StoreTest, RemoveEdgeSingleAndMulti) {
  // Remove one of marko's two knows edges (multi-value list shrink).
  ASSERT_TRUE(store_->RemoveEdge(0).ok());
  EXPECT_EQ(Sorted(*store_->Out(0, "knows")), (std::vector<VertexId>{3}));
  EXPECT_TRUE(store_->GetEdge(0).status().IsNotFound());
  // Remove the remaining one (list empties, triad clears).
  ASSERT_TRUE(store_->RemoveEdge(1).ok());
  EXPECT_TRUE(store_->Out(0, "knows")->empty());
  EXPECT_EQ(Sorted(*store_->Out(0)), (std::vector<VertexId>{2}));
  // Idempotence.
  EXPECT_TRUE(store_->RemoveEdge(0).IsNotFound());
}

TEST_F(StoreTest, SetAttrs) {
  ASSERT_TRUE(store_->SetVertexAttr(1, "age", json::JsonValue(28)).ok());
  EXPECT_EQ(store_->GetVertex(1)->Find("age")->AsInt(), 28);
  ASSERT_TRUE(store_->SetEdgeAttr(4, "weight", json::JsonValue(0.9)).ok());
  EXPECT_DOUBLE_EQ(store_->GetEdge(4)->attrs.Find("weight")->AsDouble(), 0.9);
}

TEST_F(StoreTest, FindEdge) {
  auto found = store_->FindEdge(0, "knows", 3);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ(**found, 1);
  auto missing = store_->FindEdge(0, "likes", 3);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->has_value());
}

TEST_F(StoreTest, GetOutEdgesAndCount) {
  auto links = store_->GetOutEdges(0, "knows");
  ASSERT_TRUE(links.ok());
  EXPECT_EQ(links->size(), 2u);
  EXPECT_EQ(*store_->CountOutEdges(0, ""), 3);
  EXPECT_EQ(*store_->CountOutEdges(0, "created"), 1);
}

TEST_F(StoreTest, SoftDeleteVertex) {
  ASSERT_TRUE(store_->RemoveVertex(3).ok());  // josh
  EXPECT_TRUE(store_->GetVertex(3).status().IsNotFound());
  // josh's incident EA rows are gone.
  EXPECT_TRUE(store_->GetEdge(1).status().IsNotFound());
  EXPECT_TRUE(store_->GetEdge(3).status().IsNotFound());
  EXPECT_TRUE(store_->GetEdge(4).status().IsNotFound());
  // His own adjacency rows are hidden (negated ids), and adjacency reads on
  // the deleted vertex answer NotFound like GetVertex.
  EXPECT_TRUE(store_->Out(3).status().IsNotFound());
  // g.V-style queries exclude him via the VID >= 0 guard.
  auto result = store_->ExecuteSql("SELECT COUNT(*) FROM VA WHERE VID >= 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt(), 3);
  // Deleting again reports NotFound.
  EXPECT_TRUE(store_->RemoveVertex(3).IsNotFound());
  // The id is NOT reused.
  auto v = store_->AddVertex(Attrs({}));
  ASSERT_TRUE(v.ok());
  EXPECT_GT(*v, 3);
}

TEST_F(StoreTest, CompactRemovesDeletedRowsAndDanglingRefs) {
  ASSERT_TRUE(store_->RemoveVertex(1).ok());  // vadas
  ASSERT_TRUE(store_->Compact().ok());
  // Physical removal.
  EXPECT_EQ(store_->db()->GetTable("VA")->NumRows(), 3u);
  // marko's dangling knows→vadas entry is cleaned; only josh remains.
  EXPECT_EQ(Sorted(*store_->Out(0, "knows")), (std::vector<VertexId>{3}));
  // Compact with nothing to do is a no-op.
  ASSERT_TRUE(store_->Compact().ok());
  EXPECT_EQ(store_->db()->GetTable("VA")->NumRows(), 3u);
}

TEST_F(StoreTest, ExecuteSqlSeesGraph) {
  auto result = store_->ExecuteSql(
      "SELECT COUNT(*) FROM EA WHERE LBL = 'knows'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt(), 2);
}

TEST_F(StoreTest, EmptyGraphStore) {
  auto empty = SqlGraphStore::Build(PropertyGraph());
  ASSERT_TRUE(empty.ok());
  auto v = (*empty)->AddVertex(Attrs({{"x", json::JsonValue(1)}}));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0);
  auto v2 = (*empty)->AddVertex(Attrs({}));
  auto e = (*empty)->AddEdge(*v, *v2, "self", Attrs({}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Sorted(*(*empty)->Out(*v)), (std::vector<VertexId>{*v2}));
}

TEST(StoreConfigTest, ModuloHashAblationStillCorrect) {
  StoreConfig config;
  config.use_coloring = false;
  config.max_adjacency_colors = 4;
  auto store = SqlGraphStore::Build(SampleGraph(), config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(Sorted(*(*store)->Out(0)), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(Sorted(*(*store)->In(2)), (std::vector<VertexId>{0, 3}));
}

TEST(StoreConfigTest, TinyColorCapForcesSpills) {
  StoreConfig config;
  config.max_adjacency_colors = 1;  // every label shares one triad
  auto store = SqlGraphStore::Build(SampleGraph(), config);
  ASSERT_TRUE(store.ok());
  EXPECT_GT((*store)->load_stats().out_spill_rows, 0u);
  // Correctness is preserved through spill rows.
  EXPECT_EQ(Sorted(*(*store)->Out(0)), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(Sorted(*(*store)->Out(3)), (std::vector<VertexId>{1, 2}));
}

TEST(StoreConfigTest, PagedStorageWorks) {
  StoreConfig config;
  config.storage = rel::StorageMode::kPaged;
  config.buffer_pool_bytes = 1 << 20;
  auto store = SqlGraphStore::Build(SampleGraph(), config);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(Sorted(*(*store)->Out(0)), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_GT((*store)->SerializedBytes(), 0u);
}

// ----------------------------------------------------------- micro store --

TEST(JsonAdjacencyStoreTest, HopsMatchGraph) {
  PropertyGraph g = SampleGraph();
  auto store = JsonAdjacencyStore::Build(g);
  ASSERT_TRUE(store.ok());
  auto hop = (*store)->OutHop({0});
  ASSERT_TRUE(hop.ok());
  EXPECT_EQ(Sorted(*hop), (std::vector<VertexId>{1, 2, 3}));
  hop = (*store)->OutHop({0}, "knows");
  EXPECT_EQ(Sorted(*hop), (std::vector<VertexId>{1, 3}));
  hop = (*store)->InHop({2});
  EXPECT_EQ(Sorted(*hop), (std::vector<VertexId>{0, 3}));
  hop = (*store)->BothHop({1});
  EXPECT_EQ(Sorted(*hop), (std::vector<VertexId>{0, 3}));
  // Multi-hop multiset semantics.
  auto two = (*store)->OutHop(*(*store)->OutHop({0}));
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(Sorted(*two), (std::vector<VertexId>{1, 2}));  // via josh
}

TEST(HashAttrStoreTest, CountsMatchJsonSide) {
  graph::DbpediaConfig cfg;
  cfg.scale = 0.01;
  PropertyGraph g = graph::DbpediaGenerator(cfg).Generate();
  auto store = HashAttrStore::Build(g);
  ASSERT_TRUE(store.ok());

  // Ground truth from the property graph itself.
  auto expect_count = [&](const std::string& key, auto pred) {
    size_t n = 0;
    for (const auto& v : g.vertices()) {
      const json::JsonValue* a = v.attrs.Find(key);
      if (a != nullptr && pred(*a)) ++n;
    }
    return n;
  };
  using K = HashAttrStore::QueryKind;
  auto always = [](const json::JsonValue&) { return true; };
  EXPECT_EQ(*(*store)->CountMatches("label", K::kNotNull, Value()),
            expect_count("label", always));
  EXPECT_EQ(*(*store)->CountMatches("national", K::kNotNull, Value()),
            expect_count("national", always));
  EXPECT_EQ(
      *(*store)->CountMatches("label", K::kLike, Value("%en")),
      expect_count("label", [](const json::JsonValue& v) {
        return v.is_string() && util::EndsWith(v.AsString(), "en");
      }));
  EXPECT_EQ(
      *(*store)->CountMatches("longm", K::kEqNumeric, Value(int64_t{1})),
      expect_count("longm", [](const json::JsonValue& v) {
        return v.is_number() && v.AsDouble() == 1.0;
      }));
  EXPECT_EQ(*(*store)->CountMatches("nosuchkey", K::kNotNull, Value()), 0u);
}

TEST(HashAttrStoreTest, StatsPopulated) {
  graph::DbpediaConfig cfg;
  cfg.scale = 0.01;
  PropertyGraph g = graph::DbpediaGenerator(cfg).Generate();
  auto store = HashAttrStore::Build(g);
  ASSERT_TRUE(store.ok());
  const auto& s = (*store)->stats();
  EXPECT_GT(s.num_keys, 5u);
  EXPECT_GT(s.colors, 1u);
  EXPECT_GT(s.max_bucket, 0u);
  // label values like "Entity 123"@en are short; long strings come from
  // URIs (uri attribute > 40 chars).
  EXPECT_GT(s.long_string_rows, 0u);
}

}  // namespace
}  // namespace core
}  // namespace sqlgraph
