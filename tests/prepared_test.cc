// Tests for the prepared-query pipeline: bind parameters in the SQL layer,
// the store's plan cache with schema-epoch invalidation, and the Gremlin
// translation cache.

#include <algorithm>
#include <thread>
#include <vector>

#include "graph/property_graph.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "sqlgraph/store.h"

namespace sqlgraph {
namespace core {
namespace {

using graph::PropertyGraph;
using graph::VertexId;

json::JsonValue Attrs(
    std::initializer_list<std::pair<const char*, json::JsonValue>> members) {
  json::JsonValue obj = json::JsonValue::Object();
  for (const auto& [k, v] : members) obj.Set(k, v);
  return obj;
}

/// The Fig. 2a running example: marko(0), vadas(1), lop(2), josh(3).
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
  auto w = [](double x) { return Attrs({{"weight", json::JsonValue(x)}}); };
  EXPECT_TRUE(g.AddEdge(0, 1, "knows", w(0.5)).ok());    // e0
  EXPECT_TRUE(g.AddEdge(0, 3, "knows", w(1.0)).ok());    // e1
  EXPECT_TRUE(g.AddEdge(0, 2, "created", w(0.4)).ok());  // e2
  EXPECT_TRUE(g.AddEdge(3, 2, "created", w(0.2)).ok());  // e3
  EXPECT_TRUE(g.AddEdge(3, 1, "likes", w(0.8)).ok());    // e4
  return g;
}

std::vector<int64_t> SortedVals(const sql::ResultSet& rs) {
  std::vector<int64_t> out;
  for (const auto& row : rs.rows) out.push_back(row[0].AsInt());
  std::sort(out.begin(), out.end());
  return out;
}

class PreparedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto built = SqlGraphStore::Build(SampleGraph());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    store_ = std::move(built).value();
  }
  std::unique_ptr<SqlGraphStore> store_;
};

// ------------------------------------------------------ parser / binds ----

TEST(ParamParsingTest, PositionalAndNamedPlaceholders) {
  auto q = sql::ParseQuery("SELECT EID FROM EA WHERE INV = ? AND LBL = :lbl");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_params, 2);
  // Rendering preserves the placeholders for the round trip.
  const std::string text = sql::Render(*q);
  EXPECT_NE(text.find("?"), std::string::npos);
  EXPECT_NE(text.find(":lbl"), std::string::npos);
}

TEST(ParamParsingTest, RepeatedNamedParamSharesOneSlot) {
  auto q = sql::ParseQuery(
      "SELECT EID FROM EA WHERE INV = :v OR OUTV = :v");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_params, 1);
}

TEST_F(PreparedTest, UnboundParameterIsAnError) {
  auto prepared = store_->Prepare("SELECT OUTV FROM EA WHERE INV = ?");
  ASSERT_TRUE(prepared.ok());
  sql::ParamBindings empty;
  auto result = store_->ExecutePrepared(**prepared, empty);
  EXPECT_FALSE(result.ok());
}

// ----------------------------------------------- prepare/bind/execute ----

TEST_F(PreparedTest, SameTemplateDifferentBinds) {
  auto prepared = store_->Prepare("SELECT OUTV FROM EA WHERE INV = :v");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->param_count(), 1);

  sql::ParamBindings marko;
  marko.named["v"] = rel::Value(int64_t{0});
  auto r0 = store_->ExecutePrepared(**prepared, marko);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(SortedVals(*r0), (std::vector<int64_t>{1, 2, 3}));

  sql::ParamBindings josh;
  josh.named["v"] = rel::Value(int64_t{3});
  auto r3 = store_->ExecutePrepared(**prepared, josh);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(SortedVals(*r3), (std::vector<int64_t>{1, 2}));
}

TEST_F(PreparedTest, PositionalBindsWork) {
  auto prepared = store_->Prepare(
      "SELECT EID FROM EA WHERE INV = ? AND LBL = ?");
  ASSERT_TRUE(prepared.ok());
  sql::ParamBindings binds(
      {rel::Value(int64_t{0}), rel::Value(std::string("knows"))});
  auto r = store_->ExecutePrepared(**prepared, binds);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(SortedVals(*r), (std::vector<int64_t>{0, 1}));
}

// ----------------------------------------------------------- plan cache ----

TEST_F(PreparedTest, SecondExecutionHitsPlanCache) {
  const char* text = "SELECT COUNT(*) FROM EA WHERE LBL = 'knows'";
  sql::ExecStats first;
  auto r1 = store_->ExecuteSql(text, &first);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(first.plan_cache_misses, 1u);
  EXPECT_EQ(first.plan_cache_hits, 0u);

  sql::ExecStats second;
  auto r2 = store_->ExecuteSql(text, &second);
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(second.plan_cache_hits, 0u);
  EXPECT_EQ(second.plan_cache_misses, 0u);
  EXPECT_EQ(r2->rows[0][0].AsInt(), 2);
}

TEST_F(PreparedTest, WhitespaceVariantsShareOneEntry) {
  sql::ExecStats stats;
  ASSERT_TRUE(store_->ExecuteSql("SELECT COUNT(*) FROM EA").ok());
  ASSERT_TRUE(store_->ExecuteSql("SELECT   COUNT(*)\n  FROM  EA", &stats).ok());
  EXPECT_GT(stats.plan_cache_hits, 0u);
}

TEST(PlanCacheTest, NormalizedAndRawSpellingsShareOneEntry) {
  // Already-normalized text is looked up in place, raw text through
  // NormalizeSql; either order of first sight must land on one entry.
  const char* normalized = "SELECT COUNT(*) FROM EA WHERE LBL = 'a  b'";
  const char* raw = "  SELECT COUNT(*)\n\tFROM   EA WHERE LBL = 'a  b'  ";
  ASSERT_EQ(sql::PlanCache::NormalizeSql(raw), normalized);
  for (bool normalized_first : {true, false}) {
    sql::PlanCache cache;
    const char* first = normalized_first ? normalized : raw;
    const char* second = normalized_first ? raw : normalized;
    auto a = cache.GetOrPrepare(first, /*epoch=*/0, nullptr);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    auto b = cache.GetOrPrepare(second, /*epoch=*/0, nullptr);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->get(), b->get());
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ((*a)->sql(), normalized);
  }
}

TEST_F(PreparedTest, ExecutePreparedCountsHits) {
  auto prepared = store_->Prepare("SELECT OUTV FROM EA WHERE INV = ?");
  ASSERT_TRUE(prepared.ok());
  sql::ParamBindings binds({rel::Value(int64_t{0})});
  sql::ExecStats stats;
  ASSERT_TRUE(store_->ExecutePrepared(**prepared, binds, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
}

// ------------------------------------------------- epoch invalidation ----

TEST_F(PreparedTest, AddEdgeAdjacencyReshapeBumpsEpoch) {
  // Vertex 1 (vadas) has no out-edges: the first AddEdge inserts its
  // adjacency row, the second converts the single value to a list — a
  // DDL-equivalent reshape that must invalidate cached plans.
  const uint64_t before = store_->schema_epoch();
  ASSERT_TRUE(store_->AddEdge(1, 2, "created", Attrs({})).ok());
  ASSERT_TRUE(store_->AddEdge(1, 3, "created", Attrs({})).ok());
  EXPECT_GT(store_->schema_epoch(), before);
}

TEST_F(PreparedTest, StaleHandleIsReparedTransparently) {
  auto prepared = store_->Prepare("SELECT OUTV FROM EA WHERE INV = :v");
  ASSERT_TRUE(prepared.ok());
  // Reshape adjacency storage so the handle's epoch goes stale.
  ASSERT_TRUE(store_->AddEdge(1, 2, "created", Attrs({})).ok());
  ASSERT_TRUE(store_->AddEdge(1, 3, "created", Attrs({})).ok());
  ASSERT_NE((*prepared)->schema_epoch(), store_->schema_epoch());

  sql::ParamBindings binds;
  binds.named["v"] = rel::Value(int64_t{1});
  sql::ExecStats stats;
  auto r = store_->ExecutePrepared(**prepared, binds, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Re-preparation happened (a miss, not a hit) and the result reflects the
  // post-mutation graph.
  EXPECT_GT(stats.plan_cache_misses, 0u);
  EXPECT_EQ(SortedVals(*r), (std::vector<int64_t>{2, 3}));
}

TEST_F(PreparedTest, CompactBumpsEpoch) {
  ASSERT_TRUE(store_->RemoveVertex(1).ok());
  const uint64_t before = store_->schema_epoch();
  ASSERT_TRUE(store_->Compact().ok());
  EXPECT_GT(store_->schema_epoch(), before);
  // Cached plans re-prepare and see the compacted graph.
  sql::ExecStats stats;
  auto r = store_->ExecuteSql("SELECT COUNT(*) FROM EA", &stats);
  ASSERT_TRUE(r.ok());
  // e0 and e4 referenced vadas and were removed at soft-delete time.
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
}

// ------------------------------------------------------ adjacency path ----

TEST_F(PreparedTest, AdjacencyCallsReuseTemplates) {
  // First calls compile the EA templates; repeats must be pure cache hits.
  ASSERT_TRUE(store_->GetOutEdges(0, "knows").ok());
  ASSERT_TRUE(store_->Out(0, "").ok());
  const uint64_t misses_after_warmup = store_->plan_cache().misses();
  for (int i = 0; i < 5; ++i) {
    auto edges = store_->GetOutEdges(0, "knows");
    ASSERT_TRUE(edges.ok());
    EXPECT_EQ(edges->size(), 2u);
    auto out = store_->Out(0, "");
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 3u);
  }
  // The warm path reuses the compiled templates: every call is a plan-cache
  // hit, with no further compilations.
  EXPECT_EQ(store_->plan_cache().misses(), misses_after_warmup);
}

// ------------------------------------------------- translation cache ----

TEST_F(PreparedTest, TranslationCacheSharesPipelineShapes) {
  gremlin::GremlinRuntime runtime(store_.get());
  auto marko = runtime.Count("g.V.has('name','marko').out().count()");
  ASSERT_TRUE(marko.ok()) << marko.status().ToString();
  EXPECT_EQ(*marko, 3);
  // Same shape, different constant: must hit the translation cache and
  // still produce the other vertex's neighbourhood.
  auto josh = runtime.Count("g.V.has('name','josh').out().count()");
  ASSERT_TRUE(josh.ok());
  EXPECT_EQ(*josh, 2);
  EXPECT_EQ(runtime.translation_cache().size(), 1u);
  EXPECT_GT(runtime.translation_cache().hits(), 0u);
}

TEST_F(PreparedTest, TranslationCacheDistinguishesShapes) {
  gremlin::GremlinRuntime runtime(store_.get());
  // Different labels change color pruning, so these are different shapes.
  ASSERT_TRUE(runtime.Count("g.V(0).out('knows').count()").ok());
  ASSERT_TRUE(runtime.Count("g.V(0).out('created').count()").ok());
  EXPECT_EQ(runtime.translation_cache().size(), 2u);
}

// ----------------------------------------------------------- concurrency ----

TEST_F(PreparedTest, ConcurrentExecuteSqlIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        sql::ExecStats stats;
        auto r = store_->ExecuteSql("SELECT COUNT(*) FROM EA", &stats);
        if (!r.ok() || r->rows[0][0].AsInt() != 5) ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All but the very first execution were plan-cache hits.
  EXPECT_GE(store_->plan_cache().hits(),
            static_cast<uint64_t>(kThreads * kIters - 1));
}

}  // namespace
}  // namespace core
}  // namespace sqlgraph
