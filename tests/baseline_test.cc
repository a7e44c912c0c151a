// Tests for the baseline stores (NativeStore, KvStore), the SQLGraph
// Blueprints adapter, and the pipe-at-a-time Gremlin interpreter.

#include <algorithm>
#include <memory>

#include "baseline/gremlin_interp.h"
#include "baseline/kv_store.h"
#include "baseline/native_store.h"
#include "baseline/sqlgraph_adapter.h"
#include "gtest/gtest.h"

namespace sqlgraph {
namespace baseline {
namespace {

using graph::PropertyGraph;
using graph::VertexId;

json::JsonValue Attrs(
    std::initializer_list<std::pair<const char*, json::JsonValue>> members) {
  json::JsonValue obj = json::JsonValue::Object();
  for (const auto& [k, v] : members) obj.Set(k, v);
  return obj;
}

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
  EXPECT_TRUE(g.AddEdge(0, 1, "knows", w(0.5)).ok());
  EXPECT_TRUE(g.AddEdge(0, 3, "knows", w(1.0)).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, "created", w(0.4)).ok());
  EXPECT_TRUE(g.AddEdge(3, 2, "created", w(0.2)).ok());
  EXPECT_TRUE(g.AddEdge(3, 1, "likes", w(0.8)).ok());
  return g;
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

enum class StoreKind { kNative, kKv, kSqlGraphAdapter };

struct StoreBundle {
  std::unique_ptr<GraphDb> db;
  std::unique_ptr<core::SqlGraphStore> backing;  // adapter only
};

StoreBundle MakeStore(StoreKind kind, const PropertyGraph& g) {
  StoreBundle bundle;
  switch (kind) {
    case StoreKind::kNative: {
      NativeStoreConfig cfg;
      cfg.indexed_keys = {"name"};
      auto built = NativeStore::Build(g, cfg);
      EXPECT_TRUE(built.ok());
      bundle.db = std::move(built).value();
      return bundle;
    }
    case StoreKind::kKv: {
      KvStoreConfig cfg;
      cfg.indexed_keys = {"name"};
      auto built = KvStore::Build(g, cfg);
      EXPECT_TRUE(built.ok());
      bundle.db = std::move(built).value();
      return bundle;
    }
    case StoreKind::kSqlGraphAdapter: {
      core::StoreConfig cfg;
      cfg.va_hash_indexes = {"name"};
      auto built = core::SqlGraphStore::Build(g, cfg);
      EXPECT_TRUE(built.ok());
      bundle.backing = std::move(built).value();
      bundle.db = std::make_unique<SqlGraphAdapter>(bundle.backing.get());
      return bundle;
    }
  }
  return bundle;
}

class GraphDbTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    bundle_ = MakeStore(GetParam(), SampleGraph());
    ASSERT_NE(bundle_.db, nullptr);
    db_ = bundle_.db.get();
  }
  StoreBundle bundle_;
  GraphDb* db_ = nullptr;
};

TEST_P(GraphDbTest, GetVertexAndTraversal) {
  auto marko = db_->GetVertex(0);
  ASSERT_TRUE(marko.ok());
  EXPECT_EQ(marko->Find("name")->AsString(), "marko");
  EXPECT_TRUE(db_->GetVertex(77).status().IsNotFound());

  EXPECT_EQ(Sorted(*db_->Out(0, {})), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(Sorted(*db_->Out(0, {"knows"})), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(Sorted(*db_->In(2, {})), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(Sorted(*db_->In(1, {"likes"})), (std::vector<VertexId>{3}));
  EXPECT_EQ(db_->OutE(0, {})->size(), 3u);
  EXPECT_EQ(db_->InE(1, {})->size(), 2u);
}

TEST_P(GraphDbTest, CrudLifecycle) {
  auto peter = db_->AddVertex(Attrs({{"name", json::JsonValue("peter")}}));
  ASSERT_TRUE(peter.ok());
  auto e = db_->AddEdge(*peter, 2, "created", Attrs({}));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(Sorted(*db_->In(2, {})), (std::vector<VertexId>{0, 3, *peter}));

  ASSERT_TRUE(db_->SetVertexAttr(*peter, "age", json::JsonValue(35)).ok());
  EXPECT_EQ(db_->GetVertex(*peter)->Find("age")->AsInt(), 35);

  ASSERT_TRUE(db_->SetEdgeAttr(*e, "weight", json::JsonValue(0.7)).ok());
  EXPECT_DOUBLE_EQ(db_->GetEdge(*e)->attrs.Find("weight")->AsDouble(), 0.7);

  auto found = db_->FindEdge(*peter, "created", 2);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ(**found, *e);

  ASSERT_TRUE(db_->RemoveEdge(*e).ok());
  EXPECT_TRUE(db_->Out(*peter, {})->empty());
  EXPECT_EQ(Sorted(*db_->In(2, {})), (std::vector<VertexId>{0, 3}));

  ASSERT_TRUE(db_->RemoveVertex(*peter).ok());
  EXPECT_TRUE(db_->GetVertex(*peter).status().IsNotFound());
}

TEST_P(GraphDbTest, RemoveVertexDetachesEdges) {
  ASSERT_TRUE(db_->RemoveVertex(1).ok());  // vadas: in-edges e0, e4
  EXPECT_TRUE(db_->GetEdge(0).status().IsNotFound());
  EXPECT_TRUE(db_->GetEdge(4).status().IsNotFound());
  // marko/josh adjacency no longer reports vadas through the EA-style APIs.
  EXPECT_EQ(Sorted(*db_->OutE(0, {"knows"})), (std::vector<graph::EdgeId>{1}));
}

TEST_P(GraphDbTest, LinkPrimitives) {
  auto links = db_->GetOutEdges(0, "knows");
  ASSERT_TRUE(links.ok());
  ASSERT_EQ(links->size(), 2u);
  EXPECT_EQ(*db_->CountOutEdges(0, "knows"), 2);
  EXPECT_EQ(*db_->CountOutEdges(0, ""), 3);
  EXPECT_EQ(*db_->CountOutEdges(1, ""), 0);
}

TEST(DeletedVertexReadsTest, SqlGraphStoreMatchesNativeStore) {
  // Link reads on a deleted (1) or never-created (77) vertex answer
  // NotFound in both stores; on a live vertex with no matching edges (2 has
  // no out-edges, 0 no 'likes') both answer OK and empty.
  const PropertyGraph g = SampleGraph();
  auto native = NativeStore::Build(g, NativeStoreConfig{});
  ASSERT_TRUE(native.ok());
  auto store = core::SqlGraphStore::Build(g, core::StoreConfig{});
  ASSERT_TRUE(store.ok());
  NativeStore& n = **native;
  core::SqlGraphStore& s = **store;
  ASSERT_TRUE(n.RemoveVertex(1).ok());
  ASSERT_TRUE(s.RemoveVertex(1).ok());

  auto same_status = [](const util::Status& a, const util::Status& b) {
    return a.ok() == b.ok() && a.IsNotFound() == b.IsNotFound();
  };
  for (VertexId v : {0, 1, 2, 3, 77}) {
    for (const std::string label : {"", "knows", "likes"}) {
      const std::vector<std::string> labels =
          label.empty() ? std::vector<std::string>{}
                        : std::vector<std::string>{label};
      const std::string at = "vertex " + std::to_string(v) + " label '" +
                             label + "'";
      auto ne = n.GetOutEdges(v, label);
      auto se = s.GetOutEdges(v, label);
      ASSERT_TRUE(same_status(ne.status(), se.status()))
          << at << ": " << ne.status().ToString() << " vs "
          << se.status().ToString();
      if (ne.ok()) EXPECT_EQ(ne->size(), se->size()) << at;
      auto nc = n.CountOutEdges(v, label);
      auto sc = s.CountOutEdges(v, label);
      ASSERT_TRUE(same_status(nc.status(), sc.status())) << at;
      if (nc.ok()) EXPECT_EQ(*nc, *sc) << at;
      for (VertexId dst : {2, 3}) {
        auto nf = n.FindEdge(v, label, dst);
        auto sf = s.FindEdge(v, label, dst);
        ASSERT_TRUE(same_status(nf.status(), sf.status())) << at;
        if (nf.ok()) EXPECT_EQ(nf->has_value(), sf->has_value()) << at;
      }
      auto no = n.Out(v, labels);
      auto so = s.Out(v, label);
      ASSERT_TRUE(same_status(no.status(), so.status())) << at;
      if (no.ok()) EXPECT_EQ(Sorted(*no), Sorted(*so)) << at;
      auto ni = n.In(v, labels);
      auto si = s.In(v, label);
      ASSERT_TRUE(same_status(ni.status(), si.status())) << at;
      if (ni.ok()) EXPECT_EQ(Sorted(*ni), Sorted(*si)) << at;
    }
  }
  EXPECT_TRUE(s.Out(1).status().IsNotFound());
  EXPECT_TRUE(s.CountOutEdges(77, "").status().IsNotFound());
  EXPECT_TRUE(s.Out(2).ok());
}

TEST_P(GraphDbTest, VertexLookups) {
  EXPECT_EQ(db_->AllVertices()->size(), 4u);
  auto by_name = db_->VerticesByAttr("name", rel::Value("josh"));
  ASSERT_TRUE(by_name.ok());
  ASSERT_EQ(by_name->size(), 1u);
  EXPECT_EQ((*by_name)[0], 3);
  // Unindexed key falls back to a scan but stays correct.
  auto by_lang = db_->VerticesByAttr("lang", rel::Value("java"));
  ASSERT_TRUE(by_lang.ok());
  ASSERT_EQ(by_lang->size(), 1u);
  EXPECT_EQ((*by_lang)[0], 2);
}

TEST_P(GraphDbTest, SerializedBytesNonTrivial) {
  EXPECT_GT(db_->SerializedBytes(), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllStores, GraphDbTest,
                         ::testing::Values(StoreKind::kNative, StoreKind::kKv,
                                           StoreKind::kSqlGraphAdapter),
                         [](const auto& info) {
                           switch (info.param) {
                             case StoreKind::kNative: return "Native";
                             case StoreKind::kKv: return "Kv";
                             default: return "SqlGraphAdapter";
                           }
                         });

// ----------------------------------------------------------- interpreter --

class InterpTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    bundle_ = MakeStore(GetParam(), SampleGraph());
    interp_ = std::make_unique<GremlinInterpreter>(bundle_.db.get());
  }
  int64_t MustCount(const std::string& q) {
    auto r = interp_->Count(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status().ToString();
    return r.ok() ? *r : -1;
  }
  StoreBundle bundle_;
  std::unique_ptr<GremlinInterpreter> interp_;
};

TEST_P(InterpTest, CoreQueries) {
  EXPECT_EQ(MustCount("g.V.count()"), 4);
  EXPECT_EQ(MustCount("g.V(0).out('knows').count()"), 2);
  EXPECT_EQ(MustCount("g.V(0).out().out().count()"), 2);
  EXPECT_EQ(MustCount("g.V.has('age', T.gt, 27).count()"), 2);
  EXPECT_EQ(MustCount("g.V(0).both().dedup().count()"), 3);
  EXPECT_EQ(MustCount("g.V(0).outE('knows').inV().count()"), 2);
  EXPECT_EQ(MustCount("g.V('name', 'josh').out('created').count()"), 1);
  EXPECT_EQ(MustCount("g.V(0).out().loop(1){true}.dedup().count()"), 3);
  EXPECT_EQ(
      MustCount("g.V(0).out('knows').aggregate('x').out('created')"
                ".except('x').count()"),
      1);
}

INSTANTIATE_TEST_SUITE_P(AllStores, InterpTest,
                         ::testing::Values(StoreKind::kNative, StoreKind::kKv,
                                           StoreKind::kSqlGraphAdapter),
                         [](const auto& info) {
                           switch (info.param) {
                             case StoreKind::kNative: return "Native";
                             case StoreKind::kKv: return "Kv";
                             default: return "SqlGraphAdapter";
                           }
                         });

TEST(RoundTripChargeTest, BusyWaitTakesConfiguredTime) {
  util::Stopwatch sw;
  ChargeRoundTrip(200);
  EXPECT_GE(sw.ElapsedMicros(), 200.0);
  EXPECT_LT(sw.ElapsedMicros(), 5000.0);
}

TEST(RoundTripChargeTest, StoresHonorConfiguredOverhead) {
  PropertyGraph g = SampleGraph();
  NativeStoreConfig cfg;
  cfg.round_trip_micros = 300;
  auto store = NativeStore::Build(g, cfg);
  ASSERT_TRUE(store.ok());
  util::Stopwatch sw;
  ASSERT_TRUE((*store)->GetVertex(0).ok());
  EXPECT_GE(sw.ElapsedMicros(), 300.0);
}

}  // namespace
}  // namespace baseline
}  // namespace sqlgraph
