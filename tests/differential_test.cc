// Differential Gremlin fuzz suite: random property graphs and random
// Table-8-subset pipelines run through BOTH engines —
//   (a) whole-query Gremlin→SQL translation on SqlGraphStore (§4.2), and
//   (b) the pipe-at-a-time interpreter over the Neo4j-like NativeStore —
// asserting identical result multisets (not just counts). Every case is
// seeded, so a failure line reproduces exactly.
//
// Local runs cover ≥200 cases; CI elevates the per-seed trial count via the
// SQLGRAPH_DIFF_TRIALS environment variable (see ci/check.sh).

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "baseline/gremlin_interp.h"
#include "baseline/native_store.h"
#include "graph/dbpedia_gen.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "sqlgraph/store.h"
#include "sqlgraph/txn.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace sqlgraph {
namespace {

using core::SqlGraphStore;
using core::StoreConfig;
using graph::PropertyGraph;
using graph::VertexId;

/// Trials per seed: 25 locally (16 seeds → 400 cases), CI sets
/// SQLGRAPH_DIFF_TRIALS to push each seed harder.
int TrialsPerSeed() {
  const char* env = std::getenv("SQLGRAPH_DIFF_TRIALS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return 25;
}

const char* kEdgeLabels[] = {
    "http://dbpedia.org/ontology/rel_0",
    "http://dbpedia.org/ontology/rel_1",
    "http://dbpedia.org/ontology/rel_2",
};
const char* kGenres[] = {"Rocken", "Jazz", "Folk"};

/// Random graph in the DBpedia shape's image: URI edge labels, a 'genre'
/// string attribute and a 'w' integer attribute on every vertex; between
/// `min_vertices` and `min_vertices + 39` vertices.
PropertyGraph RandomGraph(util::Rng* rng, size_t min_vertices = 20) {
  PropertyGraph g;
  const size_t n = min_vertices + rng->Uniform(40);
  for (size_t i = 0; i < n; ++i) {
    json::JsonValue attrs = json::JsonValue::Object();
    attrs.Set("w", static_cast<int64_t>(rng->Uniform(10)));
    attrs.Set("genre", std::string(kGenres[rng->Uniform(3)]));
    g.AddVertex(std::move(attrs));
  }
  const size_t edges = n * (2 + rng->Uniform(3));
  for (size_t i = 0; i < edges; ++i) {
    (void)g.AddEdge(static_cast<VertexId>(rng->Uniform(n)),
                    static_cast<VertexId>(rng->Uniform(n)),
                    kEdgeLabels[rng->Uniform(3)], json::JsonValue::Object());
  }
  return g;
}

/// A random pipeline drawn from the Table-8 template families both engines
/// support: start filters, labeled/unlabeled traversal, edge hops, has
/// predicates, dedup, as/back, with a count() or bare-multiset terminal.
std::string RandomTable8Pipeline(util::Rng* rng, size_t num_vertices,
                                 bool* is_count) {
  std::string q;
  switch (rng->Uniform(3)) {
    case 0:
      q = util::StrFormat("g.V(%llu)", static_cast<unsigned long long>(
                                           rng->Uniform(num_vertices)));
      break;
    case 1:
      q = util::StrFormat("g.V.has('genre','%s')", kGenres[rng->Uniform(3)]);
      break;
    default:
      q = "g.V";
  }
  bool named = false;
  const int steps = 1 + static_cast<int>(rng->Uniform(4));
  for (int i = 0; i < steps; ++i) {
    switch (rng->Uniform(9)) {
      case 0:
        q += util::StrFormat(".out('%s')", kEdgeLabels[rng->Uniform(3)]);
        break;
      case 1:
        q += util::StrFormat(".in('%s')", kEdgeLabels[rng->Uniform(3)]);
        break;
      case 2: q += ".out()"; break;
      case 3: q += ".both()"; break;
      case 4:
        // dedup() between as('x') and back('x') keeps an arbitrary
        // representative per distinct element, so back('x') would expose an
        // engine-dependent choice of surviving traverser. Resolve the
        // pending name first; dedup is fair game again afterwards.
        if (named) {
          q += ".back('x')";
          named = false;
        } else {
          q += ".dedup()";
        }
        break;
      case 5:
        q += util::StrFormat(".has('w', T.%s, %llu)",
                             rng->Chance(0.5) ? "gt" : "lte",
                             static_cast<unsigned long long>(rng->Uniform(10)));
        break;
      case 6:
        q += util::StrFormat(".outE('%s').inV()", kEdgeLabels[rng->Uniform(3)]);
        break;
      case 7:
        // as('x') ... back('x') — the Table-8 back-reference family. Only
        // one named step per pipeline, and back only after it exists.
        if (!named) {
          q += ".as('x').out()";
          named = true;
        } else {
          q += ".back('x')";
          named = false;  // consume the name once
        }
        break;
      default:
        q += util::StrFormat(".has('genre','%s')", kGenres[rng->Uniform(3)]);
    }
  }
  *is_count = rng->Chance(0.5);
  if (*is_count) q += ".dedup().count()";
  return q;
}

/// SQL-side result multiset: the `val` column of the whole-query execution.
std::multiset<int64_t> SqlVals(gremlin::GremlinRuntime* runtime,
                               const std::string& q, bool* ok) {
  std::multiset<int64_t> out;
  auto r = runtime->Query(q);
  *ok = r.ok();
  if (!r.ok()) return out;
  const int col = r->FindColumn("val");
  if (col < 0) {
    *ok = false;
    return out;
  }
  for (const auto& row : r->rows) {
    out.insert(row[static_cast<size_t>(col)].AsInt());
  }
  return out;
}

/// Interpreter-side result multiset: ids of the surviving traversers.
std::multiset<int64_t> InterpVals(baseline::GremlinInterpreter* interp,
                                  const std::string& q, bool* ok) {
  std::multiset<int64_t> out;
  auto r = interp->Query(q);
  *ok = r.ok();
  if (!r.ok()) return out;
  for (const auto& t : *r) out.insert(t.id);
  return out;
}

void RunDifferentialTrials(SqlGraphStore* store, baseline::GraphDb* native,
                           util::Rng* rng, size_t num_vertices, int trials,
                           const char* tag) {
  gremlin::GremlinRuntime runtime(store);
  baseline::GremlinInterpreter interp(native);
  for (int trial = 0; trial < trials; ++trial) {
    bool is_count = false;
    const std::string q = RandomTable8Pipeline(rng, num_vertices, &is_count);
    bool sql_ok = false, interp_ok = false;
    const std::multiset<int64_t> a = SqlVals(&runtime, q, &sql_ok);
    const std::multiset<int64_t> b = InterpVals(&interp, q, &interp_ok);
    ASSERT_TRUE(sql_ok) << tag << " trial " << trial << ": " << q;
    ASSERT_TRUE(interp_ok) << tag << " trial " << trial << ": " << q;
    EXPECT_EQ(a, b) << tag << " trial " << trial << ": " << q;
  }
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, SqlTranslationMatchesInterpreterMultisets) {
  util::Rng rng(0xD1FF + static_cast<uint64_t>(GetParam()) * 6700417);
  PropertyGraph g = RandomGraph(&rng);
  StoreConfig config;
  config.va_hash_indexes = {"genre"};
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto native = baseline::NativeStore::Build(g);
  ASSERT_TRUE(native.ok());
  RunDifferentialTrials(store->get(), native->get(), &rng, g.NumVertices(),
                        TrialsPerSeed(), "random-graph");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(0, 16));

// ----------------------------- transaction-snapshot differential oracle --

std::multiset<int64_t> ValsOf(const sql::ResultSet& rs, bool* ok) {
  std::multiset<int64_t> out;
  const int col = rs.FindColumn("val");
  if (col < 0) {
    *ok = false;
    return out;
  }
  *ok = true;
  for (const auto& row : rs.rows) {
    out.insert(row[static_cast<size_t>(col)].AsInt());
  }
  return out;
}

// Autocommit vs transaction-snapshot equivalence: the translated SQL for a
// random Table-8 pipeline is executed (a) autocommit, then (b) inside a
// transaction begun at that same state — AFTER further autocommit writes
// have moved the live tables. The snapshot run must reproduce (a) exactly:
// any MVCC visibility leak in scans, templates, or index lookups shows up
// as a multiset mismatch.
class TxnSnapshotDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TxnSnapshotDifferentialTest, SnapshotSqlMatchesPreMutationAutocommit) {
  util::Rng rng(0x7A9CF + static_cast<uint64_t>(GetParam()) * 32452843);
  PropertyGraph g = RandomGraph(&rng);
  StoreConfig config;
  config.va_hash_indexes = {"genre"};
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  gremlin::GremlinRuntime runtime(store->get());
  const size_t n = g.NumVertices();

  auto mutate = [&](util::Rng* r) {
    const auto vid = static_cast<VertexId>(r->Uniform(n));
    const json::JsonValue w(static_cast<int64_t>(r->Uniform(10)));
    ASSERT_TRUE((*store)->SetVertexAttr(vid, "w", w).ok());
    const auto src = static_cast<VertexId>(r->Uniform(n));
    const auto dst = static_cast<VertexId>(r->Uniform(n));
    const char* label = kEdgeLabels[r->Uniform(3)];
    ASSERT_TRUE(
        (*store)->AddEdge(src, dst, label, json::JsonValue::Object()).ok());
  };

  const int trials = TrialsPerSeed();
  for (int trial = 0; trial < trials; ++trial) {
    bool is_count = false;
    const std::string q = RandomTable8Pipeline(&rng, n, &is_count);
    // Inline-constant SQL so the exact same text runs on both paths.
    auto sql = runtime.TranslateToSql(q);
    ASSERT_TRUE(sql.ok()) << "trial " << trial << ": " << q;

    bool ok = false;
    auto autocommit = (*store)->ExecuteSql(*sql);
    ASSERT_TRUE(autocommit.ok()) << "trial " << trial << ": " << q << "\n"
                                 << autocommit.status().ToString();
    const std::multiset<int64_t> want = ValsOf(*autocommit, &ok);
    ASSERT_TRUE(ok) << q;

    // Pin a snapshot, then move the live tables out from under it.
    auto txn = (*store)->BeginTxn();
    mutate(&rng);

    auto snap = txn->ExecuteSql(*sql);
    ASSERT_TRUE(snap.ok()) << "trial " << trial << " (txn): " << q << "\n"
                           << snap.status().ToString();
    EXPECT_EQ(ValsOf(*snap, &ok), want)
        << "snapshot diverged, trial " << trial << ": " << q;
    ASSERT_TRUE(txn->Rollback().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnSnapshotDifferentialTest,
                         ::testing::Range(0, 6));

// Same harness over the DBpedia-shaped generator the benchmarks use, with
// varying generator seeds — exercises the skewed label distribution and
// multi-type structure the uniform random graphs lack.
class DbpediaDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DbpediaDifferentialTest, SqlTranslationMatchesInterpreterMultisets) {
  graph::DbpediaConfig gen_config;
  gen_config.scale = 0.004;
  gen_config.seed = 20150531 + static_cast<uint64_t>(GetParam());
  PropertyGraph g = graph::DbpediaGenerator(gen_config).Generate();
  ASSERT_GT(g.NumVertices(), 0u);
  StoreConfig config;
  config.va_hash_indexes = {"genre"};
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto native = baseline::NativeStore::Build(g);
  ASSERT_TRUE(native.ok());
  util::Rng rng(0xDB9ED1A + static_cast<uint64_t>(GetParam()) * 104729);
  RunDifferentialTrials(store->get(), native->get(), &rng, g.NumVertices(),
                        TrialsPerSeed(), "dbpedia-shape");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbpediaDifferentialTest,
                         ::testing::Range(0, 4));

// Paged storage: the same oracle over StorageMode::kPaged stores whose
// buffer pool holds an eighth of the store, so the executor's scans and
// index fetches read rows out of page images that are copied in and
// evicted throughout each query. The random graphs here have at least 130
// vertices, so every table has sealed pages besides its unsealed tail.
void RunPagedDifferentialTrials(const PropertyGraph& g, util::Rng* rng,
                                const char* tag) {
  StoreConfig config;
  config.va_hash_indexes = {"genre"};
  config.storage = rel::StorageMode::kPaged;
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  rel::BufferPool* pool = (*store)->db()->buffer_pool();
  pool->set_capacity((*store)->SerializedBytes() / 8);
  pool->Clear();
  auto native = baseline::NativeStore::Build(g);
  ASSERT_TRUE(native.ok());
  RunDifferentialTrials(store->get(), native->get(), rng, g.NumVertices(),
                        TrialsPerSeed(), tag);
  EXPECT_GT(pool->evictions(), 0u) << "pool never filled; nothing was paged";
  EXPECT_LE(pool->cached_bytes(), pool->capacity());
}

class PagedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PagedDifferentialTest, RandomGraphMatchesInterpreterMultisets) {
  util::Rng rng(0x9A6ED + static_cast<uint64_t>(GetParam()) * 2750159);
  const PropertyGraph g = RandomGraph(&rng, /*min_vertices=*/130);
  RunPagedDifferentialTrials(g, &rng, "paged-random-graph");
}

TEST_P(PagedDifferentialTest, DbpediaShapeMatchesInterpreterMultisets) {
  graph::DbpediaConfig gen_config;
  gen_config.scale = 0.004;
  gen_config.seed = 20150607 + static_cast<uint64_t>(GetParam());
  const PropertyGraph g = graph::DbpediaGenerator(gen_config).Generate();
  util::Rng rng(0x9A6EDB + static_cast<uint64_t>(GetParam()) * 104723);
  RunPagedDifferentialTrials(g, &rng, "paged-dbpedia-shape");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PagedDifferentialTest, ::testing::Range(0, 4));

// Soft deletes: delete the same vertices in each store, verify the VID >= 0
// guards hide them from scans and from the EA fast path, then Compact the
// SQL side (purging negated rows and dangling adjacency references,
// §4.5.2) and require FULL multiset agreement with the hard-deleting
// baseline. Pre-Compact, unlabeled multi-hop traversals may still cross
// dangling OPA/OSA references to deleted vertices — that is the paper's
// lazy-delete design, not a bug (see property_test.cc), so full
// differential fuzzing only applies post-Compact.
TEST(DifferentialSoftDeleteTest, EnginesAgreeAfterDeletesAndCompact) {
  util::Rng rng(0x5073DE1);
  PropertyGraph g = RandomGraph(&rng);
  StoreConfig config;
  config.va_hash_indexes = {"genre"};
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok());
  auto native = baseline::NativeStore::Build(g);
  ASSERT_TRUE(native.ok());

  // Delete ~1/4 of the vertices from both stores. Keep vertex 0 alive so
  // g.V(0) starts stay meaningful.
  std::set<VertexId> removed;
  const size_t n = g.NumVertices();
  for (size_t i = 0; i < n / 4; ++i) {
    const VertexId vid = static_cast<VertexId>(1 + rng.Uniform(n - 1));
    if (!removed.insert(vid).second) continue;
    ASSERT_TRUE((*store)->RemoveVertex(vid).ok());
    ASSERT_TRUE((*native)->RemoveVertex(vid).ok());
  }
  ASSERT_FALSE(removed.empty());

  {
    gremlin::GremlinRuntime runtime(store->get());
    bool ok = false;
    // g.V must not surface any soft-deleted vertex id (VID >= 0 guard).
    const std::multiset<int64_t> all = SqlVals(&runtime, "g.V", &ok);
    ASSERT_TRUE(ok);
    for (VertexId vid : removed) {
      EXPECT_EQ(all.count(vid), 0u) << "soft-deleted vid " << vid;
    }
    EXPECT_EQ(all.size(), n - removed.size());
    // Labeled single hops run on EA, whose incident rows were removed
    // outright — deleted endpoints are invisible immediately.
    for (const char* label : kEdgeLabels) {
      const std::string q = util::StrFormat("g.V(0).out('%s')", label);
      const std::multiset<int64_t> out = SqlVals(&runtime, q, &ok);
      ASSERT_TRUE(ok) << q;
      for (VertexId vid : removed) {
        EXPECT_EQ(out.count(vid), 0u) << q << " leaked deleted vid " << vid;
      }
    }
  }

  // Compact purges negated rows AND dangling adjacency references; the two
  // engines must then agree on arbitrary pipelines again.
  ASSERT_TRUE((*store)->Compact().ok());
  RunDifferentialTrials(store->get(), native->get(), &rng, n, 80,
                        "after-compact");
}

}  // namespace
}  // namespace sqlgraph
