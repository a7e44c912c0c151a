// Tests for store snapshots (save → open round trips).

#include <cstdio>
#include <string>

#include "graph/dbpedia_gen.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "sqlgraph/snapshot.h"
#include "temp_dir.h"

namespace sqlgraph {
namespace core {
namespace {

using testutil::TempPath;

json::JsonValue Attr(const char* key, json::JsonValue value) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set(key, std::move(value));
  return obj;
}

graph::PropertyGraph SmallGraph() {
  graph::PropertyGraph g;
  for (int i = 0; i < 6; ++i) {
    g.AddVertex(Attr("name", json::JsonValue("v" + std::to_string(i))));
  }
  (void)g.AddEdge(0, 1, "knows", Attr("weight", json::JsonValue(0.5)));
  (void)g.AddEdge(0, 2, "knows", Attr("weight", json::JsonValue(0.7)));
  (void)g.AddEdge(1, 3, "created", json::JsonValue::Object());
  (void)g.AddEdge(4, 5, "likes", json::JsonValue::Object());
  return g;
}

TEST(SnapshotTest, RoundTripPreservesQueriesAndSchema) {
  StoreConfig config;
  config.va_hash_indexes = {"name"};
  auto original = SqlGraphStore::Build(SmallGraph(), config);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("snapshot_roundtrip.sqlg");
  ASSERT_TRUE(SaveSnapshot(**original, path).ok());

  auto reopened = OpenSnapshot(path, config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Same coloring layout.
  EXPECT_EQ((*reopened)->schema().out_colors, (*original)->schema().out_colors);
  EXPECT_EQ((*reopened)->schema().out_hash.ColorOf("knows"),
            (*original)->schema().out_hash.ColorOf("knows"));
  // Same query results through both the API and Gremlin.
  for (SqlGraphStore* store : {original->get(), reopened->get()}) {
    auto out = store->Out(0, "knows");
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 2u);
  }
  gremlin::GremlinRuntime a(original->get()), b(reopened->get());
  for (const char* q :
       {"g.V.count()", "g.V(0).out('knows').count()",
        "g.V.has('name', 'v3').in().count()",
        "g.V(0).outE('knows').has('weight', T.gt, 0.6).inV().count()"}) {
    auto ra = a.Count(q), rb = b.Count(q);
    ASSERT_TRUE(ra.ok() && rb.ok()) << q;
    EXPECT_EQ(*ra, *rb) << q;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, CountersSurviveReopen) {
  auto original = SqlGraphStore::Build(SmallGraph());
  ASSERT_TRUE(original.ok());
  // Mutate: new vertex + edge + a soft delete, so counters moved and
  // negative ids exist.
  auto peter = (*original)->AddVertex(Attr("name", json::JsonValue("peter")));
  ASSERT_TRUE(peter.ok());
  ASSERT_TRUE((*original)->AddEdge(*peter, 0, "knows",
                                   json::JsonValue::Object()).ok());
  ASSERT_TRUE((*original)->RemoveVertex(3).ok());

  const std::string path = TempPath("snapshot_counters.sqlg");
  ASSERT_TRUE(SaveSnapshot(**original, path).ok());
  auto reopened = OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  // New ids continue past the snapshot, never reusing old ones.
  auto v = (*reopened)->AddVertex(Attr("name", json::JsonValue("new")));
  ASSERT_TRUE(v.ok());
  EXPECT_GT(*v, *peter);
  // Soft-deleted vertex stays deleted; compaction still works.
  EXPECT_TRUE((*reopened)->GetVertex(3).status().IsNotFound());
  ASSERT_TRUE((*reopened)->Compact().ok());
  EXPECT_TRUE((*reopened)->GetVertex(3).status().IsNotFound());
  std::remove(path.c_str());
}

TEST(SnapshotTest, MultiValueAdjacencySurvives) {
  // A DBpedia-like slice exercises OSA/ISA lists and wide rows.
  graph::DbpediaConfig cfg;
  cfg.scale = 0.005;
  graph::PropertyGraph g = graph::DbpediaGenerator(cfg).Generate();
  auto original = SqlGraphStore::Build(g);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("snapshot_dbpedia.sqlg");
  ASSERT_TRUE(SaveSnapshot(**original, path).ok());
  auto reopened = OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (graph::VertexId v = 0; v < static_cast<graph::VertexId>(g.NumVertices());
       v += 17) {
    auto a = (*original)->Out(v);
    auto b = (*reopened)->Out(v);
    ASSERT_TRUE(a.ok() && b.ok());
    std::sort(a->begin(), a->end());
    std::sort(b->begin(), b->end());
    EXPECT_EQ(*a, *b) << "vertex " << v;
  }
  EXPECT_EQ((*reopened)->load_stats().osa_rows,
            (*original)->load_stats().osa_rows);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsGarbage) {
  const std::string path = TempPath("snapshot_garbage.sqlg");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a snapshot at all", f);
    std::fclose(f);
  }
  EXPECT_FALSE(OpenSnapshot(path).ok());
  EXPECT_TRUE(OpenSnapshot(TempPath("missing.sqlg")).status().IsNotFound());
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedFileFailsCleanly) {
  auto original = SqlGraphStore::Build(SmallGraph());
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("snapshot_trunc.sqlg");
  ASSERT_TRUE(SaveSnapshot(**original, path).ok());
  // Truncate to 60%.
  std::string contents;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      contents.append(chunk, n);
    }
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(contents.data(), 1, contents.size() * 6 / 10, f);
    std::fclose(f);
  }
  EXPECT_FALSE(OpenSnapshot(path).ok());
  std::remove(path.c_str());
}

TEST(SnapshotTest, FlippedByteFailsChecksum) {
  auto original = SqlGraphStore::Build(SmallGraph());
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("snapshot_flip.sqlg");
  ASSERT_TRUE(SaveSnapshot(**original, path).ok());
  std::string contents;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      contents.append(chunk, n);
    }
    std::fclose(f);
  }
  // Flip one byte in the middle of a section body: the per-section CRC must
  // catch it with a checksum Status rather than decoding garbage rows.
  std::string damaged = contents;
  damaged[damaged.size() / 2] ^= 0x10;
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(damaged.data(), 1, damaged.size(), f);
    std::fclose(f);
  }
  auto flipped = OpenSnapshot(path);
  ASSERT_FALSE(flipped.ok());
  EXPECT_NE(flipped.status().ToString().find("checksum"), std::string::npos)
      << flipped.status().ToString();

  // Cutting the EOF trailer (e.g. a crash mid-write) is reported as
  // truncation even though every section still checks out.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(contents.data(), 1, contents.size() - 4, f);
    std::fclose(f);
  }
  auto cut = OpenSnapshot(path);
  ASSERT_FALSE(cut.ok());
  EXPECT_NE(cut.status().ToString().find("trailer"), std::string::npos)
      << cut.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace sqlgraph
