// Edge-case and failure-injection tests across the stack: recursion caps,
// quote/escape handling end to end, supernode multi-value lists, spill +
// CRUD interplay, paged snapshots, empty results.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "gremlin/parser.h"
#include "gremlin/runtime.h"
#include "json/json_parser.h"
#include "rel/codec.h"
#include "gtest/gtest.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sqlgraph/snapshot.h"
#include "sqlgraph/store.h"
#include "temp_dir.h"

namespace sqlgraph {
namespace {

using core::SqlGraphStore;
using core::StoreConfig;
using graph::PropertyGraph;
using graph::VertexId;

json::JsonValue Attr(const char* key, json::JsonValue value) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set(key, std::move(value));
  return obj;
}

TEST(EdgeCaseTest, RecursionCapSurfacesAsError) {
  // A 6-deep chain with a max_recursion of 3 must fail, not hang.
  rel::Database db;
  rel::Schema s;
  s.AddColumn("src", rel::ColumnType::kInt64, false);
  s.AddColumn("dst", rel::ColumnType::kInt64, false);
  auto t = db.CreateTable("chain", std::move(s));
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*t)->Insert({rel::Value(i), rel::Value(i + 1)}).ok());
  }
  sql::Executor::Options opts;
  opts.max_recursion = 3;
  sql::Executor exec(&db, opts);
  auto r = exec.ExecuteSql(
      "WITH RECURSIVE reach(val) AS (SELECT dst AS val FROM chain WHERE "
      "src = 0 UNION ALL SELECT c.dst AS val FROM reach r, chain c WHERE "
      "r.val = c.src) SELECT COUNT(*) FROM reach");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kOutOfRange);
}

TEST(EdgeCaseTest, QuotesSurviveTheWholeStack) {
  PropertyGraph g;
  g.AddVertex(Attr("name", json::JsonValue("o'brien")));
  g.AddVertex(Attr("name", json::JsonValue("plain")));
  (void)g.AddEdge(0, 1, "quote's label", json::JsonValue::Object());
  StoreConfig config;
  config.va_hash_indexes = {"name"};
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());
  // Gremlin string escape → SQL quote escape → parse-back → execute.
  auto count = runtime.Count("g.V.has('name', 'o\\'brien').count()");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 1);
  auto out = runtime.Count("g.V(0).out('quote\\'s label').count()");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, 1);
  // The translated SQL text itself round-trips through the SQL parser.
  auto sql_text = runtime.TranslateToSql("g.V.has('name', 'o\\'brien')");
  ASSERT_TRUE(sql_text.ok());
  EXPECT_TRUE(sql::ParseQuery(*sql_text).ok()) << *sql_text;
}

TEST(EdgeCaseTest, SupernodeMultiValueList) {
  PropertyGraph g;
  const VertexId hub = g.AddVertex();
  for (int i = 0; i < 500; ++i) {
    const VertexId spoke = g.AddVertex();
    ASSERT_TRUE(g.AddEdge(hub, spoke, "follows",
                          json::JsonValue::Object()).ok());
  }
  auto store = SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->load_stats().osa_rows, 500u);
  EXPECT_EQ((*store)->Out(hub, "follows")->size(), 500u);
  gremlin::GremlinRuntime runtime(store->get());
  EXPECT_EQ(*runtime.Count("g.V(0).out('follows').count()"), 500);
  // Shrink the list via CRUD; the hash tables stay consistent.
  for (graph::EdgeId e = 0; e < 100; ++e) {
    ASSERT_TRUE((*store)->RemoveEdge(e).ok());
  }
  EXPECT_EQ(*runtime.Count("g.V(0).out('follows').count()"), 400);
  EXPECT_EQ((*store)->In(1, "follows")->size(), 0u);  // spoke 1's edge removed
}

TEST(EdgeCaseTest, SpillHeavyStoreSupportsFullCrud) {
  // One shared triad (cap=1) forces a spill row per extra label.
  PropertyGraph g;
  for (int i = 0; i < 8; ++i) g.AddVertex();
  for (int label = 0; label < 5; ++label) {
    ASSERT_TRUE(g.AddEdge(0, label + 1, "l" + std::to_string(label),
                          json::JsonValue::Object()).ok());
  }
  StoreConfig config;
  config.max_adjacency_colors = 1;
  auto store = SqlGraphStore::Build(g, config);
  ASSERT_TRUE(store.ok());
  EXPECT_GE((*store)->load_stats().out_spill_rows, 4u);
  gremlin::GremlinRuntime runtime(store->get());
  EXPECT_EQ(*runtime.Count("g.V(0).out().count()"), 5);
  EXPECT_EQ(*runtime.Count("g.V(0).out('l3').count()"), 1);
  // Adding another new label spills again; removal un-spills correctly.
  auto e = (*store)->AddEdge(0, 6, "l99", json::JsonValue::Object());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*runtime.Count("g.V(0).out().count()"), 6);
  ASSERT_TRUE((*store)->RemoveEdge(*e).ok());
  EXPECT_EQ(*runtime.Count("g.V(0).out().count()"), 5);
  // Soft delete + compact with spill rows present.
  ASSERT_TRUE((*store)->RemoveVertex(0).ok());
  ASSERT_TRUE((*store)->Compact().ok());
  EXPECT_EQ(*runtime.Count("g.V.count()"), 7);
}

TEST(EdgeCaseTest, PagedSnapshotRoundTrip) {
  PropertyGraph g;
  for (int i = 0; i < 50; ++i) g.AddVertex(Attr("i", json::JsonValue(i)));
  for (int i = 0; i < 49; ++i) {
    ASSERT_TRUE(g.AddEdge(i, i + 1, "next", json::JsonValue::Object()).ok());
  }
  StoreConfig paged;
  paged.storage = rel::StorageMode::kPaged;
  paged.buffer_pool_bytes = 1 << 20;
  auto store = SqlGraphStore::Build(g, paged);
  ASSERT_TRUE(store.ok());
  const std::string path = testutil::TempPath("paged_snapshot.sqlg");
  ASSERT_TRUE(SaveSnapshot(**store, path).ok());
  // Reopen resident: storage mode is a property of the open, not the file.
  auto resident = core::OpenSnapshot(path);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  gremlin::GremlinRuntime runtime(resident->get());
  EXPECT_EQ(*runtime.Count("g.V(0).out().loop(1){true}.dedup().count()"), 49);
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, EmptyResultsEverywhere) {
  PropertyGraph g;
  g.AddVertex(Attr("name", json::JsonValue("only")));
  auto store = SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());
  EXPECT_EQ(*runtime.Count("g.V.has('name', 'nobody').count()"), 0);
  EXPECT_EQ(*runtime.Count("g.V(0).out().count()"), 0);
  EXPECT_EQ(*runtime.Count("g.V(0).out().out().both().dedup().count()"), 0);
  EXPECT_EQ(*runtime.Count("g.E.count()"), 0);
  auto rows = runtime.Query("g.V(0).outE('nope').inV()");
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->rows.empty());
}

TEST(EdgeCaseTest, SelfLoopsAndParallelEdges) {
  PropertyGraph g;
  g.AddVertex();
  g.AddVertex();
  ASSERT_TRUE(g.AddEdge(0, 0, "self", json::JsonValue::Object()).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, "dup", json::JsonValue::Object()).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, "dup", json::JsonValue::Object()).ok());
  auto store = SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok());
  gremlin::GremlinRuntime runtime(store->get());
  EXPECT_EQ(*runtime.Count("g.V(0).out('self').count()"), 1);
  EXPECT_EQ(*runtime.Count("g.V(0).in('self').count()"), 1);
  // Parallel edges are a multi-value list; both survive and both count.
  EXPECT_EQ(*runtime.Count("g.V(0).out('dup').count()"), 2);
  EXPECT_EQ(*runtime.Count("g.V(1).in('dup').dedup().count()"), 1);
  // Removing one parallel edge keeps the other.
  ASSERT_TRUE((*store)->RemoveEdge(1).ok());
  EXPECT_EQ(*runtime.Count("g.V(0).out('dup').count()"), 1);
}

// ---------------------------------------------------------------------------
// Regression tests for bugs surfaced by the fuzzing harness (src/fuzz) and
// the UBSan hardening pass. Each test is a minimized repro.
// ---------------------------------------------------------------------------

TEST(FuzzRegressionTest, JsonSurrogatePairsDecodeToUtf8) {
  // \uD83D\uDE00 is U+1F600, which must decode to 4-byte UTF-8 — the old
  // parser emitted each surrogate half as its own 3-byte sequence (CESU-8).
  auto parsed = json::Parse("\"\\uD83D\\uDE00\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString(), "\xF0\x9F\x98\x80");
  // The writer must round-trip the 4-byte sequence untouched.
  EXPECT_EQ(json::Write(*parsed), "\"\xF0\x9F\x98\x80\"");
}

TEST(FuzzRegressionTest, JsonLoneSurrogatesAreParseErrors) {
  EXPECT_FALSE(json::Parse("\"\\uD800\"").ok());        // unpaired high
  EXPECT_FALSE(json::Parse("\"\\uDC00\"").ok());        // unpaired low
  EXPECT_FALSE(json::Parse("\"\\uD800x\"").ok());       // high + non-escape
  EXPECT_FALSE(json::Parse("\"\\uD800\\u0041\"").ok()); // high + non-low
}

TEST(FuzzRegressionTest, JsonDeepNestingIsBoundedNotStackOverflow) {
  std::string deep(100000, '[');
  EXPECT_FALSE(json::Parse(deep).ok());
  std::string deep_obj;
  for (int i = 0; i < 50000; ++i) deep_obj += "{\"a\":";
  EXPECT_FALSE(json::Parse(deep_obj).ok());
  // Reasonable nesting still parses.
  EXPECT_TRUE(json::Parse("[[[[[[[[[[1]]]]]]]]]]").ok());
}

TEST(FuzzRegressionTest, JsonNegativeZeroRoundTripIsStable) {
  // Write(-0.0) used to emit "-0", which re-parses as *int* 0 and then
  // writes as "0" — an unstable canonical form (found by fuzz_json).
  auto parsed = json::Parse("-0.0");
  ASSERT_TRUE(parsed.ok());
  const std::string once = json::Write(*parsed);
  auto reparsed = json::Parse(once);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(once, json::Write(*reparsed));
}

TEST(FuzzRegressionTest, SqlDeepNestingIsBoundedNotStackOverflow) {
  EXPECT_FALSE(sql::ParseExpr(std::string(100000, '(') + "1").ok());
  EXPECT_FALSE(sql::ParseExpr(std::string(100000, '-') + "1").ok());
  std::string nots;
  for (int i = 0; i < 100000; ++i) nots += "NOT ";
  EXPECT_FALSE(sql::ParseExpr(nots + "1").ok());
  EXPECT_TRUE(sql::ParseExpr("((((1))))").ok());
}

TEST(FuzzRegressionTest, GremlinRejectsNonIntegerBounds) {
  // These all threw std::bad_variant_access via Value::AsInt on a string.
  EXPECT_FALSE(gremlin::ParseGremlin("g.V.range('a','b')").ok());
  EXPECT_FALSE(gremlin::ParseGremlin("g.V.out('a').loop('x'){true}").ok());
  EXPECT_FALSE(
      gremlin::ParseGremlin("g.V.out('a').loop(1){it.loops < 'x'}").ok());
  EXPECT_FALSE(gremlin::ParseGremlin("g.V.range(-3,5)").ok());
  // The loop bound feeds query-size amplification; cap it.
  EXPECT_FALSE(
      gremlin::ParseGremlin("g.V.out('a').loop(1){it.loops < 99999}").ok());
  EXPECT_TRUE(gremlin::ParseGremlin("g.V.range(0,5)").ok());
  EXPECT_TRUE(
      gremlin::ParseGremlin("g.V.out('a').loop(1){it.loops < 4}").ok());
}

TEST(FuzzRegressionTest, ArithmeticOverflowPromotesToDouble) {
  PropertyGraph g;
  g.AddVertex(Attr("name", json::JsonValue("v")));
  auto store = SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok());
  // All of these were signed-overflow UB; now they promote to double.
  for (const char* text :
       {"SELECT 9223372036854775807 + 1 FROM VA",
        "SELECT -9223372036854775807 - 2 FROM VA",
        "SELECT 9223372036854775807 * 2 FROM VA",
        "SELECT ABS(-9223372036854775807 - 1) FROM VA",
        "SELECT -(-9223372036854775807 - 1) FROM VA"}) {
    auto result = (*store)->ExecuteSql(text);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u) << text;
    ASSERT_TRUE(result->rows[0][0].is_double()) << text;
  }
  auto exact = (*store)->ExecuteSql("SELECT 2 + 3 FROM VA");
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->rows[0][0].is_int());  // in-range stays exact
}

TEST(FuzzRegressionTest, ValueAsIntSaturatesOutOfRangeDoubles) {
  // Casting an out-of-range double to int64 is UB; AsInt now saturates.
  EXPECT_EQ(rel::Value(1e300).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(rel::Value(-1e300).AsInt(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(rel::Value(std::nan("")).AsInt(), 0);
  EXPECT_EQ(rel::Value(42.9).AsInt(), 42);
}

TEST(FuzzRegressionTest, RowCodecRejectsHugeLengthPrefix) {
  // A varint length near UINT64_MAX made `offset + len` wrap and pass the
  // bounds check. Build: tag kTagString(5) + varint 0xFF..FF + no payload.
  std::string buf;
  buf.push_back(5);
  for (int i = 0; i < 9; ++i) buf.push_back('\xFF');
  buf.push_back(1);
  size_t offset = 0;
  rel::Row row;
  EXPECT_FALSE(rel::DecodeRow(buf, 1, &offset, &row).ok());
}

TEST(FuzzRegressionTest, TruncatedAndBitFlippedSnapshotsRejectCleanly) {
  PropertyGraph g;
  g.AddVertex(Attr("name", json::JsonValue("v")));
  g.AddVertex(json::JsonValue::Object());
  (void)g.AddEdge(0, 1, "knows", json::JsonValue::Object());
  auto store = SqlGraphStore::Build(g);
  ASSERT_TRUE(store.ok());
  const std::string path = testutil::TempPath("fuzz_regression.sqlg");
  ASSERT_TRUE(core::SaveSnapshot(**store, path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  const std::string bad = path + ".bad";
  auto write = [&](const std::string& data) {
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };
  // Truncations at every prefix length of the header region, plus a few
  // mid-file cuts: all must return a Status, never crash.
  for (size_t len : {0ul, 3ul, 6ul, 10ul, 14ul, bytes.size() / 2}) {
    write(bytes.substr(0, len));
    EXPECT_FALSE(core::OpenSnapshot(bad).ok()) << "prefix " << len;
  }
  // Bit flips across the file: either a clean rejection or a usable store.
  for (size_t pos = 6; pos < bytes.size(); pos += 41) {
    std::string flipped = bytes;
    flipped[pos] ^= 0x20;
    write(flipped);
    auto opened = core::OpenSnapshot(bad);
    if (opened.ok()) (void)(*opened)->CheckConsistency();
  }
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace sqlgraph
