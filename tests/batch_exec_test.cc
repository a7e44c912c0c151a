// Golden tests for the batch executor's CTE chain and its per-row-loop
// operators: CTE results kept as column batches, the lateral VALUES unnest,
// the index/hash/nested-loop left-outer joins, projected row fetch, UNION
// ALL / DISTINCT, sort, recursive CTEs, JSON_EDGES and INTERSECT/EXCEPT.
// Every expected result — columns, rows in order (as a digest), access-path
// counters, the plan trace and the analyzed spans — was captured from the
// row-at-a-time executor this engine had before the batch executor became
// the only one, so each test pins the same answers and the same plan.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/gremlin_interp.h"
#include "baseline/native_store.h"
#include "bench_core/workloads.h"
#include "graph/dbpedia_gen.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "rel/database.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/verify.h"
#include "sqlgraph/store.h"

namespace sqlgraph {
namespace sql {
namespace {

using rel::ColumnType;
using rel::Database;
using rel::IndexKind;
using rel::Schema;
using rel::Value;

constexpr int kVertices = 3000;  // more than rel::kVectorChunkRows

/// FNV-1a over every cell's display form, row by row: equal digests mean
/// the same rows in the same order (1 and 1.0 differ, as they print).
uint64_t RowsDigest(const std::vector<rel::Row>& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& row : rows) {
    for (const auto& v : row) {
      for (char c : v.ToString()) mix(static_cast<unsigned char>(c));
      mix(0x1f);
    }
    mix(0x1e);
  }
  return h;
}

/// One analyzed operator span: where it ran, what it was, rows it made.
struct SpanRows {
  std::string context;
  std::string op;
  uint64_t rows = 0;
};

/// The recorded outcome of one query.
struct Golden {
  std::vector<std::string> columns;
  size_t num_rows = 0;
  uint64_t digest = 0;  // RowsDigest of the rows, in order
  /// table_scans, index_lookups, index_range_scans, hash_joins,
  /// index_nl_joins, rows_scanned.
  std::array<uint64_t, 6> counters{};
  std::vector<std::string> trace;
  std::vector<SpanRows> spans;
};

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // v(id, grp): grp is NULL on every seventh row.
    Schema v;
    v.AddColumn("id", ColumnType::kInt64, false);
    v.AddColumn("grp", ColumnType::kInt64);
    v_ = *db_.CreateTable("v", std::move(v));
    ASSERT_TRUE(v_->CreateIndex("v_id", {"id"}, IndexKind::kHash, true).ok());
    // adj(vid, lbl0, val0, lbl1, val1, sval, pad): an OPA-like wide row
    // whose second triad sometimes holds NULL; `sval` is a string, so a
    // VALUES tuple over it makes the unnested `val` column mixed-type.
    Schema adj;
    adj.AddColumn("vid", ColumnType::kInt64, false);
    adj.AddColumn("lbl0", ColumnType::kString);
    adj.AddColumn("val0", ColumnType::kInt64);
    adj.AddColumn("lbl1", ColumnType::kString);
    adj.AddColumn("val1", ColumnType::kInt64);
    adj.AddColumn("sval", ColumnType::kString);
    adj.AddColumn("pad", ColumnType::kString);
    adj_ = *db_.CreateTable("adj", std::move(adj));
    ASSERT_TRUE(adj_->CreateIndex("adj_vid", {"vid"}, IndexKind::kHash).ok());
    // spill(valid, val): an OSA-like spill table; ids divisible by 5 spill
    // into three rows, the others have none.
    Schema spill;
    spill.AddColumn("valid", ColumnType::kInt64, false);
    spill.AddColumn("val", ColumnType::kInt64);
    spill_ = *db_.CreateTable("spill", std::move(spill));
    ASSERT_TRUE(
        spill_->CreateIndex("spill_valid", {"valid"}, IndexKind::kHash).ok());
    // docs(id, doc, jdoc): serialized (doc) and parsed (jdoc) adjacency
    // documents for JSON_EDGES. Some are NULL, some are not objects, some
    // map a label to a non-array, and some entries lack eid or val.
    Schema docs;
    docs.AddColumn("id", ColumnType::kInt64, false);
    docs.AddColumn("doc", ColumnType::kString);
    docs.AddColumn("jdoc", ColumnType::kJson);
    docs_ = *db_.CreateTable("docs", std::move(docs));
    ASSERT_TRUE(docs_->CreateIndex("docs_id", {"id"}, IndexKind::kHash).ok());

    for (int i = 0; i < kVertices; ++i) {
      ASSERT_TRUE(
          v_->Insert({Value(i), i % 7 == 0 ? Value::Null() : Value(i % 50)})
              .ok());
      const bool second = i % 3 != 0;
      ASSERT_TRUE(adj_->Insert({Value(i), Value(i % 2 == 0 ? "x" : "y"),
                                Value((i * 7) % kVertices),
                                second ? Value("x") : Value::Null(),
                                second ? Value((i * 11) % kVertices)
                                       : Value::Null(),
                                Value("s" + std::to_string(i % 4)),
                                Value(std::string(40, 'p'))})
                      .ok());
      if (i % 5 == 0) {
        for (int k = 0; k < 3; ++k) {
          ASSERT_TRUE(spill_->Insert({Value(i), Value(i * 10 + k)}).ok());
        }
      }
      const std::string text = DocText(i);
      Value doc = i % 11 == 0 ? Value::Null() : Value(text);
      Value jdoc = Value::Null();
      if (i % 4 != 0) {
        auto parsed = json::Parse(text);
        ASSERT_TRUE(parsed.ok());
        jdoc = Value(std::move(parsed).value());
      }
      ASSERT_TRUE(docs_->Insert({Value(i), std::move(doc), std::move(jdoc)})
                      .ok());
    }
  }

  /// Document i: not an object (every 13th), a label mapped to a non-array
  /// (every 17th), otherwise two labels whose entries sometimes lack an eid
  /// or carry a non-integer val.
  static std::string DocText(int i) {
    if (i % 13 == 0) return "[1, 2]";
    if (i % 17 == 0) return R"({"a": 5})";
    std::string out = R"({"a": [{"eid": )" + std::to_string(i) +
                      R"(, "val": )" + std::to_string(i % 100) + "}";
    if (i % 2 == 0) out += R"(, {"val": )" + std::to_string(i + 1) + "}";
    out += R"(], "b": [{"eid": )" + std::to_string(i * 2) + R"(, "val": )";
    out += i % 3 == 0 ? R"("s")" : std::to_string(i % 60);
    out += "}]}";
    return out;
  }

  /// Versioned writes after ts 1 force the read_ts = 1 view of `v` through
  /// a materialized snapshot (no base table, no index).
  void PinSnapshotOfV() {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(v_->Update(static_cast<rel::RowId>(i),
                             {Value(i), Value(int64_t{999})},
                             /*version_ts=*/5)
                      .ok());
    }
    ASSERT_TRUE(v_->HasVersionsAfter(1));
  }

  /// Runs `sql` with EXPLAIN ANALYZE spans on and checks it against
  /// `want`: columns, rows in order, access-path counters, plan trace and
  /// per-operator (context, op, rows).
  ResultSet ExpectGolden(const std::string& sql, const Golden& want,
                         uint64_t read_ts = 0) {
    Executor::Options options;
    options.analyze = true;
    options.read_ts = read_ts;
    Executor exec(&db_, options);
    auto got = exec.ExecuteSql(sql);
    EXPECT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    if (!got.ok()) return ResultSet{};
    EXPECT_EQ(got->columns, want.columns) << sql;
    EXPECT_EQ(got->rows.size(), want.num_rows) << sql;
    EXPECT_EQ(RowsDigest(got->rows), want.digest) << sql;
    const ExecStats& s = exec.stats();
    const std::array<uint64_t, 6> counters = {
        s.table_scans, s.index_lookups,  s.index_range_scans,
        s.hash_joins,  s.index_nl_joins, s.rows_scanned};
    EXPECT_EQ(counters, want.counters) << sql;
    EXPECT_EQ(s.trace, want.trace) << sql;
    EXPECT_EQ(s.spans.size(), want.spans.size()) << sql;
    for (size_t i = 0; i < std::min(s.spans.size(), want.spans.size()); ++i) {
      EXPECT_EQ(s.spans[i].context, want.spans[i].context) << sql;
      EXPECT_EQ(s.spans[i].op, want.spans[i].op) << sql;
      EXPECT_EQ(s.spans[i].rows, want.spans[i].rows)
          << sql << " span " << s.spans[i].op;
    }
    return std::move(got).value();
  }

  void ExpectStatus(const std::string& sql, util::StatusCode code,
                    Executor::Options options = {}) {
    Executor exec(&db_, options);
    auto got = exec.ExecuteSql(sql);
    EXPECT_EQ(got.status().code(), code) << sql << ": "
                                         << got.status().ToString();
  }

  Database db_;
  rel::Table* v_ = nullptr;
  rel::Table* adj_ = nullptr;
  rel::Table* spill_ = nullptr;
  rel::Table* docs_ = nullptr;
};

// The translator's out() step: CTE → index NL join into the wide table →
// lateral VALUES unnest with fused filters → index NL left-outer join into
// the spill table.
constexpr const char* kOutStep =
    "WITH c AS (SELECT v.id AS val FROM v WHERE v.id >= 0 AND v.id < {N}), "
    "u AS (SELECT t.val AS val FROM c v, adj p, "
    "TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1)) AS t(lbl, val) "
    "WHERE v.val = p.vid AND p.vid >= 0 AND t.val IS NOT NULL "
    "AND t.lbl = 'x'), "
    "o AS (SELECT COALESCE(s.val, p.val) AS val FROM u p "
    "LEFT OUTER JOIN spill s ON p.val = s.valid) ";

std::string OutStep(int n, const std::string& final_select) {
  std::string sql = kOutStep;
  sql.replace(sql.find("{N}"), 3, std::to_string(n));
  return sql + final_select;
}

TEST_F(BatchExecTest, TranslatedOutStepOverMoreThanOneVector) {
  ResultSet r = ExpectGolden(OutStep(kVertices, "SELECT * FROM o"),
      Golden{{"val"}, 4900, 0x515810124f5ffac6ULL, {4, 6500, 0, 0, 2, 14400},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 3000},
              {"u", "index nested-loop join adj via adj_vid", 3000},
              {"u", "unnest values t", 3500},
              {"o", "scan p", 3500},
              {"o", "index nested-loop left-outer join spill via spill_valid", 4900},
              {"final", "scan o", 4900}}});
  EXPECT_GT(r.rows.size(), rel::kVectorChunkRows);
  ExpectGolden(OutStep(kVertices, "SELECT COUNT(*) AS n FROM o"),
      Golden{{"n"}, 1, 0x88fa765fb8cb666dULL, {4, 6500, 0, 0, 2, 14400},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 3000},
              {"u", "index nested-loop join adj via adj_vid", 3000},
              {"u", "unnest values t", 3500},
              {"o", "scan p", 3500},
              {"o", "index nested-loop left-outer join spill via spill_valid", 4900},
              {"final", "scan o", 4900},
              {"final", "aggregate", 1}}});
  ExpectGolden(OutStep(kVertices, "SELECT DISTINCT o.val AS val FROM o"),
      Golden{{"val"}, 3420, 0x3403783e53c0fc51ULL, {4, 6500, 0, 0, 2, 14400},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 3000},
              {"u", "index nested-loop join adj via adj_vid", 3000},
              {"u", "unnest values t", 3500},
              {"o", "scan p", 3500},
              {"o", "index nested-loop left-outer join spill via spill_valid", 4900},
              {"final", "scan o", 4900}}});
}

TEST_F(BatchExecTest, EmptyInputFlowsThroughEveryBatchedOperator) {
  ResultSet r = ExpectGolden(OutStep(0, "SELECT * FROM o"),
      Golden{{"val"}, 0, 0x14650fb0739d0383ULL, {4, 0, 0, 0, 2, 3000},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 0},
              {"u", "index nested-loop join adj via adj_vid", 0},
              {"u", "unnest values t", 0},
              {"o", "scan p", 0},
              {"o", "index nested-loop left-outer join spill via spill_valid", 0},
              {"final", "scan o", 0}}});
  EXPECT_TRUE(r.rows.empty());
  r = ExpectGolden(
      OutStep(0, "SELECT * FROM o UNION ALL SELECT DISTINCT o.val FROM o"),
      Golden{{"val"}, 0, 0x14650fb0739d0383ULL, {5, 0, 0, 0, 2, 3000},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 0},
              {"u", "index nested-loop join adj via adj_vid", 0},
              {"u", "unnest values t", 0},
              {"o", "scan p", 0},
              {"o", "index nested-loop left-outer join spill via spill_valid", 0},
              {"final", "scan o", 0},
              {"final", "scan o", 0}}});
  EXPECT_TRUE(r.rows.empty());
  r = ExpectGolden(OutStep(0, "SELECT COUNT(*) FROM o"),
      Golden{{"c0"}, 1, 0x49379d502637c7d4ULL, {4, 0, 0, 0, 2, 3000},
             {"c: seq scan v",
              "u: index nested-loop join adj via adj_vid",
              "o: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"u", "scan v", 0},
              {"u", "index nested-loop join adj via adj_vid", 0},
              {"u", "unnest values t", 0},
              {"o", "scan p", 0},
              {"o", "index nested-loop left-outer join spill via spill_valid", 0},
              {"final", "scan o", 0},
              {"final", "aggregate", 1}}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(BatchExecTest, LeftOuterJoinPadsNullAndUnmatchedKeys) {
  // grp is NULL on every seventh row (never joins) and matches a spill row
  // only when divisible by 5 (three rows each); the rest pad with NULL.
  ResultSet r = ExpectGolden(
      "WITH c AS (SELECT v.grp AS val FROM v) "
      "SELECT c.val, s.valid, s.val FROM c "
      "LEFT OUTER JOIN spill s ON c.val = s.valid",
      Golden{{"val", "valid", "val"},
             4028,
             0x8789bd32d5e0b941ULL,
             {2, 2571, 0, 0, 1, 6000},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 3000},
              {"final", "index nested-loop left-outer join spill via spill_valid", 4028}}});
  size_t null_keys = 0, padded = 0, matched = 0;
  for (const auto& row : r.rows) {
    if (row[0].is_null()) ++null_keys;
    if (row[1].is_null()) ++padded;
    if (!row[1].is_null()) ++matched;
  }
  EXPECT_GT(null_keys, 0u);
  EXPECT_GT(padded, null_keys);
  EXPECT_GT(matched, 0u);
  EXPECT_EQ(r.rows.size(), padded + matched);
}

TEST_F(BatchExecTest, LeftOuterJoinResidualOnConjuncts) {
  // Residuals on the inner side only, across both sides, and one that
  // rejects every match (all rows pad).
  ExpectGolden(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val > c.val * 10",
      Golden{{"val", "val"},
             240,
             0x902cb2d3b671371dULL,
             {2, 200, 0, 0, 1, 3200},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 200},
              {"final", "index nested-loop left-outer join spill via spill_valid", 240}}});
  ExpectGolden(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val <> 20 AND s.val <> 501",
      Golden{{"val", "val"},
             279,
             0xb9ff874ece09a4bcULL,
             {2, 200, 0, 0, 1, 3200},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 200},
              {"final", "index nested-loop left-outer join spill via spill_valid", 279}}});
  ResultSet r = ExpectGolden(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val < 0",
      Golden{{"val", "val"},
             200,
             0xd6ea5fb2249bed23ULL,
             {2, 200, 0, 0, 1, 3200},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 200},
              {"final", "index nested-loop left-outer join spill via spill_valid", 200}}});
  ASSERT_EQ(r.rows.size(), 200u);
  for (const auto& row : r.rows) EXPECT_TRUE(row[1].is_null());
}

TEST_F(BatchExecTest, LeftOuterJoinSpillExpansionKeepsProbeOrder) {
  // COALESCE over the spill rows, as the OSA/ISA templates use it: a
  // spilled id expands to its three spill values right where it stood.
  ResultSet r = ExpectGolden(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 12) "
      "SELECT COALESCE(s.val, c.val) AS val FROM c "
      "LEFT OUTER JOIN spill s ON c.val = s.valid",
      Golden{{"val"}, 18, 0x011c53e0681f2802ULL, {2, 12, 0, 0, 1, 3012},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 12},
              {"final", "index nested-loop left-outer join spill via spill_valid", 18}}});
  std::vector<int64_t> got;
  for (const auto& row : r.rows) got.push_back(row[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 1, 2, 3, 4, 50, 51, 52, 6, 7,
                                       8, 9, 100, 101, 102, 11}));
}

// The index probes read a single int64 key column unboxed and build an
// IndexKey for every other key shape. Either way an index nested-loop join
// and an OSA-style left-outer join must give the same rows, counters and
// spans: the key column below is typed int64, holds 3.0-style doubles, or
// mixes ints and doubles (boxed), with and without NULLs (grp is NULL on
// every seventh row, so grp * 0 + id is id or NULL).
TEST_F(BatchExecTest, IndexProbesAgreeAcrossKeyColumnTypes) {
  auto inner = [](const std::string& key) {
    return "WITH c AS (SELECT " + key + " AS val FROM v WHERE v.id < 600) "
           "SELECT p.vid, p.val0, p.sval FROM c, adj p WHERE c.val = p.vid";
  };
  auto outer = [](const std::string& key) {
    return "WITH c AS (SELECT " + key + " AS val FROM v WHERE v.id < 600) "
           "SELECT s.valid, s.val FROM c "
           "LEFT OUTER JOIN spill s ON c.val = s.valid";
  };
  const std::vector<std::string> trace_inner = {
      "c: seq scan v", "final: index nested-loop join adj via adj_vid"};
  const std::vector<std::string> trace_outer = {
      "c: seq scan v",
      "final: index nested-loop left-outer join spill via spill_valid"};
  const Golden inner_all{
      {"vid", "val0", "sval"}, 600, 0x31e877dfdb355a6aULL,
      {2, 600, 0, 0, 1, 3600}, trace_inner,
      {{"c", "seq scan v", 3000},
       {"final", "scan c", 600},
       {"final", "index nested-loop join adj via adj_vid", 600}}};
  const Golden outer_all{
      {"valid", "val"}, 840, 0x9a91f3338b35171fULL,
      {2, 600, 0, 0, 1, 3600}, trace_outer,
      {{"c", "seq scan v", 3000},
       {"final", "scan c", 600},
       {"final", "index nested-loop left-outer join spill via spill_valid",
        840}}};
  for (const std::string& key :
       {std::string("v.id"), std::string("CAST(v.id AS DOUBLE)"),
        std::string("COALESCE(v.grp * 0 + v.id, CAST(v.id AS DOUBLE))")}) {
    SCOPED_TRACE(key);
    ExpectGolden(inner(key), inner_all);
    ExpectGolden(outer(key), outer_all);
  }
  const Golden inner_nulls{
      {"vid", "val0", "sval"}, 514, 0xa72795b9f88e2302ULL,
      {2, 514, 0, 0, 1, 3600}, trace_inner,
      {{"c", "seq scan v", 3000},
       {"final", "scan c", 600},
       {"final", "index nested-loop join adj via adj_vid", 514}}};
  const Golden outer_nulls{
      {"valid", "val"}, 804, 0xe2e1bb9ccc6eea9bULL,
      {2, 514, 0, 0, 1, 3600}, trace_outer,
      {{"c", "seq scan v", 3000},
       {"final", "scan c", 600},
       {"final", "index nested-loop left-outer join spill via spill_valid",
        804}}};
  for (const std::string& key :
       {std::string("v.grp * 0 + v.id"),
        std::string("CAST(v.grp * 0 + v.id AS DOUBLE)")}) {
    SCOPED_TRACE(key);
    ExpectGolden(inner(key), inner_nulls);
    ExpectGolden(outer(key), outer_nulls);
  }
}

TEST_F(BatchExecTest, UnnestValuesWithNullsAndMixedTypes) {
  // NULL second triads are dropped by the fused IS NOT NULL; the
  // (lbl1, sval) tuple makes `val` a mixed int/string (boxed) column.
  ExpectGolden(
      "SELECT p.vid, t.lbl, t.val FROM v q, adj p, "
      "TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1), (p.lbl1, p.sval)) "
      "AS t(lbl, val) WHERE q.id = p.vid AND q.id < 40 AND t.val IS NOT NULL",
      Golden{{"vid", "lbl", "val"},
             106,
             0x54928374072db5f8ULL,
             {1, 40, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 40},
              {"final", "unnest values t", 106}}});
  // No fused filter at all: NULL candidates survive.
  ExpectGolden(
      "SELECT t.val FROM v q, adj p, TABLE(VALUES (p.val1), (p.sval)) "
      "AS t(val) WHERE q.id = p.vid AND q.id < 40",
      Golden{{"val"}, 80, 0xe8e43778667a587aULL, {1, 40, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 40},
              {"final", "unnest values t", 80}}});
  // Computed tuple expressions and a literal tuple.
  ExpectGolden(
      "SELECT t.a, t.b FROM v q, adj p, "
      "TABLE(VALUES (p.val0 + 1, 'k'), (NULL, p.sval), (3, 4.5)) AS t(a, b) "
      "WHERE q.id = p.vid AND q.id < 30 AND t.a IS NOT NULL",
      Golden{{"a", "b"}, 60, 0xad3f983a5f8fe27cULL, {1, 30, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 30},
              {"final", "unnest values t", 60}}});
}

TEST_F(BatchExecTest, UnnestValuesResolveBareNamesLikeTheRowPath) {
  // A bare name unique among the inputs and not one of t's columns.
  ExpectGolden(
      "SELECT t.x FROM v, TABLE(VALUES (grp), (id)) AS t(x) WHERE id < 20",
      Golden{{"x"}, 40, 0x90c1b77332e98688ULL, {1, 0, 0, 0, 0, 3000},
             {"final: seq scan v"},
             {{"final", "seq scan v", 3000},
              {"final", "unnest values t", 40}}});
  // `id` also names t's own column, so it is ambiguous where the tuple is
  // evaluated: rejected.
  ExpectStatus(
      "SELECT t.id FROM v, TABLE(VALUES (id)) AS t(id) WHERE v.id < 20",
      util::StatusCode::kInvalidArgument);
}

TEST_F(BatchExecTest, UnnestFilterReadingOuterColumnsWidens) {
  // `t.val > q.id` reads an input column: it runs over the combined rows,
  // after the narrow filter before it.
  ExpectGolden(
      "SELECT q.id, t.val FROM v q, adj p, "
      "TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1)) AS t(lbl, val) "
      "WHERE q.id = p.vid AND t.val IS NOT NULL AND t.val > q.id "
      "AND t.lbl = 'x'",
      Golden{{"id", "val"},
             1747,
             0x00a82ad52505720dULL,
             {1, 3000, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 3000},
              {"final", "unnest values t", 1747}}});
}

TEST_F(BatchExecTest, UnionAllAndDistinctOverTypedAndBoxedColumns) {
  // Typed int64 on both sides.
  ExpectGolden(
      "WITH a AS (SELECT v.grp AS g FROM v WHERE v.id < 100), "
      "b AS (SELECT v.id AS g FROM v WHERE v.id < 60) "
      "SELECT DISTINCT u.g FROM (SELECT * FROM a UNION ALL SELECT * FROM b) u",
      Golden{{"g"}, 61, 0x90637631ed5630a7ULL, {5, 0, 0, 0, 0, 6320},
             {"a: seq scan v",
              "b: seq scan v"},
             {{"a", "seq scan v", 3000},
              {"b", "seq scan v", 3000},
              {"final", "scan a", 100},
              {"final", "scan b", 60},
              {"final", "scan u", 160}}});
  // A string side makes the union boxed; DISTINCT keeps one NULL.
  ResultSet r = ExpectGolden(
      "WITH a AS (SELECT v.grp AS g FROM v WHERE v.id < 100), "
      "b AS (SELECT p.sval AS g FROM adj p WHERE p.vid < 100), "
      "u AS (SELECT * FROM a UNION ALL SELECT * FROM b) "
      "SELECT DISTINCT u.g AS g FROM u",
      Golden{{"g"}, 55, 0x4a5418a01454fd64ULL, {5, 0, 0, 0, 0, 6400},
             {"a: seq scan v",
              "b: seq scan adj"},
             {{"a", "seq scan v", 3000},
              {"b", "seq scan adj", 3000},
              {"u", "scan a", 100},
              {"u", "scan b", 100},
              {"final", "scan u", 200}}});
  size_t nulls = 0;
  for (const auto& row : r.rows) nulls += row[0].is_null() ? 1 : 0;
  EXPECT_EQ(nulls, 1u);
  // Multi-column DISTINCT and UNION (distinct) over mixed sides.
  ExpectGolden("SELECT DISTINCT p.lbl0, p.sval FROM adj p WHERE p.vid < 500",
      Golden{{"lbl0", "sval"}, 4, 0x004163a57f05868bULL, {1, 0, 0, 0, 0, 3000},
             {"final: seq scan adj"},
             {{"final", "seq scan adj", 3000}}});
  ExpectGolden(
      "SELECT v.grp FROM v WHERE v.id < 50 UNION SELECT p.sval FROM adj p "
      "WHERE p.vid < 50",
      Golden{{"grp"}, 47, 0x62108dd89cbc8ec0ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan v",
              "final: seq scan adj"},
             {{"final", "seq scan v", 3000},
              {"final", "seq scan adj", 3000}}});
}

TEST_F(BatchExecTest, SnapshotPinnedRelationFeedsBatchedOperators) {
  // The read_ts = 1 view of `v` is a materialized snapshot: its scan feeds
  // the unnest and the index left-outer join over `spill` unchanged.
  PinSnapshotOfV();
  const std::string sql =
      "WITH c AS (SELECT v.id AS val, v.grp AS g FROM v WHERE v.id < 300) "
      "SELECT c.val, c.g, t.x, s.val FROM c, "
      "TABLE(VALUES (c.g), (c.val)) AS t(x) "
      "LEFT OUTER JOIN spill s ON t.x = s.valid WHERE t.x IS NOT NULL";
  ResultSet pinned = ExpectGolden(sql,
      Golden{{"val", "g", "x", "val"},
             779,
             0x4beda6033af5f467ULL,
             {2, 557, 0, 0, 1, 6300},
             {"final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "scan v", 3000},
              {"final", "scan c", 300},
              {"final", "unnest values t", 557},
              {"final", "index nested-loop left-outer join spill via spill_valid", 779}}}, /*read_ts=*/1);
  ResultSet live = ExpectGolden(sql,
      Golden{{"val", "g", "x", "val"},
             776,
             0xa0282281cfe3640dULL,
             {2, 560, 0, 0, 1, 3300},
             {"c: seq scan v",
              "final: index nested-loop left-outer join spill via spill_valid"},
             {{"c", "seq scan v", 3000},
              {"final", "scan c", 300},
              {"final", "unnest values t", 560},
              {"final", "index nested-loop left-outer join spill via spill_valid", 776}}});
  ASSERT_FALSE(pinned.rows.empty());
  EXPECT_NE(pinned.rows[1][1].ToString(), "999");
  EXPECT_EQ(live.rows[1][1].ToString(), "999");
}

// ------------------------------------------- operators with a row loop ----

TEST_F(BatchExecTest, SortIsStableOverMixedDirectionsTiesAndNulls) {
  // Input sort: DESC with NULLs, then a tie-heavy ASC key; equal keys keep
  // join order.
  ExpectGolden(
      "SELECT v.id, v.grp, p.lbl0 FROM v, adj p WHERE v.id = p.vid "
      "ORDER BY v.grp DESC, p.lbl0",
      Golden{{"id", "grp", "lbl0"},
             3000,
             0xa3d1400f37b6ebf7ULL,
             {1, 3000, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 3000},
              {"final", "sort", 3000}}});
  // ORDER BY select aliases, with OFFSET and LIMIT.
  ExpectGolden(
      "SELECT v.id AS i, v.grp AS g FROM v WHERE v.id < 2500 "
      "ORDER BY g, i DESC LIMIT 100 OFFSET 7",
      Golden{{"i", "g"}, 100, 0xd4ffcd218d376b52ULL, {1, 0, 0, 0, 0, 3000},
             {"final: seq scan v"},
             {{"final", "seq scan v", 3000},
              {"final", "sort", 2500}}});
  // ORDER BY and LIMIT bind to the last select of a UNION ALL chain.
  ExpectGolden(
      "SELECT v.grp AS g FROM v WHERE v.id < 1500 UNION ALL "
      "SELECT p.val1 AS g FROM adj p WHERE p.vid < 2500 ORDER BY g DESC "
      "LIMIT 2100",
      Golden{{"g"}, 3600, 0xb998daf5e3f69547ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan v",
              "final: seq scan adj"},
             {{"final", "seq scan v", 3000},
              {"final", "seq scan adj", 3000},
              {"final", "sort", 2500}}});
  // Output sort after GROUP BY.
  ExpectGolden(
      "SELECT v.grp, COUNT(*) AS n FROM v GROUP BY v.grp "
      "ORDER BY n DESC, grp",
      Golden{{"grp", "n"}, 51, 0x8d55a7c9fb4fb66fULL, {1, 0, 0, 0, 0, 3000},
             {"final: seq scan v"},
             {{"final", "seq scan v", 3000},
              {"final", "aggregate", 51},
              {"final", "sort (output)", 51}}});
  // A mixed int/string (boxed) key.
  ExpectGolden(
      "SELECT t.x FROM v q, adj p, TABLE(VALUES (p.val1), (p.sval)) AS t(x) "
      "WHERE q.id = p.vid AND q.id < 1200 ORDER BY t.x DESC",
      Golden{{"x"}, 2400, 0xfcf43f2663009944ULL, {1, 1200, 0, 0, 1, 3000},
             {"final: seq scan v",
              "final: index nested-loop join adj via adj_vid"},
             {{"final", "seq scan v", 3000},
              {"final", "index nested-loop join adj via adj_vid", 1200},
              {"final", "unnest values t", 2400},
              {"final", "sort", 2400}}});
  // A sorted, limited CTE.
  ExpectGolden(
      "WITH c AS (SELECT v.id AS val FROM v ORDER BY v.grp, v.id DESC "
      "LIMIT 10) SELECT * FROM c",
      Golden{{"val"}, 10, 0x87db05a846f5e2ccULL, {2, 0, 0, 0, 0, 3010},
             {"c: seq scan v"},
             {{"c", "seq scan v", 3000},
              {"c", "sort", 3000},
              {"final", "scan c", 10}}});
}

TEST_F(BatchExecTest, RecursiveCteReachesFixpointOrHitsTheCap) {
  // A 2,500-row base and a 500-row step, then nothing new.
  ExpectGolden(
      "WITH RECURSIVE r(val) AS (SELECT v.id AS val FROM v WHERE v.id < 2500 "
      "UNION SELECT r.val + 500 AS val FROM r WHERE r.val + 500 < 3000) "
      "SELECT * FROM r",
      Golden{{"val"}, 3000, 0x7da7f6af97f24be7ULL, {4, 0, 0, 0, 0, 9000},
             {"r: seq scan v"},
             {{"r", "seq scan v", 3000},
              {"r", "scan r", 2500},
              {"r", "scan r", 500},
              {"r", "recursive cte", 3000},
              {"final", "scan r", 3000}}});
  // Through an index nested-loop join until the orbit closes.
  ExpectGolden(
      "WITH RECURSIVE r(val) AS (SELECT v.id AS val FROM v WHERE v.id = 1 "
      "UNION ALL SELECT p.val0 AS val FROM r, adj p WHERE r.val = p.vid) "
      "SELECT r.val FROM r",
      Golden{{"val"}, 20, 0xa4359b179dbe72f5ULL, {21, 21, 0, 0, 20, 41},
             {"r: index lookup v via v_id",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid",
              "r: index nested-loop join adj via adj_vid"},
             {{"r", "index lookup v via v_id", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "scan r", 1},
              {"r", "index nested-loop join adj via adj_vid", 1},
              {"r", "recursive cte", 20},
              {"final", "scan r", 20}}});
  // One new row per iteration: the cap stops it.
  Executor::Options capped;
  capped.max_recursion = 5;
  ExpectStatus(
      "WITH RECURSIVE r(val) AS (SELECT v.id AS val FROM v WHERE v.id = 0 "
      "UNION ALL SELECT r.val + 1 AS val FROM r WHERE r.val < 2999) "
      "SELECT COUNT(*) FROM r",
      util::StatusCode::kOutOfRange, capped);
  // A step narrower or wider than its base is rejected by the executor
  // itself, with plan verification off.
  Executor::Options unverified;
  unverified.verify_plans = false;
  ExpectStatus(
      "WITH RECURSIVE r(a, b) AS (SELECT 1, 2 UNION ALL "
      "SELECT r.a + 1 FROM r WHERE r.a < 3) SELECT * FROM r",
      util::StatusCode::kInvalidArgument, unverified);
  ExpectStatus(
      "WITH RECURSIVE r(a) AS (SELECT 1 UNION ALL "
      "SELECT r.a + 1, r.a FROM r WHERE r.a < 3) SELECT * FROM r",
      util::StatusCode::kInvalidArgument, unverified);
}

TEST_F(BatchExecTest, JsonEdgesExpandOneTwoOrThreeColumns) {
  // One column, over every serialized document.
  ResultSet r = ExpectGolden(
      "SELECT d.id, t.val FROM docs d, TABLE(JSON_EDGES(d.doc)) AS t(val)",
      Golden{{"id", "val"}, 5922, 0x4d4b2d3491b84498ULL, {1, 0, 0, 0, 0, 3000},
             {"final: seq scan docs"},
             {{"final", "seq scan docs", 3000},
              {"final", "unnest json_edges t", 5922}}});
  EXPECT_GT(r.rows.size(), rel::kVectorChunkRows);
  // Two columns, with a filter on the unnest alone and one across sides.
  ExpectGolden(
      "SELECT d.id, t.lbl, t.val FROM docs d, "
      "TABLE(JSON_EDGES(d.doc)) AS t(lbl, val) "
      "WHERE t.lbl = 'b' AND t.val * 60 > d.id",
      Golden{{"id", "lbl", "val"},
             924,
             0x08c2a200ab3f91f2ULL,
             {1, 0, 0, 0, 0, 3000},
             {"final: seq scan docs"},
             {{"final", "seq scan docs", 3000},
              {"final", "unnest json_edges t", 924}}});
  // Three columns over parsed JSON documents.
  ExpectGolden(
      "SELECT t.lbl, t.eid, t.val FROM docs d, "
      "TABLE(JSON_EDGES(d.jdoc)) AS t(lbl, eid, val) "
      "WHERE d.id < 400 AND t.eid IS NULL",
      Golden{{"lbl", "eid", "val"},
             86,
             0x4f0a20b991b1deaeULL,
             {1, 0, 0, 0, 0, 3000},
             {"final: seq scan docs"},
             {{"final", "seq scan docs", 3000},
              {"final", "unnest json_edges t", 86}}});
  // After an index lookup.
  ExpectGolden(
      "SELECT t.lbl, t.val FROM docs d, "
      "TABLE(JSON_EDGES(d.doc)) AS t(lbl, val) WHERE d.id = 6",
      Golden{{"lbl", "val"}, 3, 0x653fded5076c0bcdULL, {0, 1, 0, 0, 0, 1},
             {"final: index lookup docs via docs_id"},
             {{"final", "index lookup docs via docs_id", 1},
              {"final", "unnest json_edges t", 3}}});
}

TEST_F(BatchExecTest, OuterJoinsWithoutIndexPadNullKeysAndApplyResiduals) {
  // Hash left-outer join into a CTE: NULL keys on both sides, a residual
  // across sides, more probe rows than one vector.
  ExpectGolden(
      "WITH c AS (SELECT v.grp AS g, v.id AS id FROM v WHERE v.id < 300) "
      "SELECT q.id, c.id FROM v q LEFT OUTER JOIN c "
      "ON q.grp = c.g AND c.id < q.id WHERE q.id < 2500",
      Golden{{"id", "id"}, 10627, 0x27e0905ce007e6b7ULL, {2, 0, 0, 1, 0, 6000},
             {"c: seq scan v",
              "final: seq scan v"},
             {{"c", "seq scan v", 3000},
              {"final", "seq scan v", 3000},
              {"final", "hash left-outer join c", 10627}}});
  // Two equi keys, one a string that is NULL on every third probe row.
  ExpectGolden(
      "SELECT p.vid, s.g FROM adj p LEFT OUTER JOIN "
      "(SELECT v.id AS id, v.grp AS g, 'x' AS t FROM v) s "
      "ON p.vid = s.id AND p.lbl1 = s.t",
      Golden{{"vid", "g"}, 3000, 0xbcbd51225afb5207ULL, {2, 0, 0, 1, 0, 6000},
             {"final: seq scan adj",
              "final: seq scan v"},
             {{"final", "seq scan adj", 3000},
              {"final", "seq scan v", 3000},
              {"final", "hash left-outer join s", 3000}}});
  // No equi key: a nested-loop left-outer join.
  ExpectGolden(
      "WITH c AS (SELECT v.id AS id FROM v WHERE v.id < 40) "
      "SELECT q.id, c.id FROM v q LEFT OUTER JOIN c ON c.id * 75 > q.id "
      "WHERE q.id >= 500",
      Golden{{"id", "id"}, 40500, 0xa063dc8be4b8bc37ULL, {2, 0, 0, 1, 0, 6000},
             {"c: seq scan v",
              "final: seq scan v"},
             {{"c", "seq scan v", 3000},
              {"final", "seq scan v", 3000},
              {"final", "nested-loop left-outer join c", 40500}}});
}

TEST_F(BatchExecTest, OuterJoinOverSnapshotPinnedTable) {
  // Both sides are the read_ts = 1 snapshot of `v` (no index), so the
  // join hashes; q.grp is NULL on every seventh row.
  PinSnapshotOfV();
  ExpectGolden(
      "SELECT q.id, q.grp, w.id, w.grp FROM v q LEFT OUTER JOIN v w "
      "ON q.grp = w.id AND w.grp <> 3",
      Golden{{"id", "grp", "id", "grp"},
             3000,
             0x1e74198e2a46152bULL,
             {1, 0, 0, 1, 0, 9000},
             {},
             {{"final", "scan q", 3000},
              {"final", "hash left-outer join w", 3000}}}, /*read_ts=*/1);
  ExpectGolden(
      "SELECT s.valid, s.val, v.grp FROM spill s LEFT OUTER JOIN v "
      "ON s.valid = v.id AND v.grp <> 3 WHERE s.valid < 400",
      Golden{{"valid", "val", "grp"},
             240,
             0x1167be6b5d414edeULL,
             {1, 0, 0, 1, 0, 4800},
             {"final: seq scan spill"},
             {{"final", "seq scan spill", 1800},
              {"final", "hash left-outer join v", 240}}}, /*read_ts=*/1);
}

TEST_F(BatchExecTest, IntersectAndExceptKeepFirstOccurrencesWithNulls) {
  ExpectGolden(
      "SELECT v.grp FROM v WHERE v.id < 2200 INTERSECT "
      "SELECT v.grp FROM v WHERE v.id >= 2100",
      Golden{{"grp"}, 51, 0x273e07b410572a24ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan v",
              "final: seq scan v"},
             {{"final", "seq scan v", 3000},
              {"final", "seq scan v", 3000}}});
  ExpectGolden(
      "SELECT v.grp FROM v WHERE v.id < 2200 EXCEPT "
      "SELECT v.grp FROM v WHERE v.id >= 100 AND v.grp > 10",
      Golden{{"grp"}, 12, 0x576f3d4bcf2650e4ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan v",
              "final: seq scan v"},
             {{"final", "seq scan v", 3000},
              {"final", "seq scan v", 3000}}});
  // Two columns with NULLs.
  ExpectGolden(
      "SELECT p.lbl1, p.lbl0 FROM adj p EXCEPT "
      "SELECT p.lbl1, p.lbl0 FROM adj p WHERE p.vid < 2",
      Golden{{"lbl1", "lbl0"}, 2, 0x768a6f9b514c93e3ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan adj",
              "final: seq scan adj"},
             {{"final", "seq scan adj", 3000},
              {"final", "seq scan adj", 3000}}});
  // Int against double, with a sorted right side.
  ExpectGolden(
      "SELECT v.grp AS g FROM v WHERE v.id < 2200 INTERSECT "
      "SELECT p.val0 / 2 AS g FROM adj p ORDER BY g DESC",
      Golden{{"g"}, 50, 0xd38e5e578674df38ULL, {2, 0, 0, 0, 0, 6000},
             {"final: seq scan v",
              "final: seq scan adj"},
             {{"final", "seq scan v", 3000},
              {"final", "seq scan adj", 3000},
              {"final", "sort", 3000}}});
}

TEST_F(BatchExecTest, LateralTupleReadingItsOwnColumnsIsRejected) {
  // A VALUES tuple or JSON_EDGES document that reads the unnest's own
  // columns has no value to read: the verifier and the executor reject it.
  const char* queries[] = {
      "SELECT t.b FROM v, TABLE(VALUES (v.id, t.a)) AS t(a, b) "
      "WHERE v.id < 5",
      "SELECT t.val FROM docs d, TABLE(JSON_EDGES(t.val)) AS t(val) "
      "WHERE d.id < 5",
  };
  for (const char* sql : queries) {
    Executor::Options unverified;
    unverified.verify_plans = false;
    ExpectStatus(sql, util::StatusCode::kInvalidArgument, unverified);
    auto parsed = ParseQuery(sql);
    ASSERT_TRUE(parsed.ok()) << sql;
    PlanVerifyReport report;
    VerifyPlan(*parsed, db_, &report);
    EXPECT_FALSE(report.ok()) << sql;
    EXPECT_TRUE(report.ToStatus().IsInvalidArgument()) << sql;
  }
}

// -------------------------------------------- the Gremlin benchmark set ----

TEST(GremlinBatchTest, Fig8aAndTable1QueriesStayBatchedAndMatchInterpreter) {
  graph::DbpediaConfig gen;
  gen.scale = 0.01;
  const graph::PropertyGraph g = graph::DbpediaGenerator(gen).Generate();
  auto store = core::SqlGraphStore::Build(g, core::StoreConfig{});
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  gremlin::GremlinRuntime runtime(store->get());
  auto native = baseline::NativeStore::Build(g, baseline::NativeStoreConfig{});
  ASSERT_TRUE(native.ok());

  std::vector<std::string> queries = bench::DbpediaBenchmarkQueries();
  for (const auto& q : bench::Table1Queries()) queries.push_back(q.ToGremlin());
  ASSERT_EQ(queries.size(), 31u);
  size_t non_empty = 0;
  for (const auto& q : queries) {
    auto got = runtime.Count(q);
    ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
    baseline::GremlinInterpreter interp(native->get());
    auto want = interp.Count(q);
    ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
    EXPECT_EQ(*got, *want) << q;
    non_empty += *got > 0 ? 1 : 0;
  }
  // The dataset is big enough that most traversals reach something.
  EXPECT_GE(non_empty, 25u);
}

}  // namespace
}  // namespace sql
}  // namespace sqlgraph
