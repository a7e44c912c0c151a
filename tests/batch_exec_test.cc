// Batch-versus-row tests for the vectorized executor's CTE chain: CTE
// results kept as column batches, the batched lateral VALUES unnest, the
// batched index nested-loop left-outer join, projected row fetch, and
// batched UNION ALL / DISTINCT. Every query runs through the vectorized and
// the row-at-a-time executor; results (in order), access-path counters and
// EXPLAIN ANALYZE spans must be identical, and the batched operators must
// not collapse their batch back into rows.

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/gremlin_interp.h"
#include "baseline/native_store.h"
#include "bench_core/workloads.h"
#include "graph/dbpedia_gen.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "rel/database.h"
#include "sql/executor.h"
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
    }
  }

  /// Runs `sql` in both executor modes and checks they agree on rows (in
  /// order), columns, access-path counters and analyzed spans. Returns the
  /// vectorized result; its collapse count lands in `*collapses`.
  ResultSet ExpectModesAgree(const std::string& sql, uint64_t* collapses,
                             uint64_t read_ts = 0) {
    Executor::Options vec_options;
    vec_options.analyze = true;
    vec_options.read_ts = read_ts;
    Executor::Options row_options = vec_options;
    vec_options.vectorized = true;
    row_options.vectorized = false;
    Executor vec(&db_, vec_options);
    Executor row(&db_, row_options);
    auto v = vec.ExecuteSql(sql);
    auto r = row.ExecuteSql(sql);
    EXPECT_TRUE(v.ok()) << sql << ": " << v.status().ToString();
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!v.ok() || !r.ok()) return ResultSet{};
    EXPECT_EQ(v->columns, r->columns) << sql;
    EXPECT_EQ(v->rows.size(), r->rows.size()) << sql;
    for (size_t i = 0; i < std::min(v->rows.size(), r->rows.size()); ++i) {
      EXPECT_EQ(v->rows[i].size(), r->rows[i].size()) << sql;
      for (size_t c = 0; c < std::min(v->rows[i].size(), r->rows[i].size());
           ++c) {
        // Value == treats 1 and 1.0 alike; the display form does not.
        EXPECT_EQ(v->rows[i][c].ToString(), r->rows[i][c].ToString())
            << sql << " row " << i << " col " << c;
      }
    }
    const ExecStats& vs = vec.stats();
    const ExecStats& rs = row.stats();
    EXPECT_EQ(vs.table_scans, rs.table_scans) << sql;
    EXPECT_EQ(vs.index_lookups, rs.index_lookups) << sql;
    EXPECT_EQ(vs.index_range_scans, rs.index_range_scans) << sql;
    EXPECT_EQ(vs.hash_joins, rs.hash_joins) << sql;
    EXPECT_EQ(vs.index_nl_joins, rs.index_nl_joins) << sql;
    EXPECT_EQ(vs.rows_scanned, rs.rows_scanned) << sql;
    EXPECT_EQ(vs.trace, rs.trace) << sql;
    EXPECT_EQ(rs.batch_collapses, 0u) << sql;
    EXPECT_EQ(vs.spans.size(), rs.spans.size()) << sql;
    for (size_t i = 0; i < std::min(vs.spans.size(), rs.spans.size()); ++i) {
      EXPECT_EQ(vs.spans[i].context, rs.spans[i].context) << sql;
      EXPECT_EQ(vs.spans[i].op, rs.spans[i].op) << sql;
      EXPECT_EQ(vs.spans[i].rows, rs.spans[i].rows)
          << sql << " span " << vs.spans[i].op;
    }
    *collapses = vs.batch_collapses;
    return std::move(v).value();
  }

  /// ExpectModesAgree plus: the vectorized run never collapsed.
  ResultSet ExpectBatchedAgree(const std::string& sql, uint64_t read_ts = 0) {
    uint64_t collapses = 0;
    ResultSet out = ExpectModesAgree(sql, &collapses, read_ts);
    EXPECT_EQ(collapses, 0u) << sql;
    return out;
  }

  Database db_;
  rel::Table* v_ = nullptr;
  rel::Table* adj_ = nullptr;
  rel::Table* spill_ = nullptr;
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
  ResultSet r = ExpectBatchedAgree(OutStep(kVertices, "SELECT * FROM o"));
  EXPECT_GT(r.rows.size(), rel::kVectorChunkRows);
  ExpectBatchedAgree(OutStep(kVertices, "SELECT COUNT(*) AS n FROM o"));
  ExpectBatchedAgree(
      OutStep(kVertices, "SELECT DISTINCT o.val AS val FROM o"));
}

TEST_F(BatchExecTest, EmptyInputFlowsThroughEveryBatchedOperator) {
  ResultSet r = ExpectBatchedAgree(OutStep(0, "SELECT * FROM o"));
  EXPECT_TRUE(r.rows.empty());
  r = ExpectBatchedAgree(OutStep(
      0, "SELECT * FROM o UNION ALL SELECT DISTINCT o.val FROM o"));
  EXPECT_TRUE(r.rows.empty());
  r = ExpectBatchedAgree(OutStep(0, "SELECT COUNT(*) FROM o"));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 0);
}

TEST_F(BatchExecTest, LeftOuterJoinPadsNullAndUnmatchedKeys) {
  // grp is NULL on every seventh row (never joins) and matches a spill row
  // only when divisible by 5 (three rows each); the rest pad with NULL.
  ResultSet r = ExpectBatchedAgree(
      "WITH c AS (SELECT v.grp AS val FROM v) "
      "SELECT c.val, s.valid, s.val FROM c "
      "LEFT OUTER JOIN spill s ON c.val = s.valid");
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
  ExpectBatchedAgree(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val > c.val * 10");
  ExpectBatchedAgree(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val <> 20 AND s.val <> 501");
  ResultSet r = ExpectBatchedAgree(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 200) "
      "SELECT c.val, s.val FROM c LEFT OUTER JOIN spill s "
      "ON c.val = s.valid AND s.val < 0");
  ASSERT_EQ(r.rows.size(), 200u);
  for (const auto& row : r.rows) EXPECT_TRUE(row[1].is_null());
}

TEST_F(BatchExecTest, LeftOuterJoinSpillExpansionKeepsProbeOrder) {
  // COALESCE over the spill rows, as the OSA/ISA templates use it: a
  // spilled id expands to its three spill values right where it stood.
  ResultSet r = ExpectBatchedAgree(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 12) "
      "SELECT COALESCE(s.val, c.val) AS val FROM c "
      "LEFT OUTER JOIN spill s ON c.val = s.valid");
  std::vector<int64_t> got;
  for (const auto& row : r.rows) got.push_back(row[0].AsInt());
  EXPECT_EQ(got, (std::vector<int64_t>{0, 1, 2, 1, 2, 3, 4, 50, 51, 52, 6, 7,
                                       8, 9, 100, 101, 102, 11}));
}

TEST_F(BatchExecTest, UnnestValuesWithNullsAndMixedTypes) {
  // NULL second triads are dropped by the fused IS NOT NULL; the
  // (lbl1, sval) tuple makes `val` a mixed int/string (boxed) column.
  ExpectBatchedAgree(
      "SELECT p.vid, t.lbl, t.val FROM v q, adj p, "
      "TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1), (p.lbl1, p.sval)) "
      "AS t(lbl, val) WHERE q.id = p.vid AND q.id < 40 AND t.val IS NOT NULL");
  // No fused filter at all: NULL candidates survive.
  ExpectBatchedAgree(
      "SELECT t.val FROM v q, adj p, TABLE(VALUES (p.val1), (p.sval)) "
      "AS t(val) WHERE q.id = p.vid AND q.id < 40");
  // Computed tuple expressions and a literal tuple.
  ExpectBatchedAgree(
      "SELECT t.a, t.b FROM v q, adj p, "
      "TABLE(VALUES (p.val0 + 1, 'k'), (NULL, p.sval), (3, 4.5)) AS t(a, b) "
      "WHERE q.id = p.vid AND q.id < 30 AND t.a IS NOT NULL");
}

TEST_F(BatchExecTest, UnnestValuesResolveBareNamesLikeTheRowPath) {
  // A bare name unique among the inputs and not one of t's columns.
  ExpectBatchedAgree(
      "SELECT t.x FROM v, TABLE(VALUES (grp), (id)) AS t(x) WHERE id < 20");
  // `id` also names t's own column, so it is ambiguous where the tuple is
  // evaluated; both modes must reject it alike.
  const std::string sql =
      "SELECT t.id FROM v, TABLE(VALUES (id)) AS t(id) WHERE v.id < 20";
  Executor::Options vec_options;
  Executor::Options row_options;
  vec_options.vectorized = true;
  row_options.vectorized = false;
  Executor vec(&db_, vec_options);
  Executor row(&db_, row_options);
  auto v = vec.ExecuteSql(sql);
  auto r = row.ExecuteSql(sql);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(v.status().code(), r.status().code()) << v.status().ToString();
}

TEST_F(BatchExecTest, UnnestFilterReadingOuterColumnsWidens) {
  // `t.val > q.id` reads an input column: it runs over the combined rows,
  // after the narrow filter before it.
  ExpectBatchedAgree(
      "SELECT q.id, t.val FROM v q, adj p, "
      "TABLE(VALUES (p.lbl0, p.val0), (p.lbl1, p.val1)) AS t(lbl, val) "
      "WHERE q.id = p.vid AND t.val IS NOT NULL AND t.val > q.id "
      "AND t.lbl = 'x'");
}

TEST_F(BatchExecTest, UnionAllAndDistinctOverTypedAndBoxedColumns) {
  // Typed int64 on both sides.
  ExpectBatchedAgree(
      "WITH a AS (SELECT v.grp AS g FROM v WHERE v.id < 100), "
      "b AS (SELECT v.id AS g FROM v WHERE v.id < 60) "
      "SELECT DISTINCT u.g FROM (SELECT * FROM a UNION ALL SELECT * FROM b) u");
  // A string side makes the union boxed; DISTINCT keeps one NULL.
  ResultSet r = ExpectBatchedAgree(
      "WITH a AS (SELECT v.grp AS g FROM v WHERE v.id < 100), "
      "b AS (SELECT p.sval AS g FROM adj p WHERE p.vid < 100), "
      "u AS (SELECT * FROM a UNION ALL SELECT * FROM b) "
      "SELECT DISTINCT u.g AS g FROM u");
  size_t nulls = 0;
  for (const auto& row : r.rows) nulls += row[0].is_null() ? 1 : 0;
  EXPECT_EQ(nulls, 1u);
  // Multi-column DISTINCT and UNION (distinct) over mixed sides.
  ExpectBatchedAgree(
      "SELECT DISTINCT p.lbl0, p.sval FROM adj p WHERE p.vid < 500");
  ExpectBatchedAgree(
      "SELECT v.grp FROM v WHERE v.id < 50 UNION SELECT p.sval FROM adj p "
      "WHERE p.vid < 50");
}

TEST_F(BatchExecTest, SnapshotPinnedRelationFeedsBatchedOperators) {
  // Versioned writes after ts 1 force the read_ts = 1 view of `v` through
  // a materialized snapshot (no base table, no index): the scan feeds the
  // batched unnest and the index left-outer join over `spill` unchanged.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(v_->Update(static_cast<rel::RowId>(i),
                           {Value(i), Value(int64_t{999})}, /*version_ts=*/5)
                    .ok());
  }
  ASSERT_TRUE(v_->HasVersionsAfter(1));
  const std::string sql =
      "WITH c AS (SELECT v.id AS val, v.grp AS g FROM v WHERE v.id < 300) "
      "SELECT c.val, c.g, t.x, s.val FROM c, "
      "TABLE(VALUES (c.g), (c.val)) AS t(x) "
      "LEFT OUTER JOIN spill s ON t.x = s.valid WHERE t.x IS NOT NULL";
  ResultSet pinned = ExpectBatchedAgree(sql, /*read_ts=*/1);
  ResultSet live = ExpectBatchedAgree(sql);
  ASSERT_FALSE(pinned.rows.empty());
  EXPECT_NE(pinned.rows[1][1].ToString(), "999");
  EXPECT_EQ(live.rows[1][1].ToString(), "999");
}

TEST_F(BatchExecTest, RowOnlyOperatorsCountTheirCollapses) {
  // A non-indexed outer join and a sort are row-only: each collapses once.
  uint64_t collapses = 0;
  ExpectModesAgree(
      "WITH c AS (SELECT v.id AS val FROM v WHERE v.id < 50) "
      "SELECT c.val, d.val FROM c LEFT OUTER JOIN c d ON c.val = d.val",
      &collapses);
  EXPECT_GE(collapses, 1u);
  ExpectModesAgree(
      "SELECT v.id FROM v WHERE v.id < 50 ORDER BY v.grp, v.id", &collapses);
  EXPECT_EQ(collapses, 1u);
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
    EXPECT_EQ((*store)->last_exec_stats().batch_collapses, 0u) << q;
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
