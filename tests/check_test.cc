// Tests for the cross-table invariant auditor (src/sqlgraph/check.cc).
//
// Positive: stores produced by the loader, CRUD paths, Compact and WAL
// recovery audit clean. Negative: each table family is corrupted through
// the raw rel::Table interface (bypassing the CRUD procedures, which is
// exactly what the auditor exists to catch) and the report must flag the
// corruption with the right ViolationClass.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "sqlgraph/check.h"
#include "sqlgraph/snapshot.h"
#include "sqlgraph/store.h"
#include "temp_dir.h"

namespace sqlgraph {
namespace core {
namespace {

using rel::Row;
using rel::RowId;
using rel::Value;

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
  (void)g.AddEdge(0, 1, "knows", Attr("w", json::JsonValue(1)));
  (void)g.AddEdge(0, 2, "knows", json::JsonValue::Object());
  (void)g.AddEdge(0, 3, "knows", json::JsonValue::Object());
  (void)g.AddEdge(1, 2, "created", json::JsonValue::Object());
  (void)g.AddEdge(4, 5, "likes", json::JsonValue::Object());
  return g;
}

std::unique_ptr<SqlGraphStore> BuildStore() {
  StoreConfig config;
  config.max_adjacency_colors = 2;  // forces shared columns and lists
  auto built = SqlGraphStore::Build(SmallGraph(), config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// First live row satisfying `pred`, as (rid, row).
std::optional<std::pair<RowId, Row>> FindRow(
    const rel::Table* table, const std::function<bool(const Row&)>& pred) {
  std::optional<std::pair<RowId, Row>> found;
  table->Scan([&](RowId rid, const Row& row) {
    if (!found.has_value() && pred(row)) found.emplace(rid, row);
  });
  return found;
}

TEST(CheckTest, CleanStorePasses) {
  auto store = BuildStore();
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.rows_audited, 0u);
  EXPECT_EQ(report.total_violations, 0u);
  EXPECT_NE(report.ToString().find("OK"), std::string::npos);
}

TEST(CheckTest, CleanAfterCrudAndCompact) {
  auto store = BuildStore();
  auto vid = store->AddVertex(Attr("name", json::JsonValue("new")));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(store->AddEdge(*vid, 0, "knows", json::JsonValue::Object()).ok());
  ASSERT_TRUE(store->SetVertexAttr(0, "age", json::JsonValue(int64_t{9})).ok());
  ASSERT_TRUE(store->RemoveVertex(2).ok());
  ASSERT_TRUE(store->RemoveEdge(4).ok());
  EXPECT_TRUE(store->CheckConsistency().ok())
      << store->CheckConsistency().ToString();
  ASSERT_TRUE(store->Compact().ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckTest, DetectsDuplicateAdjacency) {
  // VA/EA carry unique primary keys, so duplicate ids there are stopped at
  // the rel layer; OPA is where a duplicate can physically appear. Seed a
  // second row for vertex 1 repeating its "created" triad (eid 3 → 2): the
  // label and the edge id are now both doubled in the out direction.
  auto store = BuildStore();
  const size_t colors = store->schema().out_colors;
  Row dup = {Value(int64_t{1}), Value(int64_t{1})};
  for (size_t c = 0; c < colors; ++c) {
    if (store->schema().out_hash.ColorOf("created") % colors == c) {
      dup.insert(dup.end(), {Value(int64_t{3}), Value(std::string("created")),
                             Value(int64_t{2})});
    } else {
      dup.insert(dup.end(), {Value(), Value(), Value()});
    }
  }
  ASSERT_TRUE(store->db()->GetTable(kOpaTable)->Insert(std::move(dup)).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kDuplicateId), 1u);
}

TEST(CheckTest, DetectsMalformedVertexAttr) {
  auto store = BuildStore();
  rel::Table* va = store->db()->GetTable(kVaTable);
  auto row = FindRow(va, [](const Row& r) { return r[0].AsInt() == 3; });
  ASSERT_TRUE(row.has_value());
  // A JSON *array* attribute document violates the "object" contract.
  ASSERT_TRUE(
      va->Update(row->first, {Value(int64_t{3}), Value(json::JsonValue::Array())})
          .ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kJsonMalformed), 1u);
}

TEST(CheckTest, DetectsEaRowForUnknownVertex) {
  auto store = BuildStore();
  ASSERT_TRUE(store->db()
                  ->GetTable(kEaTable)
                  ->Insert({Value(int64_t{77}), Value(int64_t{1234}),
                            Value(int64_t{0}), Value(std::string("knows")),
                            Value(json::JsonValue::Object())})
                  .ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kEaAdjacency), 1u);
}

TEST(CheckTest, DetectsEaAdjacencyDisagreement) {
  auto store = BuildStore();
  rel::Table* ea = store->db()->GetTable(kEaTable);
  auto row = FindRow(ea, [](const Row& r) { return r[0].AsInt() == 0; });
  ASSERT_TRUE(row.has_value());
  Row tampered = row->second;
  tampered[3] = Value(std::string("tampered-label"));
  ASSERT_TRUE(ea->Update(row->first, std::move(tampered)).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kEaAdjacency), 1u);
}

TEST(CheckTest, DetectsMissingEaRow) {
  auto store = BuildStore();
  rel::Table* ea = store->db()->GetTable(kEaTable);
  auto row = FindRow(ea, [](const Row& r) { return r[0].AsInt() == 3; });
  ASSERT_TRUE(row.has_value());
  ASSERT_TRUE(ea->Delete(row->first).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  // The adjacency side dangles, and the EA→adjacency direction is fine;
  // both adjacency directions (OPA and IPA) report the dangling edge.
  EXPECT_GE(report.CountOf(ViolationClass::kAdjacencyDangling), 1u);
}

TEST(CheckTest, DetectsBadSpillFlag) {
  auto store = BuildStore();
  rel::Table* opa = store->db()->GetTable(kOpaTable);
  auto row = FindRow(opa, [](const Row& r) { return r[0].AsInt() == 0; });
  ASSERT_TRUE(row.has_value());
  Row tampered = row->second;
  tampered[1] = Value(int64_t{5});
  ASSERT_TRUE(opa->Update(row->first, std::move(tampered)).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kSpillColoring), 1u);
}

TEST(CheckTest, DetectsLabelInWrongColoredColumn) {
  // The conflict-free coloring folds this small graph into one column, so
  // force the modulo hash to get a second colored column to move into.
  StoreConfig config;
  config.max_adjacency_colors = 2;
  config.use_coloring = false;
  auto built = SqlGraphStore::Build(SmallGraph(), config);
  ASSERT_TRUE(built.ok());
  auto store = std::move(built).value();
  const size_t colors = store->schema().out_colors;
  ASSERT_GE(colors, 2u);
  rel::Table* opa = store->db()->GetTable(kOpaTable);
  // Vertex 0's "knows" triad sits at its colored column; move the whole
  // triad to the other column (also not where the hash puts it).
  const size_t c = store->schema().out_hash.ColorOf("knows") % colors;
  const size_t wrong = (c + 1) % colors;
  auto row = FindRow(opa, [&](const Row& r) {
    return r[0].AsInt() == 0 && !r[3 + 3 * c].is_null();
  });
  ASSERT_TRUE(row.has_value());
  Row tampered = row->second;
  tampered[2 + 3 * wrong] = tampered[2 + 3 * c];
  tampered[3 + 3 * wrong] = tampered[3 + 3 * c];
  tampered[4 + 3 * wrong] = tampered[4 + 3 * c];
  tampered[2 + 3 * c] = Value();
  tampered[3 + 3 * c] = Value();
  tampered[4 + 3 * c] = Value();
  ASSERT_TRUE(opa->Update(row->first, std::move(tampered)).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kSpillColoring), 1u);
}

TEST(CheckTest, DetectsOrphanOverflowList) {
  auto store = BuildStore();
  ASSERT_TRUE(store->db()
                  ->GetTable(kOsaTable)
                  ->Insert({Value(kLidBase + 999), Value(int64_t{0}),
                            Value(int64_t{1})})
                  .ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kListLinkage), 1u);
}

TEST(CheckTest, DetectsListIdBelowBase) {
  auto store = BuildStore();
  ASSERT_TRUE(store->db()
                  ->GetTable(kIsaTable)
                  ->Insert({Value(int64_t{17}), Value(int64_t{0}),
                            Value(int64_t{1})})
                  .ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kListLinkage), 1u);
}

TEST(CheckTest, DetectsHalfDeletedVertex) {
  auto store = BuildStore();
  // Negate vertex 4's OPA row without touching VA: the store's soft delete
  // always does both, so a lone negation is corruption.
  rel::Table* opa = store->db()->GetTable(kOpaTable);
  auto row = FindRow(opa, [](const Row& r) { return r[0].AsInt() == 4; });
  ASSERT_TRUE(row.has_value());
  Row tampered = row->second;
  tampered[0] = Value(int64_t{-4 - 1});
  ASSERT_TRUE(opa->Update(row->first, std::move(tampered)).ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kSoftDelete), 1u);
}

TEST(CheckTest, DetectsCounterBehindStoredIds) {
  auto store = BuildStore();
  ASSERT_TRUE(
      store->db()
          ->GetTable(kVaTable)
          ->Insert({Value(int64_t{1000000}), Value(json::JsonValue::Object())})
          .ok());
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.CountOf(ViolationClass::kCounter), 1u);
}

TEST(CheckTest, ReportTruncatesButKeepsCounting) {
  auto store = BuildStore();
  rel::Table* osa = store->db()->GetTable(kOsaTable);
  for (int64_t i = 0; i < 150; ++i) {
    // 150 orphan overflow lists → >100 violations.
    ASSERT_TRUE(osa->Insert({Value(kLidBase + 100000 + i), Value(int64_t{0}),
                             Value(int64_t{1})})
                    .ok());
  }
  const ConsistencyReport report = store->CheckConsistency();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.violations.size(), ConsistencyReport::kMaxViolations);
  EXPECT_GT(report.total_violations, ConsistencyReport::kMaxViolations);
}

TEST(CheckTest, SnapshotRoundTripAuditsClean) {
  auto store = BuildStore();
  ASSERT_TRUE(store->RemoveVertex(1).ok());  // include soft-deleted state
  const std::string path = testutil::TempPath("check_roundtrip.sqlg");
  ASSERT_TRUE(SaveSnapshot(*store, path).ok());
  auto reopened = OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const ConsistencyReport report = (*reopened)->CheckConsistency();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace core
}  // namespace sqlgraph
