#include "graph/analytics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rel/database.h"
#include "rel/schema.h"
#include "rel/table.h"
#include "sql/executor.h"
#include "sqlgraph/schema.h"
#include "sqlgraph/store.h"
#include "util/status.h"

namespace sqlgraph {
namespace graph {
namespace {

using util::Result;
using util::Status;

constexpr char kEdgeScratch[] = "__an_edge";
constexpr char kUndScratch[] = "__an_und";
constexpr char kCanonScratch[] = "__an_cedge";
constexpr char kRankScratch[] = "__an_rank";
constexpr char kLabelScratch[] = "__an_lbl";

/// Live adjacency snapshot: vertex ids plus directed (src, dst) edge pairs.
/// Soft-deleted rows (negative ids, §4.5.2) are excluded.
struct Adjacency {
  std::vector<int64_t> vids;
  std::vector<std::pair<int64_t, int64_t>> edges;  // (src, dst) = (INV, OUTV)
};

Result<Adjacency> SnapshotAdjacency(core::SqlGraphStore* store) {
  Adjacency adj;
  const rel::Table* va = store->db()->GetTable(core::kVaTable);
  const rel::Table* ea = store->db()->GetTable(core::kEaTable);
  if (va == nullptr || ea == nullptr) {
    return Status::Internal("store is missing VA/EA tables");
  }
  va->Scan([&](rel::RowId, const rel::Row& row) {
    const int64_t vid = row[0].AsInt();
    if (vid >= 0) adj.vids.push_back(vid);
  });
  std::sort(adj.vids.begin(), adj.vids.end());
  // EA(EID, INV, OUTV, LBL, ATTR): this codebase stores the edge source in
  // INV and the destination in OUTV (see graph/property_graph.h), so the
  // edge runs INV -> OUTV.
  ea->Scan([&](rel::RowId, const rel::Row& row) {
    const int64_t eid = row[0].AsInt();
    const int64_t inv = row[1].AsInt();
    const int64_t outv = row[2].AsInt();
    if (eid >= 0 && inv >= 0 && outv >= 0) adj.edges.emplace_back(inv, outv);
  });
  return adj;
}

/// Drops (if present) and recreates an index-free scratch table so the
/// planner has no choice but sequential scan + hash join over it.
Result<rel::Table*> ResetScratch(
    rel::Database* db, const std::string& name,
    const std::vector<std::pair<std::string, rel::ColumnType>>& cols) {
  util::Status dropped = db->DropTable(name);  // absent on first use
  (void)dropped;
  rel::Schema schema;
  for (const auto& [col, type] : cols) schema.AddColumn(col, type);
  return db->CreateTable(name, std::move(schema));
}

/// RAII cleanup: analytics scratch tables never outlive the call.
class ScratchDropper {
 public:
  ScratchDropper(rel::Database* db, std::vector<std::string> names)
      : db_(db), names_(std::move(names)) {}
  ~ScratchDropper() {
    for (const auto& n : names_) {
      util::Status dropped = db_->DropTable(n);
      (void)dropped;
    }
  }

 private:
  rel::Database* db_;
  std::vector<std::string> names_;
};

Status FillEdgeTable(rel::Table* table,
                     const std::vector<std::pair<int64_t, int64_t>>& edges) {
  for (const auto& [src, dst] : edges) {
    RETURN_NOT_OK(
        table->Insert({rel::Value(src), rel::Value(dst)}).status());
  }
  return Status::OK();
}

}  // namespace

Result<PageRankResult> PageRank(core::SqlGraphStore* store,
                                const AnalyticsOptions& options) {
  ASSIGN_OR_RETURN(Adjacency adj, SnapshotAdjacency(store));
  PageRankResult result;
  const size_t n = adj.vids.size();
  if (n == 0) return result;

  std::unordered_map<int64_t, int64_t> outdeg;
  outdeg.reserve(n);
  for (const auto& [src, dst] : adj.edges) ++outdeg[src];

  rel::Database* db = store->db();
  ScratchDropper dropper(db, {kEdgeScratch, kRankScratch});
  ASSIGN_OR_RETURN(rel::Table * edge_table,
                   ResetScratch(db, kEdgeScratch,
                                {{"SRC", rel::ColumnType::kInt64},
                                 {"DST", rel::ColumnType::kInt64}}));
  RETURN_NOT_OK(FillEdgeTable(edge_table, adj.edges));

  std::unordered_map<int64_t, double> rank;
  rank.reserve(n);
  for (int64_t vid : adj.vids) rank[vid] = 1.0 / static_cast<double>(n);

  sql::Executor exec(store->db());
  const std::string query =
      "SELECT t.DST AS VID, SUM(r.CONTRIB) AS S "
      "FROM __an_rank r, __an_edge t WHERE t.SRC = r.VID GROUP BY t.DST";
  const double base = (1.0 - options.damping) / static_cast<double>(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ASSIGN_OR_RETURN(rel::Table * rank_table,
                     ResetScratch(db, kRankScratch,
                                  {{"VID", rel::ColumnType::kInt64},
                                   {"CONTRIB", rel::ColumnType::kDouble}}));
    for (int64_t vid : adj.vids) {
      auto deg = outdeg.find(vid);
      if (deg == outdeg.end()) continue;  // dangling: contributes nothing
      RETURN_NOT_OK(rank_table
                        ->Insert({rel::Value(vid),
                                  rel::Value(rank[vid] /
                                             static_cast<double>(
                                                 deg->second))})
                        .status());
    }
    ASSIGN_OR_RETURN(sql::ResultSet res, exec.ExecuteSql(query));
    std::unordered_map<int64_t, double> next;
    next.reserve(n);
    for (int64_t vid : adj.vids) next[vid] = base;
    for (const auto& row : res.rows) {
      next[row[0].AsInt()] += options.damping * row[1].AsDouble();
    }
    double delta = 0;
    for (const auto& [vid, r] : next) delta += std::fabs(r - rank[vid]);
    rank = std::move(next);
    result.iterations = iter + 1;
    if (delta < options.tolerance) break;
  }

  result.ranks.reserve(n);
  for (int64_t vid : adj.vids) result.ranks.emplace_back(vid, rank[vid]);
  return result;
}

Result<WccResult> WeaklyConnectedComponents(core::SqlGraphStore* store) {
  ASSIGN_OR_RETURN(Adjacency adj, SnapshotAdjacency(store));
  WccResult result;
  const size_t n = adj.vids.size();
  if (n == 0) return result;

  rel::Database* db = store->db();
  ScratchDropper dropper(db, {kUndScratch, kLabelScratch});
  std::vector<std::pair<int64_t, int64_t>> und;
  und.reserve(adj.edges.size() * 2);
  for (const auto& [src, dst] : adj.edges) {
    und.emplace_back(src, dst);
    und.emplace_back(dst, src);
  }
  ASSIGN_OR_RETURN(rel::Table * und_table,
                   ResetScratch(db, kUndScratch,
                                {{"SRC", rel::ColumnType::kInt64},
                                 {"DST", rel::ColumnType::kInt64}}));
  RETURN_NOT_OK(FillEdgeTable(und_table, und));

  std::unordered_map<int64_t, int64_t> label;
  label.reserve(n);
  for (int64_t vid : adj.vids) label[vid] = vid;

  sql::Executor exec(store->db());
  const std::string query =
      "SELECT e.DST AS VID, MIN(l.LBL) AS M "
      "FROM __an_lbl l, __an_und e WHERE e.SRC = l.VID GROUP BY e.DST";
  // Min-label propagation converges within |V| rounds on any graph.
  for (size_t iter = 0; iter < n + 1; ++iter) {
    ASSIGN_OR_RETURN(rel::Table * lbl_table,
                     ResetScratch(db, kLabelScratch,
                                  {{"VID", rel::ColumnType::kInt64},
                                   {"LBL", rel::ColumnType::kInt64}}));
    for (const auto& [vid, lbl] : label) {
      RETURN_NOT_OK(
          lbl_table->Insert({rel::Value(vid), rel::Value(lbl)}).status());
    }
    ASSIGN_OR_RETURN(sql::ResultSet res, exec.ExecuteSql(query));
    bool changed = false;
    for (const auto& row : res.rows) {
      const int64_t vid = row[0].AsInt();
      const int64_t m = row[1].AsInt();
      auto it = label.find(vid);
      if (it != label.end() && m < it->second) {
        it->second = m;
        changed = true;
      }
    }
    result.iterations = static_cast<int>(iter) + 1;
    if (!changed) break;
  }

  result.components.reserve(n);
  for (int64_t vid : adj.vids) result.components.emplace_back(vid, label[vid]);
  return result;
}

Result<int64_t> TriangleCount(core::SqlGraphStore* store) {
  ASSIGN_OR_RETURN(Adjacency adj, SnapshotAdjacency(store));
  // Canonical undirected edge set: (min, max), self-loops dropped,
  // parallel/reciprocal duplicates collapsed.
  std::set<std::pair<int64_t, int64_t>> canon;
  for (const auto& [src, dst] : adj.edges) {
    if (src == dst) continue;
    canon.emplace(std::min(src, dst), std::max(src, dst));
  }
  if (canon.empty()) return int64_t{0};

  rel::Database* db = store->db();
  ScratchDropper dropper(db, {kCanonScratch});
  ASSIGN_OR_RETURN(rel::Table * canon_table,
                   ResetScratch(db, kCanonScratch,
                                {{"SRC", rel::ColumnType::kInt64},
                                 {"DST", rel::ColumnType::kInt64}}));
  for (const auto& [src, dst] : canon) {
    RETURN_NOT_OK(
        canon_table->Insert({rel::Value(src), rel::Value(dst)}).status());
  }

  sql::Executor exec(store->db());
  // Triangle a < b < c matches exactly once: e1=(a,b), e2=(b,c), e3=(a,c).
  ASSIGN_OR_RETURN(
      sql::ResultSet res,
      exec.ExecuteSql(
          "SELECT COUNT(*) AS N FROM __an_cedge e1, __an_cedge e2, "
          "__an_cedge e3 WHERE e2.SRC = e1.DST AND e3.SRC = e1.SRC AND "
          "e3.DST = e2.DST"));
  if (res.rows.size() != 1 || res.rows[0].empty()) {
    return Status::Internal("triangle count query returned no row");
  }
  return res.rows[0][0].AsInt();
}

}  // namespace graph
}  // namespace sqlgraph
