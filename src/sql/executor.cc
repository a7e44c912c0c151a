#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"
#include "sql/plan_memo.h"
#include "sql/planner.h"
#include "sql/render.h"
#include "sql/verify.h"

namespace sqlgraph {
namespace sql {

using rel::ColumnBatch;
using rel::ColumnVector;
using rel::Row;
using rel::Value;
using util::Result;
using util::Status;

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

/// Looks an index up by name (plans memoize names, not pointers, so a plan
/// can never dangle across table reorganizations).
const rel::Index* FindIndexByName(const rel::Table& table,
                                  const std::string& name) {
  for (const auto& index : table.indexes()) {
    if (index->name() == name) return index.get();
  }
  return nullptr;
}

}  // namespace

// PlanMemo now lives in sql/plan_memo.h so sql/verify.cc can statically
// cross-check recorded plans against the database they replay on.

namespace {

/// A select's result before it leaves the executor: the output column names
/// plus the batch holding its rows (one column per name). CTEs, subqueries
/// and set-operation operands stay in this form; only the final SELECT
/// becomes a ResultSet.
struct Materialized {
  std::vector<std::string> columns;
  ColumnBatch batch;
};

/// A resolved FROM item: either an indexable base table or a materialized
/// select (CTE, subquery, snapshot-pinned table).
struct Relation {
  std::vector<std::string> columns;
  const rel::Table* base = nullptr;
  const Materialized* borrowed = nullptr;
  std::shared_ptr<Materialized> owned;
  // Column pruning (projection pushdown): when non-empty, only these
  // base-table column indexes are carried into the batch. Wide tables like
  // OPA (3 columns per triad) shrink to the handful of referenced columns.
  std::vector<int> projection;

  const Materialized* materialized() const {
    return borrowed != nullptr ? borrowed : owned.get();
  }
};

/// True when every column `e` reads resolves in `env` to slot `first` or
/// later — the lateral unnest's own columns, so a fused filter can run over
/// them alone instead of over the whole combined row.
bool ReadsOnlySlotsFrom(const Expr& e, const ColumnEnv& env, size_t first) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      const int slot = env.TryResolve(e.qualifier, e.column);
      return slot >= 0 && static_cast<size_t>(slot) >= first;
    }
    case ExprKind::kStar:
      return false;
    default:
      break;
  }
  if (e.lhs != nullptr && !ReadsOnlySlotsFrom(*e.lhs, env, first)) return false;
  if (e.rhs != nullptr && !ReadsOnlySlotsFrom(*e.rhs, env, first)) return false;
  for (const auto& a : e.args) {
    if (!ReadsOnlySlotsFrom(*a, env, first)) return false;
  }
  for (const auto& a : e.in_list) {
    if (!ReadsOnlySlotsFrom(*a, env, first)) return false;
  }
  return true;
}

/// Keeps the first occurrence of every distinct row of `batch`, in order
/// (SELECT DISTINCT / UNION). A single typed int64 column — the translated
/// traversals' `val` — hashes raw int64s.
void DedupeBatch(ColumnBatch* batch) {
  std::vector<uint32_t> keep;
  keep.reserve(batch->num_rows);
  const ColumnVector* only =
      batch->num_cols() == 1 ? &batch->cols[0] : nullptr;
  if (only != nullptr && only->typed() && !only->is_constant() &&
      only->tag() == ColumnVector::Tag::kInt64) {
    std::unordered_set<int64_t> seen;
    seen.reserve(batch->num_rows);
    bool null_seen = false;
    for (size_t i = 0; i < batch->num_rows; ++i) {
      const bool first = only->IsNull(i) ? !std::exchange(null_seen, true)
                                         : seen.insert(only->IntAt(i)).second;
      if (first) keep.push_back(static_cast<uint32_t>(i));
    }
  } else {
    std::unordered_set<Row, RowHash, RowEq> seen;
    seen.reserve(batch->num_rows);
    for (size_t i = 0; i < batch->num_rows; ++i) {
      if (seen.insert(batch->GetRow(i)).second) {
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  if (keep.size() != batch->num_rows) batch->KeepOnly(keep);
}

/// INTERSECT / EXCEPT: keeps the first occurrence of every distinct row of
/// `*left` that does (INTERSECT) or does not (EXCEPT) occur in `right`. The
/// membership tests hash whole rows, one at a time.
void IntersectOrExcept(bool keep_common, const ColumnBatch& right,
                       ColumnBatch* left) {
  std::unordered_set<Row, RowHash, RowEq> right_rows, emitted;
  right_rows.reserve(right.num_rows);
  for (size_t i = 0; i < right.num_rows; ++i) {
    right_rows.insert(right.GetRow(i));
  }
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < left->num_rows; ++i) {
    Row r = left->GetRow(i);
    if ((right_rows.count(r) > 0) == keep_common &&
        emitted.insert(std::move(r)).second) {
      keep.push_back(static_cast<uint32_t>(i));
    }
  }
  if (keep.size() != left->num_rows) left->KeepOnly(keep);
}

/// UNION ALL: appends `src` to `*dst` column by column.
void AppendBatch(ColumnBatch src, ColumnBatch* dst) {
  if (dst->num_rows == 0) {
    *dst = std::move(src);
  } else {
    dst->Append(src);
  }
}

/// The columns of `*batch` gathered by `sel`; when `sel` is the identity
/// (every row once, in order) they are moved out instead of copied.
std::vector<ColumnVector> TakeRows(ColumnBatch* batch,
                                   const std::vector<uint32_t>& sel) {
  bool identity = sel.size() == batch->num_rows;
  for (size_t i = 0; identity && i < sel.size(); ++i) identity = sel[i] == i;
  if (identity) return std::move(batch->cols);
  std::vector<ColumnVector> out;
  out.reserve(batch->num_cols());
  for (const auto& c : batch->cols) out.push_back(c.Gather(sel));
  return out;
}

/// Joined pairs (left_sel[j], right_sel[j]) as one batch: the probe side's
/// columns, then the build side's.
ColumnBatch JoinPairs(ColumnBatch* left, const std::vector<uint32_t>& left_sel,
                      const ColumnBatch& right,
                      const std::vector<uint32_t>& right_sel) {
  ColumnBatch out;
  out.num_rows = left_sel.size();
  out.cols = TakeRows(left, left_sel);
  for (const auto& c : right.cols) out.cols.push_back(c.Gather(right_sel));
  return out;
}

/// Every (i, j) pair of an n × m cross product, i-major.
void CrossPairs(size_t n, size_t m, std::vector<uint32_t>* left_sel,
                std::vector<uint32_t>* right_sel) {
  left_sel->reserve(n * m);
  right_sel->reserve(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      left_sel->push_back(static_cast<uint32_t>(i));
      right_sel->push_back(static_cast<uint32_t>(j));
    }
  }
}

/// The hash build/probe shared by the inner and the left-outer hash joins:
/// hashes `build`'s key columns, probes with `probe_cols` row by row and
/// appends each matching (probe row, build row) pair to `*left_sel` /
/// `*right_sel`, in probe order. NULL keys never match. A single int64 key
/// on both sides (the adjacency self-join shape: EA.INV = r.VID) skips
/// rel::Value boxing and hashes raw int64s.
void HashMatch(const ColumnBatch& build, const std::vector<int>& build_slots,
               const std::vector<ColumnVector>& probe_cols, size_t n,
               std::vector<uint32_t>* left_sel,
               std::vector<uint32_t>* right_sel) {
  const ColumnVector& bc0 = build.cols[static_cast<size_t>(build_slots[0])];
  const bool int64_key = build_slots.size() == 1 && bc0.typed() &&
                         bc0.tag() == ColumnVector::Tag::kInt64 &&
                         probe_cols[0].typed() &&
                         probe_cols[0].tag() == ColumnVector::Tag::kInt64;
  if (int64_key) {
    const ColumnVector& pc = probe_cols[0];
    std::unordered_multimap<int64_t, uint32_t> hash_table;
    hash_table.reserve(build.num_rows);
    for (size_t j = 0; j < build.num_rows; ++j) {
      if (!bc0.IsNull(j)) {
        hash_table.emplace(bc0.IntAt(j), static_cast<uint32_t>(j));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (pc.IsNull(i)) continue;
      auto [lo, hi] = hash_table.equal_range(pc.IntAt(i));
      for (auto it = lo; it != hi; ++it) {
        left_sel->push_back(static_cast<uint32_t>(i));
        right_sel->push_back(it->second);
      }
    }
    return;
  }
  std::unordered_multimap<rel::IndexKey, uint32_t, rel::IndexKeyHash>
      hash_table;
  hash_table.reserve(build.num_rows);
  // Fills `key` from row `i` of `cols`; false when a part is NULL.
  rel::IndexKey key;
  key.parts.reserve(build_slots.size());
  auto fill = [&key](const std::vector<const ColumnVector*>& cols, size_t i) {
    key.parts.clear();
    bool null_key = false;
    for (const ColumnVector* col : cols) {
      Value v = col->GetValue(i);
      if (v.is_null()) null_key = true;
      key.parts.push_back(std::move(v));
    }
    return !null_key;
  };
  std::vector<const ColumnVector*> build_cols, probe_ptrs;
  for (int slot : build_slots) {
    build_cols.push_back(&build.cols[static_cast<size_t>(slot)]);
  }
  for (const auto& col : probe_cols) probe_ptrs.push_back(&col);
  for (size_t j = 0; j < build.num_rows; ++j) {
    if (fill(build_cols, j)) hash_table.emplace(key, static_cast<uint32_t>(j));
  }
  for (size_t i = 0; i < n; ++i) {
    if (!fill(probe_ptrs, i)) continue;
    auto [lo, hi] = hash_table.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      left_sel->push_back(static_cast<uint32_t>(i));
      right_sel->push_back(it->second);
    }
  }
}

/// Slots of the equi-join key columns within the joined ref's columns.
Result<std::vector<int>> BuildSlots(const std::vector<EquiJoinKey>& keys,
                                    const std::vector<std::string>& columns) {
  std::vector<int> slots;
  for (const auto& key : keys) {
    auto it = std::find(columns.begin(), columns.end(), key.column);
    if (it == columns.end()) {
      return Status::Internal("join key column missing");
    }
    slots.push_back(static_cast<int>(it - columns.begin()));
  }
  return slots;
}

/// Collects which columns of `alias` the statement references anywhere
/// (select list, WHERE, JOIN ON, lateral VALUES, GROUP BY/HAVING/ORDER BY).
/// Returns false when everything is needed (star or unresolvable use).
bool CollectNeededColumns(const SelectStmt& s, const std::string& alias,
                          std::unordered_set<std::string>* needed) {
  bool all = false;
  std::function<void(const ExprPtr&)> walk = [&](const ExprPtr& e) {
    if (e == nullptr || all) return;
    if (e->kind == ExprKind::kColumnRef) {
      // Unqualified references are conservatively attributed to every ref.
      if (e->qualifier.empty() || e->qualifier == alias) {
        needed->insert(e->column);
      }
      return;
    }
    if (e->kind == ExprKind::kStar) return;
    walk(e->lhs);
    walk(e->rhs);
    for (const auto& a : e->args) walk(a);
    for (const auto& a : e->in_list) walk(a);
    // Uncorrelated subqueries cannot reference this scope in our templates.
  };
  for (const auto& item : s.items) {
    if (item.is_star &&
        (item.star_qualifier.empty() || item.star_qualifier == alias)) {
      all = true;
    }
    walk(item.expr);
  }
  walk(s.where);
  walk(s.having);
  for (const auto& g : s.group_by) walk(g);
  for (const auto& o : s.order_by) walk(o.expr);
  for (const auto& ref : s.from) {
    walk(ref.on);
    walk(ref.json_doc);
    for (const auto& row : ref.values_rows) {
      for (const auto& e : row) walk(e);
    }
  }
  return !all;
}

/// Aggregate accumulator for one select item.
struct AggState {
  enum Kind { kCountStar, kCount, kCountDistinct, kSum, kMin, kMax, kAvg };
  Kind kind;
  int64_t count = 0;
  bool any_double = false;
  int64_t isum = 0;
  double dsum = 0;
  Value extreme;  // MIN/MAX
  std::unordered_set<Value, rel::ValueHash> distinct;

  void Add(const Value& v) {
    switch (kind) {
      case kCountStar:
        ++count;
        return;
      case kCount:
        if (!v.is_null()) ++count;
        return;
      case kCountDistinct:
        if (!v.is_null()) distinct.insert(v);
        return;
      case kSum:
      case kAvg:
        if (v.is_null()) return;
        ++count;
        if (v.is_double()) {
          any_double = true;
          dsum += v.AsDouble();
        } else {
          isum += v.AsInt();
          dsum += v.AsDouble();
        }
        return;
      case kMin:
      case kMax:
        if (v.is_null()) return;
        if (extreme.is_null()) {
          extreme = v;
        } else if ((kind == kMin && v.Compare(extreme) < 0) ||
                   (kind == kMax && v.Compare(extreme) > 0)) {
          extreme = v;
        }
        return;
    }
  }

  Value Finish() const {
    switch (kind) {
      case kCountStar:
      case kCount:
        return Value(count);
      case kCountDistinct:
        return Value(static_cast<int64_t>(distinct.size()));
      case kSum:
        if (count == 0) return Value::Null();
        return any_double ? Value(dsum) : Value(isum);
      case kAvg:
        if (count == 0) return Value::Null();
        return Value(dsum / static_cast<double>(count));
      case kMin:
      case kMax:
        return extreme;
    }
    return Value::Null();
  }
};

bool IsAggregateCall(const Expr& e, AggState::Kind* kind) {
  if (e.kind != ExprKind::kFunc) return false;
  if (e.func_name == "COUNT") {
    if (e.distinct_arg) {
      *kind = AggState::kCountDistinct;
    } else if (e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar) {
      *kind = AggState::kCountStar;
    } else {
      *kind = AggState::kCount;
    }
    return true;
  }
  if (e.func_name == "SUM") {
    *kind = AggState::kSum;
    return true;
  }
  if (e.func_name == "MIN") {
    *kind = AggState::kMin;
    return true;
  }
  if (e.func_name == "MAX") {
    *kind = AggState::kMax;
    return true;
  }
  if (e.func_name == "AVG") {
    *kind = AggState::kAvg;
    return true;
  }
  return false;
}

/// Output column name for a select item.
std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
    return item.expr->column;
  }
  return "c" + std::to_string(index);
}

}  // namespace

// ===========================================================================

class Executor::Impl {
 public:
  Impl(rel::Database* db, const Options& options, ExecStats* stats,
       const ParamBindings* params, PlanMemo* memo)
      : db_(db), options_(options), stats_(stats), params_(params),
        memo_(memo), spans_(options.analyze ? &stats->spans : nullptr) {}

  Result<ResultSet> ExecuteQuery(const SqlQuery& q) {
    if (q.final_select == nullptr) {
      // Transaction-control statements (BEGIN/COMMIT/ROLLBACK) have no
      // select; they must be routed through a core::Session, not executed.
      return Status::InvalidArgument(
          "transaction-control statement outside a session");
    }
    for (const Cte& cte : q.ctes) {
      context_ = cte.name;
      if (cte.recursive) {
        obs::ScopedSpan span(spans_, context_, "recursive cte");
        RETURN_NOT_OK(ExecRecursiveCte(cte));
        span.set_rows(ctes_[cte.name].batch.num_rows);
      } else {
        ASSIGN_OR_RETURN(Materialized res, ExecSelect(*cte.select));
        RETURN_NOT_OK(ApplyCteAliases(cte, &res));
        ctes_[cte.name] = std::move(res);
      }
    }
    context_ = "final";
    ResultSet result;
    ASSIGN_OR_RETURN(Materialized out,
                     ExecSelect(*q.final_select, &result.rows));
    result.columns = std::move(out.columns);
    return result;
  }

 private:
  // ------------------------------------------------------------- CTEs ----

  static Status ApplyCteAliases(const Cte& cte, Materialized* res) {
    if (cte.column_aliases.empty()) return Status::OK();
    if (cte.column_aliases.size() != res->columns.size()) {
      return Status::InvalidArgument("CTE " + cte.name +
                                     " column alias arity mismatch");
    }
    res->columns = cte.column_aliases;
    return Status::OK();
  }

  /// Semi-naive fixpoint: each iteration runs the step over the previous
  /// iteration's new rows; a hash of every row seen so far keeps only rows
  /// never produced before (UNION semantics across iterations).
  Status ExecRecursiveCte(const Cte& cte) {
    const SelectStmt& whole = *cte.select;
    if (whole.set_ops.size() != 1) {
      return Status::NotImplemented(
          "recursive CTE must be <base> UNION [ALL] <step>");
    }
    SelectStmt base = whole;
    base.set_ops.clear();
    const SelectStmt& step = *whole.set_ops[0].rhs;

    // `base` is a stack-local copy, so its TableRef addresses are not stable
    // plan-memo keys; the step select aliases the shared AST and is fine.
    const bool memo_was_enabled = memo_enabled_;
    memo_enabled_ = false;
    Result<Materialized> base_result = ExecSelect(base);
    memo_enabled_ = memo_was_enabled;
    if (!base_result.ok()) return base_result.status();
    Materialized total = std::move(base_result).value();
    RETURN_NOT_OK(ApplyCteAliases(cte, &total));
    std::unordered_set<Row, RowHash, RowEq> seen;
    seen.reserve(total.batch.num_rows);
    for (size_t i = 0; i < total.batch.num_rows; ++i) {
      seen.insert(total.batch.GetRow(i));
    }
    Materialized delta = total;
    int iter = 0;
    while (delta.batch.num_rows != 0) {
      if (++iter > options_.max_recursion) {
        return Status::OutOfRange("recursive CTE " + cte.name + " exceeded " +
                                  std::to_string(options_.max_recursion) +
                                  " iterations");
      }
      ++stats_->recursive_iterations;
      ctes_[cte.name] = std::move(delta);  // bind the working table
      ASSIGN_OR_RETURN(Materialized produced, ExecSelect(step));
      if (produced.columns.size() != total.columns.size()) {
        return Status::InvalidArgument("recursive CTE " + cte.name +
                                       " step arity does not match its base");
      }
      std::vector<uint32_t> fresh;
      for (size_t i = 0; i < produced.batch.num_rows; ++i) {
        if (seen.insert(produced.batch.GetRow(i)).second) {
          fresh.push_back(static_cast<uint32_t>(i));
        }
      }
      if (fresh.size() != produced.batch.num_rows) {
        produced.batch.KeepOnly(fresh);
      }
      delta.columns = total.columns;
      delta.batch = std::move(produced.batch);
      AppendBatch(delta.batch, &total.batch);
    }
    ctes_[cte.name] = std::move(total);
    return Status::OK();
  }

  // ----------------------------------------------------------- SELECT ----

  /// `rows_out` marks the statement's own select: its result rows land in
  /// `*rows_out` and the returned Materialized carries only the column
  /// names.
  Result<Materialized> ExecSelect(const SelectStmt& s,
                                  std::vector<Row>* rows_out = nullptr) {
    // With set operations, ORDER BY / LIMIT bind to the combined result and
    // may only reference output columns; otherwise the core handles them
    // with full input-scope resolution.
    const bool defer_order_limit = !s.set_ops.empty();
    ASSIGN_OR_RETURN(Materialized out,
                     ExecSelectCore(s, defer_order_limit,
                                    defer_order_limit ? nullptr : rows_out));
    if (!defer_order_limit) return out;
    for (const auto& set_op : s.set_ops) {
      ASSIGN_OR_RETURN(Materialized rhs, ExecSelect(*set_op.rhs));
      if (rhs.columns.size() != out.columns.size()) {
        return Status::InvalidArgument("set operation arity mismatch");
      }
      switch (set_op.kind) {
        case SetOpKind::kUnionAll:
          AppendBatch(std::move(rhs.batch), &out.batch);
          break;
        case SetOpKind::kUnion:
          // First occurrences across both sides, in order.
          AppendBatch(std::move(rhs.batch), &out.batch);
          DedupeBatch(&out.batch);
          break;
        case SetOpKind::kIntersect:
        case SetOpKind::kExcept:
          IntersectOrExcept(set_op.kind == SetOpKind::kIntersect, rhs.batch,
                            &out.batch);
          break;
      }
    }
    RETURN_NOT_OK(ApplyOrderLimit(s, &out));
    return EmitRows(std::move(out), rows_out);
  }

  /// Hands a final select's batch over as rows.
  static Materialized EmitRows(Materialized out, std::vector<Row>* rows_out) {
    if (rows_out != nullptr) {
      *rows_out = out.batch.ToRows();
      out.batch = ColumnBatch();
    }
    return out;
  }

  /// ORDER BY / OFFSET / LIMIT over a select's output columns.
  Status ApplyOrderLimit(const SelectStmt& s, Materialized* out) {
    if (!s.order_by.empty()) {
      obs::ScopedSpan span(spans_, context_, "sort (output)");
      span.set_rows(out->batch.num_rows);
      ColumnEnv env;
      for (const auto& c : out->columns) env.Add("", c);
      std::vector<ExprPtr> keys;
      for (const auto& item : s.order_by) keys.push_back(item.expr);
      EvalContext ctx;
      ctx.params = params_;
      RETURN_NOT_OK(SortBatch(s.order_by, keys, env, ctx, &out->batch));
    }
    ApplyLimitOffset(s, &out->batch);
    return Status::OK();
  }

  static bool HasLimitOrOffset(const SelectStmt& s) {
    return s.limit.has_value() || s.offset.has_value();
  }

  /// OFFSET then LIMIT.
  static void ApplyLimitOffset(const SelectStmt& s, ColumnBatch* batch) {
    const size_t n = batch->num_rows;
    const int64_t skip = s.offset.value_or(0);
    const size_t offset = skip > 0 ? std::min(n, static_cast<size_t>(skip)) : 0;
    size_t end = n;
    if (s.limit.has_value() && *s.limit >= 0) {
      end = std::min(end, offset + static_cast<size_t>(*s.limit));
    }
    if (offset == 0 && end == n) return;
    std::vector<uint32_t> sel;
    sel.reserve(end - offset);
    for (size_t i = offset; i < end; ++i) sel.push_back(static_cast<uint32_t>(i));
    batch->KeepOnly(sel);
  }

  /// Stable sort of `*batch` by `keys`, ascending or descending per
  /// `order_by`: each key column evaluates once over the batch, a row
  /// permutation is sorted, and the batch is gathered once.
  static Status SortBatch(const std::vector<OrderItem>& order_by,
                          const std::vector<ExprPtr>& keys,
                          const ColumnEnv& env, const EvalContext& ctx,
                          ColumnBatch* batch) {
    const size_t n = batch->num_rows;
    std::vector<std::vector<Value>> key_values(keys.size());  // [key][row]
    for (size_t k = 0; k < keys.size(); ++k) {
      ASSIGN_OR_RETURN(ColumnVector col,
                       EvalExprBatch(*keys[k], env, *batch, ctx));
      key_values[k].reserve(n);
      for (size_t i = 0; i < n; ++i) key_values[k].push_back(col.GetValue(i));
    }
    std::vector<uint32_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (size_t k = 0; k < keys.size(); ++k) {
        int c = key_values[k][a].Compare(key_values[k][b]);
        if (!order_by[k].ascending) c = -c;
        if (c != 0) return c < 0;
      }
      return false;
    });
    batch->KeepOnly(perm);
    return Status::OK();
  }

  /// ORDER BY before projection: bare column references that name a select
  /// alias are substituted by the aliased expression (SQL's output-column
  /// ORDER BY), everything else resolves in the FROM scope.
  static Status SortInput(const SelectStmt& s, const ColumnEnv& env,
                          const EvalContext& ctx, ColumnBatch* batch) {
    std::vector<ExprPtr> keys;
    for (const auto& item : s.order_by) {
      ExprPtr e = item.expr;
      if (e->kind == ExprKind::kColumnRef && e->qualifier.empty() &&
          env.TryResolve("", e->column) < 0) {
        for (const auto& sel : s.items) {
          if (!sel.is_star && sel.alias == e->column) {
            e = sel.expr;
            break;
          }
        }
      }
      keys.push_back(std::move(e));
    }
    return SortBatch(s.order_by, keys, env, ctx, batch);
  }

  // Core select: FROM/WHERE/aggregate/DISTINCT/projection, plus ORDER BY /
  // LIMIT unless deferred to the set-operation combiner. With `rows_out`
  // the result rows land there (see ExecSelect).
  Result<Materialized> ExecSelectCore(const SelectStmt& s,
                                      bool defer_order_limit,
                                      std::vector<Row>* rows_out) {
    EvalContext ctx;
    ctx.params = params_;
    RETURN_NOT_OK(MaterializeInSubqueries(s, &ctx));

    ColumnEnv env;
    ColumnBatch ws;
    if (s.from.empty()) {
      ws.num_rows = 1;  // one empty row: SELECT 1
    } else {
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(s.where, &conjuncts);
      std::vector<bool> consumed(conjuncts.size(), false);

      for (size_t ref_index = 0; ref_index < s.from.size(); ++ref_index) {
        const TableRef& ref = s.from[ref_index];
        RETURN_NOT_OK(JoinNextRef(s, ref, ref_index == 0, conjuncts,
                                  &consumed, &env, &ws, &ctx));
      }
      // Residual conjuncts (should all be consumed by now, but apply any
      // stragglers as a final filter for safety).
      for (size_t i = 0; i < conjuncts.size(); ++i) {
        if (consumed[i]) continue;
        if (!IsFullyBound(*conjuncts[i], env)) {
          return Status::InvalidArgument("unresolvable predicate: " +
                                         RenderExpr(*conjuncts[i]));
        }
        RETURN_NOT_OK(FilterBatch(*conjuncts[i], env, ctx, &ws));
        consumed[i] = true;
      }
    }

    // Aggregate or plain projection.
    bool has_aggregate = !s.group_by.empty();
    for (const auto& item : s.items) {
      if (!item.is_star && ContainsAggregate(item.expr)) has_aggregate = true;
    }
    Materialized out;
    if (has_aggregate) {
      obs::ScopedSpan span(spans_, context_, "aggregate");
      ASSIGN_OR_RETURN(ResultSet agg, Aggregate(s, env, ws, ctx));
      span.set_rows(agg.rows.size());
      span.Finish();
      out.columns = std::move(agg.columns);
      if (rows_out != nullptr && s.order_by.empty() && !HasLimitOrOffset(s)) {
        // The final select's groups leave as rows, never as a batch.
        *rows_out = std::move(agg.rows);
        return out;
      }
      out.batch = ColumnBatch::FromRows(agg.rows, out.columns.size());
      if (!defer_order_limit) RETURN_NOT_OK(ApplyOrderLimit(s, &out));
      return EmitRows(std::move(out), rows_out);
    }

    if (!defer_order_limit && !s.order_by.empty()) {
      obs::ScopedSpan span(spans_, context_, "sort");
      RETURN_NOT_OK(SortInput(s, env, ctx, &ws));
      span.set_rows(ws.num_rows);
    }
    if (rows_out != nullptr && !s.distinct && !HasLimitOrOffset(s)) {
      // The final select projects straight into rows.
      RETURN_NOT_OK(Project(s, env, ctx, rows_out, &ws, &out));
      return out;
    }
    RETURN_NOT_OK(Project(s, env, ctx, nullptr, &ws, &out));
    if (s.distinct) DedupeBatch(&out.batch);
    if (!defer_order_limit) ApplyLimitOffset(s, &out.batch);
    return EmitRows(std::move(out), rows_out);
  }

  // ------------------------------------------------------ join drivers ----

  Status JoinNextRef(const SelectStmt& s, const TableRef& ref, bool first,
                     const std::vector<ExprPtr>& conjuncts,
                     std::vector<bool>* consumed, ColumnEnv* env,
                     ColumnBatch* ws, EvalContext* ctx) {
    ASSIGN_OR_RETURN(Relation relation, ResolveRef(ref));
    const std::string& alias = ref.exposure();
    if (relation.base != nullptr) {
      // Projection pushdown: carry only the referenced columns forward.
      std::unordered_set<std::string> needed;
      if (CollectNeededColumns(s, alias, &needed)) {
        std::vector<int> projection;
        std::vector<std::string> pruned_names;
        const rel::Schema& schema = relation.base->schema();
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          if (needed.count(schema.column(c).name)) {
            projection.push_back(static_cast<int>(c));
            pruned_names.push_back(schema.column(c).name);
          }
        }
        if (projection.size() < schema.num_columns()) {
          relation.projection = std::move(projection);
          relation.columns = std::move(pruned_names);
        }
      }
    }

    // Env after this ref joins in.
    ColumnEnv next_env = *env;
    std::vector<std::string> ref_columns;
    if (ref.kind == TableRefKind::kUnnestValues ||
        ref.kind == TableRefKind::kUnnestJson) {
      ref_columns = ref.column_aliases;
    } else {
      ref_columns = relation.columns;
    }
    for (const auto& c : ref_columns) next_env.Add(alias, c);

    // WHERE conjuncts that become decidable once this ref is joined.
    std::vector<ExprPtr> applicable;
    std::vector<size_t> applicable_ids;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if ((*consumed)[i]) continue;
      if (IsFullyBound(*conjuncts[i], next_env) &&
          (first || !IsFullyBound(*conjuncts[i], *env))) {
        applicable.push_back(conjuncts[i]);
        applicable_ids.push_back(i);
      } else if (first && IsFullyBound(*conjuncts[i], next_env)) {
        applicable.push_back(conjuncts[i]);
        applicable_ids.push_back(i);
      }
    }

    Status st;
    if (ref.join == JoinType::kLeftOuter) {
      st = LeftOuterJoin(ref, relation, alias, ref_columns, *env, next_env,
                         ws, ctx);
      // WHERE-clause conjuncts on the nullable side apply after the join.
      if (st.ok()) {
        for (size_t k = 0; k < applicable.size(); ++k) {
          st = FilterBatch(*applicable[k], next_env, *ctx, ws);
          if (!st.ok()) break;
          (*consumed)[applicable_ids[k]] = true;
        }
      }
      if (st.ok()) *env = std::move(next_env);
      return st;
    }

    if (ref.kind == TableRefKind::kUnnestValues ||
        ref.kind == TableRefKind::kUnnestJson) {
      if (const Expr* e = FindUnboundLateralExpr(ref, *env, next_env)) {
        return Status::InvalidArgument(
            "lateral " + alias + " reads a column not bound before it: " +
            RenderExpr(*e));
      }
      // Filters fuse into the lateral expansion: candidate rows that fail
      // (e.g. the templates' t.val IS NOT NULL) are never materialized.
      st = ref.kind == TableRefKind::kUnnestJson
               ? UnnestJson(ref, *env, next_env, applicable, *ctx, ws)
               : UnnestValues(ref, *env, next_env, applicable, *ctx, ws);
      if (!st.ok()) return st;
      for (size_t k = 0; k < applicable.size(); ++k) {
        (*consumed)[applicable_ids[k]] = true;
      }
      *env = std::move(next_env);
      return Status::OK();
    } else if (first) {
      st = AccessFirst(ref, relation, alias, next_env, applicable,
                       &applicable_ids, consumed, ws, ctx);
      *env = std::move(next_env);
      return st;
    } else {
      st = JoinInner(ref, relation, alias, ref_columns, *env, next_env,
                     applicable, &applicable_ids, consumed, ws, ctx);
      if (st.ok()) *env = std::move(next_env);
      return st;
    }
  }

  Result<Relation> ResolveRef(const TableRef& ref) {
    Relation relation;
    switch (ref.kind) {
      case TableRefKind::kBaseTable: {
        auto it = ctes_.find(ref.table_name);
        if (it != ctes_.end()) {
          relation.borrowed = &it->second;
          relation.columns = it->second.columns;
          return relation;
        }
        const rel::Table* table = db_->GetTable(ref.table_name);
        if (table == nullptr) {
          return Status::NotFound("unknown table " + ref.table_name);
        }
        for (const auto& c : table->schema().columns()) {
          relation.columns.push_back(c.name);
        }
        if (options_.read_ts != 0 && table->HasVersionsAfter(options_.read_ts)) {
          // Snapshot pin with newer committed versions: materialize the
          // table as of read_ts. Leaving `base` null keeps every live-data
          // fast path (indexes, batched scans) off this relation.
          auto snap = std::make_shared<Materialized>();
          snap->columns = relation.columns;
          snap->batch.Reset(relation.columns.size());
          table->ScanAt(options_.read_ts,
                        [&](const Row& row) { snap->batch.AppendRow(row); });
          stats_->rows_scanned += snap->batch.num_rows;
          relation.owned = std::move(snap);
          return relation;
        }
        relation.base = table;
        return relation;
      }
      case TableRefKind::kSubquery: {
        ASSIGN_OR_RETURN(Materialized res, ExecSelect(*ref.subquery));
        relation.owned = std::make_shared<Materialized>(std::move(res));
        relation.columns = relation.owned->columns;
        return relation;
      }
      case TableRefKind::kUnnestValues:
      case TableRefKind::kUnnestJson:
        relation.columns = ref.column_aliases;
        return relation;
    }
    return Status::Internal("bad table ref kind");
  }

  /// Lateral TABLE(VALUES ...) expansion. Each tuple expression is evaluated
  /// once per batch (a bare column reference borrows the input column), and
  /// the candidates are laid out (input row, tuple) major. Set-up is per
  /// tuple expression, not per input column.
  Status UnnestValues(const TableRef& ref, const ColumnEnv& env,
                      const ColumnEnv& next_env,
                      const std::vector<ExprPtr>& filters,
                      const EvalContext& ctx, ColumnBatch* ws) {
    obs::ScopedSpan span(spans_, context_, "unnest values " + ref.exposure());
    const ColumnBatch& in = *ws;
    const size_t n = in.num_rows;
    const size_t arity = ref.column_aliases.size();
    const size_t tuples = ref.values_rows.size();
    std::vector<ColumnVector> computed;
    computed.reserve(tuples * arity);
    std::vector<const ColumnVector*> tuple_cols;  // [tuple * arity + column]
    tuple_cols.reserve(tuples * arity);
    for (const auto& values_row : ref.values_rows) {
      if (values_row.size() != arity) {
        return Status::InvalidArgument("VALUES row arity mismatch");
      }
      for (const auto& e : values_row) {
        const int slot = e->kind == ExprKind::kColumnRef
                             ? env.TryResolve(e->qualifier, e->column)
                             : -1;
        if (slot >= 0) {
          tuple_cols.push_back(&in.cols[static_cast<size_t>(slot)]);
          continue;
        }
        ASSIGN_OR_RETURN(ColumnVector col, EvalExprBatch(*e, env, in, ctx));
        computed.push_back(std::move(col));
        tuple_cols.push_back(&computed.back());
      }
    }
    // Candidate k * tuples + t pairs input row k with tuple t.
    ColumnBatch cand;
    cand.Reset(arity);
    if (tuples == 1) {
      for (size_t c = 0; c < arity; ++c) cand.cols[c] = *tuple_cols[c];
    } else {
      cand.Reserve(n * tuples);
      for (size_t k = 0; k < n; ++k) {
        for (size_t t = 0; t < tuples; ++t) {
          for (size_t c = 0; c < arity; ++c) {
            cand.cols[c].AppendFrom(*tuple_cols[t * arity + c], k);
          }
        }
      }
    }
    cand.num_rows = n * tuples;
    std::vector<uint32_t> rows(cand.num_rows);
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<uint32_t>(i / tuples);
    }
    RETURN_NOT_OK(FilterLateral(ref, next_env, filters, ctx, std::move(rows),
                                std::move(cand), ws));
    span.set_rows(ws->num_rows);
    return Status::OK();
  }

  /// Lateral TABLE(JSON_EDGES(doc)) expansion: parses the serialized
  /// adjacency document of each input row — one parse per row, the
  /// engine-internal navigation cost a JSON column implies — and emits one
  /// candidate per edge entry.
  Status UnnestJson(const TableRef& ref, const ColumnEnv& env,
                    const ColumnEnv& next_env,
                    const std::vector<ExprPtr>& filters,
                    const EvalContext& ctx, ColumnBatch* ws) {
    const size_t arity = ref.column_aliases.size();
    if (arity < 1 || arity > 3) {
      return Status::InvalidArgument("JSON_EDGES exposes 1-3 columns");
    }
    obs::ScopedSpan span(spans_, context_,
                         "unnest json_edges " + ref.exposure());
    const Expr& doc_expr = *ref.json_doc;
    const int slot = doc_expr.kind == ExprKind::kColumnRef
                         ? env.TryResolve(doc_expr.qualifier, doc_expr.column)
                         : -1;
    ColumnVector computed;
    if (slot < 0) {
      ASSIGN_OR_RETURN(computed, EvalExprBatch(doc_expr, env, *ws, ctx));
    }
    const ColumnVector& docs =
        slot >= 0 ? ws->cols[static_cast<size_t>(slot)] : computed;
    std::vector<uint32_t> rows;  // input row of each candidate
    ColumnBatch cand;
    cand.Reset(arity);
    json::JsonValue parsed;
    for (size_t i = 0; i < ws->num_rows; ++i) {
      if (docs.IsNull(i)) continue;
      // A string is a serialized document, a JSON value a parsed one; any
      // other value holds no edges.
      const std::string* text = nullptr;
      const json::JsonValue* doc = nullptr;
      if (docs.tag() == ColumnVector::Tag::kString) {
        text = &docs.StringAt(i);
      } else if (docs.tag() == ColumnVector::Tag::kBoxed) {
        const Value& v = docs.BoxedAt(i);
        if (v.is_string()) text = &v.AsString();
        if (v.is_json()) doc = &v.AsJson();
      }
      if (text != nullptr) {
        // The parse is the real per-access cost of a JSON column.
        ASSIGN_OR_RETURN(parsed, json::Parse(*text));
        doc = &parsed;
      }
      if (doc == nullptr || !doc->is_object()) continue;
      for (const auto& [label, list] : doc->AsObject()) {
        if (!list.is_array()) continue;
        for (const auto& entry : list.AsArray()) {
          const json::JsonValue* val = entry.Find("val");
          const json::JsonValue* eid = entry.Find("eid");
          size_t c = 0;
          if (arity >= 2) cand.cols[c++].Append(Value(label));
          if (arity == 3) {
            cand.cols[c++].Append(eid != nullptr && eid->is_int()
                                      ? Value(eid->AsInt())
                                      : Value::Null());
          }
          cand.cols[c].Append(val != nullptr && val->is_int()
                                  ? Value(val->AsInt())
                                  : Value::Null());
          rows.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    cand.num_rows = rows.size();
    RETURN_NOT_OK(FilterLateral(ref, next_env, filters, ctx, std::move(rows),
                                std::move(cand), ws));
    span.set_rows(ws->num_rows);
    return Status::OK();
  }

  /// The tail of both lateral unnests: candidate j pairs input row `rows[j]`
  /// of `*ws` with the unnest's own columns `cand` row j. Fused filters that
  /// read only the unnest's columns run over those narrow columns; the
  /// first filter reading an input column widens the survivors to the full
  /// combined row. The survivors, combined, replace `*ws`.
  Status FilterLateral(const TableRef& ref, const ColumnEnv& next_env,
                       const std::vector<ExprPtr>& filters,
                       const EvalContext& ctx, std::vector<uint32_t> rows,
                       ColumnBatch cand, ColumnBatch* ws) {
    const size_t width = ws->num_cols();
    // The survivors' input rows, then the unnest's own columns.
    auto combine = [&] {
      ColumnBatch out;
      out.num_rows = rows.size();
      out.cols = TakeRows(ws, rows);
      for (auto& col : cand.cols) out.cols.push_back(std::move(col));
      return out;
    };
    ColumnEnv narrow_env;
    for (const auto& c : ref.column_aliases) narrow_env.Add(ref.exposure(), c);
    bool wide = false;  // `cand` holds the combined rows, not just t.*
    std::vector<uint32_t> sel;
    for (const auto& f : filters) {
      if (cand.num_rows == 0) break;
      if (!wide && !ReadsOnlySlotsFrom(*f, next_env, width)) {
        cand = combine();
        wide = true;
      }
      sel.clear();
      RETURN_NOT_OK(EvalPredicateBatch(*f, wide ? next_env : narrow_env, cand,
                                       ctx, &sel));
      if (sel.size() == cand.num_rows) continue;
      cand.KeepOnly(sel);
      for (size_t j = 0; j < sel.size(); ++j) rows[j] = rows[sel[j]];
      rows.resize(sel.size());
    }
    *ws = wide ? std::move(cand) : combine();
    return Status::OK();
  }

  /// Access path for the first FROM item.
  Status AccessFirst(const TableRef& ref, const Relation& relation,
                     const std::string& alias, const ColumnEnv& env,
                     const std::vector<ExprPtr>& applicable,
                     std::vector<size_t>* applicable_ids,
                     std::vector<bool>* consumed, ColumnBatch* ws,
                     EvalContext* ctx) {
    ws->Reset(relation.columns.size());
    std::vector<bool> used(applicable.size(), false);

    if (relation.base != nullptr && options_.enable_indexes) {
      RETURN_NOT_OK(
          TryIndexAccess(ref, relation, alias, applicable, &used, ws, *ctx));
    }
    if (ws->num_rows == 0 && !index_access_hit_) {
      // Full scan.
      ++stats_->table_scans;
      if (relation.base != nullptr) {
        Trace("seq scan " + relation.base->name());
        obs::ScopedSpan span(spans_, context_,
                             "seq scan " + relation.base->name());
        size_t scanned = 0;
        RETURN_NOT_OK(
            ScanBatched(relation, env, applicable, &used, *ctx, ws, &scanned));
        span.set_rows(scanned);
      } else {
        obs::ScopedSpan span(spans_, context_, "scan " + ref.exposure());
        const Materialized* src = relation.materialized();
        if (src == nullptr) return Status::Internal("relation has no rows");
        *ws = src->batch;
        stats_->rows_scanned += src->batch.num_rows;
        span.set_rows(src->batch.num_rows);
      }
    }
    index_access_hit_ = false;
    // Apply remaining predicates.
    for (size_t k = 0; k < applicable.size(); ++k) {
      if (!used[k]) {
        RETURN_NOT_OK(FilterBatch(*applicable[k], env, *ctx, ws));
      }
      (*consumed)[(*applicable_ids)[k]] = true;
    }
    return Status::OK();
  }

  /// Full scan: fill a chunk of kVectorChunkRows, run every pending filter
  /// over it (gathering survivors between conjuncts so later predicates
  /// only see rows earlier ones passed), and append what remains to the
  /// output batch. Marks the filters it fused in `*used`; `*scanned`
  /// reports total rows read for the scan span.
  Status ScanBatched(const Relation& relation, const ColumnEnv& env,
                     const std::vector<ExprPtr>& applicable,
                     std::vector<bool>* used, const EvalContext& ctx,
                     ColumnBatch* ws, size_t* scanned) {
    std::vector<const Expr*> filters;
    for (size_t k = 0; k < applicable.size(); ++k) {
      if (!(*used)[k]) {
        filters.push_back(applicable[k].get());
        (*used)[k] = true;
      }
    }
    const size_t width = ws->num_cols();
    ColumnBatch chunk;
    chunk.Reset(width);
    chunk.Reserve(rel::kVectorChunkRows);
    std::vector<uint32_t> sel;
    Status st;  // Scan's callback cannot return a status directly
    auto flush = [&]() {
      if (!st.ok() || chunk.num_rows == 0) return;
      const ColumnBatch* current = &chunk;
      ColumnBatch filtered;
      for (const Expr* f : filters) {
        sel.clear();
        st = EvalPredicateBatch(*f, env, *current, ctx, &sel);
        if (!st.ok()) return;
        if (sel.size() != current->num_rows) {
          ColumnBatch next;
          next.Reset(width);
          next.AppendGather(*current, sel);
          filtered = std::move(next);
          current = &filtered;
        }
        if (current->num_rows == 0) break;
      }
      ws->Append(*current);
      chunk.Reset(width);
      chunk.Reserve(rel::kVectorChunkRows);
    };
    relation.base->Scan([&](rel::RowId, const Row& row) {
      if (!st.ok()) return;
      ++stats_->rows_scanned;
      ++*scanned;
      chunk.AppendProjected(row, relation.projection);
      if (chunk.num_rows >= rel::kVectorChunkRows) flush();
    });
    flush();
    return st;
  }

  /// Attempts index-based retrieval for the first FROM item. Sets
  /// `index_access_hit_` and fills `*ws` on success; marks the predicates
  /// it fully satisfied in `*used`. The access-path decision (which index,
  /// which predicates) is split from its execution so a prepared query can
  /// memoize the former and replay only the latter with fresh bind values.
  Status TryIndexAccess(const TableRef& ref, const Relation& relation,
                        const std::string& alias,
                        const std::vector<ExprPtr>& applicable,
                        std::vector<bool>* used, ColumnBatch* ws,
                        const EvalContext& ctx) {
    const rel::Table& table = *relation.base;
    index_access_hit_ = false;

    if (MemoActive()) {
      if (auto plan = memo_->GetAccess(&ref);
          plan != nullptr && plan->n_applicable == applicable.size()) {
        return ExecAccessPlan(*plan, relation, used, ws, ctx);
      }
    }

    PlanMemo::AccessPlan plan = ChooseAccessPlan(table, alias, applicable);
    if (MemoActive()) memo_->PutAccess(&ref, plan);
    return ExecAccessPlan(plan, relation, used, ws, ctx);
  }

  /// Picks the access path for the first FROM item: the decision half of
  /// TryIndexAccess, independent of bind values.
  PlanMemo::AccessPlan ChooseAccessPlan(const rel::Table& table,
                                        const std::string& alias,
                                        const std::vector<ExprPtr>& applicable) {
    PlanMemo::AccessPlan plan;
    plan.n_applicable = applicable.size();

    // Recognize indexable predicates.
    std::vector<IndexablePredicate> preds;
    std::vector<size_t> pred_slot;
    for (size_t k = 0; k < applicable.size(); ++k) {
      IndexablePredicate p;
      if (MatchIndexablePredicate(applicable[k], alias, table, &p)) {
        preds.push_back(std::move(p));
        pred_slot.push_back(k);
      }
    }
    if (preds.empty()) return plan;  // kSeqScan

    // 1) Composite / single-column equality via regular indexes.
    std::unordered_map<int, size_t> eq_by_column;  // column_id -> preds idx
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i].kind == IndexablePredicate::kColumnEq) {
        eq_by_column.emplace(preds[i].column_id, i);
      }
    }
    const rel::Index* best = nullptr;
    for (const auto& index : table.indexes()) {
      if (index->is_json()) continue;
      bool covered = !index->column_ids().empty();
      for (int c : index->column_ids()) {
        if (!eq_by_column.count(c)) {
          covered = false;
          break;
        }
      }
      if (covered && (best == nullptr || index->column_ids().size() >
                                             best->column_ids().size())) {
        best = index.get();
      }
    }
    if (best != nullptr) {
      plan.kind = PlanMemo::AccessPlan::kIndexEq;
      plan.index_name = best->name();
      for (int c : best->column_ids()) {
        const size_t pi = eq_by_column[c];
        plan.eq_preds.push_back(preds[pi]);
        plan.eq_slots.push_back(pred_slot[pi]);
      }
      return plan;
    }

    // 2) JSON functional indexes.
    for (size_t i = 0; i < preds.size(); ++i) {
      const IndexablePredicate& p = preds[i];
      if (p.kind == IndexablePredicate::kJsonEq) {
        const rel::Index* idx =
            table.FindJsonIndex(p.column_id, p.json_key, rel::IndexKind::kHash);
        if (idx == nullptr) {
          idx = table.FindJsonIndex(p.column_id, p.json_key,
                                    rel::IndexKind::kOrdered);
        }
        if (idx == nullptr) continue;
        plan.kind = PlanMemo::AccessPlan::kJsonEq;
        plan.index_name = idx->name();
        plan.json_pred = p;
        plan.json_slot = pred_slot[i];
        return plan;
      }
      if (p.kind == IndexablePredicate::kJsonRange ||
          p.kind == IndexablePredicate::kJsonPrefix) {
        const rel::Index* idx = table.FindJsonIndex(p.column_id, p.json_key,
                                                    rel::IndexKind::kOrdered);
        if (idx == nullptr) continue;
        plan.kind = p.kind == IndexablePredicate::kJsonPrefix
                        ? PlanMemo::AccessPlan::kJsonPrefix
                        : PlanMemo::AccessPlan::kJsonRange;
        plan.index_name = idx->name();
        plan.json_pred = p;
        plan.json_slot = pred_slot[i];
        return plan;
      }
    }
    return plan;  // kSeqScan
  }

  /// Executes a chosen access plan, resolving bind parameters per call. A
  /// kSeqScan plan (or a vanished index) leaves `index_access_hit_` false so
  /// AccessFirst falls back to the full scan.
  Status ExecAccessPlan(const PlanMemo::AccessPlan& plan,
                        const Relation& relation, std::vector<bool>* used,
                        ColumnBatch* ws, const EvalContext& ctx) {
    using AccessPlan = PlanMemo::AccessPlan;
    const rel::Table& table = *relation.base;
    switch (plan.kind) {
      case AccessPlan::kSeqScan:
        return Status::OK();
      case AccessPlan::kIndexEq: {
        const rel::Index* idx = FindIndexByName(table, plan.index_name);
        if (idx == nullptr) return Status::OK();
        rel::IndexKey key;
        for (size_t i = 0; i < plan.eq_preds.size(); ++i) {
          ASSIGN_OR_RETURN(Value v,
                           IndexablePredicateValue(plan.eq_preds[i], ctx));
          key.parts.push_back(std::move(v));
          (*used)[plan.eq_slots[i]] = true;
        }
        obs::ScopedSpan span(spans_, context_,
                             "index lookup " + table.name() + " via " +
                                 idx->name());
        std::vector<rel::RowId> rids;
        idx->Lookup(key, &rids);
        ++stats_->index_lookups;
        Trace("index lookup " + table.name() + " via " + idx->name());
        RETURN_NOT_OK(FetchRows(relation, rids, ws));
        span.set_rows(rids.size());
        index_access_hit_ = true;
        return Status::OK();
      }
      case AccessPlan::kJsonEq: {
        const rel::Index* idx = FindIndexByName(table, plan.index_name);
        if (idx == nullptr) return Status::OK();
        ASSIGN_OR_RETURN(Value v, IndexablePredicateValue(plan.json_pred, ctx));
        rel::IndexKey key;
        key.parts.push_back(std::move(v));
        obs::ScopedSpan span(spans_, context_,
                             "JSON index lookup " + table.name() + " via " +
                                 idx->name());
        std::vector<rel::RowId> rids;
        idx->Lookup(key, &rids);
        ++stats_->index_lookups;
        Trace("JSON index lookup " + table.name() + " via " + idx->name());
        RETURN_NOT_OK(FetchRows(relation, rids, ws));
        span.set_rows(rids.size());
        (*used)[plan.json_slot] = true;
        index_access_hit_ = true;
        return Status::OK();
      }
      case AccessPlan::kJsonRange:
      case AccessPlan::kJsonPrefix: {
        const rel::Index* idx = FindIndexByName(table, plan.index_name);
        if (idx == nullptr) return Status::OK();
        const auto* ordered = static_cast<const rel::OrderedIndex*>(idx);
        obs::ScopedSpan span(spans_, context_,
                             "JSON index range scan " + table.name() +
                                 " via " + idx->name());
        std::vector<rel::RowId> rids;
        if (plan.kind == AccessPlan::kJsonPrefix) {
          // [prefix, prefix + 0xFF): the residual LIKE still runs below.
          std::string hi = plan.json_pred.like_prefix;
          hi.push_back('\xff');
          ordered->Range(Value(plan.json_pred.like_prefix), true, Value(hi),
                         false, &rids);
        } else {
          ASSIGN_OR_RETURN(Value bound,
                           IndexablePredicateValue(plan.json_pred, ctx));
          switch (plan.json_pred.op) {
            case BinaryOp::kLt:
              ordered->Range(Value::Null(), true, bound, false, &rids);
              break;
            case BinaryOp::kLe:
              ordered->Range(Value::Null(), true, bound, true, &rids);
              break;
            case BinaryOp::kGt:
              ordered->Range(bound, false, Value::Null(), true, &rids);
              break;
            default:
              ordered->Range(bound, true, Value::Null(), true, &rids);
              break;
          }
        }
        ++stats_->index_range_scans;
        Trace("JSON index range scan " + table.name() + " via " + idx->name());
        RETURN_NOT_OK(FetchRows(relation, rids, ws));
        span.set_rows(rids.size());
        // Range bounds via ordered index can admit non-matching type ranks
        // (e.g. NULL bucket on unbounded-low); keep the predicate as filter.
        index_access_hit_ = true;
        return Status::OK();
      }
    }
    return Status::OK();
  }

  Status FetchRows(const Relation& relation, const std::vector<rel::RowId>& rids,
                   ColumnBatch* ws) {
    for (rel::RowId rid : rids) {
      RETURN_NOT_OK(
          relation.base->AppendProjected(rid, relation.projection, ws));
      ++stats_->rows_scanned;
    }
    return Status::OK();
  }

  /// Inner (comma) join of the next ref into the current batch.
  Status JoinInner(const TableRef& ref, const Relation& relation,
                   const std::string& alias,
                   const std::vector<std::string>& ref_columns,
                   const ColumnEnv& env, const ColumnEnv& next_env,
                   const std::vector<ExprPtr>& applicable,
                   std::vector<size_t>* applicable_ids,
                   std::vector<bool>* consumed, ColumnBatch* ws,
                   EvalContext* ctx) {
    using JoinPlan = PlanMemo::JoinPlan;
    // Partition applicable conjuncts: equi-join keys / ref-local / residual.
    std::vector<EquiJoinKey> keys;
    std::vector<bool> used(applicable.size(), false);
    const rel::Index* best = nullptr;
    std::vector<size_t> best_key_order;
    bool have_plan = false;

    // Replay a memoized join strategy for this table ref.
    if (MemoActive()) {
      if (auto plan = memo_->GetJoin(&ref);
          plan != nullptr && plan->n_applicable == applicable.size()) {
        keys = plan->keys;
        used = plan->used;
        if (plan->kind == JoinPlan::kIndexNL && relation.base != nullptr) {
          best = FindIndexByName(*relation.base, plan->index_name);
          best_key_order = plan->best_key_order;
        }
        have_plan = best != nullptr || plan->kind != JoinPlan::kIndexNL;
        if (!have_plan) {
          // Memoized index no longer exists: replan from scratch.
          keys.clear();
          used.assign(applicable.size(), false);
          best_key_order.clear();
        }
      }
    }

    if (!have_plan) {
      for (size_t k = 0; k < applicable.size(); ++k) {
        EquiJoinKey key;
        if (MatchEquiJoin(applicable[k], env, alias, ref_columns, &key)) {
          keys.push_back(std::move(key));
          used[k] = true;
        }
      }
      if (!keys.empty() && relation.base != nullptr &&
          options_.enable_indexes) {
        // Index nested-loop join: the index covering the most key columns.
        const rel::Table& table = *relation.base;
        for (const auto& index : table.indexes()) {
          if (index->is_json() || index->column_ids().empty()) continue;
          std::vector<size_t> order;
          bool covered = true;
          for (int c : index->column_ids()) {
            const std::string& cname =
                table.schema().column(static_cast<size_t>(c)).name;
            bool found = false;
            for (size_t ki = 0; ki < keys.size(); ++ki) {
              if (keys[ki].column == cname) {
                order.push_back(ki);
                found = true;
                break;
              }
            }
            if (!found) {
              covered = false;
              break;
            }
          }
          if (covered && (best == nullptr || index->column_ids().size() >
                                                 best->column_ids().size())) {
            best = index.get();
            best_key_order = std::move(order);
          }
        }
      }
      if (MemoActive()) {
        JoinPlan plan;
        plan.n_applicable = applicable.size();
        plan.keys = keys;
        plan.used = used;
        if (best != nullptr) {
          plan.kind = JoinPlan::kIndexNL;
          plan.index_name = best->name();
          plan.best_key_order = best_key_order;
        } else {
          plan.kind = keys.empty() ? JoinPlan::kCross : JoinPlan::kHash;
        }
        memo_->PutJoin(&ref, std::move(plan));
      }
    }

    if (best != nullptr) {
      const rel::Table& table = *relation.base;
      ++stats_->index_nl_joins;
      Trace("index nested-loop join " + table.name() + " via " + best->name());
      obs::ScopedSpan span(spans_, context_,
                           "index nested-loop join " + table.name() +
                               " via " + best->name());
      std::vector<ExprPtr> key_exprs;
      for (size_t ki : best_key_order) key_exprs.push_back(keys[ki].outer);
      ASSIGN_OR_RETURN(std::vector<ColumnVector> key_cols,
                       EvalColumns(key_exprs, env, *ws, *ctx));
      std::vector<uint32_t> left_sel;
      ColumnBatch right;
      right.Reset(relation.columns.size());
      RETURN_NOT_OK(ProbeIndex(relation, *best, ws->num_rows, key_cols,
                               &left_sel, &right));
      ColumnBatch out;
      out.num_rows = left_sel.size();
      out.cols = TakeRows(ws, left_sel);
      for (auto& c : right.cols) out.cols.push_back(std::move(c));
      *ws = std::move(out);
      span.set_rows(ws->num_rows);
      span.Finish();
      // Keys covered by the chosen index are satisfied; others (plus all
      // non-equi applicable conjuncts) filter below.
      std::vector<bool> key_used(keys.size(), false);
      for (size_t ki : best_key_order) key_used[ki] = true;
      size_t key_cursor = 0;
      for (size_t k = 0; k < applicable.size(); ++k) {
        if (!used[k] || !key_used[key_cursor++]) {
          RETURN_NOT_OK(FilterBatch(*applicable[k], next_env, *ctx, ws));
        }
        (*consumed)[(*applicable_ids)[k]] = true;
      }
      return Status::OK();
    }

    std::vector<uint32_t> left_sel, right_sel;
    if (!keys.empty()) {
      // Hash join: build on the new relation.
      ++stats_->hash_joins;
      Trace("hash join build on " + ref.exposure());
      ASSIGN_OR_RETURN(std::vector<int> build_slots,
                       BuildSlots(keys, ref_columns));
      ASSIGN_OR_RETURN(ColumnBatch build, MaterializeRelation(relation));
      obs::ScopedSpan span(spans_, context_, "hash join on " + ref.exposure());
      std::vector<ExprPtr> key_exprs;
      for (const auto& k : keys) key_exprs.push_back(k.outer);
      ASSIGN_OR_RETURN(std::vector<ColumnVector> probe_cols,
                       EvalColumns(key_exprs, env, *ws, *ctx));
      HashMatch(build, build_slots, probe_cols, ws->num_rows, &left_sel,
                &right_sel);
      *ws = JoinPairs(ws, left_sel, build, right_sel);
      span.set_rows(ws->num_rows);
      span.Finish();
      for (size_t k = 0; k < applicable.size(); ++k) {
        if (!used[k]) {
          RETURN_NOT_OK(FilterBatch(*applicable[k], next_env, *ctx, ws));
        }
        (*consumed)[(*applicable_ids)[k]] = true;
      }
      return Status::OK();
    }

    // No equi keys: nested-loop cross join, then filter.
    ASSIGN_OR_RETURN(ColumnBatch right, MaterializeRelation(relation));
    obs::ScopedSpan span(spans_, context_, "cross join " + ref.exposure());
    CrossPairs(ws->num_rows, right.num_rows, &left_sel, &right_sel);
    *ws = JoinPairs(ws, left_sel, right, right_sel);
    span.set_rows(ws->num_rows);
    span.Finish();
    for (size_t k = 0; k < applicable.size(); ++k) {
      RETURN_NOT_OK(FilterBatch(*applicable[k], next_env, *ctx, ws));
      (*consumed)[(*applicable_ids)[k]] = true;
    }
    return Status::OK();
  }

  /// Evaluates each of `exprs` once over the whole batch.
  static Result<std::vector<ColumnVector>> EvalColumns(
      const std::vector<ExprPtr>& exprs, const ColumnEnv& env,
      const ColumnBatch& batch, const EvalContext& ctx) {
    std::vector<ColumnVector> cols;
    cols.reserve(exprs.size());
    for (const auto& e : exprs) {
      ASSIGN_OR_RETURN(ColumnVector col, EvalExprBatch(*e, env, batch, ctx));
      cols.push_back(std::move(col));
    }
    return cols;
  }

  /// The probe loop shared by the index nested-loop joins: for every row
  /// i < n whose key columns hold no NULL, one index lookup, then each
  /// match's projected columns appended to `*right` and i to `*left_sel`.
  /// A single int64 key column (the VID/VALID joins of the translated
  /// chains) is read unboxed and probed with Index::LookupInt; every other
  /// key shape builds an IndexKey. One key and one rid buffer serve the
  /// whole batch.
  Status ProbeIndex(const Relation& relation, const rel::Index& index,
                    size_t n, const std::vector<ColumnVector>& key_cols,
                    std::vector<uint32_t>* left_sel, ColumnBatch* right) {
    std::vector<rel::RowId> rids;
    // Appends the rows of the lookup just made for probe row i.
    auto fetch_matches = [&](size_t i) -> Status {
      ++stats_->index_lookups;
      for (rel::RowId rid : rids) {
        RETURN_NOT_OK(
            relation.base->AppendProjected(rid, relation.projection, right));
        left_sel->push_back(static_cast<uint32_t>(i));
      }
      return Status::OK();
    };
    if (key_cols.size() == 1 &&
        key_cols[0].tag() == ColumnVector::Tag::kInt64) {
      const ColumnVector& col = key_cols[0];
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) continue;  // NULL never equi-joins
        rids.clear();
        index.LookupInt(col.IntAt(i), &rids);
        RETURN_NOT_OK(fetch_matches(i));
      }
      return Status::OK();
    }
    rel::IndexKey key;
    key.parts.reserve(key_cols.size());
    for (size_t i = 0; i < n; ++i) {
      key.parts.clear();
      bool null_key = false;
      for (const auto& col : key_cols) {
        Value v = col.GetValue(i);
        if (v.is_null()) null_key = true;
        key.parts.push_back(std::move(v));
      }
      if (null_key) continue;  // NULL never equi-joins
      rids.clear();
      index.Lookup(key, &rids);
      RETURN_NOT_OK(fetch_matches(i));
    }
    return Status::OK();
  }

  /// The rows of a join's build side: a projected scan of a base table, or
  /// a copy of a materialized select's batch.
  Result<ColumnBatch> MaterializeRelation(const Relation& relation) {
    if (relation.base != nullptr) {
      ColumnBatch out;
      out.Reset(relation.columns.size());
      ++stats_->table_scans;
      obs::ScopedSpan span(spans_, context_,
                           "seq scan " + relation.base->name() + " (build)");
      relation.base->Scan([&](rel::RowId, const Row& row) {
        ++stats_->rows_scanned;
        out.AppendProjected(row, relation.projection);
      });
      span.set_rows(out.num_rows);
      return out;
    }
    const Materialized* src = relation.materialized();
    if (src == nullptr) return Status::Internal("relation has no rows");
    return src->batch;
  }

  /// Left-outer join: candidate pairs come from an index probe (the OSA/ISA
  /// fast path), a hash build/probe, or — with no equi key — the cross
  /// product; PadOuterMatches then applies the residual ON conjuncts and
  /// NULL-pads the probe rows left unmatched.
  Status LeftOuterJoin(const TableRef& ref, const Relation& relation,
                       const std::string& alias,
                       const std::vector<std::string>& ref_columns,
                       const ColumnEnv& env, const ColumnEnv& next_env,
                       ColumnBatch* ws, EvalContext* ctx) {
    std::vector<EquiJoinKey> keys;
    std::vector<ExprPtr> residual;
    const rel::Index* index = nullptr;
    bool have_plan = false;

    // Replay a memoized ON-clause partition + index choice.
    if (MemoActive()) {
      if (auto plan = memo_->GetOuter(&ref); plan != nullptr) {
        keys = plan->keys;
        residual = plan->residual;
        if (plan->use_index && relation.base != nullptr) {
          index = FindIndexByName(*relation.base, plan->index_name);
          have_plan = index != nullptr;
          if (!have_plan) {
            keys.clear();
            residual.clear();
          }
        } else {
          have_plan = true;
        }
      }
    }

    if (!have_plan) {
      std::vector<ExprPtr> on_conjuncts;
      SplitConjuncts(ref.on, &on_conjuncts);
      for (const auto& c : on_conjuncts) {
        EquiJoinKey key;
        if (MatchEquiJoin(c, env, alias, ref_columns, &key)) {
          keys.push_back(std::move(key));
        } else {
          residual.push_back(c);
        }
      }
      // Index nested-loop left-outer join: probe the base table's index per
      // outer row instead of hashing the whole table (the OSA/ISA fast path).
      if (!keys.empty() && relation.base != nullptr &&
          options_.enable_indexes) {
        const rel::Table& table = *relation.base;
        std::vector<int> key_cols;
        for (const auto& k : keys) {
          key_cols.push_back(table.schema().FindColumn(k.column));
        }
        index = table.FindIndex(key_cols);
        if (index == nullptr && key_cols.size() == 1) {
          index = table.FindIndexOnColumn(key_cols[0], rel::IndexKind::kHash);
          if (index != nullptr && index->column_ids().size() != 1) {
            index = nullptr;
          }
        }
      }
      if (MemoActive()) {
        PlanMemo::OuterPlan plan;
        plan.use_index = index != nullptr;
        if (index != nullptr) plan.index_name = index->name();
        plan.keys = keys;
        plan.residual = residual;
        memo_->PutOuter(&ref, std::move(plan));
      }
    }

    std::vector<ExprPtr> key_exprs;
    for (const auto& k : keys) key_exprs.push_back(k.outer);
    const size_t n = ws->num_rows;
    std::vector<uint32_t> match_left;  // probe row of each candidate pair
    ColumnBatch right;                 // build side of each candidate pair
    if (index != nullptr) {
      const rel::Table& table = *relation.base;
      ++stats_->index_nl_joins;
      Trace("index nested-loop left-outer join " + table.name() + " via " +
            index->name());
      obs::ScopedSpan span(spans_, context_,
                           "index nested-loop left-outer join " +
                               table.name() + " via " + index->name());
      ASSIGN_OR_RETURN(std::vector<ColumnVector> key_cols,
                       EvalColumns(key_exprs, env, *ws, *ctx));
      right.Reset(relation.columns.size());
      RETURN_NOT_OK(
          ProbeIndex(relation, *index, n, key_cols, &match_left, &right));
      RETURN_NOT_OK(PadOuterMatches(next_env, residual, *ctx,
                                    std::move(match_left), std::move(right),
                                    ws));
      span.set_rows(ws->num_rows);
      return Status::OK();
    }

    ASSIGN_OR_RETURN(ColumnBatch build, MaterializeRelation(relation));
    ++stats_->hash_joins;
    obs::ScopedSpan span(
        spans_, context_,
        (keys.empty() ? "nested-loop left-outer join " : "hash left-outer join ") +
            ref.exposure());
    std::vector<uint32_t> right_sel;
    if (keys.empty()) {
      CrossPairs(n, build.num_rows, &match_left, &right_sel);
    } else {
      ASSIGN_OR_RETURN(std::vector<int> build_slots,
                       BuildSlots(keys, ref_columns));
      ASSIGN_OR_RETURN(std::vector<ColumnVector> probe_cols,
                       EvalColumns(key_exprs, env, *ws, *ctx));
      HashMatch(build, build_slots, probe_cols, n, &match_left, &right_sel);
    }
    right.num_rows = right_sel.size();
    for (const auto& c : build.cols) right.cols.push_back(c.Gather(right_sel));
    RETURN_NOT_OK(PadOuterMatches(next_env, residual, *ctx,
                                  std::move(match_left), std::move(right), ws));
    span.set_rows(ws->num_rows);
    return Status::OK();
  }

  /// The tail of every left-outer join. `match_left` (non-decreasing) names
  /// the probe row of each candidate pair and `right` its build side. The
  /// residual ON conjuncts run over the pairs, keeping survivors between
  /// conjuncts; a probe row left with no pair gets one row padded with
  /// NULLs, in probe order.
  Status PadOuterMatches(const ColumnEnv& next_env,
                         const std::vector<ExprPtr>& residual,
                         const EvalContext& ctx,
                         std::vector<uint32_t> match_left, ColumnBatch right,
                         ColumnBatch* ws) {
    ColumnBatch& left = *ws;
    const size_t n = left.num_rows;
    const size_t right_width = right.num_cols();
    if (!residual.empty() && !match_left.empty()) {
      ColumnBatch pairs;
      pairs.cols.reserve(left.num_cols() + right_width);
      for (const auto& c : left.cols) {
        pairs.cols.push_back(c.Gather(match_left));
      }
      for (auto& c : right.cols) pairs.cols.push_back(std::move(c));
      pairs.num_rows = match_left.size();
      std::vector<uint32_t> sel;
      for (const auto& c : residual) {
        if (pairs.num_rows == 0) break;
        sel.clear();
        RETURN_NOT_OK(EvalPredicateBatch(*c, next_env, pairs, ctx, &sel));
        if (sel.size() == pairs.num_rows) continue;
        pairs.KeepOnly(sel);
        for (size_t j = 0; j < sel.size(); ++j) {
          match_left[j] = match_left[sel[j]];
        }
        match_left.resize(sel.size());
      }
      for (size_t c = 0; c < right_width; ++c) {
        right.cols[c] = std::move(pairs.cols[left.num_cols() + c]);
      }
      right.num_rows = match_left.size();
    }

    // Interleave matches and padded rows in probe order.
    constexpr uint32_t kPad = UINT32_MAX;
    std::vector<uint32_t> out_left, out_right;
    out_left.reserve(n + match_left.size());
    out_right.reserve(n + match_left.size());
    size_t j = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t first = j;
      for (; j < match_left.size() && match_left[j] == i; ++j) {
        out_left.push_back(static_cast<uint32_t>(i));
        out_right.push_back(static_cast<uint32_t>(j));
      }
      if (j == first) {
        out_left.push_back(static_cast<uint32_t>(i));
        out_right.push_back(kPad);
      }
    }
    ColumnBatch out;
    out.num_rows = out_left.size();
    out.cols = TakeRows(&left, out_left);
    if (match_left.empty()) {
      for (size_t c = 0; c < right_width; ++c) {
        out.cols.push_back(ColumnVector::Constant(Value::Null(), out.num_rows));
      }
    } else if (out.num_rows == right.num_rows) {
      for (auto& c : right.cols) out.cols.push_back(std::move(c));
    } else {
      for (const auto& src : right.cols) {
        ColumnVector col;
        col.Reserve(out.num_rows);
        for (uint32_t r : out_right) {
          if (r == kPad) {
            col.AppendNull();
          } else {
            col.AppendFrom(src, r);
          }
        }
        out.cols.push_back(std::move(col));
      }
    }
    *ws = std::move(out);
    return Status::OK();
  }

  Status FilterBatch(const Expr& predicate, const ColumnEnv& env,
                     const EvalContext& ctx, ColumnBatch* ws) {
    std::vector<uint32_t> sel;
    RETURN_NOT_OK(EvalPredicateBatch(predicate, env, *ws, ctx, &sel));
    if (sel.size() != ws->num_rows) ws->KeepOnly(sel);
    return Status::OK();
  }

  // ----------------------------------------- projection and aggregation ----

  /// Evaluates the select list over `*ws` into `out->batch`, or into
  /// `*rows_out` when given (the final result).
  Status Project(const SelectStmt& s, const ColumnEnv& env,
                 const EvalContext& ctx, std::vector<Row>* rows_out,
                 ColumnBatch* ws, Materialized* out) {
    // Expand stars into slot references.
    struct OutputCol {
      std::string name;
      int slot = -1;     // >= 0: direct slot copy
      ExprPtr expr;      // otherwise evaluate
    };
    std::vector<OutputCol> cols;
    for (size_t i = 0; i < s.items.size(); ++i) {
      const SelectItem& item = s.items[i];
      if (item.is_star) {
        for (size_t sl = 0; sl < env.size(); ++sl) {
          const auto& [qual, col] = env.slot(sl);
          if (!item.star_qualifier.empty() && qual != item.star_qualifier) {
            continue;
          }
          cols.push_back({col, static_cast<int>(sl), nullptr});
        }
        continue;
      }
      OutputCol oc;
      oc.name = ItemName(item, i);
      if (item.expr->kind == ExprKind::kColumnRef) {
        oc.slot = env.TryResolve(item.expr->qualifier, item.expr->column);
      }
      if (oc.slot < 0) oc.expr = item.expr;
      cols.push_back(std::move(oc));
    }

    out->columns.clear();
    for (const auto& c : cols) out->columns.push_back(c.name);
    ColumnBatch& in = *ws;
    // Each computed item evaluates once over the whole batch.
    std::vector<ColumnVector> computed(cols.size());
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].slot >= 0) continue;
      ASSIGN_OR_RETURN(computed[c], EvalExprBatch(*cols[c].expr, env, in, ctx));
    }
    if (rows_out != nullptr) {
      // Assemble output rows from slot copies and the computed vectors.
      rows_out->reserve(in.num_rows);
      for (size_t i = 0; i < in.num_rows; ++i) {
        Row projected;
        projected.reserve(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) {
          const ColumnVector& src =
              cols[c].slot >= 0 ? in.cols[static_cast<size_t>(cols[c].slot)]
                                : computed[c];
          projected.push_back(src.GetValue(i));
        }
        rows_out->push_back(std::move(projected));
      }
      return Status::OK();
    }
    // Slot items take their input column, moved when no other item reads
    // it.
    std::vector<int> readers(in.num_cols(), 0);
    for (const auto& c : cols) {
      if (c.slot >= 0) ++readers[static_cast<size_t>(c.slot)];
    }
    ColumnBatch& projected = out->batch;
    projected.num_rows = in.num_rows;
    projected.cols = std::move(computed);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].slot < 0) continue;
      const size_t slot = static_cast<size_t>(cols[c].slot);
      projected.cols[c] =
          --readers[slot] == 0 ? std::move(in.cols[slot]) : in.cols[slot];
    }
    return Status::OK();
  }

  /// GROUP BY / aggregate select: every GROUP BY expression and aggregate
  /// argument evaluates once over the batch, then the groups fold row by
  /// row out of those columns. The groups leave as rows.
  Result<ResultSet> Aggregate(const SelectStmt& s, const ColumnEnv& env,
                              const ColumnBatch& ws, const EvalContext& ctx) {
    // Each select item must be either an aggregate call or a GROUP BY
    // expression (matched textually).
    struct ItemPlan {
      bool is_aggregate = false;
      AggState::Kind agg_kind = AggState::kCountStar;
      ExprPtr arg;      // aggregate argument (null for COUNT(*))
      ExprPtr expr;     // group expression otherwise
      std::string name;
    };
    std::vector<ItemPlan> plans;
    // HAVING may contain aggregate calls not present in the select list;
    // compute them as hidden trailing items and rewrite HAVING to reference
    // them by name.
    ExprPtr rewritten_having;
    std::vector<ItemPlan> hidden;
    if (s.having != nullptr) {
      std::function<ExprPtr(const ExprPtr&)> rewrite =
          [&](const ExprPtr& e) -> ExprPtr {
        if (e == nullptr) return nullptr;
        AggState::Kind kind;
        if (e->kind == ExprKind::kFunc && IsAggregateCall(*e, &kind)) {
          ItemPlan plan;
          plan.is_aggregate = true;
          plan.agg_kind = kind;
          if (kind != AggState::kCountStar && e->args.size() == 1) {
            plan.arg = e->args[0];
          }
          plan.name = "__having" + std::to_string(hidden.size());
          const std::string name = plan.name;
          hidden.push_back(std::move(plan));
          return Col(name);
        }
        auto copy = std::make_shared<Expr>(*e);
        copy->lhs = rewrite(e->lhs);
        copy->rhs = rewrite(e->rhs);
        copy->args.clear();
        for (const auto& a : e->args) copy->args.push_back(rewrite(a));
        copy->in_list.clear();
        for (const auto& a : e->in_list) copy->in_list.push_back(rewrite(a));
        return copy;
      };
      rewritten_having = rewrite(s.having);
    }
    for (size_t i = 0; i < s.items.size(); ++i) {
      const SelectItem& item = s.items[i];
      if (item.is_star) {
        return Status::InvalidArgument("* not allowed with aggregation");
      }
      ItemPlan plan;
      plan.name = ItemName(item, i);
      AggState::Kind kind;
      if (item.expr->kind == ExprKind::kFunc &&
          IsAggregateCall(*item.expr, &kind)) {
        plan.is_aggregate = true;
        plan.agg_kind = kind;
        if (kind != AggState::kCountStar) {
          if (item.expr->args.size() != 1) {
            return Status::InvalidArgument("aggregate expects one argument");
          }
          plan.arg = item.expr->args[0];
        }
      } else {
        bool matches_group = false;
        const std::string rendered = RenderExpr(*item.expr);
        for (const auto& g : s.group_by) {
          if (RenderExpr(*g) == rendered) {
            matches_group = true;
            break;
          }
        }
        if (!matches_group) {
          return Status::InvalidArgument(
              "select item is neither aggregate nor GROUP BY expression: " +
              rendered);
        }
        plan.expr = item.expr;
      }
      plans.push_back(std::move(plan));
    }
    const size_t visible_items = plans.size();
    for (auto& h : hidden) plans.push_back(std::move(h));

    struct Group {
      Row key_row;  // evaluated GROUP BY values
      std::vector<AggState> aggs;
    };
    std::unordered_map<rel::IndexKey, Group, rel::IndexKeyHash> groups;

    auto make_group = [&]() {
      Group g;
      for (const auto& plan : plans) {
        if (plan.is_aggregate) {
          AggState st;
          st.kind = plan.agg_kind;
          g.aggs.push_back(std::move(st));
        }
      }
      return g;
    };

    // One scratch key reused across rows: reserved once, cleared per row,
    // copied into the map only on first sight of a group.
    rel::IndexKey key;
    key.parts.reserve(s.group_by.size());
    std::vector<ColumnVector> group_cols;
    group_cols.reserve(s.group_by.size());
    for (const auto& g : s.group_by) {
      ASSIGN_OR_RETURN(ColumnVector col, EvalExprBatch(*g, env, ws, ctx));
      group_cols.push_back(std::move(col));
    }
    std::map<const Expr*, ColumnVector> arg_cols;
    for (const auto& plan : plans) {
      if (!plan.is_aggregate || plan.arg == nullptr) continue;
      if (arg_cols.count(plan.arg.get())) continue;
      ASSIGN_OR_RETURN(ColumnVector col,
                       EvalExprBatch(*plan.arg, env, ws, ctx));
      arg_cols.emplace(plan.arg.get(), std::move(col));
    }
    for (size_t i = 0; i < ws.num_rows; ++i) {
      key.parts.clear();
      for (const auto& col : group_cols) key.parts.push_back(col.GetValue(i));
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(key, make_group()).first;
        it->second.key_row = key.parts;
      }
      size_t agg_index = 0;
      for (const auto& plan : plans) {
        if (!plan.is_aggregate) continue;
        AggState& st = it->second.aggs[agg_index++];
        st.Add(plan.agg_kind == AggState::kCountStar
                   ? Value()
                   : arg_cols.at(plan.arg.get()).GetValue(i));
      }
    }
    // Global aggregation over an empty input still yields one row.
    if (groups.empty() && s.group_by.empty()) {
      groups.emplace(rel::IndexKey{}, make_group());
    }

    ResultSet out;
    for (const auto& plan : plans) out.columns.push_back(plan.name);
    for (auto& [key, group] : groups) {
      Row row;
      size_t agg_index = 0;
      for (const auto& plan : plans) {
        if (plan.is_aggregate) {
          row.push_back(group.aggs[agg_index++].Finish());
        } else {
          // Re-evaluate: find the GROUP BY slot with the same rendering.
          const std::string rendered = RenderExpr(*plan.expr);
          Value v;
          for (size_t gi = 0; gi < s.group_by.size(); ++gi) {
            if (RenderExpr(*s.group_by[gi]) == rendered) {
              v = group.key_row[gi];
              break;
            }
          }
          row.push_back(std::move(v));
        }
      }
      out.rows.push_back(std::move(row));
    }
    // HAVING: evaluate the rewritten predicate, then drop hidden columns.
    if (rewritten_having != nullptr) {
      ColumnEnv having_env;
      for (const auto& c : out.columns) having_env.Add("", c);
      std::vector<Row> kept;
      for (Row& row : out.rows) {
        ASSIGN_OR_RETURN(Value v,
                         EvalExpr(*rewritten_having, having_env, row, ctx));
        if (IsTruthy(v)) kept.push_back(std::move(row));
      }
      out.rows = std::move(kept);
    }
    if (visible_items < out.columns.size()) {
      out.columns.resize(visible_items);
      for (auto& row : out.rows) row.resize(visible_items);
    }
    return out;
  }

  // --------------------------------------------------- IN subqueries ----

  Status MaterializeInSubqueries(const SelectStmt& s, EvalContext* ctx) {
    std::vector<const Expr*> nodes;
    auto collect = [&](const ExprPtr& e, auto&& self) -> void {
      if (e == nullptr) return;
      if (e->kind == ExprKind::kInSubquery) nodes.push_back(e.get());
      if (e->lhs) self(e->lhs, self);
      if (e->rhs) self(e->rhs, self);
      for (const auto& a : e->args) self(a, self);
      for (const auto& a : e->in_list) self(a, self);
    };
    collect(s.where, collect);
    collect(s.having, collect);
    for (const auto& item : s.items) collect(item.expr, collect);
    for (const Expr* node : nodes) {
      ASSIGN_OR_RETURN(Materialized res, ExecSelect(*node->subquery));
      if (res.columns.size() != 1) {
        return Status::InvalidArgument("IN subquery must return one column");
      }
      auto& set = ctx->in_subquery_sets[node];
      const ColumnVector& col = res.batch.cols[0];
      for (size_t i = 0; i < res.batch.num_rows; ++i) {
        if (!col.IsNull(i)) set.insert(col.GetValue(i));
      }
    }
    return Status::OK();
  }

  void Trace(std::string msg) {
    stats_->trace.push_back(context_ + ": " + std::move(msg));
  }

  /// True when access-path decisions may be recorded into / replayed from
  /// the prepared query's PlanMemo. Memoization keys on AST node addresses,
  /// so it must be off for any statement evaluated through a local AST copy
  /// (the recursive-CTE base select).
  bool MemoActive() const {
    return memo_ != nullptr && memo_enabled_ && options_.enable_indexes;
  }

  rel::Database* db_;
  const Options& options_;
  ExecStats* stats_;
  const ParamBindings* params_ = nullptr;
  PlanMemo* memo_ = nullptr;
  bool memo_enabled_ = true;
  std::map<std::string, Materialized> ctes_;
  std::string context_ = "query";
  bool index_access_hit_ = false;
  // EXPLAIN ANALYZE sink (&stats_->spans when analyzing, else null so every
  // span construction short-circuits without reading the clock).
  std::vector<obs::TraceSpan>* spans_ = nullptr;
};

// ===========================================================================

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) out.append(" | ");
    out.append(columns[i]);
  }
  out.push_back('\n');
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) {
      out.append("... (" + std::to_string(rows.size()) + " rows total)\n");
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out.append(" | ");
      out.append(row[i].ToString());
    }
    out.push_back('\n');
  }
  return out;
}

// ------------------------------------------------------------ PlanCache ----

Result<PreparedQueryPtr> PreparedQuery::Compile(std::string_view sql_text,
                                                uint64_t epoch) {
  ASSIGN_OR_RETURN(SqlQuery parsed, ParseQuery(sql_text));
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->sql_ = PlanCache::NormalizeSql(sql_text);
  prepared->ast_ = std::make_shared<const SqlQuery>(std::move(parsed));
  prepared->memo_ = std::make_shared<PlanMemo>();
  prepared->epoch_ = epoch;
  return PreparedQueryPtr(std::move(prepared));
}

namespace {

/// NormalizeSql's scan: hands each character of the normalized text to
/// `emit` in order, stopping early when `emit` returns false.
template <typename Emit>
void EmitNormalizedSql(std::string_view sql_text, Emit&& emit) {
  bool in_ws = false;
  bool in_string = false;
  bool emitted = false;
  for (char c : sql_text) {
    if (in_string) {
      if (!emit(c)) return;
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      in_ws = true;
      continue;
    }
    if (in_ws && emitted && !emit(' ')) return;
    in_ws = false;
    emitted = true;
    if (!emit(c)) return;
    if (c == '\'') in_string = true;
  }
}

/// True when NormalizeSql(sql_text) == sql_text, decided without building
/// the normalized copy.
bool IsNormalizedSql(std::string_view sql_text) {
  size_t pos = 0;
  bool same = true;
  EmitNormalizedSql(sql_text, [&](char c) {
    same = pos < sql_text.size() && sql_text[pos] == c;
    ++pos;
    return same;
  });
  return same && pos == sql_text.size();
}

}  // namespace

std::string PlanCache::NormalizeSql(std::string_view sql_text) {
  std::string out;
  out.reserve(sql_text.size());
  EmitNormalizedSql(sql_text, [&](char c) {
    out.push_back(c);
    return true;
  });
  return out;
}

Result<PreparedQueryPtr> PlanCache::GetOrPrepare(std::string_view sql_text,
                                                 uint64_t epoch,
                                                 ExecStats* stats) {
  // Normalize only text that needs it; the store's templates and repeated
  // query text are looked up in place.
  std::string normalized;
  const std::string_view key =
      IsNormalizedSql(sql_text) ? sql_text
                                : (normalized = NormalizeSql(sql_text));
  uint64_t prepare_ns = 0;
  bool hit = false;
  Result<PreparedQueryPtr> prepared = cache_.GetOrLoad(
      key,
      [&] {
        const auto start = std::chrono::steady_clock::now();
        Result<PreparedQueryPtr> compiled = PreparedQuery::Compile(key, epoch);
        prepare_ns = ElapsedNs(start);
        return compiled;
      },
      [epoch](const PreparedQueryPtr& cached) {
        return cached->schema_epoch() == epoch;
      },
      &hit);
  static obs::Counter* hit_counter =
      obs::MetricsRegistry::Default().GetCounter("sql.plan_cache.hits");
  static obs::Counter* miss_counter =
      obs::MetricsRegistry::Default().GetCounter("sql.plan_cache.misses");
  (hit ? hit_counter : miss_counter)->Increment();
  if (stats != nullptr) {
    if (hit) {
      ++stats->plan_cache_hits;
    } else {
      ++stats->plan_cache_misses;
      stats->prepare_ns += prepare_ns;
    }
  }
  return prepared;
}

// ------------------------------------------------------------- Executor ----

Result<ResultSet> Executor::ExecuteWithParams(const SqlQuery& query,
                                              const ParamBindings* params,
                                              PlanMemo* memo) {
  if (options_.verify_plans) {
    // Staged verification keeps prepared-statement replay overhead at zero:
    // execution 0 of a memo verifies the (immutable, shared) AST, execution
    // 1 verifies the plans execution 0 recorded, later executions skip.
    // Ad-hoc statements (no memo) verify their AST every time.
    const uint32_t stage = memo != nullptr ? memo->ClaimVerifyStage() : 0;
    if (stage <= 1) {
      PlanVerifyReport report;
      if (stage == 0) {
        VerifyPlan(query, *db_, &report);
      } else {
        VerifyMemo(query, *db_, *memo, &report);
      }
      AddVerifySelfTestPlants(&report);
      ++stats_.plans_verified;
      if (!report.ok()) {
        ++stats_.plan_verify_rejections;
        return report.ToStatus();
      }
    }
  }
  const auto start = std::chrono::steady_clock::now();
  Impl impl(db_, options_, &stats_, params, memo);
  Result<ResultSet> result = impl.ExecuteQuery(query);
  const uint64_t elapsed = ElapsedNs(start);
  stats_.exec_ns += elapsed;
  if (obs::MetricsEnabled()) {
    // One registry update per query, not per row: negligible next to the
    // query itself, and the pointers resolve exactly once per process.
    static obs::Counter* queries =
        obs::MetricsRegistry::Default().GetCounter("sql.queries");
    static obs::Histogram* latency =
        obs::MetricsRegistry::Default().GetHistogram("sql.query_ns");
    queries->Increment();
    latency->Record(elapsed);
  }
  return result;
}

Result<ResultSet> Executor::Execute(const SqlQuery& query) {
  return ExecuteWithParams(query, nullptr, nullptr);
}

Result<PreparedQueryPtr> Executor::Prepare(std::string_view sql_text) {
  if (plan_cache_ != nullptr) {
    return plan_cache_->GetOrPrepare(sql_text, schema_epoch_, &stats_);
  }
  // One-off prepared statement without a shared cache.
  const auto start = std::chrono::steady_clock::now();
  Result<PreparedQueryPtr> prepared =
      PreparedQuery::Compile(sql_text, schema_epoch_);
  stats_.prepare_ns += ElapsedNs(start);
  ++stats_.plan_cache_misses;
  return prepared;
}

Result<ResultSet> Executor::ExecutePrepared(const PreparedQuery& prepared,
                                            const ParamBindings& params) {
  if (prepared.schema_epoch() != schema_epoch_) {
    if (plan_cache_ != nullptr) {
      // Stale handle: re-prepare through the cache (counted as a miss there).
      ASSIGN_OR_RETURN(PreparedQueryPtr fresh, Prepare(prepared.sql()));
      return ExecuteWithParams(fresh->query(), &params, fresh->memo());
    }
    if (options_.verify_plans) {
      // No cache to re-prepare through: replaying the stale memo would
      // silently use access paths chosen for a different schema. Reject
      // statically instead.
      PlanVerifyReport report;
      VerifyMemoEpoch(prepared.schema_epoch(), schema_epoch_, &report);
      ++stats_.plans_verified;
      ++stats_.plan_verify_rejections;
      return report.ToStatus();
    }
  }
  ++stats_.plan_cache_hits;
  return ExecuteWithParams(prepared.query(), &params, prepared.memo());
}

Result<ResultSet> Executor::ExecuteSql(std::string_view sql_text) {
  if (plan_cache_ != nullptr) {
    // Hit/miss accounting happens inside the cache lookup.
    ASSIGN_OR_RETURN(PreparedQueryPtr prepared, Prepare(sql_text));
    ParamBindings no_params;
    return ExecuteWithParams(prepared->query(), &no_params, prepared->memo());
  }
  const auto start = std::chrono::steady_clock::now();
  Result<SqlQuery> parsed = ParseQuery(sql_text);
  stats_.prepare_ns += ElapsedNs(start);
  if (!parsed.ok()) return parsed.status();
  return Execute(parsed.value());
}

}  // namespace sql
}  // namespace sqlgraph
