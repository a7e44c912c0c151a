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

/// A resolved FROM item: either an indexable base table or materialized rows.
struct Relation {
  std::vector<std::string> columns;
  const rel::Table* base = nullptr;
  const ResultSet* borrowed = nullptr;
  std::shared_ptr<ResultSet> owned;
  // Column pruning (projection pushdown): when non-empty, only these
  // base-table column indexes are carried into join rows. Wide tables like
  // OPA (3 columns per triad) shrink to the handful of referenced columns.
  std::vector<int> projection;

  const std::vector<Row>* rows() const {
    if (borrowed != nullptr) return &borrowed->rows;
    if (owned != nullptr) return &owned->rows;
    return nullptr;
  }

  /// Applies the projection to a freshly fetched base-table row.
  Row Project(const Row& full) const {
    if (projection.empty()) return full;
    Row out;
    out.reserve(projection.size());
    for (int c : projection) out.push_back(full[static_cast<size_t>(c)]);
    return out;
  }
};

/// The inter-operator working set: either row-major rows (the legacy
/// operators) or a ColumnBatch (the vectorized ones). A batch enters the
/// pipeline at a base-table access when Options::vectorized is set;
/// operators without a batched implementation (outer joins, lateral
/// unnests, sorts) collapse it to rows and the pipeline continues
/// row-at-a-time from there.
struct WorkingSet {
  std::vector<Row> rows;
  ColumnBatch batch;
  bool is_batch = false;

  size_t size() const { return is_batch ? batch.num_rows : rows.size(); }

  void SetBatch(ColumnBatch b) {
    batch = std::move(b);
    is_batch = true;
    rows.clear();
  }

  /// Collapses to row mode (no-op when already there).
  std::vector<Row>* MutableRows() {
    if (is_batch) {
      rows = batch.ToRows();
      batch = ColumnBatch();
      is_batch = false;
    }
    return &rows;
  }
};

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
        span.set_rows(ctes_[cte.name].rows.size());
      } else {
        ASSIGN_OR_RETURN(ResultSet res, ExecSelect(*cte.select));
        RETURN_NOT_OK(ApplyCteAliases(cte, &res));
        ctes_[cte.name] = std::move(res);
      }
    }
    context_ = "final";
    return ExecSelect(*q.final_select);
  }

 private:
  // ------------------------------------------------------------- CTEs ----

  static Status ApplyCteAliases(const Cte& cte, ResultSet* res) {
    if (cte.column_aliases.empty()) return Status::OK();
    if (cte.column_aliases.size() != res->columns.size()) {
      return Status::InvalidArgument("CTE " + cte.name +
                                     " column alias arity mismatch");
    }
    res->columns = cte.column_aliases;
    return Status::OK();
  }

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
    Result<ResultSet> base_result = ExecSelect(base);
    memo_enabled_ = memo_was_enabled;
    if (!base_result.ok()) return base_result.status();
    ResultSet total = std::move(base_result).value();
    RETURN_NOT_OK(ApplyCteAliasesForRecursive(cte, &total));
    std::unordered_set<Row, RowHash, RowEq> seen(total.rows.begin(),
                                                 total.rows.end());
    ResultSet delta = total;
    int iter = 0;
    while (!delta.rows.empty()) {
      if (++iter > options_.max_recursion) {
        return Status::OutOfRange("recursive CTE " + cte.name + " exceeded " +
                                  std::to_string(options_.max_recursion) +
                                  " iterations");
      }
      ++stats_->recursive_iterations;
      ctes_[cte.name] = delta;  // bind the working table
      ASSIGN_OR_RETURN(ResultSet produced, ExecSelect(step));
      ResultSet next;
      next.columns = delta.columns;
      for (auto& row : produced.rows) {
        if (seen.insert(row).second) {
          total.rows.push_back(row);
          next.rows.push_back(std::move(row));
        }
      }
      delta = std::move(next);
    }
    ctes_[cte.name] = std::move(total);
    return Status::OK();
  }

  Status ApplyCteAliasesForRecursive(const Cte& cte, ResultSet* res) {
    return ApplyCteAliases(cte, res);
  }

  // ----------------------------------------------------------- SELECT ----

  Result<ResultSet> ExecSelect(const SelectStmt& s) {
    // With set operations, ORDER BY / LIMIT bind to the combined result and
    // may only reference output columns; otherwise the core handles them
    // with full input-scope resolution.
    const bool defer_order_limit = !s.set_ops.empty();
    ASSIGN_OR_RETURN(ResultSet out, ExecSelectCore(s, defer_order_limit));
    for (const auto& set_op : s.set_ops) {
      ASSIGN_OR_RETURN(ResultSet rhs, ExecSelect(*set_op.rhs));
      if (rhs.columns.size() != out.columns.size()) {
        return Status::InvalidArgument("set operation arity mismatch");
      }
      switch (set_op.kind) {
        case SetOpKind::kUnionAll:
          for (auto& r : rhs.rows) out.rows.push_back(std::move(r));
          break;
        case SetOpKind::kUnion: {
          std::unordered_set<Row, RowHash, RowEq> seen(out.rows.begin(),
                                                       out.rows.end());
          std::vector<Row> merged;
          merged.reserve(seen.size());
          {
            std::unordered_set<Row, RowHash, RowEq> emitted;
            for (auto& r : out.rows) {
              if (emitted.insert(r).second) merged.push_back(std::move(r));
            }
            for (auto& r : rhs.rows) {
              if (emitted.insert(r).second) merged.push_back(std::move(r));
            }
          }
          out.rows = std::move(merged);
          break;
        }
        case SetOpKind::kIntersect: {
          std::unordered_set<Row, RowHash, RowEq> right(rhs.rows.begin(),
                                                        rhs.rows.end());
          std::vector<Row> merged;
          std::unordered_set<Row, RowHash, RowEq> emitted;
          for (auto& r : out.rows) {
            if (right.count(r) && emitted.insert(r).second) {
              merged.push_back(std::move(r));
            }
          }
          out.rows = std::move(merged);
          break;
        }
        case SetOpKind::kExcept: {
          std::unordered_set<Row, RowHash, RowEq> right(rhs.rows.begin(),
                                                        rhs.rows.end());
          std::vector<Row> merged;
          std::unordered_set<Row, RowHash, RowEq> emitted;
          for (auto& r : out.rows) {
            if (!right.count(r) && emitted.insert(r).second) {
              merged.push_back(std::move(r));
            }
          }
          out.rows = std::move(merged);
          break;
        }
      }
    }
    if (defer_order_limit) RETURN_NOT_OK(ApplyOrderLimit(s, &out));
    return out;
  }

  Status ApplyOrderLimit(const SelectStmt& s, ResultSet* out) {
    if (!s.order_by.empty()) {
      obs::ScopedSpan span(spans_, context_, "sort (output)");
      span.set_rows(out->rows.size());
      ColumnEnv env;
      for (const auto& c : out->columns) env.Add("", c);
      // Precompute sort keys.
      std::vector<std::pair<std::vector<Value>, size_t>> keyed;
      keyed.reserve(out->rows.size());
      EvalContext ctx;
      ctx.params = params_;
      for (size_t i = 0; i < out->rows.size(); ++i) {
        std::vector<Value> key;
        key.reserve(s.order_by.size());
        for (const auto& item : s.order_by) {
          ASSIGN_OR_RETURN(Value v, EvalExpr(*item.expr, env, out->rows[i], ctx));
          key.push_back(std::move(v));
        }
        keyed.emplace_back(std::move(key), i);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t k = 0; k < s.order_by.size(); ++k) {
                           int c = a.first[k].Compare(b.first[k]);
                           if (!s.order_by[k].ascending) c = -c;
                           if (c != 0) return c < 0;
                         }
                         return false;
                       });
      std::vector<Row> sorted;
      sorted.reserve(out->rows.size());
      for (const auto& [key, idx] : keyed) {
        sorted.push_back(std::move(out->rows[idx]));
      }
      out->rows = std::move(sorted);
    }
    const int64_t offset = s.offset.value_or(0);
    if (offset > 0) {
      if (static_cast<size_t>(offset) >= out->rows.size()) {
        out->rows.clear();
      } else {
        out->rows.erase(out->rows.begin(), out->rows.begin() + offset);
      }
    }
    if (s.limit.has_value() &&
        out->rows.size() > static_cast<size_t>(*s.limit)) {
      out->rows.resize(static_cast<size_t>(*s.limit));
    }
    return Status::OK();
  }

  Status ApplyLimitOffset(const SelectStmt& s, ResultSet* out) {
    SelectStmt limit_only;
    limit_only.limit = s.limit;
    limit_only.offset = s.offset;
    return ApplyOrderLimit(limit_only, out);
  }

  /// Sorts the pre-projection rows by the ORDER BY expressions. Bare column
  /// references that name a select alias are substituted by the aliased
  /// expression (SQL's output-column ORDER BY), everything else resolves in
  /// the FROM scope.
  Status SortInputRows(const SelectStmt& s, const ColumnEnv& env,
                       const EvalContext& ctx, std::vector<Row>* rows) {
    std::vector<ExprPtr> order_exprs;
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
      order_exprs.push_back(std::move(e));
    }
    std::vector<std::pair<std::vector<Value>, size_t>> keyed;
    keyed.reserve(rows->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      std::vector<Value> key;
      key.reserve(order_exprs.size());
      for (const auto& e : order_exprs) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*e, env, (*rows)[i], ctx));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < s.order_by.size(); ++k) {
                         int c = a.first[k].Compare(b.first[k]);
                         if (!s.order_by[k].ascending) c = -c;
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    std::vector<Row> sorted;
    sorted.reserve(rows->size());
    for (const auto& [key, idx] : keyed) sorted.push_back(std::move((*rows)[idx]));
    *rows = std::move(sorted);
    return Status::OK();
  }

  // Core select: FROM/WHERE/aggregate/DISTINCT/projection, plus ORDER BY /
  // LIMIT unless deferred to the set-operation combiner.
  Result<ResultSet> ExecSelectCore(const SelectStmt& s,
                                   bool defer_order_limit) {
    EvalContext ctx;
    ctx.params = params_;
    RETURN_NOT_OK(MaterializeInSubqueries(s, &ctx));

    ColumnEnv env;
    WorkingSet ws;
    if (s.from.empty()) {
      ws.rows.emplace_back();  // one empty row: SELECT 1
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
        RETURN_NOT_OK(FilterWorkingSet(*conjuncts[i], env, ctx, &ws));
        consumed[i] = true;
      }
    }

    // Aggregate or plain projection.
    bool has_aggregate = !s.group_by.empty();
    for (const auto& item : s.items) {
      if (!item.is_star && ContainsAggregate(item.expr)) has_aggregate = true;
    }
    if (has_aggregate) {
      obs::ScopedSpan span(spans_, context_, "aggregate");
      ASSIGN_OR_RETURN(ResultSet out, Aggregate(s, env, ws, ctx));
      span.set_rows(out.rows.size());
      span.Finish();
      if (!defer_order_limit) RETURN_NOT_OK(ApplyOrderLimit(s, &out));
      return out;
    }

    if (!defer_order_limit && !s.order_by.empty()) {
      obs::ScopedSpan span(spans_, context_, "sort");
      RETURN_NOT_OK(SortInputRows(s, env, ctx, ws.MutableRows()));
      span.set_rows(ws.rows.size());
    }
    ResultSet out;
    RETURN_NOT_OK(Project(s, env, ws, ctx, &out));
    if (s.distinct) Dedupe(&out);
    if (!defer_order_limit) RETURN_NOT_OK(ApplyLimitOffset(s, &out));
    return out;
  }

  // ------------------------------------------------------ join drivers ----

  Status JoinNextRef(const SelectStmt& s, const TableRef& ref, bool first,
                     const std::vector<ExprPtr>& conjuncts,
                     std::vector<bool>* consumed, ColumnEnv* env,
                     WorkingSet* ws, EvalContext* ctx) {
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
                         ws->MutableRows(), ctx);
      // WHERE-clause conjuncts on the nullable side apply after the join.
      if (st.ok()) {
        for (size_t k = 0; k < applicable.size(); ++k) {
          st = FilterRows(*applicable[k], next_env, *ctx, &ws->rows);
          if (!st.ok()) break;
          (*consumed)[applicable_ids[k]] = true;
        }
      }
      if (st.ok()) *env = std::move(next_env);
      return st;
    }

    if (ref.kind == TableRefKind::kUnnestValues ||
        ref.kind == TableRefKind::kUnnestJson) {
      // Filters fuse into the lateral expansion: candidate rows that fail
      // (e.g. the templates' t.val IS NOT NULL) are never materialized.
      st = ref.kind == TableRefKind::kUnnestValues
               ? UnnestValues(ref, next_env, applicable, ws->MutableRows(), ctx)
               : UnnestJson(ref, next_env, applicable, ws->MutableRows(), ctx);
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
          auto snap = std::make_shared<ResultSet>();
          snap->columns = relation.columns;
          table->ScanAt(options_.read_ts,
                        [&](const Row& row) { snap->rows.push_back(row); });
          stats_->rows_scanned += snap->rows.size();
          relation.owned = std::move(snap);
          return relation;
        }
        relation.base = table;
        return relation;
      }
      case TableRefKind::kSubquery: {
        ASSIGN_OR_RETURN(ResultSet res, ExecSelect(*ref.subquery));
        relation.owned = std::make_shared<ResultSet>(std::move(res));
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

  /// Lateral TABLE(VALUES ...) expansion: every VALUES row is evaluated in
  /// the scope of each current row; fused filters drop candidates before
  /// they are materialized.
  Status UnnestValues(const TableRef& ref, const ColumnEnv& next_env,
                      const std::vector<ExprPtr>& filters,
                      std::vector<Row>* rows, EvalContext* ctx) {
    obs::ScopedSpan span(spans_, context_, "unnest values " + ref.exposure());
    std::vector<Row> out;
    const size_t arity = ref.column_aliases.size();
    Row scratch;
    for (const Row& current : *rows) {
      // One reusable scratch row per input row; the tail slots are
      // overwritten for every VALUES candidate.
      scratch.assign(current.begin(), current.end());
      scratch.resize(next_env.size());
      for (const auto& values_row : ref.values_rows) {
        if (values_row.size() != arity) {
          return Status::InvalidArgument("VALUES row arity mismatch");
        }
        for (size_t c = 0; c < arity; ++c) {
          // VALUES expressions reference the pre-join slots only.
          ASSIGN_OR_RETURN(Value v,
                           EvalExpr(*values_row[c], next_env, scratch, *ctx));
          scratch[current.size() + c] = std::move(v);
        }
        bool pass = true;
        for (const auto& f : filters) {
          ASSIGN_OR_RETURN(Value v, EvalExpr(*f, next_env, scratch, *ctx));
          if (!IsTruthy(v)) {
            pass = false;
            break;
          }
        }
        if (pass) out.push_back(scratch);
      }
    }
    *rows = std::move(out);
    span.set_rows(rows->size());
    return Status::OK();
  }

  /// Lateral TABLE(JSON_EDGES(doc)) expansion: parses the serialized
  /// adjacency document of each current row and emits one row per edge
  /// entry — the engine-internal navigation cost a JSON column implies.
  Status UnnestJson(const TableRef& ref, const ColumnEnv& next_env,
                    const std::vector<ExprPtr>& filters, std::vector<Row>* rows,
                    EvalContext* ctx) {
    const size_t arity = ref.column_aliases.size();
    if (arity < 1 || arity > 3) {
      return Status::InvalidArgument("JSON_EDGES exposes 1-3 columns");
    }
    obs::ScopedSpan span(spans_, context_,
                         "unnest json_edges " + ref.exposure());
    std::vector<Row> out;
    Row scratch;
    for (const Row& current : *rows) {
      scratch.assign(current.begin(), current.end());
      scratch.resize(next_env.size());
      ASSIGN_OR_RETURN(Value doc_value,
                       EvalExpr(*ref.json_doc, next_env, scratch, *ctx));
      if (doc_value.is_null()) continue;
      json::JsonValue doc;
      if (doc_value.is_string()) {
        // Serialized document: the parse is the real per-access cost.
        ASSIGN_OR_RETURN(doc, json::Parse(doc_value.AsString()));
      } else if (doc_value.is_json()) {
        doc = doc_value.AsJson();
      } else {
        continue;
      }
      if (!doc.is_object()) continue;
      for (const auto& [label, list] : doc.AsObject()) {
        if (!list.is_array()) continue;
        for (const auto& entry : list.AsArray()) {
          const json::JsonValue* val = entry.Find("val");
          const json::JsonValue* eid = entry.Find("eid");
          size_t slot = current.size();
          if (arity >= 2) scratch[slot++] = Value(label);
          if (arity == 3) {
            scratch[slot++] = eid != nullptr && eid->is_int()
                                  ? Value(eid->AsInt())
                                  : Value::Null();
          }
          scratch[slot] = val != nullptr && val->is_int() ? Value(val->AsInt())
                                                          : Value::Null();
          bool pass = true;
          for (const auto& f : filters) {
            ASSIGN_OR_RETURN(Value v, EvalExpr(*f, next_env, scratch, *ctx));
            if (!IsTruthy(v)) {
              pass = false;
              break;
            }
          }
          if (pass) out.push_back(scratch);
        }
      }
    }
    *rows = std::move(out);
    span.set_rows(rows->size());
    return Status::OK();
  }

  /// Access path for the first FROM item.
  Status AccessFirst(const TableRef& ref, const Relation& relation,
                     const std::string& alias, const ColumnEnv& env,
                     const std::vector<ExprPtr>& applicable,
                     std::vector<size_t>* applicable_ids,
                     std::vector<bool>* consumed, WorkingSet* ws,
                     EvalContext* ctx) {
    ws->rows.clear();
    ws->batch = ColumnBatch();
    // Batch mode enters the pipeline here; CTE/subquery sources stay
    // row-major (their rows are already materialized ResultSets).
    ws->is_batch = options_.vectorized && relation.base != nullptr;
    if (ws->is_batch) ws->batch.Reset(relation.columns.size());
    std::vector<bool> used(applicable.size(), false);

    if (relation.base != nullptr && options_.enable_indexes) {
      RETURN_NOT_OK(
          TryIndexAccess(ref, relation, alias, applicable, &used, ws, *ctx));
    }
    if (ws->size() == 0 && !index_access_hit_) {
      // Full scan.
      ++stats_->table_scans;
      if (relation.base != nullptr) {
        Trace("seq scan " + relation.base->name());
        obs::ScopedSpan span(spans_, context_,
                             "seq scan " + relation.base->name());
        if (ws->is_batch) {
          size_t scanned = 0;
          RETURN_NOT_OK(
              ScanBatched(relation, env, applicable, &used, *ctx, ws, &scanned));
          span.set_rows(scanned);
        } else {
          relation.base->Scan([&](rel::RowId, const Row& row) {
            ++stats_->rows_scanned;
            ws->rows.push_back(relation.Project(row));
          });
          span.set_rows(ws->rows.size());
        }
      } else {
        obs::ScopedSpan span(spans_, context_, "scan " + ref.exposure());
        const std::vector<Row>* src = relation.rows();
        if (src == nullptr) return Status::Internal("relation has no rows");
        ws->rows.reserve(src->size());
        for (const auto& r : *src) ws->rows.push_back(r);
        stats_->rows_scanned += src->size();
        span.set_rows(src->size());
      }
    }
    index_access_hit_ = false;
    // Apply remaining predicates.
    for (size_t k = 0; k < applicable.size(); ++k) {
      if (!used[k]) {
        RETURN_NOT_OK(FilterWorkingSet(*applicable[k], env, *ctx, ws));
      }
      (*consumed)[(*applicable_ids)[k]] = true;
    }
    return Status::OK();
  }

  /// Vectorized full scan: fill a chunk of kVectorChunkRows, run every
  /// pending filter over it (gathering survivors between conjuncts so later
  /// predicates only see rows earlier ones passed, like the row path), and
  /// append what remains to the output batch. Marks the filters it fused in
  /// `*used`; `*scanned` reports total rows read for the scan span.
  Status ScanBatched(const Relation& relation, const ColumnEnv& env,
                     const std::vector<ExprPtr>& applicable,
                     std::vector<bool>* used, const EvalContext& ctx,
                     WorkingSet* ws, size_t* scanned) {
    std::vector<const Expr*> filters;
    for (size_t k = 0; k < applicable.size(); ++k) {
      if (!(*used)[k]) {
        filters.push_back(applicable[k].get());
        (*used)[k] = true;
      }
    }
    const size_t width = ws->batch.num_cols();
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
      for (size_t i = 0; i < current->num_rows; ++i) {
        ws->batch.AppendRowFrom(*current, i);
      }
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
  /// `index_access_hit_` and fills `rows` on success; marks the predicates
  /// it fully satisfied in `*used`. The access-path decision (which index,
  /// which predicates) is split from its execution so a prepared query can
  /// memoize the former and replay only the latter with fresh bind values.
  Status TryIndexAccess(const TableRef& ref, const Relation& relation,
                        const std::string& alias,
                        const std::vector<ExprPtr>& applicable,
                        std::vector<bool>* used, WorkingSet* ws,
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
                        WorkingSet* ws, const EvalContext& ctx) {
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
                   WorkingSet* ws) {
    Row row;
    for (rel::RowId rid : rids) {
      RETURN_NOT_OK(relation.base->Get(rid, &row));
      if (ws->is_batch) {
        ws->batch.AppendProjected(row, relation.projection);
      } else {
        ws->rows.push_back(relation.Project(row));
      }
      ++stats_->rows_scanned;
    }
    return Status::OK();
  }

  /// Inner (comma) join of the next ref into the current rows.
  Status JoinInner(const TableRef& ref, const Relation& relation,
                   const std::string& alias,
                   const std::vector<std::string>& ref_columns,
                   const ColumnEnv& env, const ColumnEnv& next_env,
                   const std::vector<ExprPtr>& applicable,
                   std::vector<size_t>* applicable_ids,
                   std::vector<bool>* consumed, WorkingSet* ws,
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

    {
      if (best != nullptr) {
        const rel::Table& table = *relation.base;
        ++stats_->index_nl_joins;
        Trace("index nested-loop join " + table.name() + " via " +
              best->name());
        obs::ScopedSpan span(spans_, context_,
                             "index nested-loop join " + table.name() +
                                 " via " + best->name());
        if (ws->is_batch) {
          RETURN_NOT_OK(IndexNlJoinBatched(relation, env, keys,
                                           best_key_order, *best, ctx, ws));
        } else {
          std::vector<Row> out;
          Row fetched;
          for (const Row& current : ws->rows) {
            rel::IndexKey key;
            key.parts.reserve(best_key_order.size());
            bool null_key = false;
            for (size_t ki : best_key_order) {
              ASSIGN_OR_RETURN(Value v,
                               EvalExpr(*keys[ki].outer, env, current, *ctx));
              if (v.is_null()) null_key = true;
              key.parts.push_back(std::move(v));
            }
            if (null_key) continue;  // NULL never equi-joins
            std::vector<rel::RowId> rids;
            best->Lookup(key, &rids);
            ++stats_->index_lookups;
            for (rel::RowId rid : rids) {
              RETURN_NOT_OK(table.Get(rid, &fetched));
              Row projected = relation.Project(fetched);
              Row combined = current;
              combined.insert(combined.end(), projected.begin(),
                              projected.end());
              out.push_back(std::move(combined));
            }
          }
          ws->rows = std::move(out);
        }
        span.set_rows(ws->size());
        span.Finish();
        // Keys covered by the chosen index are satisfied; others (plus all
        // non-equi applicable conjuncts) filter below.
        std::vector<bool> key_used(keys.size(), false);
        for (size_t ki : best_key_order) key_used[ki] = true;
        size_t key_cursor = 0;
        for (size_t k = 0; k < applicable.size(); ++k) {
          if (used[k]) {
            const bool satisfied = key_used[key_cursor++];
            if (!satisfied) {
              RETURN_NOT_OK(
                  FilterWorkingSet(*applicable[k], next_env, *ctx, ws));
            }
          } else {
            RETURN_NOT_OK(FilterWorkingSet(*applicable[k], next_env, *ctx, ws));
          }
          (*consumed)[(*applicable_ids)[k]] = true;
        }
        return Status::OK();
      }
    }

    if (!keys.empty()) {
      // Hash join: build on the new relation.
      ++stats_->hash_joins;
      Trace("hash join build on " + ref.exposure());
      // Key slots within the ref row.
      std::vector<int> build_slots;
      for (const auto& key : keys) {
        int slot = -1;
        for (size_t c = 0; c < ref_columns.size(); ++c) {
          if (ref_columns[c] == key.column) {
            slot = static_cast<int>(c);
            break;
          }
        }
        if (slot < 0) return Status::Internal("join key column missing");
        build_slots.push_back(slot);
      }
      if (ws->is_batch) {
        ASSIGN_OR_RETURN(ColumnBatch build, MaterializeRelationBatch(relation));
        obs::ScopedSpan span(spans_, context_,
                             "hash join on " + ref.exposure());
        RETURN_NOT_OK(HashJoinBatched(env, keys, build_slots, build, ctx, ws));
        span.set_rows(ws->size());
        span.Finish();
      } else {
        ASSIGN_OR_RETURN(std::vector<Row> build_rows,
                         MaterializeRelation(relation));
        obs::ScopedSpan span(spans_, context_,
                             "hash join on " + ref.exposure());
        std::unordered_multimap<rel::IndexKey, const Row*, rel::IndexKeyHash>
            hash_table;
        hash_table.reserve(build_rows.size());
        for (const Row& r : build_rows) {
          rel::IndexKey key;
          bool null_key = false;
          for (int slot : build_slots) {
            if (r[static_cast<size_t>(slot)].is_null()) null_key = true;
            key.parts.push_back(r[static_cast<size_t>(slot)]);
          }
          if (!null_key) hash_table.emplace(std::move(key), &r);
        }
        std::vector<Row> out;
        for (const Row& current : ws->rows) {
          rel::IndexKey key;
          bool null_key = false;
          for (const auto& k : keys) {
            ASSIGN_OR_RETURN(Value v, EvalExpr(*k.outer, env, current, *ctx));
            if (v.is_null()) null_key = true;
            key.parts.push_back(std::move(v));
          }
          if (null_key) continue;
          auto [lo, hi] = hash_table.equal_range(key);
          for (auto it = lo; it != hi; ++it) {
            Row combined = current;
            combined.insert(combined.end(), it->second->begin(),
                            it->second->end());
            out.push_back(std::move(combined));
          }
        }
        ws->rows = std::move(out);
        span.set_rows(ws->rows.size());
        span.Finish();
      }
      for (size_t k = 0; k < applicable.size(); ++k) {
        if (!used[k]) {
          RETURN_NOT_OK(FilterWorkingSet(*applicable[k], next_env, *ctx, ws));
        }
        (*consumed)[(*applicable_ids)[k]] = true;
      }
      return Status::OK();
    }

    // No equi keys: nested-loop cross join, then filter.
    if (ws->is_batch) {
      ASSIGN_OR_RETURN(ColumnBatch right, MaterializeRelationBatch(relation));
      obs::ScopedSpan span(spans_, context_, "cross join " + ref.exposure());
      const size_t n = ws->batch.num_rows, m = right.num_rows;
      std::vector<uint32_t> left_sel, right_sel;
      left_sel.reserve(n * m);
      right_sel.reserve(n * m);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < m; ++j) {
          left_sel.push_back(static_cast<uint32_t>(i));
          right_sel.push_back(static_cast<uint32_t>(j));
        }
      }
      ColumnBatch out;
      out.cols.reserve(ws->batch.num_cols() + right.num_cols());
      for (const auto& c : ws->batch.cols) out.cols.push_back(c.Gather(left_sel));
      for (const auto& c : right.cols) out.cols.push_back(c.Gather(right_sel));
      out.num_rows = left_sel.size();
      ws->SetBatch(std::move(out));
      span.set_rows(ws->size());
      span.Finish();
    } else {
      ASSIGN_OR_RETURN(std::vector<Row> right_rows,
                       MaterializeRelation(relation));
      obs::ScopedSpan span(spans_, context_, "cross join " + ref.exposure());
      std::vector<Row> out;
      out.reserve(ws->rows.size() * right_rows.size());
      for (const Row& current : ws->rows) {
        for (const Row& r : right_rows) {
          Row combined = current;
          combined.insert(combined.end(), r.begin(), r.end());
          out.push_back(std::move(combined));
        }
      }
      ws->rows = std::move(out);
      span.set_rows(ws->rows.size());
      span.Finish();
    }
    for (size_t k = 0; k < applicable.size(); ++k) {
      RETURN_NOT_OK(FilterWorkingSet(*applicable[k], next_env, *ctx, ws));
      (*consumed)[(*applicable_ids)[k]] = true;
    }
    return Status::OK();
  }

  /// Batched index nested-loop join: the equi-key expressions evaluate once
  /// per vector, then each probe row drives one index lookup; matches gather
  /// the probe side and append the fetched build side column by column.
  Status IndexNlJoinBatched(const Relation& relation, const ColumnEnv& env,
                            const std::vector<EquiJoinKey>& keys,
                            const std::vector<size_t>& key_order,
                            const rel::Index& index, EvalContext* ctx,
                            WorkingSet* ws) {
    const ColumnBatch& left = ws->batch;
    std::vector<ColumnVector> key_cols;
    key_cols.reserve(key_order.size());
    for (size_t ki : key_order) {
      ASSIGN_OR_RETURN(ColumnVector col,
                       EvalExprBatch(*keys[ki].outer, env, left, *ctx));
      key_cols.push_back(std::move(col));
    }
    std::vector<uint32_t> left_sel;
    ColumnBatch right;
    right.Reset(relation.columns.size());
    rel::IndexKey key;
    key.parts.reserve(key_cols.size());
    std::vector<rel::RowId> rids;
    Row fetched;
    for (size_t i = 0; i < left.num_rows; ++i) {
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
      ++stats_->index_lookups;
      for (rel::RowId rid : rids) {
        RETURN_NOT_OK(relation.base->Get(rid, &fetched));
        right.AppendProjected(fetched, relation.projection);
        left_sel.push_back(static_cast<uint32_t>(i));
      }
    }
    ColumnBatch out;
    out.cols.reserve(left.num_cols() + right.num_cols());
    for (const auto& c : left.cols) out.cols.push_back(c.Gather(left_sel));
    for (auto& c : right.cols) out.cols.push_back(std::move(c));
    out.num_rows = left_sel.size();
    ws->SetBatch(std::move(out));
    return Status::OK();
  }

  /// Batched hash join. Build keys come straight out of the build batch's
  /// key columns; probe keys evaluate once per vector. Single-int64-key
  /// joins (the adjacency self-join shape: EA.INV = r.VID) skip rel::Value
  /// boxing entirely and hash raw int64s.
  Status HashJoinBatched(const ColumnEnv& env,
                         const std::vector<EquiJoinKey>& keys,
                         const std::vector<int>& build_slots,
                         const ColumnBatch& build, EvalContext* ctx,
                         WorkingSet* ws) {
    const ColumnBatch& left = ws->batch;
    std::vector<ColumnVector> probe_cols;
    probe_cols.reserve(keys.size());
    for (const auto& k : keys) {
      ASSIGN_OR_RETURN(ColumnVector col,
                       EvalExprBatch(*k.outer, env, left, *ctx));
      probe_cols.push_back(std::move(col));
    }
    std::vector<uint32_t> left_sel, right_sel;

    const bool int64_key =
        keys.size() == 1 &&
        build.cols[static_cast<size_t>(build_slots[0])].typed() &&
        build.cols[static_cast<size_t>(build_slots[0])].tag() ==
            ColumnVector::Tag::kInt64 &&
        probe_cols[0].typed() &&
        probe_cols[0].tag() == ColumnVector::Tag::kInt64;
    if (int64_key) {
      const ColumnVector& bc = build.cols[static_cast<size_t>(build_slots[0])];
      const ColumnVector& pc = probe_cols[0];
      std::unordered_multimap<int64_t, uint32_t> hash_table;
      hash_table.reserve(build.num_rows);
      for (size_t j = 0; j < build.num_rows; ++j) {
        if (!bc.IsNull(j)) {
          hash_table.emplace(bc.IntAt(j), static_cast<uint32_t>(j));
        }
      }
      for (size_t i = 0; i < left.num_rows; ++i) {
        if (pc.IsNull(i)) continue;
        auto [lo, hi] = hash_table.equal_range(pc.IntAt(i));
        for (auto it = lo; it != hi; ++it) {
          left_sel.push_back(static_cast<uint32_t>(i));
          right_sel.push_back(it->second);
        }
      }
    } else {
      std::unordered_multimap<rel::IndexKey, uint32_t, rel::IndexKeyHash>
          hash_table;
      hash_table.reserve(build.num_rows);
      rel::IndexKey key;
      key.parts.reserve(build_slots.size());
      for (size_t j = 0; j < build.num_rows; ++j) {
        key.parts.clear();
        bool null_key = false;
        for (int slot : build_slots) {
          Value v = build.cols[static_cast<size_t>(slot)].GetValue(j);
          if (v.is_null()) null_key = true;
          key.parts.push_back(std::move(v));
        }
        if (!null_key) hash_table.emplace(key, static_cast<uint32_t>(j));
      }
      for (size_t i = 0; i < left.num_rows; ++i) {
        key.parts.clear();
        bool null_key = false;
        for (const auto& col : probe_cols) {
          Value v = col.GetValue(i);
          if (v.is_null()) null_key = true;
          key.parts.push_back(std::move(v));
        }
        if (null_key) continue;
        auto [lo, hi] = hash_table.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
          left_sel.push_back(static_cast<uint32_t>(i));
          right_sel.push_back(it->second);
        }
      }
    }
    ColumnBatch out;
    out.cols.reserve(left.num_cols() + build.num_cols());
    for (const auto& c : left.cols) out.cols.push_back(c.Gather(left_sel));
    for (const auto& c : build.cols) out.cols.push_back(c.Gather(right_sel));
    out.num_rows = left_sel.size();
    ws->SetBatch(std::move(out));
    return Status::OK();
  }

  /// Batched counterpart of MaterializeRelation (same span and counters).
  Result<ColumnBatch> MaterializeRelationBatch(const Relation& relation) {
    ColumnBatch out;
    out.Reset(relation.columns.size());
    if (relation.base != nullptr) {
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
    const std::vector<Row>* src = relation.rows();
    if (src == nullptr) return Status::Internal("relation has no rows");
    out.Reserve(src->size());
    for (const auto& r : *src) out.AppendRow(r);
    return out;
  }

  Status LeftOuterJoin(const TableRef& ref, const Relation& relation,
                       const std::string& alias,
                       const std::vector<std::string>& ref_columns,
                       const ColumnEnv& env, const ColumnEnv& next_env,
                       std::vector<Row>* rows, EvalContext* ctx) {
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

    std::vector<Row> out;
    const size_t pad = ref_columns.size();

    {
      if (index != nullptr) {
        const rel::Table& table = *relation.base;
        ++stats_->index_nl_joins;
        Trace("index nested-loop left-outer join " + table.name() + " via " +
              index->name());
        obs::ScopedSpan span(spans_, context_,
                             "index nested-loop left-outer join " +
                                 table.name() + " via " + index->name());
        Row fetched;
        for (const Row& current : *rows) {
          rel::IndexKey key;
          bool null_key = false;
          for (const auto& k : keys) {
            ASSIGN_OR_RETURN(Value v, EvalExpr(*k.outer, env, current, *ctx));
            if (v.is_null()) null_key = true;
            key.parts.push_back(std::move(v));
          }
          bool matched = false;
          if (!null_key) {
            std::vector<rel::RowId> rids;
            index->Lookup(key, &rids);
            ++stats_->index_lookups;
            for (rel::RowId rid : rids) {
              RETURN_NOT_OK(table.Get(rid, &fetched));
              Row projected = relation.Project(fetched);
              Row combined = current;
              combined.insert(combined.end(), projected.begin(),
                              projected.end());
              bool pass = true;
              for (const auto& c : residual) {
                ASSIGN_OR_RETURN(Value v,
                                 EvalExpr(*c, next_env, combined, *ctx));
                if (!IsTruthy(v)) {
                  pass = false;
                  break;
                }
              }
              if (pass) {
                matched = true;
                out.push_back(std::move(combined));
              }
            }
          }
          if (!matched) {
            Row combined = current;
            combined.resize(combined.size() + pad);
            out.push_back(std::move(combined));
          }
        }
        *rows = std::move(out);
        span.set_rows(rows->size());
        return Status::OK();
      }
    }

    ASSIGN_OR_RETURN(std::vector<Row> build_rows, MaterializeRelation(relation));
    ++stats_->hash_joins;
    obs::ScopedSpan span(
        spans_, context_,
        (keys.empty() ? "nested-loop left-outer join " : "hash left-outer join ") +
            ref.exposure());

    if (keys.empty()) {
      // Rare: nested-loop left outer join with arbitrary ON.
      for (const Row& current : *rows) {
        bool matched = false;
        for (const Row& r : build_rows) {
          Row combined = current;
          combined.insert(combined.end(), r.begin(), r.end());
          bool pass = true;
          for (const auto& c : residual) {
            ASSIGN_OR_RETURN(Value v, EvalExpr(*c, next_env, combined, *ctx));
            if (!IsTruthy(v)) {
              pass = false;
              break;
            }
          }
          if (pass) {
            matched = true;
            out.push_back(std::move(combined));
          }
        }
        if (!matched) {
          Row combined = current;
          combined.resize(combined.size() + pad);
          out.push_back(std::move(combined));
        }
      }
      *rows = std::move(out);
      span.set_rows(rows->size());
      return Status::OK();
    }

    std::vector<int> build_slots;
    for (const auto& key : keys) {
      int slot = -1;
      for (size_t c = 0; c < ref_columns.size(); ++c) {
        if (ref_columns[c] == key.column) {
          slot = static_cast<int>(c);
          break;
        }
      }
      if (slot < 0) return Status::Internal("left join key column missing");
      build_slots.push_back(slot);
    }
    std::unordered_multimap<rel::IndexKey, const Row*, rel::IndexKeyHash>
        hash_table;
    hash_table.reserve(build_rows.size());
    for (const Row& r : build_rows) {
      rel::IndexKey key;
      bool null_key = false;
      for (int slot : build_slots) {
        if (r[static_cast<size_t>(slot)].is_null()) null_key = true;
        key.parts.push_back(r[static_cast<size_t>(slot)]);
      }
      if (!null_key) hash_table.emplace(std::move(key), &r);
    }
    for (const Row& current : *rows) {
      rel::IndexKey key;
      bool null_key = false;
      for (const auto& k : keys) {
        ASSIGN_OR_RETURN(Value v, EvalExpr(*k.outer, env, current, *ctx));
        if (v.is_null()) null_key = true;
        key.parts.push_back(std::move(v));
      }
      bool matched = false;
      if (!null_key) {
        auto [lo, hi] = hash_table.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
          Row combined = current;
          combined.insert(combined.end(), it->second->begin(),
                          it->second->end());
          bool pass = true;
          for (const auto& c : residual) {
            ASSIGN_OR_RETURN(Value v, EvalExpr(*c, next_env, combined, *ctx));
            if (!IsTruthy(v)) {
              pass = false;
              break;
            }
          }
          if (pass) {
            matched = true;
            out.push_back(std::move(combined));
          }
        }
      }
      if (!matched) {
        Row combined = current;
        combined.resize(combined.size() + pad);
        out.push_back(std::move(combined));
      }
    }
    *rows = std::move(out);
    span.set_rows(rows->size());
    return Status::OK();
  }

  Result<std::vector<Row>> MaterializeRelation(const Relation& relation) {
    std::vector<Row> out;
    if (relation.base != nullptr) {
      ++stats_->table_scans;
      obs::ScopedSpan span(spans_, context_,
                           "seq scan " + relation.base->name() + " (build)");
      relation.base->Scan([&](rel::RowId, const Row& row) {
        ++stats_->rows_scanned;
        out.push_back(relation.Project(row));
      });
      span.set_rows(out.size());
      return out;
    }
    const std::vector<Row>* src = relation.rows();
    if (src == nullptr) return Status::Internal("relation has no rows");
    out.reserve(src->size());
    for (const auto& r : *src) out.push_back(r);
    return out;
  }

  Status FilterRows(const Expr& predicate, const ColumnEnv& env,
                    const EvalContext& ctx, std::vector<Row>* rows) {
    std::vector<Row> kept;
    kept.reserve(rows->size());
    for (Row& row : *rows) {
      ASSIGN_OR_RETURN(Value v, EvalExpr(predicate, env, row, ctx));
      if (IsTruthy(v)) kept.push_back(std::move(row));
    }
    *rows = std::move(kept);
    return Status::OK();
  }

  /// Filter in whichever representation the working set currently holds.
  Status FilterWorkingSet(const Expr& predicate, const ColumnEnv& env,
                          const EvalContext& ctx, WorkingSet* ws) {
    if (!ws->is_batch) return FilterRows(predicate, env, ctx, &ws->rows);
    std::vector<uint32_t> sel;
    RETURN_NOT_OK(EvalPredicateBatch(predicate, env, ws->batch, ctx, &sel));
    if (sel.size() != ws->batch.num_rows) ws->batch.KeepOnly(sel);
    return Status::OK();
  }

  // ----------------------------------------- projection and aggregation ----

  Status Project(const SelectStmt& s, const ColumnEnv& env,
                 const WorkingSet& ws, const EvalContext& ctx,
                 ResultSet* out) {
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
    out->rows.clear();
    out->rows.reserve(ws.size());
    if (ws.is_batch) {
      // Evaluate each computed item once over the whole batch, then
      // assemble output rows from slot copies and the computed vectors.
      std::vector<ColumnVector> computed(cols.size());
      for (size_t c = 0; c < cols.size(); ++c) {
        if (cols[c].slot >= 0) continue;
        ASSIGN_OR_RETURN(computed[c],
                         EvalExprBatch(*cols[c].expr, env, ws.batch, ctx));
      }
      for (size_t i = 0; i < ws.batch.num_rows; ++i) {
        Row projected;
        projected.reserve(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) {
          if (cols[c].slot >= 0) {
            projected.push_back(
                ws.batch.cols[static_cast<size_t>(cols[c].slot)].GetValue(i));
          } else {
            projected.push_back(computed[c].GetValue(i));
          }
        }
        out->rows.push_back(std::move(projected));
      }
      return Status::OK();
    }
    for (const Row& row : ws.rows) {
      Row projected;
      projected.reserve(cols.size());
      for (const auto& c : cols) {
        if (c.slot >= 0) {
          projected.push_back(row[static_cast<size_t>(c.slot)]);
        } else {
          ASSIGN_OR_RETURN(Value v, EvalExpr(*c.expr, env, row, ctx));
          projected.push_back(std::move(v));
        }
      }
      out->rows.push_back(std::move(projected));
    }
    return Status::OK();
  }

  Result<ResultSet> Aggregate(const SelectStmt& s, const ColumnEnv& env,
                              const WorkingSet& ws, const EvalContext& ctx) {
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
    auto accumulate = [&](auto&& eval_group,
                          auto&& eval_arg) -> util::Status {
      key.parts.clear();
      for (size_t gi = 0; gi < s.group_by.size(); ++gi) {
        ASSIGN_OR_RETURN(Value v, eval_group(gi));
        key.parts.push_back(std::move(v));
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(key, make_group()).first;
        it->second.key_row = key.parts;
      }
      size_t agg_index = 0;
      for (const auto& plan : plans) {
        if (!plan.is_aggregate) continue;
        AggState& st = it->second.aggs[agg_index++];
        if (plan.agg_kind == AggState::kCountStar) {
          st.Add(Value());
        } else {
          ASSIGN_OR_RETURN(Value v, eval_arg(*plan.arg));
          st.Add(v);
        }
      }
      return Status::OK();
    };
    if (ws.is_batch) {
      // Evaluate every GROUP BY expression and aggregate argument once per
      // vector, then fold row by row out of the result columns.
      std::vector<ColumnVector> group_cols;
      group_cols.reserve(s.group_by.size());
      for (const auto& g : s.group_by) {
        ASSIGN_OR_RETURN(ColumnVector col,
                         EvalExprBatch(*g, env, ws.batch, ctx));
        group_cols.push_back(std::move(col));
      }
      std::map<const Expr*, ColumnVector> arg_cols;
      for (const auto& plan : plans) {
        if (!plan.is_aggregate || plan.arg == nullptr) continue;
        if (arg_cols.count(plan.arg.get())) continue;
        ASSIGN_OR_RETURN(ColumnVector col,
                         EvalExprBatch(*plan.arg, env, ws.batch, ctx));
        arg_cols.emplace(plan.arg.get(), std::move(col));
      }
      for (size_t i = 0; i < ws.batch.num_rows; ++i) {
        RETURN_NOT_OK(accumulate(
            [&](size_t gi) -> Result<Value> {
              return group_cols[gi].GetValue(i);
            },
            [&](const Expr& arg) -> Result<Value> {
              return arg_cols.at(&arg).GetValue(i);
            }));
      }
    } else {
      for (const Row& row : ws.rows) {
        RETURN_NOT_OK(accumulate(
            [&](size_t gi) -> Result<Value> {
              return EvalExpr(*s.group_by[gi], env, row, ctx);
            },
            [&](const Expr& arg) -> Result<Value> {
              return EvalExpr(arg, env, row, ctx);
            }));
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
      RETURN_NOT_OK(FilterRows(*rewritten_having, having_env, ctx, &out.rows));
    }
    if (visible_items < out.columns.size()) {
      out.columns.resize(visible_items);
      for (auto& row : out.rows) row.resize(visible_items);
    }
    return out;
  }

  static void Dedupe(ResultSet* out) {
    std::unordered_set<Row, RowHash, RowEq> seen;
    std::vector<Row> kept;
    kept.reserve(out->rows.size());
    for (auto& row : out->rows) {
      if (seen.insert(row).second) kept.push_back(std::move(row));
    }
    out->rows = std::move(kept);
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
      ASSIGN_OR_RETURN(ResultSet res, ExecSelect(*node->subquery));
      if (res.columns.size() != 1) {
        return Status::InvalidArgument("IN subquery must return one column");
      }
      auto& set = ctx->in_subquery_sets[node];
      for (auto& row : res.rows) {
        if (!row[0].is_null()) set.insert(std::move(row[0]));
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
  std::map<std::string, ResultSet> ctes_;
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

std::string PlanCache::NormalizeSql(std::string_view sql_text) {
  std::string out;
  out.reserve(sql_text.size());
  bool in_ws = false;
  bool in_string = false;
  for (char c : sql_text) {
    if (in_string) {
      out.push_back(c);
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      in_ws = true;
      continue;
    }
    if (in_ws && !out.empty()) out.push_back(' ');
    in_ws = false;
    out.push_back(c);
  }
  return out;
}

Result<PreparedQueryPtr> PlanCache::GetOrPrepare(std::string_view sql_text,
                                                 uint64_t epoch,
                                                 ExecStats* stats) {
  const std::string key = NormalizeSql(sql_text);
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
