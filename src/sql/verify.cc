#include "sql/verify.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "rel/index.h"
#include "rel/table.h"
#include "rel/value.h"
#include "sql/expr_eval.h"
#include "sql/plan_memo.h"
#include "sql/planner.h"
#include "sql/render.h"

namespace sqlgraph {
namespace sql {

using rel::Value;
using util::Status;

// ------------------------------------------------------------- reporting ----

const char* VerifyCheckName(VerifyCheck check) {
  switch (check) {
    case VerifyCheck::kColumnResolution: return "column-resolution";
    case VerifyCheck::kTypeSoundness: return "type-soundness";
    case VerifyCheck::kOperatorInvariant: return "operator-invariant";
    case VerifyCheck::kMemoReplay: return "memo-replay";
    case VerifyCheck::kPipeAttribution: return "pipe-attribution";
  }
  return "unknown-check";
}

std::string PlanVerifyIssue::ToString() const {
  std::string out;
  out.push_back('[');
  out.append(VerifyCheckName(check));
  out.append("] ");
  out.append(context);
  out.push_back('/');
  out.append(operator_name);
  out.append(": ");
  out.append(message);
  return out;
}

void PlanVerifyReport::Add(VerifyCheck check, std::string context,
                           std::string operator_name, std::string message) {
  PlanVerifyIssue issue;
  issue.check = check;
  issue.context = std::move(context);
  issue.operator_name = std::move(operator_name);
  issue.message = std::move(message);
  issues.push_back(std::move(issue));
}

std::string PlanVerifyReport::ToString() const {
  std::string out;
  for (size_t i = 0; i < issues.size(); ++i) {
    if (i) out.push_back('\n');
    out.append(issues[i].ToString());
  }
  return out;
}

Status PlanVerifyReport::ToStatus() const {
  if (ok()) return Status::OK();
  return Status::InvalidArgument("plan verification failed:\n" + ToString());
}

namespace {

// ---------------------------------------------------- static type lattice ----

// The non-null static type of an expression: kNull means "always NULL",
// kUnknown means "no static information" (every column of a base table or
// CTE — column types are dynamic in this engine, so only literal-derived
// types are ever definite, which is what keeps this checker free of false
// rejections on translator/fuzzer plans).
enum class SType { kUnknown, kNull, kBool, kInt, kDouble, kString, kJson };

const char* STypeName(SType t) {
  switch (t) {
    case SType::kUnknown: return "unknown";
    case SType::kNull: return "null";
    case SType::kBool: return "bool";
    case SType::kInt: return "int";
    case SType::kDouble: return "double";
    case SType::kString: return "string";
    case SType::kJson: return "json";
  }
  return "unknown";
}

SType TypeOfLiteral(const Value& v) {
  if (v.is_null()) return SType::kNull;
  if (v.is_bool()) return SType::kBool;
  if (v.is_int()) return SType::kInt;
  if (v.is_double()) return SType::kDouble;
  if (v.is_string()) return SType::kString;
  if (v.is_json()) return SType::kJson;
  return SType::kUnknown;
}

bool IsNumeric(SType t) { return t == SType::kInt || t == SType::kDouble; }

/// Operand types that make EvalExpr's arithmetic kernel raise (NULL operands
/// short-circuit to NULL before the type check, so kNull is fine).
bool ArithmeticRejects(SType t) {
  return t == SType::kBool || t == SType::kString || t == SType::kJson;
}

SType JoinTypes(SType a, SType b) {
  if (a == b) return a;
  if (a == SType::kNull) return b;
  if (b == SType::kNull) return a;
  if (IsNumeric(a) && IsNumeric(b)) return SType::kDouble;
  return SType::kUnknown;
}

/// Equality families: values from different families can never compare
/// equal (Value::Compare orders by type tag), so a definite cross-family
/// equi-join key yields a silently empty join. kBool is excluded on
/// purpose — boolean-vs-number comparisons appear in truthiness idioms.
enum class EqFamily { kNone, kNumber, kString, kJson };

EqFamily FamilyOf(SType t) {
  switch (t) {
    case SType::kInt:
    case SType::kDouble:
      return EqFamily::kNumber;
    case SType::kString:
      return EqFamily::kString;
    case SType::kJson:
      return EqFamily::kJson;
    default:
      return EqFamily::kNone;
  }
}

SType TypeOfCast(rel::ColumnType t) {
  switch (t) {
    case rel::ColumnType::kInt64: return SType::kInt;
    case rel::ColumnType::kDouble: return SType::kDouble;
    case rel::ColumnType::kString: return SType::kString;
    case rel::ColumnType::kBool: return SType::kBool;
    case rel::ColumnType::kJson: return SType::kJson;
  }
  return SType::kUnknown;
}

// ------------------------------------------------------- checker plumbing ----

/// Aggregate recognition, mirroring the executor's (COUNT/SUM/MIN/MAX/AVG,
/// with COUNT(*) and COUNT(DISTINCT x) special-cased).
enum class AggKind { kNotAggregate, kCountStar, kCountOrDistinct, kOther };

AggKind ClassifyAggregate(const Expr& e) {
  if (e.kind != ExprKind::kFunc) return AggKind::kNotAggregate;
  const std::string& f = e.func_name;
  if (f == "COUNT") {
    if (!e.distinct_arg && e.args.size() == 1 &&
        e.args[0]->kind == ExprKind::kStar) {
      return AggKind::kCountStar;
    }
    return AggKind::kCountOrDistinct;
  }
  if (f == "SUM" || f == "MIN" || f == "MAX" || f == "AVG") {
    return AggKind::kOther;
  }
  return AggKind::kNotAggregate;
}

std::string Dotted(const Expr& e) {
  return e.qualifier.empty() ? e.column : e.qualifier + "." + e.column;
}

/// A ColumnEnv plus the parallel static type of each slot.
struct TypedEnv {
  ColumnEnv env;
  std::vector<SType> types;

  void Add(const std::string& qualifier, const std::string& column, SType t) {
    env.Add(qualifier, column);
    types.push_back(t);
  }
};

/// The derived output schema of a SELECT: column names plus static types.
/// `valid` drops to false once resolution fails somewhere inside, which
/// poisons downstream checks instead of cascading secondary diagnostics.
struct RelShape {
  std::vector<std::string> columns;
  std::vector<SType> types;
  bool valid = true;
};

/// Where an expression is being evaluated; controls aggregate legality.
enum class Scope { kScalar, kAggArg };

class PlanChecker {
 public:
  PlanChecker(const rel::Database& db, PlanVerifyReport* report)
      : db_(db), report_(report) {}

  void CheckQuery(const SqlQuery& query) {
    if (query.final_select == nullptr) return;  // txn control: no plan tree
    for (const Cte& cte : query.ctes) {
      context_ = cte.name;
      RelShape shape;
      if (cte.recursive) {
        shape = CheckRecursiveCte(cte);
      } else {
        shape = CheckSelect(*cte.select);
        ApplyCteAliases(cte, &shape);
      }
      ctes_[cte.name] = std::move(shape);
    }
    context_ = "final";
    CheckSelect(*query.final_select);
  }

 private:
  void Add(VerifyCheck check, std::string op, std::string msg) {
    report_->Add(check, context_, std::move(op), std::move(msg));
  }

  void ApplyCteAliases(const Cte& cte, RelShape* shape) {
    if (cte.column_aliases.empty()) return;
    if (shape->valid && cte.column_aliases.size() != shape->columns.size()) {
      Add(VerifyCheck::kOperatorInvariant, "cte",
          "CTE " + cte.name + " column alias arity mismatch (" +
              std::to_string(cte.column_aliases.size()) + " aliases for " +
              std::to_string(shape->columns.size()) + " columns)");
    }
    const bool keep_types = cte.column_aliases.size() == shape->types.size();
    shape->columns = cte.column_aliases;
    if (!keep_types) {
      shape->types.assign(shape->columns.size(), SType::kUnknown);
    }
  }

  RelShape CheckRecursiveCte(const Cte& cte) {
    const SelectStmt& whole = *cte.select;
    if (whole.set_ops.size() != 1) {
      Add(VerifyCheck::kOperatorInvariant, "recursive cte",
          "recursive CTE " + cte.name + " must be <base> UNION [ALL] <step>");
      RelShape bad;
      bad.valid = false;
      return bad;
    }
    SelectStmt base = whole;
    base.set_ops.clear();
    RelShape shape = CheckSelect(base);
    ApplyCteAliases(cte, &shape);
    // The iteration may produce anything the step emits; widen every column
    // so literal-derived base types never flag step-side expressions.
    for (auto& t : shape.types) t = SType::kUnknown;
    ctes_[cte.name] = shape;  // the step sees the working table
    RelShape step = CheckSelect(*whole.set_ops[0].rhs);
    if (shape.valid && step.valid &&
        step.columns.size() != shape.columns.size()) {
      // The executor rejects the mismatch too, but only after the base has
      // run; here it is caught before anything runs.
      Add(VerifyCheck::kOperatorInvariant, "recursive cte",
          "recursive CTE " + cte.name + " step arity " +
              std::to_string(step.columns.size()) +
              " does not match base arity " +
              std::to_string(shape.columns.size()));
    }
    return shape;
  }

  RelShape CheckSelect(const SelectStmt& s) {
    const bool defer_order_limit = !s.set_ops.empty();
    RelShape shape = CheckSelectCore(s, defer_order_limit);
    for (const auto& set_op : s.set_ops) {
      RelShape rhs = CheckSelect(*set_op.rhs);
      if (shape.valid && rhs.valid) {
        if (rhs.columns.size() != shape.columns.size()) {
          Add(VerifyCheck::kOperatorInvariant, "set-op",
              "set operation arity mismatch (" +
                  std::to_string(shape.columns.size()) + " vs " +
                  std::to_string(rhs.columns.size()) + " columns)");
          shape.valid = false;
        } else {
          for (size_t i = 0; i < shape.types.size(); ++i) {
            shape.types[i] = JoinTypes(shape.types[i], rhs.types[i]);
          }
        }
      } else {
        shape.valid = false;
      }
    }
    if (defer_order_limit && shape.valid) {
      CheckOrderByOutput(s, shape, "sort (output)");
    }
    return shape;
  }

  /// ORDER BY after a set operation or an aggregation binds to the output
  /// columns only, by bare name.
  void CheckOrderByOutput(const SelectStmt& s, const RelShape& shape,
                          const char* op) {
    if (s.order_by.empty()) return;
    TypedEnv env;
    for (size_t i = 0; i < shape.columns.size(); ++i) {
      env.Add("", shape.columns[i],
              i < shape.types.size() ? shape.types[i] : SType::kUnknown);
    }
    for (const auto& item : s.order_by) {
      CheckExpr(*item.expr, env, Scope::kScalar, op);
    }
  }

  RelShape CheckSelectCore(const SelectStmt& s, bool defer_order_limit) {
    CheckInSubqueries(s);

    TypedEnv env;
    bool env_valid = true;
    if (!s.from.empty()) {
      std::vector<ExprPtr> conjuncts;
      SplitConjuncts(s.where, &conjuncts);
      std::vector<bool> consumed(conjuncts.size(), false);

      for (size_t ref_index = 0; ref_index < s.from.size(); ++ref_index) {
        const TableRef& ref = s.from[ref_index];
        const bool first = ref_index == 0;
        TypedEnv next_env = env;
        if (!AddRefToEnv(ref, &next_env)) env_valid = false;
        if (env_valid) {
          if (const Expr* e = FindUnboundLateralExpr(ref, env.env,
                                                     next_env.env)) {
            Add(VerifyCheck::kColumnResolution,
                (ref.kind == TableRefKind::kUnnestJson ? "unnest json_edges "
                                                       : "unnest values ") +
                    ref.exposure(),
                "reads a column not bound before the lateral item: " +
                    RenderExpr(*e));
          }
          CheckRefExprs(ref, next_env);
          // Mirror JoinNextRef's staging: a conjunct is consumed (and
          // evaluated) at the first ref that makes it fully bound. Checking
          // in that env — not the final one — matters when a later ref
          // makes a bare reference ambiguous.
          for (size_t i = 0; i < conjuncts.size(); ++i) {
            if (consumed[i]) continue;
            if (IsFullyBound(*conjuncts[i], next_env.env) &&
                (first || !IsFullyBound(*conjuncts[i], env.env))) {
              CheckConjunct(*conjuncts[i], next_env);
              consumed[i] = true;
            }
          }
        }
        env = std::move(next_env);
      }
      if (env_valid) {
        for (size_t i = 0; i < conjuncts.size(); ++i) {
          if (consumed[i]) continue;
          if (!IsFullyBound(*conjuncts[i], env.env)) {
            Add(VerifyCheck::kColumnResolution, "filter",
                "unresolvable predicate: " + RenderExpr(*conjuncts[i]));
          } else {
            CheckConjunct(*conjuncts[i], env);
          }
        }
      }
    }
    // With an empty FROM the executor never splits or applies the WHERE
    // clause (one synthetic empty row, no filter stage), so there is
    // nothing to verify against it.

    if (!env_valid) {
      RelShape bad;
      bad.valid = false;
      return bad;
    }

    bool has_aggregate = !s.group_by.empty();
    for (const auto& item : s.items) {
      if (!item.is_star && ContainsAggregate(item.expr)) has_aggregate = true;
    }
    if (has_aggregate) {
      RelShape out = CheckAggregate(s, env);
      if (!defer_order_limit) CheckOrderByOutput(s, out, "sort (output)");
      return out;
    }
    if (!defer_order_limit && !s.order_by.empty()) CheckSortInput(s, env);
    return CheckProject(s, env);
  }

  /// A WHERE conjunct already known to be fully bound: type soundness plus
  /// the cross-family equality check on its top-level comparison.
  void CheckConjunct(const Expr& conjunct, const TypedEnv& env) {
    CheckExpr(conjunct, env, Scope::kScalar, "filter");
  }

  /// Resolves one FROM item and appends its columns to `*env`. Returns
  /// false when the relation itself cannot be resolved (unknown table),
  /// which poisons the enclosing select.
  bool AddRefToEnv(const TableRef& ref, TypedEnv* env) {
    const std::string& alias = ref.exposure();
    switch (ref.kind) {
      case TableRefKind::kBaseTable: {
        auto it = ctes_.find(ref.table_name);
        if (it != ctes_.end()) {
          if (!it->second.valid) return false;
          for (size_t i = 0; i < it->second.columns.size(); ++i) {
            env->Add(alias, it->second.columns[i], it->second.types[i]);
          }
          return true;
        }
        const rel::Table* table = db_.GetTable(ref.table_name);
        if (table == nullptr) {
          Add(VerifyCheck::kColumnResolution, "scan " + alias,
              "unknown table " + ref.table_name);
          return false;
        }
        for (const auto& c : table->schema().columns()) {
          // Stored values are dynamically typed; declared column types are
          // not enforced on ingest, so stay at kUnknown.
          env->Add(alias, c.name, SType::kUnknown);
        }
        return true;
      }
      case TableRefKind::kSubquery: {
        RelShape sub = CheckSelect(*ref.subquery);
        if (!sub.valid) return false;
        for (size_t i = 0; i < sub.columns.size(); ++i) {
          env->Add(alias, sub.columns[i], sub.types[i]);
        }
        return true;
      }
      case TableRefKind::kUnnestValues: {
        const size_t arity = ref.column_aliases.size();
        std::vector<SType> col_types(arity, SType::kNull);
        bool first_row = true;
        for (const auto& row : ref.values_rows) {
          if (row.size() != arity) {
            Add(VerifyCheck::kOperatorInvariant, "unnest values " + alias,
                "VALUES row arity mismatch (" + std::to_string(row.size()) +
                    " expressions for " + std::to_string(arity) +
                    " columns)");
            continue;
          }
          for (size_t c = 0; c < arity; ++c) {
            const SType t = row[c]->kind == ExprKind::kLiteral
                                ? TypeOfLiteral(row[c]->literal)
                                : SType::kUnknown;
            col_types[c] = first_row ? t : JoinTypes(col_types[c], t);
          }
          first_row = false;
        }
        for (size_t c = 0; c < arity; ++c) {
          env->Add(alias, ref.column_aliases[c], col_types[c]);
        }
        return true;
      }
      case TableRefKind::kUnnestJson: {
        const size_t arity = ref.column_aliases.size();
        if (arity < 1 || arity > 3) {
          Add(VerifyCheck::kOperatorInvariant, "unnest json_edges " + alias,
              "JSON_EDGES exposes 1-3 columns, got " + std::to_string(arity));
        }
        for (size_t c = 0; c < arity; ++c) {
          // With >= 2 aliases the first column is the edge label, always a
          // string; eid/val may be NULL, so they stay unknown.
          const SType t =
              (arity >= 2 && c == 0) ? SType::kString : SType::kUnknown;
          env->Add(alias, ref.column_aliases[c], t);
        }
        return true;
      }
    }
    return false;
  }

  /// Expressions attached to the ref itself (VALUES rows, JSON_EDGES doc,
  /// LEFT OUTER ... ON), type-checked in the post-join env. (The lateral
  /// expressions must also bind before the ref: FindUnboundLateralExpr.)
  void CheckRefExprs(const TableRef& ref, const TypedEnv& next_env) {
    const std::string& alias = ref.exposure();
    if (ref.kind == TableRefKind::kUnnestValues) {
      for (const auto& row : ref.values_rows) {
        for (const auto& e : row) {
          CheckExpr(*e, next_env, Scope::kScalar, "unnest values " + alias);
        }
      }
    }
    if (ref.kind == TableRefKind::kUnnestJson && ref.json_doc != nullptr) {
      CheckExpr(*ref.json_doc, next_env, Scope::kScalar,
                "unnest json_edges " + alias);
    }
    if (ref.join == JoinType::kLeftOuter && ref.on != nullptr) {
      std::vector<ExprPtr> on_conjuncts;
      SplitConjuncts(ref.on, &on_conjuncts);
      for (const auto& c : on_conjuncts) {
        CheckExpr(*c, next_env, Scope::kScalar, "left outer join " + alias);
      }
    }
  }

  /// ORDER BY on the non-aggregate path: bare references that name a select
  /// alias are substituted by the aliased expression (checked as the select
  /// item); everything else resolves in the FROM scope.
  void CheckSortInput(const SelectStmt& s, const TypedEnv& env) {
    for (const auto& item : s.order_by) {
      const Expr& e = *item.expr;
      if (e.kind == ExprKind::kColumnRef && e.qualifier.empty() &&
          env.env.TryResolve("", e.column) < 0) {
        bool aliased = false;
        for (const auto& sel : s.items) {
          if (!sel.is_star && sel.alias == e.column) {
            aliased = true;
            break;
          }
        }
        if (aliased) continue;
      }
      CheckExpr(e, env, Scope::kScalar, "sort");
    }
  }

  RelShape CheckProject(const SelectStmt& s, const TypedEnv& env) {
    RelShape out;
    for (size_t i = 0; i < s.items.size(); ++i) {
      const SelectItem& item = s.items[i];
      if (item.is_star) {
        bool matched = false;
        for (size_t sl = 0; sl < env.env.size(); ++sl) {
          const auto& [qual, col] = env.env.slot(sl);
          if (!item.star_qualifier.empty() && qual != item.star_qualifier) {
            continue;
          }
          out.columns.push_back(col);
          out.types.push_back(env.types[sl]);
          matched = true;
        }
        if (!matched && !item.star_qualifier.empty()) {
          Add(VerifyCheck::kColumnResolution, "project",
              "star qualifier " + item.star_qualifier +
                  " matches no table in scope");
        }
        continue;
      }
      out.columns.push_back(ItemNameOf(item, i));
      out.types.push_back(CheckExpr(*item.expr, env, Scope::kScalar,
                                    "project"));
    }
    return out;
  }

  static std::string ItemNameOf(const SelectItem& item, size_t index) {
    if (!item.alias.empty()) return item.alias;
    if (item.expr != nullptr && item.expr->kind == ExprKind::kColumnRef) {
      return item.expr->column;
    }
    return "c" + std::to_string(index);
  }

  RelShape CheckAggregate(const SelectStmt& s, const TypedEnv& env) {
    RelShape out;
    for (size_t i = 0; i < s.items.size(); ++i) {
      const SelectItem& item = s.items[i];
      if (item.is_star) {
        Add(VerifyCheck::kOperatorInvariant, "aggregate",
            "* not allowed with aggregation");
        out.valid = false;
        continue;
      }
      out.columns.push_back(ItemNameOf(item, i));
      const AggKind kind = ClassifyAggregate(*item.expr);
      if (kind != AggKind::kNotAggregate) {
        out.types.push_back(kind == AggKind::kCountStar ||
                                    kind == AggKind::kCountOrDistinct
                                ? SType::kInt
                                : SType::kUnknown);
        if (kind != AggKind::kCountStar) {
          if (item.expr->args.size() != 1) {
            Add(VerifyCheck::kOperatorInvariant, "aggregate",
                "aggregate expects one argument: " + RenderExpr(*item.expr));
          } else {
            CheckExpr(*item.expr->args[0], env, Scope::kAggArg, "aggregate");
          }
        }
        continue;
      }
      out.types.push_back(SType::kUnknown);
      const std::string rendered = RenderExpr(*item.expr);
      bool matches_group = false;
      for (const auto& g : s.group_by) {
        if (RenderExpr(*g) == rendered) {
          matches_group = true;
          break;
        }
      }
      if (!matches_group) {
        // The group expression with the same rendering is checked below;
        // an item without one is rejected by the executor up front.
        Add(VerifyCheck::kOperatorInvariant, "aggregate",
            "select item is neither aggregate nor GROUP BY expression: " +
                rendered);
      }
    }
    for (const auto& g : s.group_by) {
      CheckExpr(*g, env, Scope::kScalar, "aggregate");
    }
    if (s.having != nullptr) CheckHaving(*s.having, env, out);
    return out;
  }

  /// HAVING after the executor's rewrite: aggregate calls become hidden
  /// output columns (their arguments evaluate in the input scope); every
  /// remaining reference resolves bare against the aggregate output.
  void CheckHaving(const Expr& having, const TypedEnv& input_env,
                   const RelShape& out) {
    TypedEnv output_env;
    for (size_t i = 0; i < out.columns.size(); ++i) {
      output_env.Add("", out.columns[i],
                     i < out.types.size() ? out.types[i] : SType::kUnknown);
    }
    std::function<void(const Expr&)> walk = [&](const Expr& e) {
      const AggKind kind = ClassifyAggregate(e);
      if (kind != AggKind::kNotAggregate) {
        if (kind == AggKind::kCountStar) return;
        if (e.args.size() != 1) {
          // The rewrite leaves the argument slot null and the accumulator
          // dereferences it — reject before that can happen.
          Add(VerifyCheck::kOperatorInvariant, "having",
              "aggregate expects one argument: " + RenderExpr(e));
          return;
        }
        CheckExpr(*e.args[0], input_env, Scope::kAggArg, "having");
        return;
      }
      switch (e.kind) {
        case ExprKind::kColumnRef:
          if (output_env.env.TryResolve(e.qualifier, e.column) < 0) {
            Add(VerifyCheck::kColumnResolution, "having",
                "cannot resolve column " + Dotted(e) +
                    " (HAVING binds to aggregate output columns)");
          }
          return;
        case ExprKind::kInSubquery:
          // The aggregate rewrite clones the tree, so the materialized-set
          // lookup (keyed on node identity) can never hit.
          Add(VerifyCheck::kOperatorInvariant, "having",
              "IN subquery in HAVING is not pre-materialized after the "
              "aggregate rewrite");
          if (e.lhs) walk(*e.lhs);
          return;
        default:
          break;
      }
      if (e.lhs) walk(*e.lhs);
      if (e.rhs) walk(*e.rhs);
      for (const auto& a : e.args) walk(*a);
      for (const auto& a : e.in_list) walk(*a);
    };
    walk(having);
  }

  /// Registers (and checks) every IN subquery the executor pre-materializes
  /// for this select: WHERE, HAVING, and select items. A kInSubquery node
  /// anywhere else (ORDER BY, GROUP BY, VALUES rows, ON clauses) misses the
  /// materialization pass and fails at runtime.
  void CheckInSubqueries(const SelectStmt& s) {
    std::function<void(const ExprPtr&)> collect = [&](const ExprPtr& e) {
      if (e == nullptr) return;
      if (e->kind == ExprKind::kInSubquery) {
        materialized_.insert(e.get());
        RelShape sub = CheckSelect(*e->subquery);
        if (sub.valid && sub.columns.size() != 1) {
          Add(VerifyCheck::kOperatorInvariant, "in-subquery",
              "IN subquery must return one column, got " +
                  std::to_string(sub.columns.size()));
        }
      }
      collect(e->lhs);
      collect(e->rhs);
      for (const auto& a : e->args) collect(a);
      for (const auto& a : e->in_list) collect(a);
    };
    collect(s.where);
    collect(s.having);
    for (const auto& item : s.items) collect(item.expr);
  }

  // ------------------------------------------------- expression checking ----

  SType CheckExpr(const Expr& e, const TypedEnv& env, Scope scope,
                  const std::string& op) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return TypeOfLiteral(e.literal);
      case ExprKind::kColumnRef: {
        const int slot = env.env.TryResolve(e.qualifier, e.column);
        if (slot < 0) {
          Add(VerifyCheck::kColumnResolution, op,
              "cannot resolve column " + Dotted(e));
          return SType::kUnknown;
        }
        return env.types[static_cast<size_t>(slot)];
      }
      case ExprKind::kParam:
        return SType::kUnknown;  // bind values are dynamic by design
      case ExprKind::kBinary:
        return CheckBinary(e, env, scope, op);
      case ExprKind::kUnary: {
        const SType t = CheckExpr(*e.lhs, env, scope, op);
        switch (e.un_op) {
          case UnaryOp::kNot:
          case UnaryOp::kIsNull:
          case UnaryOp::kIsNotNull:
            return SType::kBool;
          case UnaryOp::kNeg:
            if (ArithmeticRejects(t)) {
              Add(VerifyCheck::kTypeSoundness, op,
                  "negation of non-number: " + RenderExpr(e) +
                      " (operand is statically " + STypeName(t) + ")");
            }
            return IsNumeric(t) || t == SType::kNull ? t : SType::kUnknown;
        }
        return SType::kUnknown;
      }
      case ExprKind::kFunc:
        return CheckFunc(e, env, scope, op);
      case ExprKind::kCast:
        CheckExpr(*e.lhs, env, scope, op);
        return TypeOfCast(e.cast_type);
      case ExprKind::kInList: {
        CheckExpr(*e.lhs, env, scope, op);
        for (const auto& item : e.in_list) CheckExpr(*item, env, scope, op);
        return SType::kBool;
      }
      case ExprKind::kInSubquery:
        if (materialized_.find(&e) == materialized_.end()) {
          Add(VerifyCheck::kOperatorInvariant, op,
              "IN subquery at this position is never pre-materialized "
              "(only WHERE, HAVING, and select items are)");
        }
        CheckExpr(*e.lhs, env, scope, op);
        return SType::kBool;
      case ExprKind::kStar:
        Add(VerifyCheck::kOperatorInvariant, op, "bare * outside COUNT(*)");
        return SType::kUnknown;
    }
    return SType::kUnknown;
  }

  SType CheckBinary(const Expr& e, const TypedEnv& env, Scope scope,
                    const std::string& op) {
    const SType lt = CheckExpr(*e.lhs, env, scope, op);
    const SType rt = CheckExpr(*e.rhs, env, scope, op);
    switch (e.bin_op) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr:
        return SType::kBool;
      case BinaryOp::kEq: {
        const EqFamily lf = FamilyOf(lt), rf = FamilyOf(rt);
        if (lf != EqFamily::kNone && rf != EqFamily::kNone && lf != rf) {
          Add(VerifyCheck::kTypeSoundness, op,
              "equality can never match: " + RenderExpr(e) + " compares " +
                  STypeName(lt) + " with " + STypeName(rt));
        }
        return SType::kBool;
      }
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return SType::kBool;
      case BinaryOp::kLike:
        // NULL on either side short-circuits before the pattern type check.
        if (rt != SType::kUnknown && rt != SType::kNull &&
            rt != SType::kString && lt != SType::kNull) {
          Add(VerifyCheck::kTypeSoundness, op,
              "LIKE pattern not string: " + RenderExpr(e) +
                  " (pattern is statically " + STypeName(rt) + ")");
        }
        return SType::kBool;
      case BinaryOp::kConcat:
        if (lt == SType::kJson || rt == SType::kJson) return SType::kJson;
        if (lt == SType::kNull || rt == SType::kNull) return SType::kNull;
        if (lt != SType::kUnknown && rt != SType::kUnknown) {
          return SType::kString;
        }
        return SType::kUnknown;
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        if ((ArithmeticRejects(lt) && rt != SType::kNull) ||
            (ArithmeticRejects(rt) && lt != SType::kNull)) {
          Add(VerifyCheck::kTypeSoundness, op,
              "arithmetic on non-numeric values: " + RenderExpr(e));
        }
        if (lt == SType::kNull || rt == SType::kNull) return SType::kNull;
        if (e.bin_op == BinaryOp::kDiv) return SType::kUnknown;  // may NULL
        if (lt == SType::kInt && rt == SType::kInt) return SType::kInt;
        if (IsNumeric(lt) && IsNumeric(rt)) return SType::kDouble;
        return SType::kUnknown;
      }
    }
    return SType::kUnknown;
  }

  SType CheckFunc(const Expr& e, const TypedEnv& env, Scope scope,
                  const std::string& op) {
    const std::string& f = e.func_name;
    if (ClassifyAggregate(e) != AggKind::kNotAggregate) {
      // The walker only visits positions where EvalExpr runs; an aggregate
      // call here hits the executor's "outside aggregation context" error
      // (after evaluating the arguments, which are checked first).
      for (const auto& a : e.args) {
        if (a->kind != ExprKind::kStar) CheckExpr(*a, env, scope, op);
      }
      Add(VerifyCheck::kOperatorInvariant, op,
          "aggregate " + f + " evaluated outside aggregation context");
      return SType::kUnknown;
    }
    std::vector<SType> arg_types;
    arg_types.reserve(e.args.size());
    for (const auto& a : e.args) {
      arg_types.push_back(CheckExpr(*a, env, scope, op));
    }
    auto arity = [&](size_t n) {
      if (e.args.size() != n) {
        Add(VerifyCheck::kTypeSoundness, op,
            f + " expects " + std::to_string(n) + " arguments, got " +
                std::to_string(e.args.size()));
        return false;
      }
      return true;
    };
    if (f == "COALESCE") {
      SType t = SType::kNull;
      for (SType at : arg_types) t = JoinTypes(t, at);
      return t;
    }
    if (f == "JSON_VAL") {
      if (arity(2) && arg_types[1] != SType::kUnknown &&
          arg_types[1] != SType::kString) {
        // A NULL key also rejects: the kernel checks is_string() first.
        Add(VerifyCheck::kTypeSoundness, op,
            "JSON_VAL key not string: " + RenderExpr(e) +
                " (key is statically " + STypeName(arg_types[1]) + ")");
      }
      return SType::kUnknown;
    }
    if (f == "PATH_APPEND") {
      arity(2);
      return SType::kJson;
    }
    if (f == "PATH_ELEM") {
      arity(2);
      return SType::kUnknown;
    }
    if (f == "PATH_PREFIX") {
      arity(2);
      return SType::kJson;
    }
    if (f == "PATH_LEN") {
      arity(1);
      return SType::kUnknown;  // NULL for non-arrays
    }
    if (f == "IS_SIMPLE_PATH") {
      arity(1);
      return SType::kInt;
    }
    if (f == "LENGTH") {
      arity(1);
      return SType::kInt;
    }
    if (f == "ABS") {
      arity(1);
      return SType::kUnknown;
    }
    if (f == "LOWER" || f == "UPPER") {
      arity(1);
      return SType::kString;
    }
    Add(VerifyCheck::kTypeSoundness, op, "unknown function " + f);
    return SType::kUnknown;
  }

  const rel::Database& db_;
  PlanVerifyReport* report_;
  std::string context_ = "query";
  std::map<std::string, RelShape> ctes_;
  std::unordered_set<const Expr*> materialized_;
};

// ----------------------------------------------------------- memo checks ----

const rel::Index* FindIndexNamed(const rel::Table& table,
                                 const std::string& name) {
  for (const auto& idx : table.indexes()) {
    if (idx->name() == name) return idx.get();
  }
  return nullptr;
}

struct RefSite {
  const TableRef* ref;
  std::string context;
};

void CollectRefs(const SelectStmt& s, const std::string& context,
                 std::vector<RefSite>* out) {
  std::function<void(const ExprPtr&)> collect_expr = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::kInSubquery && e->subquery != nullptr) {
      CollectRefs(*e->subquery, context, out);
    }
    collect_expr(e->lhs);
    collect_expr(e->rhs);
    for (const auto& a : e->args) collect_expr(a);
    for (const auto& a : e->in_list) collect_expr(a);
  };
  for (const auto& ref : s.from) {
    out->push_back({&ref, context});
    if (ref.subquery != nullptr) CollectRefs(*ref.subquery, context, out);
  }
  collect_expr(s.where);
  collect_expr(s.having);
  for (const auto& item : s.items) collect_expr(item.expr);
  for (const auto& set_op : s.set_ops) CollectRefs(*set_op.rhs, context, out);
}

}  // namespace

void VerifyPlan(const SqlQuery& query, const rel::Database& db,
                PlanVerifyReport* report) {
  PlanChecker checker(db, report);
  checker.CheckQuery(query);
}

PlanVerifyReport VerifyPlan(const SqlQuery& query, const rel::Database& db) {
  PlanVerifyReport report;
  VerifyPlan(query, db, &report);
  AddVerifySelfTestPlants(&report);
  return report;
}

void VerifyMemo(const SqlQuery& query, const rel::Database& db,
                const PlanMemo& memo, PlanVerifyReport* report) {
  if (query.final_select == nullptr) return;
  std::unordered_set<std::string> cte_names;
  std::vector<RefSite> sites;
  for (const Cte& cte : query.ctes) {
    cte_names.insert(cte.name);
    CollectRefs(*cte.select, cte.name, &sites);
  }
  CollectRefs(*query.final_select, "final", &sites);

  for (const RefSite& site : sites) {
    const TableRef& ref = *site.ref;
    const std::string& alias = ref.exposure();
    // Index-backed plans are only ever recorded for live base tables; a
    // CTE-shadowed or non-table ref cannot carry them. A missing table or
    // index replans gracefully at runtime, so only *inconsistent* entries
    // (silent-wrong-result hazards) are reported.
    const rel::Table* table = nullptr;
    if (ref.kind == TableRefKind::kBaseTable &&
        cte_names.find(ref.table_name) == cte_names.end()) {
      table = db.GetTable(ref.table_name);
    }
    auto add = [&](const std::string& op, std::string msg) {
      report->Add(VerifyCheck::kMemoReplay, site.context, op + " " + alias,
                  std::move(msg));
    };

    if (auto access = memo.GetAccess(&ref)) {
      const rel::Index* idx =
          table != nullptr && !access->index_name.empty()
              ? FindIndexNamed(*table, access->index_name)
              : nullptr;
      switch (access->kind) {
        case PlanMemo::AccessPlan::kSeqScan:
          break;
        case PlanMemo::AccessPlan::kIndexEq:
          if (idx != nullptr &&
              access->eq_preds.size() != idx->column_ids().size()) {
            add("access", "memoized index-eq plan replays index " +
                              access->index_name + " with " +
                              std::to_string(access->eq_preds.size()) +
                              " predicates for " +
                              std::to_string(idx->column_ids().size()) +
                              " key columns");
          }
          if (access->eq_slots.size() != access->eq_preds.size()) {
            add("access",
                "memoized index-eq plan has " +
                    std::to_string(access->eq_slots.size()) + " slots for " +
                    std::to_string(access->eq_preds.size()) + " predicates");
          }
          for (size_t slot : access->eq_slots) {
            if (slot >= access->n_applicable) {
              add("access", "memoized predicate slot " + std::to_string(slot) +
                                " out of range (n_applicable=" +
                                std::to_string(access->n_applicable) + ")");
              break;
            }
          }
          break;
        case PlanMemo::AccessPlan::kJsonEq:
        case PlanMemo::AccessPlan::kJsonRange:
        case PlanMemo::AccessPlan::kJsonPrefix:
          if (idx != nullptr && !idx->is_json()) {
            add("access", "memoized JSON access plan replays non-JSON index " +
                              access->index_name);
          }
          if (access->json_slot >= access->n_applicable) {
            add("access",
                "memoized JSON predicate slot " +
                    std::to_string(access->json_slot) +
                    " out of range (n_applicable=" +
                    std::to_string(access->n_applicable) + ")");
          }
          break;
      }
    }

    if (auto join = memo.GetJoin(&ref)) {
      switch (join->kind) {
        case PlanMemo::JoinPlan::kIndexNL: {
          const rel::Index* idx =
              table != nullptr && !join->index_name.empty()
                  ? FindIndexNamed(*table, join->index_name)
                  : nullptr;
          if (idx != nullptr &&
              join->best_key_order.size() != idx->column_ids().size()) {
            add("join", "memoized index-NL key order covers " +
                            std::to_string(join->best_key_order.size()) +
                            " of " + std::to_string(idx->column_ids().size()) +
                            " key columns of index " + join->index_name);
          }
          for (size_t k : join->best_key_order) {
            if (k >= join->keys.size()) {
              add("join", "memoized key-order entry " + std::to_string(k) +
                              " out of range (" +
                              std::to_string(join->keys.size()) + " keys)");
              break;
            }
          }
          if (join->used.size() != join->n_applicable) {
            add("join", "memoized consumed-conjunct bitmap has " +
                            std::to_string(join->used.size()) +
                            " entries for " +
                            std::to_string(join->n_applicable) +
                            " applicable conjuncts");
          }
          break;
        }
        case PlanMemo::JoinPlan::kHash:
          if (join->keys.empty()) {
            add("join", "memoized hash join carries no equi-join keys");
          }
          if (join->used.size() != join->n_applicable) {
            add("join", "memoized consumed-conjunct bitmap has " +
                            std::to_string(join->used.size()) +
                            " entries for " +
                            std::to_string(join->n_applicable) +
                            " applicable conjuncts");
          }
          break;
        case PlanMemo::JoinPlan::kCross:
          if (!join->keys.empty()) {
            add("join", "memoized cross join carries " +
                            std::to_string(join->keys.size()) +
                            " unused equi-join keys");
          }
          break;
      }
    }

    if (auto outer = memo.GetOuter(&ref)) {
      if (outer->use_index && table != nullptr) {
        const rel::Index* idx = FindIndexNamed(*table, outer->index_name);
        if (idx != nullptr &&
            outer->keys.size() != idx->column_ids().size()) {
          add("outer", "memoized outer-join plan has " +
                           std::to_string(outer->keys.size()) +
                           " keys for index " + outer->index_name + " with " +
                           std::to_string(idx->column_ids().size()) +
                           " key columns");
        }
      }
    }
  }
}

void VerifyMemoEpoch(uint64_t plan_epoch, uint64_t current_epoch,
                     PlanVerifyReport* report) {
  if (plan_epoch == current_epoch) return;
  report->Add(VerifyCheck::kMemoReplay, "prepared", "memo",
              "plan compiled at schema epoch " + std::to_string(plan_epoch) +
                  " cannot replay at epoch " + std::to_string(current_epoch) +
                  "; re-prepare the statement");
}

void VerifyCteAttribution(
    const SqlQuery& query,
    const std::vector<std::pair<std::string, std::vector<std::string>>>& pipes,
    PlanVerifyReport* report) {
  std::unordered_set<std::string> cte_names;
  for (const Cte& cte : query.ctes) cte_names.insert(cte.name);
  std::unordered_map<std::string, int> attributed;
  for (const auto& [pipe, ctes] : pipes) {
    for (const std::string& cte : ctes) {
      ++attributed[cte];
      if (cte != "final" && cte_names.find(cte) == cte_names.end()) {
        report->Add(VerifyCheck::kPipeAttribution, "translation",
                    "pipe " + pipe,
                    "attributes CTE " + cte +
                        " which does not exist in the translation");
      }
    }
  }
  for (const Cte& cte : query.ctes) {
    auto it = attributed.find(cte.name);
    const int n = it == attributed.end() ? 0 : it->second;
    if (n == 0) {
      report->Add(VerifyCheck::kPipeAttribution, "translation", "attribution",
                  "CTE " + cte.name +
                      " is not attributed to any Gremlin pipe");
    } else if (n > 1) {
      report->Add(VerifyCheck::kPipeAttribution, "translation", "attribution",
                  "CTE " + cte.name + " is attributed to " +
                      std::to_string(n) + " pipes");
    }
  }
}

// ---------------------------------------------------- mutation self-tests ----

namespace {

std::atomic<int> g_selftest_mode{-1};

SelectItem MakeItem(ExprPtr e) {
  SelectItem item;
  item.expr = std::move(e);
  return item;
}

TableRef OneRowValues(std::string alias, std::string column, Value v) {
  TableRef ref;
  ref.kind = TableRefKind::kUnnestValues;
  ref.alias = std::move(alias);
  ref.column_aliases.push_back(std::move(column));
  ref.values_rows.push_back({Lit(std::move(v))});
  return ref;
}

/// Plants checked against an empty catalog: both defects live entirely in
/// literal-typed TABLE(VALUES ...) scopes, so no tables are needed.
const rel::Database& EmptyDatabase() {
  static rel::Database* db = new rel::Database(1 << 20);
  return *db;
}

}  // namespace

VerifySelfTest VerifySelfTestMode() {
  int mode = g_selftest_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = static_cast<int>(VerifySelfTest::kNone);
    if (const char* env = std::getenv("SQLGRAPH_VERIFY_SELFTEST")) {
      if (std::strcmp(env, "dangling-column") == 0) {
        mode = static_cast<int>(VerifySelfTest::kDanglingColumn);
      } else if (std::strcmp(env, "join-key-type") == 0) {
        mode = static_cast<int>(VerifySelfTest::kTypeConfusedJoinKey);
      } else if (std::strcmp(env, "stale-epoch") == 0) {
        mode = static_cast<int>(VerifySelfTest::kStaleEpochMemo);
      }
    }
    g_selftest_mode.store(mode, std::memory_order_relaxed);
  }
  return static_cast<VerifySelfTest>(mode);
}

void SetVerifySelfTestModeForTest(VerifySelfTest mode) {
  g_selftest_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void AddVerifySelfTestPlants(PlanVerifyReport* report) {
  switch (VerifySelfTestMode()) {
    case VerifySelfTest::kNone:
      return;
    case VerifySelfTest::kDanglingColumn: {
      // SELECT a.x, a.zzz FROM TABLE(VALUES (1)) AS a(x) — the projection
      // references a column no input produces.
      SqlQuery q;
      q.final_select = std::make_shared<SelectStmt>();
      q.final_select->from.push_back(
          OneRowValues("a", "x", Value(int64_t{1})));
      q.final_select->items.push_back(MakeItem(Col("a", "x")));
      q.final_select->items.push_back(MakeItem(Col("a", "zzz")));
      VerifyPlan(q, EmptyDatabase(), report);
      return;
    }
    case VerifySelfTest::kTypeConfusedJoinKey: {
      // SELECT a.x FROM TABLE(VALUES (1)) AS a(x),
      //               TABLE(VALUES ('y')) AS b(y) WHERE a.x = b.y — the
      // equi-join key compares an int column with a string column.
      SqlQuery q;
      q.final_select = std::make_shared<SelectStmt>();
      q.final_select->from.push_back(
          OneRowValues("a", "x", Value(int64_t{1})));
      q.final_select->from.push_back(
          OneRowValues("b", "y", Value(std::string("y"))));
      q.final_select->where =
          Bin(BinaryOp::kEq, Col("a", "x"), Col("b", "y"));
      q.final_select->items.push_back(MakeItem(Col("a", "x")));
      VerifyPlan(q, EmptyDatabase(), report);
      return;
    }
    case VerifySelfTest::kStaleEpochMemo:
      // A memo recorded at epoch 1 replayed against epoch 2.
      VerifyMemoEpoch(1, 2, report);
      return;
  }
}

}  // namespace sql
}  // namespace sqlgraph
