#include "sql/planner.h"

#include <algorithm>

namespace sqlgraph {
namespace sql {

void SplitConjuncts(const ExprPtr& where, std::vector<ExprPtr>* out) {
  if (where == nullptr) return;
  if (where->kind == ExprKind::kBinary && where->bin_op == BinaryOp::kAnd) {
    SplitConjuncts(where->lhs, out);
    SplitConjuncts(where->rhs, out);
    return;
  }
  out->push_back(where);
}

void CollectQualifiers(const Expr& e, const ColumnEnv& env,
                       std::vector<std::string>* quals, bool* unresolved) {
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (!e.qualifier.empty()) {
        if (std::find(quals->begin(), quals->end(), e.qualifier) ==
            quals->end()) {
          quals->push_back(e.qualifier);
        }
        return;
      }
      const int slot = env.TryResolve("", e.column);
      if (slot < 0) {
        *unresolved = true;
        return;
      }
      const std::string& q = env.slot(static_cast<size_t>(slot)).first;
      if (std::find(quals->begin(), quals->end(), q) == quals->end()) {
        quals->push_back(q);
      }
      return;
    }
    case ExprKind::kBinary:
      CollectQualifiers(*e.lhs, env, quals, unresolved);
      CollectQualifiers(*e.rhs, env, quals, unresolved);
      return;
    case ExprKind::kUnary:
    case ExprKind::kCast:
      CollectQualifiers(*e.lhs, env, quals, unresolved);
      return;
    case ExprKind::kFunc:
      for (const auto& a : e.args) CollectQualifiers(*a, env, quals, unresolved);
      return;
    case ExprKind::kInList:
      CollectQualifiers(*e.lhs, env, quals, unresolved);
      for (const auto& a : e.in_list) {
        CollectQualifiers(*a, env, quals, unresolved);
      }
      return;
    case ExprKind::kInSubquery:
      // The subquery itself is uncorrelated in our templates; only the probe
      // side references the outer env.
      CollectQualifiers(*e.lhs, env, quals, unresolved);
      return;
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kStar:
      return;
  }
}

bool IsFullyBound(const Expr& e, const ColumnEnv& env) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return env.TryResolve(e.qualifier, e.column) >= 0;
    case ExprKind::kBinary:
      return IsFullyBound(*e.lhs, env) && IsFullyBound(*e.rhs, env);
    case ExprKind::kUnary:
    case ExprKind::kCast:
      return IsFullyBound(*e.lhs, env);
    case ExprKind::kFunc:
      for (const auto& a : e.args) {
        if (!IsFullyBound(*a, env)) return false;
      }
      return true;
    case ExprKind::kInList: {
      if (!IsFullyBound(*e.lhs, env)) return false;
      for (const auto& a : e.in_list) {
        if (!IsFullyBound(*a, env)) return false;
      }
      return true;
    }
    case ExprKind::kInSubquery:
      return IsFullyBound(*e.lhs, env);
    case ExprKind::kLiteral:
    case ExprKind::kParam:
    case ExprKind::kStar:
      return true;
  }
  return false;
}

const Expr* FindUnboundLateralExpr(const TableRef& ref, const ColumnEnv& env,
                                   const ColumnEnv& next_env) {
  auto bound = [&](const Expr& e) {
    return IsFullyBound(e, env) && IsFullyBound(e, next_env);
  };
  for (const auto& values_row : ref.values_rows) {
    for (const auto& e : values_row) {
      if (!bound(*e)) return e.get();
    }
  }
  if (ref.json_doc != nullptr && !bound(*ref.json_doc)) {
    return ref.json_doc.get();
  }
  return nullptr;
}

namespace {

/// True if `e` is a plain column of the ref `alias` (qualified, or bare and
/// matching one of `ref_columns` while not resolvable in the outer env).
bool IsRefColumn(const Expr& e, const ColumnEnv& env, const std::string& alias,
                 const std::vector<std::string>& ref_columns,
                 std::string* column) {
  if (e.kind != ExprKind::kColumnRef) return false;
  if (!e.qualifier.empty()) {
    if (e.qualifier != alias) return false;
    *column = e.column;
    return true;
  }
  if (env.TryResolve("", e.column) >= 0) return false;  // belongs to env
  if (std::find(ref_columns.begin(), ref_columns.end(), e.column) ==
      ref_columns.end()) {
    return false;
  }
  *column = e.column;
  return true;
}

/// True if `e` is a constant (literal, bind parameter, or cast/negation of a
/// constant) — i.e. row-independent, so it can drive an index probe.
bool IsConstExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral: return true;
    case ExprKind::kParam: return true;
    case ExprKind::kCast: return IsConstExpr(*e.lhs);
    case ExprKind::kUnary: return e.un_op == UnaryOp::kNeg && IsConstExpr(*e.lhs);
    default: return false;
  }
}

/// Evaluates a parameter-free constant expression at plan time. Fails (and
/// leaves the evaluation to execution time) when the expression contains
/// bind parameters.
bool EvalConst(const ExprPtr& e, rel::Value* out) {
  ColumnEnv empty;
  EvalContext ctx;
  rel::Row no_row;
  auto r = EvalExpr(*e, empty, no_row, ctx);
  if (!r.ok()) return false;
  *out = std::move(r).value();
  return true;
}

/// True if `e` is JSON_VAL(alias.col, 'key'); extracts column name and key.
bool IsJsonValOfRef(const Expr& e, const std::string& alias,
                    std::string* column, std::string* key) {
  if (e.kind != ExprKind::kFunc || e.func_name != "JSON_VAL" ||
      e.args.size() != 2) {
    return false;
  }
  const Expr& col = *e.args[0];
  if (col.kind != ExprKind::kColumnRef) return false;
  if (!col.qualifier.empty() && col.qualifier != alias) return false;
  if (e.args[1]->kind != ExprKind::kLiteral ||
      !e.args[1]->literal.is_string()) {
    return false;
  }
  *column = col.column;
  *key = e.args[1]->literal.AsString();
  return true;
}

}  // namespace

bool MatchEquiJoin(const ExprPtr& conjunct, const ColumnEnv& env,
                   const std::string& alias,
                   const std::vector<std::string>& ref_columns,
                   EquiJoinKey* key) {
  if (conjunct->kind != ExprKind::kBinary ||
      conjunct->bin_op != BinaryOp::kEq) {
    return false;
  }
  std::string column;
  // Orientation 1: env_expr = ref.column
  if (IsRefColumn(*conjunct->rhs, env, alias, ref_columns, &column) &&
      IsFullyBound(*conjunct->lhs, env)) {
    key->outer = conjunct->lhs;
    key->column = column;
    key->original = conjunct;
    return true;
  }
  // Orientation 2: ref.column = env_expr
  if (IsRefColumn(*conjunct->lhs, env, alias, ref_columns, &column) &&
      IsFullyBound(*conjunct->rhs, env)) {
    key->outer = conjunct->rhs;
    key->column = column;
    key->original = conjunct;
    return true;
  }
  return false;
}

bool MatchIndexablePredicate(const ExprPtr& conjunct, const std::string& alias,
                             const rel::Table& table,
                             IndexablePredicate* pred) {
  if (conjunct->kind != ExprKind::kBinary) return false;
  const Expr& e = *conjunct;

  auto fill_column_side = [&](const ExprPtr& side, const ExprPtr& other,
                              BinaryOp op) -> bool {
    std::string column, json_key;
    rel::Value lit;
    // Plain column equality.
    if (side->kind == ExprKind::kColumnRef &&
        (side->qualifier.empty() || side->qualifier == alias) &&
        table.schema().FindColumn(side->column) >= 0 && IsConstExpr(*other) &&
        op == BinaryOp::kEq) {
      pred->kind = IndexablePredicate::kColumnEq;
      pred->column_id = table.schema().FindColumn(side->column);
      pred->value_expr = other;
      pred->has_literal = EvalConst(other, &lit);
      if (pred->has_literal) pred->literal = std::move(lit);
      pred->original = conjunct;
      return true;
    }
    // JSON_VAL(col,'k') cmp const, possibly under a CAST.
    const Expr* json_side = side.get();
    if (side->kind == ExprKind::kCast) json_side = side->lhs.get();
    if (IsJsonValOfRef(*json_side, alias, &column, &json_key) &&
        table.schema().FindColumn(column) >= 0 && IsConstExpr(*other)) {
      pred->column_id = table.schema().FindColumn(column);
      pred->json_key = json_key;
      pred->value_expr = other;
      pred->has_literal = EvalConst(other, &lit);
      if (pred->has_literal) pred->literal = lit;
      pred->original = conjunct;
      if (op == BinaryOp::kEq) {
        pred->kind = IndexablePredicate::kJsonEq;
        return true;
      }
      if (op == BinaryOp::kLt || op == BinaryOp::kLe || op == BinaryOp::kGt ||
          op == BinaryOp::kGe) {
        pred->kind = IndexablePredicate::kJsonRange;
        pred->op = op;
        return true;
      }
      // The LIKE prefix shapes the index range at plan time, so the pattern
      // must be a literal; parameterized patterns stay filter-only.
      if (op == BinaryOp::kLike && pred->has_literal && lit.is_string()) {
        const std::string& pat = lit.AsString();
        const size_t wild = pat.find_first_of("%_");
        if (wild == 0 || wild == std::string::npos) return false;
        pred->kind = IndexablePredicate::kJsonPrefix;
        pred->like_prefix = pat.substr(0, wild);
        return true;
      }
    }
    return false;
  };

  auto flip = [](BinaryOp op) {
    switch (op) {
      case BinaryOp::kLt: return BinaryOp::kGt;
      case BinaryOp::kLe: return BinaryOp::kGe;
      case BinaryOp::kGt: return BinaryOp::kLt;
      case BinaryOp::kGe: return BinaryOp::kLe;
      default: return op;
    }
  };

  if (fill_column_side(e.lhs, e.rhs, e.bin_op)) return true;
  if (e.bin_op != BinaryOp::kLike &&
      fill_column_side(e.rhs, e.lhs, flip(e.bin_op))) {
    return true;
  }
  return false;
}

util::Result<rel::Value> IndexablePredicateValue(const IndexablePredicate& pred,
                                                 const EvalContext& ctx) {
  if (pred.has_literal) return pred.literal;
  ColumnEnv empty;
  rel::Row no_row;
  return EvalExpr(*pred.value_expr, empty, no_row, ctx);
}

}  // namespace sql
}  // namespace sqlgraph
