// Access-path and join-strategy analysis: the lightweight rule-based
// optimizer standing in for the commercial engine's optimizer. It performs
// predicate decomposition, pushdown, index selection (including JSON
// functional indexes) and join-algorithm choice; the executor carries the
// chosen strategies out.

#ifndef SQLGRAPH_SQL_PLANNER_H_
#define SQLGRAPH_SQL_PLANNER_H_

#include <string>
#include <vector>

#include "rel/table.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"

namespace sqlgraph {
namespace sql {

/// Flattens nested ANDs of `where` into conjuncts.
void SplitConjuncts(const ExprPtr& where, std::vector<ExprPtr>* out);

/// Collects the distinct qualifiers referenced by an expression. Bare
/// (unqualified) column references resolve against `env`; unresolvable bare
/// columns are reported via `*unresolved`.
void CollectQualifiers(const Expr& e, const ColumnEnv& env,
                       std::vector<std::string>* quals, bool* unresolved);

/// True if every column reference in `e` resolves within `env`.
bool IsFullyBound(const Expr& e, const ColumnEnv& env);

/// The scope rule of a lateral TABLE(VALUES ...) or TABLE(JSON_EDGES(...))
/// item, shared by the executor and sql/verify.h: every tuple expression
/// and the JSON document must read only columns joined before the item
/// (`env`) and must stay unambiguous once the item's own columns join
/// (`next_env`). Returns the first expression that breaks the rule, or null.
const Expr* FindUnboundLateralExpr(const TableRef& ref, const ColumnEnv& env,
                                   const ColumnEnv& next_env);

/// An equality conjunct usable as a join key: `outer_expr = inner column`.
struct EquiJoinKey {
  ExprPtr outer;        // evaluable against the pre-join env
  std::string column;   // column of the ref being joined (unqualified)
  ExprPtr original;     // the full conjunct, for bookkeeping
};

/// Classifies `conjunct` as an equi-join predicate between the existing env
/// and the table ref with exposure `alias` exposing `ref_columns`. Returns
/// true and fills `*key` when it matches `env_expr = alias.column` in either
/// orientation.
bool MatchEquiJoin(const ExprPtr& conjunct, const ColumnEnv& env,
                   const std::string& alias,
                   const std::vector<std::string>& ref_columns,
                   EquiJoinKey* key);

/// A single-table predicate usable for index access on a base table. The
/// comparison constant is either pre-evaluated (`has_literal`, for
/// parameter-free expressions) or deferred to execution time via
/// `value_expr`, which may reference bind parameters.
struct IndexablePredicate {
  enum Kind {
    kColumnEq,    // col = const
    kJsonEq,      // JSON_VAL(col,'k') = const
    kJsonRange,   // JSON_VAL(col,'k') </<=/>/>= const
    kJsonPrefix,  // JSON_VAL(col,'k') LIKE 'prefix%...'
  } kind = kColumnEq;  // initialized: plans copy never-matched predicates
  int column_id = -1;
  std::string json_key;        // kJson*
  ExprPtr value_expr;          // constant side (may contain parameters)
  rel::Value literal;          // pre-evaluated value iff has_literal
  bool has_literal = false;
  BinaryOp op = BinaryOp::kEq; // for kJsonRange
  std::string like_prefix;     // for kJsonPrefix
  ExprPtr original;
};

/// Evaluates the constant side of an indexable predicate for one execution,
/// resolving bind parameters through `ctx`.
util::Result<rel::Value> IndexablePredicateValue(const IndexablePredicate& pred,
                                                 const EvalContext& ctx);

/// Tries to recognize `conjunct` as an indexable single-table predicate over
/// the ref with the given alias and base table. Constant side must be a
/// constant expression: a literal, a bind parameter, or a cast/negation of
/// one (LIKE prefix matching additionally requires a literal pattern, since
/// the prefix shapes the index range at plan time).
bool MatchIndexablePredicate(const ExprPtr& conjunct, const std::string& alias,
                             const rel::Table& table,
                             IndexablePredicate* pred);

}  // namespace sql
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQL_PLANNER_H_
