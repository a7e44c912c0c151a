// Expression evaluation for the SQL executor. Every operator evaluates
// over a whole rel::ColumnBatch (EvalExprBatch / EvalPredicateBatch); the
// scalar EvalExpr over one combined row shares their per-value kernels and
// serves the per-row paths (HAVING over finished groups, bind parameters,
// the batch evaluator's short-circuit rescue).

#ifndef SQLGRAPH_SQL_EXPR_EVAL_H_
#define SQLGRAPH_SQL_EXPR_EVAL_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rel/column_batch.h"
#include "rel/value.h"
#include "sql/ast.h"
#include "util/status.h"

namespace sqlgraph {
namespace sql {

/// \brief Maps (qualifier, column) references to slots of a combined row.
///
/// Each joined table ref contributes a contiguous block of slots; columns
/// are resolved by `alias.column` or, when unambiguous, by bare `column`.
class ColumnEnv {
 public:
  void Add(std::string qualifier, std::string column) {
    const int slot = static_cast<int>(slots_.size());
    // Qualified lookups are exact; bare lookups must be unambiguous.
    qualified_[qualifier + "\x1f" + column] = slot;
    auto [it, inserted] = bare_.emplace(column, slot);
    if (!inserted) it->second = kAmbiguous;
    slots_.push_back({std::move(qualifier), std::move(column)});
  }

  size_t size() const { return slots_.size(); }
  const std::pair<std::string, std::string>& slot(size_t i) const {
    return slots_[i];
  }

  /// Resolves a reference; bare columns must match exactly one slot.
  util::Result<int> Resolve(std::string_view qualifier,
                            std::string_view column) const;

  /// Like Resolve but returns -1 instead of an error.
  int TryResolve(std::string_view qualifier, std::string_view column) const;

 private:
  static constexpr int kAmbiguous = -2;
  std::vector<std::pair<std::string, std::string>> slots_;
  std::unordered_map<std::string, int> qualified_;
  std::unordered_map<std::string, int> bare_;
};

/// Values for the bind parameters of one execution of a prepared statement.
/// Positional `?` placeholders read `positional[param_index]`; `:name`
/// placeholders resolve through `named` first and fall back to their
/// positional slot.
struct ParamBindings {
  std::vector<rel::Value> positional;
  std::unordered_map<std::string, rel::Value> named;

  ParamBindings() = default;
  explicit ParamBindings(std::vector<rel::Value> values)
      : positional(std::move(values)) {}
};

/// Pre-materialized IN-subquery results, keyed by the Expr node identity,
/// plus the current statement's bind parameter values (null when executing
/// a fully literal query).
struct EvalContext {
  std::unordered_map<const Expr*,
                     std::unordered_set<rel::Value, rel::ValueHash>>
      in_subquery_sets;
  const ParamBindings* params = nullptr;
};

/// Evaluates a scalar expression against one combined row. NULL propagates
/// per SQL three-valued logic (comparisons with NULL yield NULL; AND/OR use
/// Kleene logic; WHERE later treats non-true as reject). Aggregate function
/// nodes are an error here — the executor handles them separately.
util::Result<rel::Value> EvalExpr(const Expr& e, const ColumnEnv& env,
                                  const rel::Row& row, const EvalContext& ctx);

/// Batched evaluation: one result column over every row of `batch`, the way
/// every executor operator evaluates. Shares the per-value kernels with the
/// scalar EvalExpr, so results are element-wise identical — including NULL-mask
/// propagation, Kleene AND/OR, and JSON_VAL misses. AND/OR and COALESCE
/// evaluate operand columns eagerly on the happy path; if an eagerly
/// evaluated operand errors, the node transparently re-runs row-at-a-time
/// with the scalar evaluator, so short-circuit error semantics are
/// observably identical to EvalExpr as well.
util::Result<rel::ColumnVector> EvalExprBatch(const Expr& e,
                                              const ColumnEnv& env,
                                              const rel::ColumnBatch& batch,
                                              const EvalContext& ctx);

/// Evaluates a predicate over the batch and appends the indexes of rows
/// where it is truthy to `*sel` (a selection vector for ColumnBatch
/// gathers). `sel` is not cleared.
util::Status EvalPredicateBatch(const Expr& e, const ColumnEnv& env,
                                const rel::ColumnBatch& batch,
                                const EvalContext& ctx,
                                std::vector<uint32_t>* sel);

/// Applies the shared JSON_VAL semantics (also used by rel JSON indexes).
rel::Value JsonVal(const rel::Value& json_doc, std::string_view key);

/// True iff `v` should pass a WHERE clause (true, or non-zero number).
bool IsTruthy(const rel::Value& v);

}  // namespace sql
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQL_EXPR_EVAL_H_
