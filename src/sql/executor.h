// Set-oriented execution of the SQL AST against a rel::Database.
//
// The executor evaluates CTEs in order into materialized temporary
// relations, then the final SELECT. Join processing is pipelined left to
// right with the access paths chosen by sql/planner.h:
//
//   * index nested-loop join when the inbound equi-join columns are covered
//     by a base-table index (the OPA/IPA/EA fast path),
//   * hash join otherwise,
//   * lateral expansion for TABLE(VALUES ...) unnest,
//   * left-outer hash join for the OSA/ISA COALESCE templates.
//
// Recursive CTEs run semi-naively with a global dedup (UNION-style fixpoint)
// and an iteration cap, mirroring the paper's recursive-SQL fallback for
// unbounded loop pipes.
//
// Prepared queries: Prepare() lexes/parses once and returns a PreparedQuery
// holding the shared AST plus a PlanMemo that records the per-table-ref
// access-path decisions on first execution; ExecutePrepared() replays them
// with fresh bind values, skipping lex/parse/plan. A PlanCache (single-flight
// LRU keyed by normalized SQL text) shares PreparedQuery instances across
// Executor instances; entries are invalidated by schema-epoch mismatch.

#ifndef SQLGRAPH_SQL_EXECUTOR_H_
#define SQLGRAPH_SQL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "rel/database.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"
#include "sql/result.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace sqlgraph {
namespace sql {

/// Execution counters, exposed so tests can assert that the planner picked
/// the intended access path (e.g. "this query must not sequential-scan EA").
struct ExecStats {
  uint64_t table_scans = 0;
  uint64_t index_lookups = 0;
  uint64_t index_range_scans = 0;
  uint64_t hash_joins = 0;
  uint64_t index_nl_joins = 0;
  uint64_t rows_scanned = 0;
  uint64_t recursive_iterations = 0;
  /// Prepared-query pipeline: executions that reused a cached plan vs.
  /// executions that had to lex/parse/plan.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Nanoseconds spent preparing (lex+parse) and executing.
  uint64_t prepare_ns = 0;
  uint64_t exec_ns = 0;
  /// Plan verification (sql/verify.h): passes run and plans rejected. A
  /// prepared statement counts at most twice (AST pass, then memo pass).
  uint64_t plans_verified = 0;
  uint64_t plan_verify_rejections = 0;
  /// EXPLAIN-style trace: one line per access-path / join decision, prefixed
  /// by the CTE being evaluated.
  std::vector<std::string> trace;
  /// EXPLAIN ANALYZE spans: per-operator rows + wall time, in execution
  /// order. Only populated when Options::analyze is set (the timing clock
  /// reads are not free); `context` is the CTE name or "final".
  std::vector<obs::TraceSpan> spans;
};

class PlanMemo;

/// An immutable compiled statement: normalized SQL text, shared parsed AST,
/// and the memoized access-path decisions. Thread-safe to execute
/// concurrently; the memo fills in on first execution.
class PreparedQuery {
 public:
  /// Parses `sql_text` into a fresh statement compiled under `epoch`, with
  /// an empty memo. Uncached; PlanCache is the shared route.
  static util::Result<std::shared_ptr<const PreparedQuery>> Compile(
      std::string_view sql_text, uint64_t epoch);

  const std::string& sql() const { return sql_; }
  const SqlQuery& query() const { return *ast_; }
  int param_count() const { return ast_->num_params; }
  /// Schema epoch the plan was compiled under (see PlanCache).
  uint64_t schema_epoch() const { return epoch_; }
  PlanMemo* memo() const { return memo_.get(); }

 private:
  std::string sql_;
  std::shared_ptr<const SqlQuery> ast_;
  std::shared_ptr<PlanMemo> memo_;
  uint64_t epoch_ = 0;
};

using PreparedQueryPtr = std::shared_ptr<const PreparedQuery>;

/// Thread-safe, single-flight LRU cache (util::LruCache) of PreparedQuery
/// instances keyed by whitespace-normalized SQL text. Concurrent first
/// callers for one text parse it once. Entries carry the schema epoch they
/// were compiled under; a lookup with a different epoch evicts and
/// re-prepares, which is how DDL-equivalent store events (spill-row
/// creation, Compact) invalidate stale plans.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 256)
      : cache_(capacity, util::LockRank::kPlanCache, "plan_cache") {}

  /// Returns the cached statement for `sql_text` at `epoch`, parsing and
  /// inserting on miss. Counts hits/misses both internally and, when
  /// `stats` is non-null, into the caller's ExecStats.
  util::Result<PreparedQueryPtr> GetOrPrepare(std::string_view sql_text,
                                              uint64_t epoch,
                                              ExecStats* stats);

  /// Drops every cached plan (coarse invalidation; epoch mismatch already
  /// handles the incremental case).
  void Clear() { cache_.Clear(); }

  size_t size() const { return cache_.size(); }
  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }

  /// Collapses whitespace runs so textual variants of one template share a
  /// cache entry.
  static std::string NormalizeSql(std::string_view sql_text);

 private:
  util::LruCache<std::string, PreparedQueryPtr> cache_;
};

class Executor {
 public:
  struct Options {
    /// Safety cap for recursive CTE evaluation.
    int max_recursion = 10000;
    /// Disable index selection (for ablation tests).
    bool enable_indexes = true;
    /// Batch-at-a-time execution: base-table pipelines flow through
    /// rel::ColumnBatch with vectorized predicate/projection/join/aggregate
    /// evaluation. Off forces the row-at-a-time operators everywhere (the
    /// differential oracle and ablation benchmarks). Results, EXPLAIN
    /// ANALYZE spans, and ExecStats counters are identical either way.
    bool vectorized = true;
    /// EXPLAIN ANALYZE mode: record per-operator rows + wall time into
    /// ExecStats::spans. Off by default — each span costs two clock reads.
    bool analyze = false;
    /// MVCC snapshot pin: when non-zero, base-table references resolve to
    /// the table contents as of this commit timestamp (rel::Table::ScanAt).
    /// Tables with no versions newer than read_ts use the live fast paths
    /// (indexes, batches) unchanged; 0 always reads live data.
    uint64_t read_ts = 0;
    /// Plan-IR verification (sql/verify.h): statically check every plan
    /// before executing it and fail with a structured diagnostic instead of
    /// running a malformed plan. On by default in Debug builds; prepared
    /// statements amortize the cost to two passes total (AST once, filled
    /// memo once) via PlanMemo::ClaimVerifyStage.
#ifdef NDEBUG
    bool verify_plans = false;
#else
    bool verify_plans = true;
#endif
  };

  explicit Executor(rel::Database* db) : db_(db) {}
  Executor(rel::Database* db, Options options) : db_(db), options_(options) {}

  /// Attaches a shared plan cache (not owned). `schema_epoch` stamps plans
  /// prepared through this executor; ExecuteSql() then routes through the
  /// cache, and ExecutePrepared() re-prepares stale handles transparently.
  void set_plan_cache(PlanCache* cache, uint64_t schema_epoch) {
    plan_cache_ = cache;
    schema_epoch_ = schema_epoch;
  }

  /// Executes a full query (CTEs + final select).
  util::Result<ResultSet> Execute(const SqlQuery& query);

  /// Parses then executes SQL text. With a plan cache attached, repeat
  /// executions of the same text skip lexing/parsing/planning.
  util::Result<ResultSet> ExecuteSql(std::string_view sql_text);

  /// Compiles SQL text into a reusable statement (through the plan cache
  /// when one is attached).
  util::Result<PreparedQueryPtr> Prepare(std::string_view sql_text);

  /// Executes a prepared statement with the given bind values. A handle
  /// compiled under an older schema epoch is re-prepared first.
  util::Result<ResultSet> ExecutePrepared(const PreparedQuery& prepared,
                                          const ParamBindings& params);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

  /// Toggles EXPLAIN ANALYZE span recording (see Options::analyze).
  void set_analyze(bool on) { options_.analyze = on; }

 private:
  class Impl;
  util::Result<ResultSet> ExecuteWithParams(const SqlQuery& query,
                                            const ParamBindings* params,
                                            PlanMemo* memo);

  rel::Database* db_;
  Options options_;
  ExecStats stats_;
  PlanCache* plan_cache_ = nullptr;
  uint64_t schema_epoch_ = 0;
};

}  // namespace sql
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQL_EXECUTOR_H_
