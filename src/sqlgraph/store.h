// SqlGraphStore: the public API of the SQLGraph system.
//
// Construction bulk-loads a property graph through the coloring analysis
// into the Fig. 5 schema. Afterwards the store offers:
//
//  * Blueprints-style CRUD operations implemented as multi-table "stored
//    procedures" (§4.5.2) — each call is one logical round trip,
//  * vertex deletion as a soft delete (VID → -VID-1) with an offline
//    Compact() that performs the paper's "off-line cleanup",
//  * whole-query SQL execution (used by the Gremlin translator's output),
//  * concurrency via per-table reader/writer locks: queries take shared
//    locks, CRUD procedures take exclusive locks only on the tables they
//    mutate (the stand-in for the RDBMS's fine-grained locking; baselines
//    deliberately serialize whole requests — see DESIGN.md §5).

#ifndef SQLGRAPH_SQLGRAPH_STORE_H_
#define SQLGRAPH_SQLGRAPH_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/property_graph.h"
#include "obs/trace.h"
#include "rel/database.h"
#include "sql/executor.h"
#include "sqlgraph/check.h"
#include "sqlgraph/loader.h"
#include "sqlgraph/schema.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "wal/record.h"

namespace sqlgraph {
namespace wal {
class LogWriter;
// Defined in wal/durability.cc; the recovery path's door into the store.
struct StoreWalAccess;
}  // namespace wal

namespace core {

using graph::EdgeId;
using graph::VertexId;

class Txn;

/// One adjacency record returned by link queries.
struct EdgeRecord {
  EdgeId id;
  VertexId src;
  VertexId dst;
  std::string label;
  json::JsonValue attrs;
};

/// Lifetime transaction counters (see DESIGN.md §12). `aborted` counts every
/// non-committed end — explicit rollbacks, commit-time conflicts and apply
/// failures; `conflicts` counts just the first-committer-wins losers.
struct TxnStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t conflicts = 0;
  uint64_t active = 0;
};

class SqlGraphStore {
 public:
  /// Builds a store by bulk-loading `graph` (may be empty).
  static util::Result<std::unique_ptr<SqlGraphStore>> Build(
      const graph::PropertyGraph& graph, StoreConfig config = StoreConfig());

  // ------------------------------------------------------------ vertices --
  util::Result<VertexId> AddVertex(json::JsonValue attrs);
  util::Result<json::JsonValue> GetVertex(VertexId vid) const;
  util::Status SetVertexAttr(VertexId vid, const std::string& key,
                             json::JsonValue value);
  /// Drops one attribute key. OK whether or not the key existed; NotFound
  /// when the vertex itself is missing.
  util::Status RemoveVertexAttr(VertexId vid, const std::string& key);
  /// Soft delete (§4.5.2): negates the vertex's ids, removes its EA rows.
  util::Status RemoveVertex(VertexId vid);

  // --------------------------------------------------------------- edges --
  util::Result<EdgeId> AddEdge(VertexId src, VertexId dst,
                               const std::string& label,
                               json::JsonValue attrs);
  util::Result<EdgeRecord> GetEdge(EdgeId eid) const;
  util::Status SetEdgeAttr(EdgeId eid, const std::string& key,
                           json::JsonValue value);
  /// Drops one attribute key (see RemoveVertexAttr).
  util::Status RemoveEdgeAttr(EdgeId eid, const std::string& key);
  util::Status RemoveEdge(EdgeId eid);
  /// First edge src -label-> dst, if any.
  util::Result<std::optional<EdgeId>> FindEdge(VertexId src,
                                               const std::string& label,
                                               VertexId dst) const;

  // ---------------------------------------------------------- adjacency --
  /// get_link_list: all out-edges of `src` with the label (label empty =
  /// any), with attributes. Served from EA via the combined index (§3.5).
  util::Result<std::vector<EdgeRecord>> GetOutEdges(
      VertexId src, const std::string& label) const;
  util::Result<int64_t> CountOutEdges(VertexId src,
                                      const std::string& label) const;
  /// Neighbor vertex ids (out/in), optionally label-filtered.
  util::Result<std::vector<VertexId>> Out(VertexId vid,
                                          const std::string& label = "") const;
  util::Result<std::vector<VertexId>> In(VertexId vid,
                                         const std::string& label = "") const;

  // ------------------------------------------------------- transactions --
  /// Opens a snapshot-isolation transaction (DESIGN.md §12): reads are
  /// pinned to the commit timestamp current at Begin, mutations buffer in
  /// the handle and apply atomically at Commit() under first-committer-wins
  /// conflict detection. The handle is single-threaded; concurrent handles
  /// (and concurrent autocommit CRUD) are safe. Never fails; conflicts
  /// surface from Txn::Commit().
  std::unique_ptr<Txn> BeginTxn();
  /// Point-in-time transaction counters.
  TxnStats txn_stats() const;

  // ----------------------------------------------------------- querying --
  /// Executes a full SQL query (shared-locks all tables for its duration).
  /// Repeated identical text is served from the store's plan cache. When
  /// `stats` is non-null, the call's counters are copied there — a race-free
  /// alternative to last_exec_stats() under concurrency.
  ///
  /// Text starting with `EXPLAIN ANALYZE` (case-insensitive) executes the
  /// remainder with per-operator span recording and returns the span table
  /// (stage | operator | rows | time_ms) instead of the query's rows; the
  /// raw spans are in stats->spans for programmatic consumers.
  util::Result<sql::ResultSet> ExecuteSql(std::string_view text,
                                          sql::ExecStats* stats = nullptr);
  util::Result<sql::ResultSet> Execute(const sql::SqlQuery& query,
                                       sql::ExecStats* stats = nullptr);
  /// Executes `query` with per-operator span recording (EXPLAIN ANALYZE as
  /// an API): returns the query's normal results while `stats->spans` gets
  /// one entry per executed operator. Used by the Gremlin runtime to
  /// attribute operator stats back to pipes.
  util::Result<sql::ResultSet> ExecuteAnalyze(const sql::SqlQuery& query,
                                              sql::ExecStats* stats);

  /// Renders EXPLAIN ANALYZE spans as a result set
  /// (stage | operator | rows | time_ms).
  static sql::ResultSet SpansToResultSet(
      const std::vector<obs::TraceSpan>& spans);

  /// Compiles SQL text (with `?` / `:name` bind parameters) through the
  /// store's plan cache into a reusable statement.
  util::Result<sql::PreparedQueryPtr> Prepare(std::string_view text) const;
  /// Executes a prepared statement with bind values. A handle compiled under
  /// an older schema epoch is transparently re-prepared.
  util::Result<sql::ResultSet> ExecutePrepared(
      const sql::PreparedQuery& prepared, const sql::ParamBindings& params,
      sql::ExecStats* stats = nullptr) const;

  /// Execution statistics of the most recent Execute/ExecuteSql/
  /// ExecutePrepared call. Returned by value (copied under a mutex) so
  /// concurrent queries cannot tear the snapshot; prefer the per-call
  /// `stats` out-parameters when racing queries need attribution.
  sql::ExecStats last_exec_stats() const;

  /// Monotonic DDL-equivalent event counter: bumped when adjacency storage
  /// changes shape (single→list conversion, new label triad, spill row) and
  /// by Compact(). Cached plans from older epochs re-prepare on next use.
  uint64_t schema_epoch() const {
    return schema_epoch_.load(std::memory_order_acquire);
  }
  /// The shared plan cache (for inspection in tests and benchmarks).
  const sql::PlanCache& plan_cache() const { return plan_cache_; }

  // -------------------------------------------------------- maintenance --
  /// Offline cleanup: physically removes soft-deleted rows, their OSA/ISA
  /// lists, and dangling adjacency entries that point at deleted vertices.
  util::Status Compact();

  /// Cross-table invariant audit (src/sqlgraph/check.cc): verifies EA ↔
  /// OPA/OSA/IPA/ISA agreement, overflow-list linkage, coloring/SPILL
  /// consistency, soft-delete hygiene, JSON well-formedness and counter
  /// monotonicity. Shared-locks all tables for the duration, so the report
  /// is a consistent cut of a quiesced store; a store with CRUD calls in
  /// flight may show transient violations from multi-lock procedures.
  ConsistencyReport CheckConsistency() const;

  // --------------------------------------------------------- durability --
  /// True when a WAL writer is attached (config().durability_dir was set
  /// and the store came through wal::OpenDurableStore / BuildDurableStore).
  bool durable() const { return wal_writer_ != nullptr; }
  /// Checkpoint coordinator (implemented in wal/durability.cc): quiesces
  /// committers, snapshots the store next to the log, rotates to a fresh
  /// segment and prunes everything the snapshot covers. Skips the snapshot
  /// when nothing mutated since the last checkpoint. InvalidArgument on a
  /// non-durable store.
  util::Status Checkpoint();
  /// WAL counters plus recovery/checkpoint statistics (all zero when the
  /// store is not durable). Safe to call concurrently with committers.
  wal::WalStats wal_stats() const;

  rel::Database* db() { return &db_; }
  const rel::Database* db() const { return &db_; }
  const GraphSchema& schema() const { return schema_; }
  const LoadStats& load_stats() const { return load_stats_; }
  const StoreConfig& config() const { return config_; }

  /// Serialized footprint of all tables ("size on disk").
  size_t SerializedBytes() const { return db_.TotalSerializedBytes(); }

 private:
  friend util::Status SaveSnapshot(const SqlGraphStore& store,
                                   const std::string& path);
  friend util::Result<std::unique_ptr<SqlGraphStore>> OpenSnapshot(
      const std::string& path, StoreConfig config);
  friend struct wal::StoreWalAccess;
  friend class Txn;  // txn.cc drives the Apply*Locked/MVCC machinery below

  explicit SqlGraphStore(StoreConfig config)
      : config_(std::move(config)), db_(config_.buffer_pool_bytes) {
    // Rank the table locks (raw array; no ctor forwarding). The TableIdx
    // value is the same-rank sub-order, matching the ascending acquisition
    // order of ReadLockAll/WriteLock.
    static constexpr const char* kTableLockNames[kNumTables] = {
        "table_opa", "table_ipa", "table_osa", "table_isa",
        "table_va",  "table_ea"};
    for (int i = 0; i < kNumTables; ++i) {
      table_locks_[i].SetRank(util::LockRank::kStoreTable, kTableLockNames[i],
                              i);
    }
  }

  // Compact's table work, shared by the public call and WAL replay.
  // Caller holds exclusive locks on all six tables. `version_ts` tags
  // before-images for MVCC snapshot readers (0 = no recording).
  util::Status CompactLocked(uint64_t version_ts);

  // Adjacency maintenance shared by add/remove edge. Caller holds locks.
  util::Status AddAdjacencyEntry(bool outgoing, VertexId vid,
                                 const std::string& label, EdgeId eid,
                                 VertexId nbr, uint64_t version_ts);
  util::Status RemoveAdjacencyEntry(bool outgoing, VertexId vid,
                                    const std::string& label, EdgeId eid,
                                    uint64_t version_ts);
  util::Status NegateAdjacencyRows(bool outgoing, VertexId vid,
                                   uint64_t version_ts);

  // Lock helpers. Table order: OPA, IPA, OSA, ISA, VA, EA. Defined here
  // (constructors in store.cc) so txn.cc can take the same locks.
  enum TableIdx { kOpa = 0, kIpa, kOsa, kIsa, kVa, kEa, kNumTables };

  /// Shared lock over every table, for whole-query execution.
  class ReadLockAll {
   public:
    explicit ReadLockAll(const SqlGraphStore* store);

   private:
    std::shared_lock<util::SharedMutex> locks_[kNumTables];
  };

  /// Mixed-mode lock over a subset of tables, acquired in fixed table order
  /// (deadlock freedom). Requests must name distinct tables — the same
  /// mutex must not appear twice.
  class WriteLock {
   public:
    struct Req {
      TableIdx table;
      bool exclusive;
    };
    WriteLock(const SqlGraphStore* store, std::vector<Req> reqs);
    /// Releases every table lock before the end of the scope.
    void Release() {
      exclusive_.clear();
      shared_.clear();
    }

   private:
    // Note: vectors keep acquisition order; both kinds interleave correctly
    // because reqs were sorted before acquisition.
    std::vector<std::unique_lock<util::SharedMutex>> exclusive_;
    std::vector<std::shared_lock<util::SharedMutex>> shared_;
  };

  /// Held (shared) across a whole CRUD mutation — table work plus WAL
  /// append — so Checkpoint (exclusive) can never observe a commit whose
  /// rows are in the snapshot but whose record lands in the post-snapshot
  /// log segment. Acquired before any table lock; Checkpoint follows the
  /// same order, so the lock hierarchy stays acyclic.
  class SCOPED_CAPABILITY CommitGuard {
   public:
    explicit CommitGuard(const SqlGraphStore* store)
        ACQUIRE_SHARED(store->wal_rotate_mu_);
    ~CommitGuard() RELEASE() {}

   private:
    std::shared_lock<util::SharedMutex> lock_;
  };

  rel::Table* TableAt(TableIdx t);

  // ---- MVCC internals (DESIGN.md §12) -----------------------------------
  // The table bodies of every CRUD mutation, factored out so the autocommit
  // paths, WAL replay, and Txn::Commit share one implementation. Callers
  // hold the locks listed per method; `version_ts` tags before-images.
  //
  //   ApplyAddVertexLocked        VA excl
  //   ApplySetVertexAttrLocked    VA excl
  //   ApplyRemoveVertexAttrLocked VA excl
  //   ApplyRemoveVertexLocked     VA+OPA+IPA+EA excl
  //   ApplyAddEdgeLocked          VA shared, EA+OPA+OSA+IPA+ISA excl
  //   ApplySetEdgeAttrLocked      EA excl
  //   ApplyRemoveEdgeAttrLocked   EA excl
  //   ApplyRemoveEdgeLocked       EA+OPA+OSA+IPA+ISA excl
  util::Status ApplyAddVertexLocked(int64_t vid, json::JsonValue attrs,
                                    uint64_t version_ts);
  util::Status ApplySetVertexAttrLocked(int64_t vid, const std::string& key,
                                        json::JsonValue value,
                                        uint64_t version_ts);
  util::Status ApplyRemoveVertexAttrLocked(int64_t vid, const std::string& key,
                                           uint64_t version_ts);
  // Appends the eids of the deleted incident edges to `removed_eids`.
  util::Status ApplyRemoveVertexLocked(int64_t vid, uint64_t version_ts,
                                       std::vector<int64_t>* removed_eids);
  util::Status ApplyAddEdgeLocked(int64_t eid, int64_t src, int64_t dst,
                                  const std::string& label,
                                  json::JsonValue attrs, uint64_t version_ts);
  util::Status ApplySetEdgeAttrLocked(int64_t eid, const std::string& key,
                                      json::JsonValue value,
                                      uint64_t version_ts);
  util::Status ApplyRemoveEdgeAttrLocked(int64_t eid, const std::string& key,
                                         uint64_t version_ts);
  util::Status ApplyRemoveEdgeLocked(int64_t eid, uint64_t version_ts);

  // Conflict-map keys: one entity per vertex/edge. AddEdge writes both
  // endpoint entities (it depends on them existing and bumps their
  // adjacency), so entity-level first-committer-wins is conservative but
  // never misses a true write conflict.
  static uint64_t VertexEntity(int64_t vid) {
    return static_cast<uint64_t>(vid) << 1;
  }
  static uint64_t EdgeEntity(int64_t eid) {
    return (static_cast<uint64_t>(eid) << 1) | 1;
  }

  /// Called inside a mutation's exclusive-lock section: returns 0 (skip
  /// version recording) when no transaction is active, else allocates the
  /// mutation's commit timestamp. The seq_cst pairing with RegisterTxnRead
  /// guarantees that a mutation which skips recording is fully applied
  /// before any snapshot that could need its before-image takes read_ts.
  uint64_t AllocVersionTs();
  /// Records `entities` in the conflict map at `version_ts` (when non-zero)
  /// and trims version logs of the exclusively-held `tables` up to the
  /// oldest active snapshot (everything, when none is active).
  void PublishAndTrimLocked(const std::vector<uint64_t>& entities,
                            uint64_t version_ts,
                            const std::vector<TableIdx>& tables);
  /// Rolls back the before-images a failed mutation recorded at
  /// `version_ts` on the exclusively-held `tables`, then returns `st` (or
  /// Internal if the revert itself failed and the store is inconsistent).
  util::Status UnwindLocked(util::Status st, uint64_t version_ts,
                            const std::vector<TableIdx>& tables);
  /// Begin/end of a snapshot: registers the pinned read timestamp so
  /// version-log GC and conflict-map GC know the oldest live snapshot.
  uint64_t RegisterTxnRead();
  void DeregisterTxnRead(uint64_t read_ts);

  /// Deliberately buggy watermark read used only under
  /// SQLGRAPH_SCHED_SELFTEST=race (sched.h mutation self-test): reads the
  /// snapshot registry without txn_mu_, which the happens-before checker
  /// must report. Analysis suppressed because the race is the point.
  uint64_t SelfTestRacyWatermark() const NO_THREAD_SAFETY_ANALYSIS {
    const auto& ts = active_read_ts_.Read();
    return ts.empty() ? ~uint64_t{0} : *ts.begin();
  }

  // Snapshot point reads used by Txn (read_ts = 0 reads live data).
  util::Result<json::JsonValue> GetVertexAt(int64_t vid,
                                            uint64_t read_ts) const;
  util::Result<EdgeRecord> GetEdgeAt(int64_t eid, uint64_t read_ts) const;
  util::Result<std::vector<EdgeRecord>> GetOutEdgesAt(VertexId src,
                                                      const std::string& label,
                                                      uint64_t read_ts) const;
  util::Result<std::vector<EdgeRecord>> GetInEdgesAt(VertexId dst,
                                                     const std::string& label,
                                                     uint64_t read_ts) const;
  /// NotFound unless `vid` is a live vertex. The adjacency reads probe VA
  /// this way only when their EA result is empty, so a deleted or absent
  /// vertex answers NotFound (as GetVertex and baseline::NativeStore do)
  /// while a read that found edges costs nothing extra.
  util::Status CheckVertexExists(VertexId vid) const;
  util::Result<sql::ResultSet> ExecuteSqlInternal(std::string_view text,
                                                  uint64_t read_ts,
                                                  sql::ExecStats* stats);

  /// Executes one of the fixed adjacency templates (the §3.5 combined-index
  /// fast path) with the given binds; the template text is compiled through
  /// plan_cache_, once per schema epoch. Caller holds the table locks the
  /// template's SQL needs (templates read only EA, except the vertex lookup,
  /// which reads VA). Does not update last_stats_ — adjacency calls are the
  /// hot path and never carried stats before. A non-zero `read_ts` pins the
  /// execution to that MVCC snapshot.
  util::Result<sql::ResultSet> RunTemplate(const char* text,
                                           sql::ParamBindings params,
                                           uint64_t read_ts = 0) const;
  void BumpSchemaEpoch() {
    schema_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Shared-locked by every CRUD mutation around its table work plus WAL
  // append; exclusively locked by Checkpoint so no commit can straddle the
  // snapshot/rotate boundary (which would double-apply on replay).
  class CommitGuard;
  /// Two-phase WAL append (no-ops on a non-durable store; *ticket = 0).
  /// LogWalEnqueue fixes the record's position in the log and MUST be
  /// called while still holding the exclusive lock of the table that
  /// serializes the mutation against its conflicts (VA for vertex records,
  /// EA for edge records, all tables for Compact): that makes the log
  /// order of conflicting commits match their apply order, so replay
  /// reconstructs the acknowledged state. LogWalWait blocks until the
  /// record is durable per the sync mode and is called after the table
  /// lock is released, letting concurrent committers share one fsync.
  /// Both run under wal_rotate_mu_ shared (via CommitGuard), so a
  /// checkpoint can never rotate the log between the two halves.
  util::Status LogWalEnqueue(const wal::Record& rec, uint64_t* ticket)
      REQUIRES_SHARED(wal_rotate_mu_);
  util::Status LogWalWait(uint64_t ticket) REQUIRES_SHARED(wal_rotate_mu_);
  /// Re-applies one WAL record during recovery; the ids inside the record
  /// are authoritative and the id counters advance past them. Only called
  /// by the recovery path before a writer is attached.
  util::Status ApplyWalRecord(const wal::Record& rec);

  StoreConfig config_;
  rel::Database db_;
  GraphSchema schema_;
  LoadStats load_stats_;
  // Id counters, guarded by counter_lock_. counter_lock_ ranks *above* the
  // table locks: AddAdjacencyEntry allocates spill lids while already
  // holding EA/OPA exclusively, so counters must always be acquirable under
  // table locks (standalone allocations in AddVertex/AddEdge release it
  // before touching a table lock, which the hierarchy also permits).
  int64_t next_vertex_id_ GUARDED_BY(counter_lock_) = 0;
  int64_t next_edge_id_ GUARDED_BY(counter_lock_) = 0;
  int64_t next_lid_ GUARDED_BY(counter_lock_) = kLidBase;
  // Acquired in ascending TableIdx order (ReadLockAll/WriteLock sort), which
  // the per-table sub-order encodes; ranked in the SqlGraphStore ctor
  // because a raw array cannot forward constructor arguments.
  mutable util::SharedMutex table_locks_[kNumTables];
  mutable util::SharedMutex counter_lock_{util::LockRank::kStoreCounter,
                                          "store_counter"};
  mutable sql::PlanCache plan_cache_{256};
  std::atomic<uint64_t> schema_epoch_{0};
  mutable util::Mutex stats_mu_{util::LockRank::kStoreStats, "store_stats"};
  mutable sql::ExecStats last_stats_ GUARDED_BY(stats_mu_);

  // ---- MVCC transaction state (DESIGN.md §12) ---------------------------
  // Last assigned commit timestamp. Starts at 1 (the bulk load is "commit
  // 1") so a snapshot's read_ts is always non-zero — executor Options treat
  // read_ts == 0 as "live". Advanced only while a transaction is active
  // (AllocVersionTs) so the idle store pays nothing. SharedAtomic so the
  // schedule explorer (util/sched.h) sees every access as a scheduling
  // point; identical to std::atomic when no explorer is active.
  util::sched::SharedAtomic<uint64_t> commit_ts_{1, "store.commit_ts"};
  // Open-transaction count; the gate mutations consult (seq_cst, paired
  // with RegisterTxnRead) to decide whether to record before-images.
  std::atomic<uint32_t> active_txns_{0};
  // Guards the snapshot registry and the first-committer-wins conflict map.
  // Ranks above the table locks (commit validates/publishes while holding
  // them) and below kWalWriter; never held across table or WAL work.
  mutable util::Mutex txn_mu_{util::LockRank::kTxnManager, "txn_manager"};
  // Pinned read timestamps of open transactions (multiset: concurrent
  // Begins can share a timestamp). Min element = version-log GC watermark.
  // SharedVar: schedule-explorer scheduling point + happens-before race
  // checking on every access (zero cost when no explorer is active).
  util::sched::SharedVar<std::multiset<uint64_t>> active_read_ts_
      GUARDED_BY(txn_mu_){"store.active_read_ts"};
  // entity → commit timestamp of its last committed write while any
  // transaction was active; cleared when the last transaction ends.
  std::unordered_map<uint64_t, uint64_t> entity_commit_ts_
      GUARDED_BY(txn_mu_);
  std::atomic<uint64_t> txns_begun_{0};
  std::atomic<uint64_t> txns_committed_{0};
  std::atomic<uint64_t> txns_aborted_{0};
  std::atomic<uint64_t> txn_conflicts_{0};

  // Durability binding, attached via wal::StoreWalAccess when
  // config_.durability_dir is set. wal_rotate_mu_ orders commits against
  // checkpoints and guards the binding fields themselves. It is the
  // outermost store lock (rank below every table lock): CommitGuard takes
  // it shared before the serializing table lock, and Checkpoint holds it
  // exclusive while taking table locks and syncing the writer.
  mutable util::SharedMutex wal_rotate_mu_{util::LockRank::kWalRotate,
                                           "wal_rotate"};
  std::shared_ptr<wal::LogWriter> wal_writer_ GUARDED_BY(wal_rotate_mu_);
  // Segment bookkeeping below is written under wal_rotate_mu_ exclusive.
  uint64_t wal_segment_ GUARDED_BY(wal_rotate_mu_) = 0;
  uint64_t wal_checkpoint_mutations_ GUARDED_BY(wal_rotate_mu_) = 0;
  wal::WalStats wal_recovery_stats_ GUARDED_BY(wal_rotate_mu_);
};

}  // namespace core
}  // namespace sqlgraph

#endif  // SQLGRAPH_SQLGRAPH_STORE_H_
