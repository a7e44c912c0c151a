#include "sqlgraph/store.h"

#include <algorithm>
#include <cctype>
#include <unordered_set>

#include "json/json_parser.h"
#include "obs/metrics.h"
#include "wal/log_writer.h"

namespace sqlgraph {
namespace core {

using rel::Row;
using rel::RowId;
using rel::Value;
using util::Result;
using util::Status;

namespace {
// Column offsets in OPA/IPA rows.
constexpr size_t kVidCol = 0;
constexpr size_t kSpillCol = 1;
size_t EidColIdx(size_t c) { return 2 + 3 * c; }
size_t LblColIdx(size_t c) { return 3 + 3 * c; }
size_t ValColIdx(size_t c) { return 4 + 3 * c; }

// EA column offsets.
constexpr size_t kEaEid = 0;
constexpr size_t kEaInv = 1;
constexpr size_t kEaOutv = 2;
constexpr size_t kEaLbl = 3;
constexpr size_t kEaAttr = 4;
}  // namespace

// ------------------------------------------------------------------ locks --

namespace {
/// Blocking lock acquisition with contended-path wait accounting. The
/// uncontended try_lock succeeds without touching the clock or the registry,
/// so the instrumentation is free exactly where the hot path is; only actual
/// waiters pay two clock reads plus two sharded counter updates.
/// Contended-path wait metrics, resolved once. Warmed eagerly when a store
/// is built (see SqlGraphStore::Build) instead of lazily on first
/// contention: the registry lookups run under the instrumented registry
/// mutex, so a function-local static initializing mid-schedule would give
/// the first contended schedule once-per-process extra scheduling points,
/// making it irreproducible under the schedule explorer (util/sched.h).
struct LockWaitMetrics {
  obs::Counter* waits;
  obs::Histogram* wait_ns;
};
const LockWaitMetrics& GetLockWaitMetrics() {
  static const LockWaitMetrics m{
      obs::MetricsRegistry::Default().GetCounter("store.lock.waits"),
      obs::MetricsRegistry::Default().GetHistogram("store.lock.wait_ns")};
  return m;
}

template <typename Lock>
void AcquireTimed(Lock* lock) {
  if (lock->try_lock()) return;
  if (!obs::MetricsEnabled()) {
    lock->lock();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  lock->lock();
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  const LockWaitMetrics& m = GetLockWaitMetrics();
  m.waits->Increment();
  m.wait_ns->Record(ns);
}
}  // namespace

SqlGraphStore::ReadLockAll::ReadLockAll(const SqlGraphStore* store) {
  for (int i = 0; i < kNumTables; ++i) {
    locks_[i] = std::shared_lock<util::SharedMutex>(store->table_locks_[i],
                                                    std::defer_lock);
    AcquireTimed(&locks_[i]);
  }
}

SqlGraphStore::WriteLock::WriteLock(const SqlGraphStore* store,
                                    std::vector<Req> reqs) {
  std::sort(reqs.begin(), reqs.end(),
            [](const Req& a, const Req& b) { return a.table < b.table; });
  for (const Req& r : reqs) {
    if (r.exclusive) {
      exclusive_.emplace_back(store->table_locks_[r.table], std::defer_lock);
      AcquireTimed(&exclusive_.back());
    } else {
      shared_.emplace_back(store->table_locks_[r.table], std::defer_lock);
      AcquireTimed(&shared_.back());
    }
  }
}

SqlGraphStore::CommitGuard::CommitGuard(const SqlGraphStore* store)
    : lock_(store->wal_rotate_mu_, std::defer_lock) {
  AcquireTimed(&lock_);
}

util::Status SqlGraphStore::LogWalEnqueue(const wal::Record& rec,
                                          uint64_t* ticket) {
  *ticket = 0;
  if (wal_writer_ == nullptr) return Status::OK();
  ASSIGN_OR_RETURN(*ticket, wal_writer_->Enqueue(rec));
  return Status::OK();
}

util::Status SqlGraphStore::LogWalWait(uint64_t ticket) {
  if (ticket == 0 || wal_writer_ == nullptr) return Status::OK();
  return wal_writer_->WaitDurable(ticket);
}

// ------------------------------------------------------------------- mvcc --

rel::Table* SqlGraphStore::TableAt(TableIdx t) {
  switch (t) {
    case kOpa: return db_.GetTable(kOpaTable);
    case kIpa: return db_.GetTable(kIpaTable);
    case kOsa: return db_.GetTable(kOsaTable);
    case kIsa: return db_.GetTable(kIsaTable);
    case kVa: return db_.GetTable(kVaTable);
    case kEa: return db_.GetTable(kEaTable);
    default: return nullptr;
  }
}

uint64_t SqlGraphStore::AllocVersionTs() {
  // seq_cst pairing with RegisterTxnRead: if this load sees 0, every
  // concurrent Begin's increment is ordered after it, so that Begin reads a
  // read_ts >= any timestamp this mutation could have taken — the mutation
  // is (or will be, before the snapshot's first lock acquisition succeeds)
  // fully visible to the snapshot, and no before-image is needed.
  if (active_txns_.load(std::memory_order_seq_cst) == 0) return 0;
  return commit_ts_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

void SqlGraphStore::PublishAndTrimLocked(
    const std::vector<uint64_t>& entities, uint64_t version_ts,
    const std::vector<TableIdx>& tables) {
  uint64_t watermark = ~uint64_t{0};
  if (version_ts != 0) {
    if (util::sched::SelfTestMode() == util::sched::SelfTest::kRace) {
      // Injected bug (mutation self-test): the watermark read happens
      // after txn_mu_ is dropped, racing Register/DeregisterTxnRead.
      {
        util::MutexLock guard(&txn_mu_);
        for (uint64_t e : entities) entity_commit_ts_[e] = version_ts;
      }
      watermark = SelfTestRacyWatermark();
    } else {
      util::MutexLock guard(&txn_mu_);
      for (uint64_t e : entities) entity_commit_ts_[e] = version_ts;
      const auto& ts = active_read_ts_.Read();
      if (!ts.empty()) watermark = *ts.begin();
    }
  }
  // With no registered snapshot the before-images are unreachable (any
  // later Begin pins a read_ts at or past every recorded timestamp), so the
  // max watermark drops them all.
  for (TableIdx t : tables) TableAt(t)->TrimVersions(watermark);
}

util::Status SqlGraphStore::UnwindLocked(
    util::Status st, uint64_t version_ts,
    const std::vector<TableIdx>& tables) {
  if (version_ts != 0) {
    for (TableIdx t : tables) {
      Status revert = TableAt(t)->RevertVersionsAt(version_ts);
      if (!revert.ok()) {
        return Status::Internal("mvcc unwind failed (" + revert.message() +
                                ") after: " + st.message());
      }
    }
  }
  return st;
}

uint64_t SqlGraphStore::RegisterTxnRead() {
  util::MutexLock guard(&txn_mu_);
  // Increment-then-read under txn_mu_ keeps the count, the pinned
  // timestamp, and the registry entry atomic with respect to committers,
  // which read the registry under the same mutex.
  active_txns_.fetch_add(1, std::memory_order_seq_cst);
  const uint64_t read_ts = commit_ts_.load(std::memory_order_seq_cst);
  active_read_ts_.Write().insert(read_ts);
  txns_begun_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    static obs::Counter* begun =
        obs::MetricsRegistry::Default().GetCounter("txn.begun");
    static obs::Gauge* active =
        obs::MetricsRegistry::Default().GetGauge("txn.active");
    begun->Increment();
    active->Add(1);
  }
  return read_ts;
}

void SqlGraphStore::DeregisterTxnRead(uint64_t read_ts) {
  util::MutexLock guard(&txn_mu_);
  auto& ts = active_read_ts_.Write();
  auto it = ts.find(read_ts);
  if (it != ts.end()) ts.erase(it);
  // The conflict map only has to outlive the snapshots that could still
  // lose to its entries.
  if (ts.empty()) entity_commit_ts_.clear();
  active_txns_.fetch_sub(1, std::memory_order_seq_cst);
  if (obs::MetricsEnabled()) {
    static obs::Gauge* active =
        obs::MetricsRegistry::Default().GetGauge("txn.active");
    active->Add(-1);
  }
}

TxnStats SqlGraphStore::txn_stats() const {
  TxnStats s;
  s.begun = txns_begun_.load(std::memory_order_relaxed);
  s.committed = txns_committed_.load(std::memory_order_relaxed);
  s.aborted = txns_aborted_.load(std::memory_order_relaxed);
  s.conflicts = txn_conflicts_.load(std::memory_order_relaxed);
  s.active = active_txns_.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------------------------------------------ build --

Result<std::unique_ptr<SqlGraphStore>> SqlGraphStore::Build(
    const graph::PropertyGraph& graph, StoreConfig config) {
  auto store = std::unique_ptr<SqlGraphStore>(new SqlGraphStore(config));
  // Single-threaded here; see GetLockWaitMetrics for why lazy-on-contention
  // is not an option.
  GetLockWaitMetrics();
  store->schema_ = AnalyzeGraph(graph, config);
  ASSIGN_OR_RETURN(store->load_stats_,
                   BulkLoad(graph, store->schema_, config, &store->db_,
                            &store->next_lid_));
  store->next_vertex_id_ = static_cast<int64_t>(graph.NumVertices());
  store->next_edge_id_ = static_cast<int64_t>(graph.NumEdges());
  return store;
}

// --------------------------------------------------------------- vertices --

Status SqlGraphStore::ApplyAddVertexLocked(int64_t vid, json::JsonValue attrs,
                                           uint64_t version_ts) {
  return db_.GetTable(kVaTable)
      ->Insert({Value(vid), Value(std::move(attrs))}, version_ts)
      .status();
}

Result<VertexId> SqlGraphStore::AddVertex(json::JsonValue attrs) {
  CommitGuard commit(this);
  int64_t vid;
  {
    util::WriterMutexLock counter(&counter_lock_);
    vid = next_vertex_id_++;
  }
  if (!attrs.is_object()) attrs = json::JsonValue::Object();
  wal::Record rec;
  if (durable()) {
    rec.type = wal::RecordType::kAddVertex;
    rec.id = vid;
    rec.json = json::Write(attrs);
  }
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kVa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st = ApplyAddVertexLocked(vid, std::move(attrs), vts);
    if (!st.ok()) return UnwindLocked(std::move(st), vts, {kVa});
    PublishAndTrimLocked({VertexEntity(vid)}, vts, {kVa});
    // Enqueued at the VA serialization point (see LogWalEnqueue); the
    // durability wait happens after the lock so committers can batch.
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  RETURN_NOT_OK(LogWalWait(ticket));
  return static_cast<VertexId>(vid);
}

Result<json::JsonValue> SqlGraphStore::GetVertex(VertexId vid) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kVa, false}});
  const rel::Table* va = db_.GetTable(kVaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   va->LookupEq({0}, {{Value(static_cast<int64_t>(vid))}}));
  if (rids.empty()) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  Row row;
  RETURN_NOT_OK(va->Get(rids[0], &row));
  return row[1].is_json() ? row[1].AsJson() : json::JsonValue::Object();
}

Status SqlGraphStore::ApplySetVertexAttrLocked(int64_t vid,
                                               const std::string& key,
                                               json::JsonValue value,
                                               uint64_t version_ts) {
  rel::Table* va = db_.GetTable(kVaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   va->LookupEq({0}, {{Value(vid)}}));
  if (rids.empty()) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  Row row;
  RETURN_NOT_OK(va->Get(rids[0], &row));
  json::JsonValue attrs =
      row[1].is_json() ? row[1].AsJson() : json::JsonValue::Object();
  attrs.Set(key, std::move(value));
  return va->Update(rids[0], {row[0], Value(std::move(attrs))}, version_ts);
}

Status SqlGraphStore::SetVertexAttr(VertexId vid, const std::string& key,
                                    json::JsonValue value) {
  CommitGuard commit(this);
  wal::Record rec;
  if (durable()) {
    rec.type = wal::RecordType::kSetVertexAttr;
    rec.id = static_cast<int64_t>(vid);
    rec.label = key;
    rec.json = json::Write(value);
  }
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kVa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st = ApplySetVertexAttrLocked(static_cast<int64_t>(vid), key,
                                         std::move(value), vts);
    if (!st.ok()) return UnwindLocked(std::move(st), vts, {kVa});
    PublishAndTrimLocked({VertexEntity(static_cast<int64_t>(vid))}, vts,
                         {kVa});
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Status SqlGraphStore::ApplyRemoveVertexAttrLocked(int64_t vid,
                                                  const std::string& key,
                                                  uint64_t version_ts) {
  rel::Table* va = db_.GetTable(kVaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   va->LookupEq({0}, {{Value(vid)}}));
  if (rids.empty()) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  Row row;
  RETURN_NOT_OK(va->Get(rids[0], &row));
  json::JsonValue attrs =
      row[1].is_json() ? row[1].AsJson() : json::JsonValue::Object();
  attrs.Erase(key);
  return va->Update(rids[0], {row[0], Value(std::move(attrs))}, version_ts);
}

Status SqlGraphStore::RemoveVertexAttr(VertexId vid, const std::string& key) {
  CommitGuard commit(this);
  wal::Record rec;
  rec.type = wal::RecordType::kRemoveVertexAttr;
  rec.id = static_cast<int64_t>(vid);
  rec.label = key;
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kVa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st =
        ApplyRemoveVertexAttrLocked(static_cast<int64_t>(vid), key, vts);
    if (!st.ok()) return UnwindLocked(std::move(st), vts, {kVa});
    PublishAndTrimLocked({VertexEntity(static_cast<int64_t>(vid))}, vts,
                         {kVa});
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Status SqlGraphStore::NegateAdjacencyRows(bool outgoing, VertexId vid,
                                          uint64_t version_ts) {
  rel::Table* primary = db_.GetTable(outgoing ? kOpaTable : kIpaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   primary->LookupEq({0}, {{Value(static_cast<int64_t>(vid))}}));
  for (RowId rid : rids) {
    Row row;
    RETURN_NOT_OK(primary->Get(rid, &row));
    row[kVidCol] = Value(-static_cast<int64_t>(vid) - 1);
    RETURN_NOT_OK(primary->Update(rid, std::move(row), version_ts));
  }
  return Status::OK();
}

Status SqlGraphStore::ApplyRemoveVertexLocked(
    int64_t vid, uint64_t version_ts, std::vector<int64_t>* removed_eids) {
  rel::Table* va = db_.GetTable(kVaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   va->LookupEq({0}, {{Value(vid)}}));
  if (rids.empty()) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  // Soft delete: VID → -VID-1 keeps the cross-table relationship of the
  // deleted rows intact (§4.5.2) while the VID >= 0 guards hide them.
  Row row;
  RETURN_NOT_OK(va->Get(rids[0], &row));
  row[0] = Value(-vid - 1);
  RETURN_NOT_OK(va->Update(rids[0], std::move(row), version_ts));
  RETURN_NOT_OK(NegateAdjacencyRows(/*outgoing=*/true,
                                    static_cast<VertexId>(vid), version_ts));
  RETURN_NOT_OK(NegateAdjacencyRows(/*outgoing=*/false,
                                    static_cast<VertexId>(vid), version_ts));
  // EA rows of incident edges are removed outright.
  rel::Table* ea = db_.GetTable(kEaTable);
  for (int col : {1, 2}) {  // INV, OUTV
    ASSIGN_OR_RETURN(std::vector<RowId> edge_rids,
                     ea->LookupEq({col}, {{Value(vid)}}));
    for (RowId rid : edge_rids) {
      Row edge_row;
      RETURN_NOT_OK(ea->Get(rid, &edge_row));
      removed_eids->push_back(edge_row[kEaEid].AsInt());
      RETURN_NOT_OK(ea->Delete(rid, version_ts));
    }
  }
  return Status::OK();
}

Status SqlGraphStore::RemoveVertex(VertexId vid) {
  CommitGuard commit(this);
  wal::Record rec;
  rec.type = wal::RecordType::kRemoveVertex;
  rec.id = static_cast<int64_t>(vid);
  uint64_t ticket = 0;
  {
    // One exclusive section over every touched table: the negated VA row,
    // the negated adjacency rows, and the EA cleanup become visible (and
    // versioned) atomically — no reader or snapshot can observe a
    // half-removed vertex.
    WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kVa, true},
                          {kEa, true}});
    const uint64_t vts = AllocVersionTs();
    std::vector<int64_t> removed_eids;
    Status st = ApplyRemoveVertexLocked(static_cast<int64_t>(vid), vts,
                                        &removed_eids);
    if (!st.ok()) {
      return UnwindLocked(std::move(st), vts, {kOpa, kIpa, kVa, kEa});
    }
    std::vector<uint64_t> entities = {
        VertexEntity(static_cast<int64_t>(vid))};
    for (int64_t eid : removed_eids) entities.push_back(EdgeEntity(eid));
    PublishAndTrimLocked(entities, vts, {kOpa, kIpa, kVa, kEa});
    // Enqueued while all touched tables are still locked, so the log order
    // of conflicting commits matches their apply order.
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

// ------------------------------------------------------------------ edges --

Status SqlGraphStore::AddAdjacencyEntry(bool outgoing, VertexId vid,
                                        const std::string& label, EdgeId eid,
                                        VertexId nbr, uint64_t version_ts) {
  rel::Table* primary = db_.GetTable(outgoing ? kOpaTable : kIpaTable);
  rel::Table* secondary = db_.GetTable(outgoing ? kOsaTable : kIsaTable);
  const coloring::ColoredHash& hash =
      outgoing ? schema_.out_hash : schema_.in_hash;
  const size_t colors = outgoing ? schema_.out_colors : schema_.in_colors;
  const size_t c = hash.ColorOf(label) % colors;

  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   primary->LookupEq({0}, {{Value(static_cast<int64_t>(vid))}}));
  Row row;
  // Pass 1: a row already holding this label in its triad.
  for (RowId rid : rids) {
    RETURN_NOT_OK(primary->Get(rid, &row));
    const Value& lbl = row[LblColIdx(c)];
    if (lbl.is_null() || lbl.AsString() != label) continue;
    const Value val = row[ValColIdx(c)];
    if (!val.is_null() && val.AsInt() >= kLidBase) {
      // Already multi-valued: append to the secondary list.
      return secondary
          ->Insert({val, Value(static_cast<int64_t>(eid)),
                    Value(static_cast<int64_t>(nbr))},
                   version_ts)
          .status();
    }
    // Single-valued → convert to a list: a DDL-equivalent reshaping of the
    // adjacency storage, so cached plans must revalidate.
    int64_t lid;
    {
      util::WriterMutexLock counter(&counter_lock_);
      lid = next_lid_++;
    }
    RETURN_NOT_OK(secondary
                      ->Insert({Value(lid), row[EidColIdx(c)], val},
                               version_ts)
                      .status());
    RETURN_NOT_OK(secondary
                      ->Insert({Value(lid), Value(static_cast<int64_t>(eid)),
                                Value(static_cast<int64_t>(nbr))},
                               version_ts)
                      .status());
    row[EidColIdx(c)] = Value::Null();
    row[ValColIdx(c)] = Value(lid);
    BumpSchemaEpoch();
    return primary->Update(rid, std::move(row), version_ts);
  }
  // Pass 2: a row with a free triad at column c (a label this vertex never
  // carried before occupies a fresh triad — another shape change).
  for (RowId rid : rids) {
    RETURN_NOT_OK(primary->Get(rid, &row));
    if (!row[LblColIdx(c)].is_null()) continue;
    row[EidColIdx(c)] = Value(static_cast<int64_t>(eid));
    row[LblColIdx(c)] = Value(label);
    row[ValColIdx(c)] = Value(static_cast<int64_t>(nbr));
    BumpSchemaEpoch();
    return primary->Update(rid, std::move(row), version_ts);
  }
  // Pass 3: hash conflict (or first row): spill to a new row. Only an
  // actual spill is DDL-equivalent; the first row of a fresh vertex is a
  // plain insert.
  const bool spilling = !rids.empty();
  if (spilling) {
    for (RowId rid : rids) {
      RETURN_NOT_OK(primary->Get(rid, &row));
      if (row[kSpillCol].AsInt() != 1) {
        row[kSpillCol] = Value(int64_t{1});
        RETURN_NOT_OK(primary->Update(rid, std::move(row), version_ts));
      }
    }
    BumpSchemaEpoch();
  }
  Row fresh(2 + 3 * colors, Value::Null());
  fresh[kVidCol] = Value(static_cast<int64_t>(vid));
  fresh[kSpillCol] = Value(spilling ? int64_t{1} : int64_t{0});
  fresh[EidColIdx(c)] = Value(static_cast<int64_t>(eid));
  fresh[LblColIdx(c)] = Value(label);
  fresh[ValColIdx(c)] = Value(static_cast<int64_t>(nbr));
  return primary->Insert(std::move(fresh), version_ts).status();
}

Status SqlGraphStore::RemoveAdjacencyEntry(bool outgoing, VertexId vid,
                                           const std::string& label,
                                           EdgeId eid, uint64_t version_ts) {
  rel::Table* primary = db_.GetTable(outgoing ? kOpaTable : kIpaTable);
  rel::Table* secondary = db_.GetTable(outgoing ? kOsaTable : kIsaTable);
  const coloring::ColoredHash& hash =
      outgoing ? schema_.out_hash : schema_.in_hash;
  const size_t colors = outgoing ? schema_.out_colors : schema_.in_colors;
  const size_t c = hash.ColorOf(label) % colors;

  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   primary->LookupEq({0}, {{Value(static_cast<int64_t>(vid))}}));
  Row row;
  for (RowId rid : rids) {
    RETURN_NOT_OK(primary->Get(rid, &row));
    const Value& lbl = row[LblColIdx(c)];
    if (lbl.is_null() || lbl.AsString() != label) continue;
    const Value val = row[ValColIdx(c)];
    bool clear_triad = false;
    if (!val.is_null() && val.AsInt() >= kLidBase) {
      ASSIGN_OR_RETURN(std::vector<RowId> list_rids,
                       secondary->LookupEq({0}, {{val}}));
      size_t remaining = list_rids.size();
      for (RowId lrid : list_rids) {
        Row entry;
        RETURN_NOT_OK(secondary->Get(lrid, &entry));
        if (entry[1].AsInt() == static_cast<int64_t>(eid)) {
          RETURN_NOT_OK(secondary->Delete(lrid, version_ts));
          --remaining;
          break;
        }
      }
      clear_triad = remaining == 0;
    } else if (!row[EidColIdx(c)].is_null() &&
               row[EidColIdx(c)].AsInt() == static_cast<int64_t>(eid)) {
      clear_triad = true;
    } else {
      continue;  // same label in a spill row further on
    }
    if (clear_triad) {
      row[EidColIdx(c)] = Value::Null();
      row[LblColIdx(c)] = Value::Null();
      row[ValColIdx(c)] = Value::Null();
      // Drop the row entirely if it became empty and others remain.
      bool empty = true;
      for (size_t k = 0; k < colors; ++k) {
        if (!row[LblColIdx(k)].is_null()) {
          empty = false;
          break;
        }
      }
      if (empty && rids.size() > 1) {
        RETURN_NOT_OK(primary->Delete(rid, version_ts));
      } else {
        RETURN_NOT_OK(primary->Update(rid, std::move(row), version_ts));
      }
    } else {
      RETURN_NOT_OK(primary->Update(rid, std::move(row), version_ts));
    }
    return Status::OK();
  }
  return Status::OK();  // entry absent: treat as idempotent delete
}

Status SqlGraphStore::ApplyAddEdgeLocked(int64_t eid, int64_t src,
                                         int64_t dst,
                                         const std::string& label,
                                         json::JsonValue attrs,
                                         uint64_t version_ts) {
  const rel::Table* va = db_.GetTable(kVaTable);
  for (int64_t endpoint : {src, dst}) {
    ASSIGN_OR_RETURN(std::vector<RowId> rids,
                     va->LookupEq({0}, {{Value(endpoint)}}));
    if (rids.empty()) {
      return Status::NotFound("vertex " + std::to_string(endpoint));
    }
  }
  RETURN_NOT_OK(db_.GetTable(kEaTable)
                    ->Insert({Value(eid), Value(src), Value(dst),
                              Value(label), Value(std::move(attrs))},
                             version_ts)
                    .status());
  RETURN_NOT_OK(AddAdjacencyEntry(/*outgoing=*/true,
                                  static_cast<VertexId>(src), label,
                                  static_cast<EdgeId>(eid),
                                  static_cast<VertexId>(dst), version_ts));
  return AddAdjacencyEntry(/*outgoing=*/false, static_cast<VertexId>(dst),
                           label, static_cast<EdgeId>(eid),
                           static_cast<VertexId>(src), version_ts);
}

Result<EdgeId> SqlGraphStore::AddEdge(VertexId src, VertexId dst,
                                      const std::string& label,
                                      json::JsonValue attrs) {
  CommitGuard commit(this);
  int64_t eid;
  {
    util::WriterMutexLock counter(&counter_lock_);
    eid = next_edge_id_++;
  }
  if (!attrs.is_object()) attrs = json::JsonValue::Object();
  wal::Record rec;
  if (durable()) {
    rec.type = wal::RecordType::kAddEdge;
    rec.id = eid;
    rec.src = static_cast<int64_t>(src);
    rec.dst = static_cast<int64_t>(dst);
    rec.label = label;
    rec.json = json::Write(attrs);
  }
  uint64_t ticket = 0;
  {
    // One section over every touched table (VA only shared — the endpoint
    // existence check). Coarser than the old per-table latch sections, but
    // the EA row and both adjacency entries now become visible atomically:
    // no reader, snapshot, or crash can observe a half-added edge.
    WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kOsa, true},
                          {kIsa, true}, {kVa, false}, {kEa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st = ApplyAddEdgeLocked(eid, static_cast<int64_t>(src),
                                   static_cast<int64_t>(dst), label,
                                   std::move(attrs), vts);
    if (!st.ok()) {
      return UnwindLocked(std::move(st), vts, {kOpa, kIpa, kOsa, kIsa, kEa});
    }
    // The edge's write set includes both endpoints: it depends on them
    // existing, so a snapshot transaction that removed either must lose.
    PublishAndTrimLocked({VertexEntity(static_cast<int64_t>(src)),
                          VertexEntity(static_cast<int64_t>(dst)),
                          EdgeEntity(eid)},
                         vts, {kOpa, kIpa, kOsa, kIsa, kEa});
    // Enqueued at the EA serialization point: no other commit can observe
    // this edge (FindEdge/SetEdgeAttr/RemoveEdge all go through EA) until
    // the exclusive section ends, so every dependent record lands after
    // this one in the log.
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  RETURN_NOT_OK(LogWalWait(ticket));
  return static_cast<EdgeId>(eid);
}

Result<EdgeRecord> SqlGraphStore::GetEdge(EdgeId eid) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  const rel::Table* ea = db_.GetTable(kEaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   ea->LookupEq({0}, {{Value(static_cast<int64_t>(eid))}}));
  if (rids.empty()) {
    return Status::NotFound("edge " + std::to_string(eid));
  }
  Row row;
  RETURN_NOT_OK(ea->Get(rids[0], &row));
  EdgeRecord rec;
  rec.id = static_cast<EdgeId>(row[kEaEid].AsInt());
  rec.src = static_cast<VertexId>(row[kEaInv].AsInt());
  rec.dst = static_cast<VertexId>(row[kEaOutv].AsInt());
  rec.label = row[kEaLbl].AsString();
  rec.attrs = row[kEaAttr].is_json() ? row[kEaAttr].AsJson()
                                     : json::JsonValue::Object();
  return rec;
}

Status SqlGraphStore::ApplySetEdgeAttrLocked(int64_t eid,
                                             const std::string& key,
                                             json::JsonValue value,
                                             uint64_t version_ts) {
  rel::Table* ea = db_.GetTable(kEaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   ea->LookupEq({0}, {{Value(eid)}}));
  if (rids.empty()) {
    return Status::NotFound("edge " + std::to_string(eid));
  }
  Row row;
  RETURN_NOT_OK(ea->Get(rids[0], &row));
  json::JsonValue attrs = row[kEaAttr].is_json()
                              ? row[kEaAttr].AsJson()
                              : json::JsonValue::Object();
  attrs.Set(key, std::move(value));
  row[kEaAttr] = Value(std::move(attrs));
  return ea->Update(rids[0], std::move(row), version_ts);
}

Status SqlGraphStore::SetEdgeAttr(EdgeId eid, const std::string& key,
                                  json::JsonValue value) {
  CommitGuard commit(this);
  wal::Record rec;
  if (durable()) {
    rec.type = wal::RecordType::kSetEdgeAttr;
    rec.id = static_cast<int64_t>(eid);
    rec.label = key;
    rec.json = json::Write(value);
  }
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kEa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st = ApplySetEdgeAttrLocked(static_cast<int64_t>(eid), key,
                                       std::move(value), vts);
    if (!st.ok()) return UnwindLocked(std::move(st), vts, {kEa});
    PublishAndTrimLocked({EdgeEntity(static_cast<int64_t>(eid))}, vts,
                         {kEa});
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Status SqlGraphStore::ApplyRemoveEdgeAttrLocked(int64_t eid,
                                                const std::string& key,
                                                uint64_t version_ts) {
  rel::Table* ea = db_.GetTable(kEaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   ea->LookupEq({0}, {{Value(eid)}}));
  if (rids.empty()) {
    return Status::NotFound("edge " + std::to_string(eid));
  }
  Row row;
  RETURN_NOT_OK(ea->Get(rids[0], &row));
  json::JsonValue attrs = row[kEaAttr].is_json()
                              ? row[kEaAttr].AsJson()
                              : json::JsonValue::Object();
  attrs.Erase(key);
  row[kEaAttr] = Value(std::move(attrs));
  return ea->Update(rids[0], std::move(row), version_ts);
}

Status SqlGraphStore::RemoveEdgeAttr(EdgeId eid, const std::string& key) {
  CommitGuard commit(this);
  wal::Record rec;
  rec.type = wal::RecordType::kRemoveEdgeAttr;
  rec.id = static_cast<int64_t>(eid);
  rec.label = key;
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kEa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st =
        ApplyRemoveEdgeAttrLocked(static_cast<int64_t>(eid), key, vts);
    if (!st.ok()) return UnwindLocked(std::move(st), vts, {kEa});
    PublishAndTrimLocked({EdgeEntity(static_cast<int64_t>(eid))}, vts,
                         {kEa});
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Status SqlGraphStore::ApplyRemoveEdgeLocked(int64_t eid,
                                            uint64_t version_ts) {
  rel::Table* ea = db_.GetTable(kEaTable);
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   ea->LookupEq({0}, {{Value(eid)}}));
  if (rids.empty()) {
    return Status::NotFound("edge " + std::to_string(eid));
  }
  Row row;
  RETURN_NOT_OK(ea->Get(rids[0], &row));
  const auto src = static_cast<VertexId>(row[kEaInv].AsInt());
  const auto dst = static_cast<VertexId>(row[kEaOutv].AsInt());
  const std::string label = row[kEaLbl].AsString();
  RETURN_NOT_OK(ea->Delete(rids[0], version_ts));
  RETURN_NOT_OK(RemoveAdjacencyEntry(/*outgoing=*/true, src, label,
                                     static_cast<EdgeId>(eid), version_ts));
  return RemoveAdjacencyEntry(/*outgoing=*/false, dst, label,
                              static_cast<EdgeId>(eid), version_ts);
}

Status SqlGraphStore::RemoveEdge(EdgeId eid) {
  CommitGuard commit(this);
  wal::Record rec;
  rec.type = wal::RecordType::kRemoveEdge;
  rec.id = static_cast<int64_t>(eid);
  uint64_t ticket = 0;
  {
    // One exclusive section: the EA delete and both adjacency removals are
    // visible (and versioned) atomically.
    WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kOsa, true},
                          {kIsa, true}, {kEa, true}});
    const uint64_t vts = AllocVersionTs();
    Status st = ApplyRemoveEdgeLocked(static_cast<int64_t>(eid), vts);
    if (!st.ok()) {
      return UnwindLocked(std::move(st), vts, {kOpa, kIpa, kOsa, kIsa, kEa});
    }
    PublishAndTrimLocked({EdgeEntity(static_cast<int64_t>(eid))}, vts,
                         {kOpa, kIpa, kOsa, kIsa, kEa});
    // Enqueued at the EA serialization point: this lands strictly after
    // the kAddEdge record that made the edge findable, so replay never
    // sees a remove-before-add.
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Result<std::optional<EdgeId>> SqlGraphStore::FindEdge(
    VertexId src, const std::string& label, VertexId dst) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(src));
  binds.positional.emplace_back(label);
  binds.positional.emplace_back(static_cast<int64_t>(dst));
  ASSIGN_OR_RETURN(
      sql::ResultSet rs,
      RunTemplate("SELECT EID FROM EA WHERE INV = ? AND LBL = ? AND OUTV = ?",
                  std::move(binds)));
  if (!rs.rows.empty()) {
    return std::optional<EdgeId>(static_cast<EdgeId>(rs.rows[0][0].AsInt()));
  }
  lock.Release();
  RETURN_NOT_OK(CheckVertexExists(src));
  return std::optional<EdgeId>();
}

// -------------------------------------------------------------- adjacency --

namespace {
std::vector<EdgeRecord> RowsToEdgeRecords(const sql::ResultSet& rs) {
  std::vector<EdgeRecord> out;
  out.reserve(rs.rows.size());
  for (const Row& row : rs.rows) {
    EdgeRecord rec;
    rec.id = static_cast<EdgeId>(row[0].AsInt());
    rec.src = static_cast<VertexId>(row[1].AsInt());
    rec.dst = static_cast<VertexId>(row[2].AsInt());
    rec.label = row[3].AsString();
    rec.attrs = row[4].is_json() ? row[4].AsJson() : json::JsonValue::Object();
    out.push_back(std::move(rec));
  }
  return out;
}
}  // namespace

Result<std::vector<EdgeRecord>> SqlGraphStore::GetOutEdgesAt(
    VertexId src, const std::string& label, uint64_t read_ts) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(src));
  sql::ResultSet rs;
  if (label.empty()) {
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT EID, INV, OUTV, LBL, ATTR FROM EA "
                        "WHERE INV = ?",
                        std::move(binds), read_ts));
  } else {
    binds.positional.emplace_back(label);
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT EID, INV, OUTV, LBL, ATTR FROM EA "
                        "WHERE INV = ? AND LBL = ?",
                        std::move(binds), read_ts));
  }
  return RowsToEdgeRecords(rs);
}

Result<std::vector<EdgeRecord>> SqlGraphStore::GetOutEdges(
    VertexId src, const std::string& label) const {
  ASSIGN_OR_RETURN(std::vector<EdgeRecord> edges,
                   GetOutEdgesAt(src, label, /*read_ts=*/0));
  if (edges.empty()) RETURN_NOT_OK(CheckVertexExists(src));
  return edges;
}

Status SqlGraphStore::CheckVertexExists(VertexId vid) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kVa, false}});
  ASSIGN_OR_RETURN(std::vector<RowId> rids,
                   db_.GetTable(kVaTable)->LookupEq(
                       {0}, {{Value(static_cast<int64_t>(vid))}}));
  if (rids.empty()) return Status::NotFound("vertex " + std::to_string(vid));
  return Status::OK();
}

Result<std::vector<EdgeRecord>> SqlGraphStore::GetInEdgesAt(
    VertexId dst, const std::string& label, uint64_t read_ts) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(dst));
  sql::ResultSet rs;
  if (label.empty()) {
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT EID, INV, OUTV, LBL, ATTR FROM EA "
                        "WHERE OUTV = ?",
                        std::move(binds), read_ts));
  } else {
    binds.positional.emplace_back(label);
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT EID, INV, OUTV, LBL, ATTR FROM EA "
                        "WHERE OUTV = ? AND LBL = ?",
                        std::move(binds), read_ts));
  }
  return RowsToEdgeRecords(rs);
}

Result<json::JsonValue> SqlGraphStore::GetVertexAt(int64_t vid,
                                                   uint64_t read_ts) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kVa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(vid);
  ASSIGN_OR_RETURN(sql::ResultSet rs,
                   RunTemplate("SELECT VID, ATTR FROM VA WHERE VID = ?",
                               std::move(binds), read_ts));
  if (rs.rows.empty()) {
    return Status::NotFound("vertex " + std::to_string(vid));
  }
  const Value& attr = rs.rows[0][1];
  return attr.is_json() ? attr.AsJson() : json::JsonValue::Object();
}

Result<EdgeRecord> SqlGraphStore::GetEdgeAt(int64_t eid,
                                            uint64_t read_ts) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(eid);
  ASSIGN_OR_RETURN(
      sql::ResultSet rs,
      RunTemplate("SELECT EID, INV, OUTV, LBL, ATTR FROM EA WHERE EID = ?",
                  std::move(binds), read_ts));
  if (rs.rows.empty()) {
    return Status::NotFound("edge " + std::to_string(eid));
  }
  return std::move(RowsToEdgeRecords(rs)[0]);
}

Result<int64_t> SqlGraphStore::CountOutEdges(VertexId src,
                                             const std::string& label) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(src));
  sql::ResultSet rs;
  if (label.empty()) {
    ASSIGN_OR_RETURN(rs,
                     RunTemplate("SELECT COUNT(*) FROM EA WHERE INV = ?",
                                 std::move(binds)));
  } else {
    binds.positional.emplace_back(label);
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT COUNT(*) FROM EA WHERE INV = ? AND LBL = ?",
                        std::move(binds)));
  }
  const int64_t count = rs.rows.empty() ? 0 : rs.rows[0][0].AsInt();
  if (count == 0) {
    lock.Release();
    RETURN_NOT_OK(CheckVertexExists(src));
  }
  return count;
}

Result<std::vector<VertexId>> SqlGraphStore::Out(
    VertexId vid, const std::string& label) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(vid));
  sql::ResultSet rs;
  if (label.empty()) {
    ASSIGN_OR_RETURN(rs, RunTemplate("SELECT OUTV FROM EA WHERE INV = ?",
                                     std::move(binds)));
  } else {
    binds.positional.emplace_back(label);
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT OUTV FROM EA WHERE INV = ? AND LBL = ?",
                        std::move(binds)));
  }
  if (rs.rows.empty()) {
    lock.Release();
    RETURN_NOT_OK(CheckVertexExists(vid));
  }
  std::vector<VertexId> out;
  out.reserve(rs.rows.size());
  for (const Row& row : rs.rows) {
    out.push_back(static_cast<VertexId>(row[0].AsInt()));
  }
  return out;
}

Result<std::vector<VertexId>> SqlGraphStore::In(
    VertexId vid, const std::string& label) const {
  WriteLock lock(const_cast<SqlGraphStore*>(this), {{kEa, false}});
  sql::ParamBindings binds;
  binds.positional.emplace_back(static_cast<int64_t>(vid));
  sql::ResultSet rs;
  if (label.empty()) {
    ASSIGN_OR_RETURN(rs, RunTemplate("SELECT INV FROM EA WHERE OUTV = ?",
                                     std::move(binds)));
  } else {
    binds.positional.emplace_back(label);
    ASSIGN_OR_RETURN(
        rs, RunTemplate("SELECT INV FROM EA WHERE OUTV = ? AND LBL = ?",
                        std::move(binds)));
  }
  if (rs.rows.empty()) {
    lock.Release();
    RETURN_NOT_OK(CheckVertexExists(vid));
  }
  std::vector<VertexId> out;
  out.reserve(rs.rows.size());
  for (const Row& row : rs.rows) {
    out.push_back(static_cast<VertexId>(row[0].AsInt()));
  }
  return out;
}

// --------------------------------------------------------------- querying --

namespace {
/// Consumes a leading (case-insensitive) `EXPLAIN ANALYZE` from `*text`.
bool StripExplainAnalyzePrefix(std::string_view* text) {
  constexpr std::string_view kKeyword = "EXPLAIN ANALYZE";
  size_t i = 0;
  while (i < text->size() && std::isspace(static_cast<unsigned char>((*text)[i]))) {
    ++i;
  }
  if (text->size() - i < kKeyword.size()) return false;
  for (size_t k = 0; k < kKeyword.size(); ++k) {
    if (std::toupper(static_cast<unsigned char>((*text)[i + k])) != kKeyword[k]) {
      return false;
    }
  }
  text->remove_prefix(i + kKeyword.size());
  return true;
}
/// Per-statement executor options derived from the store configuration.
/// A non-zero `read_ts` pins execution to that MVCC snapshot.
sql::Executor::Options ExecOptionsFor(const StoreConfig& config,
                                      uint64_t read_ts = 0) {
  sql::Executor::Options options;
  options.read_ts = read_ts;
  options.verify_plans = config.verify_plans;
  return options;
}
}  // namespace

sql::ResultSet SqlGraphStore::SpansToResultSet(
    const std::vector<obs::TraceSpan>& spans) {
  sql::ResultSet rs;
  rs.columns = {"stage", "operator", "rows", "time_ms"};
  for (const obs::TraceSpan& s : spans) {
    rs.rows.push_back({rel::Value(s.context), rel::Value(s.op),
                       rel::Value(static_cast<int64_t>(s.rows)),
                       rel::Value(static_cast<double>(s.ns) / 1e6)});
  }
  return rs;
}

Result<sql::ResultSet> SqlGraphStore::ExecuteSql(std::string_view text,
                                                 sql::ExecStats* stats) {
  return ExecuteSqlInternal(text, /*read_ts=*/0, stats);
}

Result<sql::ResultSet> SqlGraphStore::ExecuteSqlInternal(
    std::string_view text, uint64_t read_ts, sql::ExecStats* stats) {
  std::string_view body = text;
  const bool analyze = StripExplainAnalyzePrefix(&body);
  ReadLockAll lock(this);
  sql::Executor exec(&db_, ExecOptionsFor(config_, read_ts));
  exec.set_plan_cache(&plan_cache_, schema_epoch());
  exec.set_analyze(analyze);
  auto result = exec.ExecuteSql(body);
  if (stats != nullptr) *stats = exec.stats();
  {
    util::MutexLock guard(&stats_mu_);
    last_stats_ = exec.stats();
  }
  if (analyze && result.ok()) return SpansToResultSet(exec.stats().spans);
  return result;
}

Result<sql::ResultSet> SqlGraphStore::Execute(const sql::SqlQuery& query,
                                              sql::ExecStats* stats) {
  ReadLockAll lock(this);
  sql::Executor exec(&db_, ExecOptionsFor(config_));
  auto result = exec.Execute(query);
  if (stats != nullptr) *stats = exec.stats();
  {
    util::MutexLock guard(&stats_mu_);
    last_stats_ = exec.stats();
  }
  return result;
}

Result<sql::ResultSet> SqlGraphStore::ExecuteAnalyze(const sql::SqlQuery& query,
                                                     sql::ExecStats* stats) {
  ReadLockAll lock(this);
  sql::Executor exec(&db_, ExecOptionsFor(config_));
  exec.set_analyze(true);
  auto result = exec.Execute(query);
  if (stats != nullptr) *stats = exec.stats();
  {
    util::MutexLock guard(&stats_mu_);
    last_stats_ = exec.stats();
  }
  return result;
}

Result<sql::PreparedQueryPtr> SqlGraphStore::Prepare(
    std::string_view text) const {
  // Parsing touches no tables: no locks needed.
  return plan_cache_.GetOrPrepare(text, schema_epoch(), nullptr);
}

Result<sql::ResultSet> SqlGraphStore::ExecutePrepared(
    const sql::PreparedQuery& prepared, const sql::ParamBindings& params,
    sql::ExecStats* stats) const {
  ReadLockAll lock(const_cast<SqlGraphStore*>(this));
  sql::Executor exec(const_cast<rel::Database*>(&db_), ExecOptionsFor(config_));
  exec.set_plan_cache(&plan_cache_, schema_epoch());
  auto result = exec.ExecutePrepared(prepared, params);
  if (stats != nullptr) *stats = exec.stats();
  {
    util::MutexLock guard(&stats_mu_);
    last_stats_ = exec.stats();
  }
  return result;
}

sql::ExecStats SqlGraphStore::last_exec_stats() const {
  util::MutexLock guard(&stats_mu_);
  return last_stats_;
}

Result<sql::ResultSet> SqlGraphStore::RunTemplate(
    const char* text, sql::ParamBindings params, uint64_t read_ts) const {
  const uint64_t epoch = schema_epoch();
  // The shared plan cache compiles each template once per schema epoch.
  ASSIGN_OR_RETURN(sql::PreparedQueryPtr prepared,
                   plan_cache_.GetOrPrepare(text, epoch, nullptr));
  sql::Executor exec(const_cast<rel::Database*>(&db_),
                     ExecOptionsFor(config_, read_ts));
  exec.set_plan_cache(&plan_cache_, epoch);
  return exec.ExecutePrepared(*prepared, params);
}

// ------------------------------------------------------------ maintenance --

Status SqlGraphStore::Compact() {
  CommitGuard commit(this);
  uint64_t ticket = 0;
  {
    WriteLock lock(this, {{kOpa, true},
                          {kIpa, true},
                          {kOsa, true},
                          {kIsa, true},
                          {kVa, true},
                          {kEa, true}});
    // Versioned when transactions are active: a pinned snapshot keeps
    // seeing the pre-compaction rows (its queries filter the soft-deleted
    // ones anyway, so results are unchanged either way).
    const uint64_t vts = AllocVersionTs();
    Status st = CompactLocked(vts);
    if (!st.ok()) {
      return UnwindLocked(std::move(st), vts,
                          {kOpa, kIpa, kOsa, kIsa, kVa, kEa});
    }
    PublishAndTrimLocked({}, vts, {kOpa, kIpa, kOsa, kIsa, kVa, kEa});
    // Enqueued while every table is still locked, so no commit can
    // interleave between the cleanup and its record.
    wal::Record rec;
    rec.type = wal::RecordType::kCompact;
    RETURN_NOT_OK(LogWalEnqueue(rec, &ticket));
  }
  return LogWalWait(ticket);
}

Status SqlGraphStore::CompactLocked(uint64_t version_ts) {
  // 1. Deleted vertex ids from VA's negative rows; drop those rows.
  std::unordered_set<int64_t> deleted;
  rel::Table* va = db_.GetTable(kVaTable);
  std::vector<RowId> doomed;
  va->Scan([&](RowId rid, const Row& row) {
    if (row[0].AsInt() < 0) {
      deleted.insert(-row[0].AsInt() - 1);
      doomed.push_back(rid);
    }
  });
  for (RowId rid : doomed) RETURN_NOT_OK(va->Delete(rid, version_ts));
  if (deleted.empty()) return Status::OK();

  // 2. Adjacency cleanup in both directions: drop negated rows (collecting
  // their list ids) and clear triads that point at deleted vertices.
  for (bool outgoing : {true, false}) {
    rel::Table* primary = db_.GetTable(outgoing ? kOpaTable : kIpaTable);
    rel::Table* secondary = db_.GetTable(outgoing ? kOsaTable : kIsaTable);
    const size_t colors = outgoing ? schema_.out_colors : schema_.in_colors;

    std::unordered_set<int64_t> dead_lids;
    std::vector<RowId> dead_rows;
    std::vector<std::pair<RowId, Row>> updates;
    primary->Scan([&](RowId rid, const Row& row) {
      if (row[kVidCol].AsInt() < 0) {
        for (size_t c = 0; c < colors; ++c) {
          const Value& val = row[ValColIdx(c)];
          if (!val.is_null() && val.AsInt() >= kLidBase) {
            dead_lids.insert(val.AsInt());
          }
        }
        dead_rows.push_back(rid);
        return;
      }
      Row patched = row;
      bool changed = false;
      for (size_t c = 0; c < colors; ++c) {
        const Value& val = patched[ValColIdx(c)];
        if (val.is_null()) continue;
        if (val.AsInt() < kLidBase && deleted.count(val.AsInt())) {
          patched[EidColIdx(c)] = Value::Null();
          patched[LblColIdx(c)] = Value::Null();
          patched[ValColIdx(c)] = Value::Null();
          changed = true;
        }
      }
      if (changed) updates.emplace_back(rid, std::move(patched));
    });
    for (RowId rid : dead_rows) RETURN_NOT_OK(primary->Delete(rid, version_ts));
    for (auto& [rid, row] : updates) {
      RETURN_NOT_OK(primary->Update(rid, std::move(row), version_ts));
    }
    // Secondary lists: drop dead lists outright and dead targets from live
    // lists.
    std::vector<RowId> dead_entries;
    secondary->Scan([&](RowId rid, const Row& row) {
      if (dead_lids.count(row[0].AsInt()) || deleted.count(row[2].AsInt())) {
        dead_entries.push_back(rid);
      }
    });
    for (RowId rid : dead_entries) {
      RETURN_NOT_OK(secondary->Delete(rid, version_ts));
    }
  }
  // Row layout changed under every cached plan: force re-preparation.
  BumpSchemaEpoch();
  return Status::OK();
}

// -------------------------------------------------------------- durability --

Status SqlGraphStore::ApplyWalRecord(const wal::Record& rec) {
  using wal::RecordType;
  switch (rec.type) {
    case RecordType::kAddVertex: {
      ASSIGN_OR_RETURN(json::JsonValue attrs, json::Parse(rec.json));
      if (!attrs.is_object()) attrs = json::JsonValue::Object();
      {
        WriteLock lock(this, {{kVa, true}});
        RETURN_NOT_OK(ApplyAddVertexLocked(rec.id, std::move(attrs), 0));
      }
      util::WriterMutexLock counter(&counter_lock_);
      next_vertex_id_ = std::max(next_vertex_id_, rec.id + 1);
      return Status::OK();
    }
    case RecordType::kAddEdge: {
      ASSIGN_OR_RETURN(json::JsonValue attrs, json::Parse(rec.json));
      if (!attrs.is_object()) attrs = json::JsonValue::Object();
      {
        WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kOsa, true},
                              {kIsa, true}, {kVa, false}, {kEa, true}});
        RETURN_NOT_OK(ApplyAddEdgeLocked(rec.id, rec.src, rec.dst, rec.label,
                                         std::move(attrs), 0));
      }
      util::WriterMutexLock counter(&counter_lock_);
      next_edge_id_ = std::max(next_edge_id_, rec.id + 1);
      return Status::OK();
    }
    case RecordType::kSetVertexAttr: {
      ASSIGN_OR_RETURN(json::JsonValue value, json::Parse(rec.json));
      WriteLock lock(this, {{kVa, true}});
      return ApplySetVertexAttrLocked(rec.id, rec.label, std::move(value), 0);
    }
    case RecordType::kSetEdgeAttr: {
      ASSIGN_OR_RETURN(json::JsonValue value, json::Parse(rec.json));
      WriteLock lock(this, {{kEa, true}});
      return ApplySetEdgeAttrLocked(rec.id, rec.label, std::move(value), 0);
    }
    case RecordType::kRemoveVertexAttr: {
      WriteLock lock(this, {{kVa, true}});
      return ApplyRemoveVertexAttrLocked(rec.id, rec.label, 0);
    }
    case RecordType::kRemoveEdgeAttr: {
      WriteLock lock(this, {{kEa, true}});
      return ApplyRemoveEdgeAttrLocked(rec.id, rec.label, 0);
    }
    case RecordType::kRemoveVertex: {
      WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kVa, true},
                            {kEa, true}});
      std::vector<int64_t> removed_eids;
      return ApplyRemoveVertexLocked(rec.id, 0, &removed_eids);
    }
    case RecordType::kRemoveEdge: {
      WriteLock lock(this, {{kOpa, true}, {kIpa, true}, {kOsa, true},
                            {kIsa, true}, {kEa, true}});
      return ApplyRemoveEdgeLocked(rec.id, 0);
    }
    case RecordType::kCompact: {
      WriteLock lock(this, {{kOpa, true},
                            {kIpa, true},
                            {kOsa, true},
                            {kIsa, true},
                            {kVa, true},
                            {kEa, true}});
      return CompactLocked(0);
    }
    case RecordType::kTxnCommit: {
      // One atomic commit unit: the frame's CRC already guaranteed the
      // whole transaction is intact, so replay its sub-records in order.
      // Per-sub-record NotFound is tolerated the same way the outer replay
      // loop tolerates it (see OpenDurableStore).
      size_t off = 0;
      wal::Record sub;
      while (off < rec.json.size()) {
        RETURN_NOT_OK(wal::DecodeRecord(rec.json, &off, &sub));
        Status st = ApplyWalRecord(sub);
        if (!st.ok() && !st.IsNotFound()) return st;
      }
      return Status::OK();
    }
    case RecordType::kTxnBegin:
    case RecordType::kTxnAbort:
      return Status::OK();  // advisory markers
  }
  return Status::ParseError("wal: unhandled record type");
}

wal::WalStats SqlGraphStore::wal_stats() const {
  util::ReaderMutexLock rotate(&wal_rotate_mu_);
  wal::WalStats stats = wal_recovery_stats_;
  if (wal_writer_ != nullptr) {
    const wal::WalCounters& c = wal_writer_->counters();
    stats.records += c.records.load(std::memory_order_relaxed);
    stats.bytes += c.bytes.load(std::memory_order_relaxed);
    stats.fsyncs += c.fsyncs.load(std::memory_order_relaxed);
    stats.groups += c.groups.load(std::memory_order_relaxed);
    stats.grouped_records += c.grouped_records.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace core
}  // namespace sqlgraph
