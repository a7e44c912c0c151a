// A relational table: schema + row storage + maintained secondary indexes,
// plus an MVCC before-image version log so snapshot readers pinned to an
// older commit timestamp can reconstruct the table as of that timestamp.

#ifndef SQLGRAPH_REL_TABLE_H_
#define SQLGRAPH_REL_TABLE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rel/index.h"
#include "rel/row_store.h"
#include "rel/schema.h"
#include "util/sched.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

enum class StorageMode {
  kResident,  // plain in-memory rows
  kPaged,     // serialized pages behind the buffer pool
};

class Table {
 public:
  Table(std::string name, Schema schema, std::unique_ptr<RowStore> store)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        store_(std::move(store)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return store_->NumLive(); }
  size_t SerializedBytes() const { return store_->SerializedBytes(); }

  /// Monotonic count of successful Insert/Update/Delete calls. The
  /// durability layer compares these across checkpoints to detect rows
  /// mutated through any path — including callers that bypass the
  /// SqlGraphStore CRUD API and write to the table directly.
  uint64_t mutation_count() const {
    return mutations_.load(std::memory_order_relaxed);
  }

  /// Validates and appends a row, updating all indexes. On a unique-index
  /// violation the row is rolled back and Conflict is returned.
  /// `version_ts != 0` records a before-image in the version log under that
  /// commit timestamp (timestamps must arrive non-decreasing; the store's
  /// critical sections guarantee it).
  util::Result<RowId> Insert(Row row, uint64_t version_ts = 0);

  /// Replaces a row in place, keeping indexes consistent.
  util::Status Update(RowId rid, Row row, uint64_t version_ts = 0);

  /// Tombstones a row and removes its index entries.
  util::Status Delete(RowId rid, uint64_t version_ts = 0);

  /// Resurrects a tombstoned row (commit-unwind path), restoring indexes.
  util::Status RestoreRow(RowId rid, Row row);

  // --- MVCC version log -----------------------------------------------
  //
  // Each logged mutation stores the row state *before* the mutation plus
  // the commit timestamp it became visible at. Readers pinned to read_ts
  // reconstruct the table at read_ts by patching out every version with
  // ts > read_ts. All version-log calls run under the same external table
  // lock as the mutations themselves.

  /// True when the log holds any mutation newer than `ts` — i.e. a reader
  /// at `ts` cannot use the live rows/indexes directly.
  bool HasVersionsAfter(uint64_t ts) const {
    const auto& log = versions_.Read();
    return !log.empty() && log.back().ts > ts;
  }

  /// Visits every row as of timestamp `ts`, in unspecified order.
  void ScanAt(uint64_t ts,
              const std::function<void(const Row&)>& visit) const;

  /// Drops version entries no active reader can need (all with
  /// ts <= watermark, where watermark = min active read_ts).
  void TrimVersions(uint64_t watermark);

  /// Undoes, newest-first, every mutation logged at exactly `ts` (the
  /// failed-commit unwind). Entries are removed from the log.
  util::Status RevertVersionsAt(uint64_t ts);

  size_t NumVersions() const { return versions_.Read().size(); }

  util::Status Get(RowId rid, Row* out) const { return store_->Get(rid, out); }
  /// See RowStore::AppendProjected.
  util::Status AppendProjected(RowId rid, const std::vector<int>& projection,
                               ColumnBatch* out) const {
    return store_->AppendProjected(rid, projection, out);
  }
  bool IsLive(RowId rid) const { return store_->IsLive(rid); }

  void Scan(const std::function<void(RowId, const Row&)>& visit) const {
    store_->Scan(visit);
  }

  /// Creates and backfills an index over the named columns.
  util::Status CreateIndex(std::string index_name,
                           const std::vector<std::string>& column_names,
                           IndexKind kind, bool unique = false);

  /// Creates a functional index on JSON_VAL(json_column, key) — the
  /// equivalent of the user-created attribute indexes in §3.3.
  util::Status CreateJsonIndex(std::string index_name,
                               const std::string& json_column,
                               const std::string& key, IndexKind kind);

  /// Finds a JSON functional index on (column, key) of the given kind.
  const Index* FindJsonIndex(int column_id, std::string_view key,
                             IndexKind kind) const;

  /// Finds an index whose leading columns exactly match `column_ids` (order
  /// sensitive); nullptr if none.
  const Index* FindIndex(const std::vector<int>& column_ids) const;

  /// Finds any index whose *first* key column is `column_id` (for range
  /// scans / partial matches); prefers an exact single-column match.
  const Index* FindIndexOnColumn(int column_id, IndexKind kind) const;

  const std::vector<std::unique_ptr<Index>>& indexes() const {
    return indexes_;
  }

  /// Convenience equality lookup via an index on the given columns. Returns
  /// NotFound-free empty vector when no rows match; InvalidArgument when no
  /// suitable index exists.
  util::Result<std::vector<RowId>> LookupEq(
      const std::vector<int>& column_ids, const IndexKey& key) const;

 private:
  enum class VersionKind : uint8_t { kInsert, kUpdate, kDelete };
  struct RowVersion {
    uint64_t ts = 0;      // commit timestamp the mutation became visible at
    RowId rid = 0;
    VersionKind kind = VersionKind::kInsert;
    Row before;           // pre-image (empty for kInsert)
  };

  std::string name_;
  Schema schema_;
  std::unique_ptr<RowStore> store_;
  std::vector<std::unique_ptr<Index>> indexes_;
  std::atomic<uint64_t> mutations_{0};
  // ts-ascending. SharedVar: every access is a scheduling point + race
  // check under the schedule explorer (util/sched.h); plain deque access
  // otherwise. Protected by the owning store's external table lock.
  util::sched::SharedVar<std::deque<RowVersion>> versions_{"table.versions"};
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_TABLE_H_
