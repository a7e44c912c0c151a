// Physical row storage. Two implementations share one interface:
//
//  * VectorRowStore — rows resident in memory; the default for tests and
//    most benchmarks.
//  * PagedRowStore — rows serialized into fixed-fanout page blobs fronted by
//    the shared BufferPool, which caches page images; used for the
//    memory-sensitivity experiment and for on-disk size accounting. A read
//    decodes only the row it asks for, straight from the cached image; a
//    pool miss adds one page copy. A write encodes only the row it writes.
//
// RowIds are dense append positions; deletion tombstones a slot, it is never
// reused (matching the paper's soft-delete design).
//
// Each store implements one read, Read(rid, projection, sink), and the
// other read forms are non-virtual wrappers over it: Get fills a Row,
// AppendProjected adds one row to a ColumnBatch. The resident
// store appends each projected value straight from its stored row into the
// destination -- for a batch, into the typed column, with no Row in
// between -- which is the fetch half of every index nested-loop join. The
// paged store decodes the projected columns of a sealed row into a scratch
// Row first (or straight into a Row destination).

#ifndef SQLGRAPH_REL_ROW_STORE_H_
#define SQLGRAPH_REL_ROW_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rel/buffer_pool.h"
#include "rel/codec.h"
#include "rel/column_batch.h"
#include "rel/value.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

using RowId = uint64_t;

/// Where a RowStore read puts the columns it reads: appended to a Row
/// after what it already holds, or as one new row of a ColumnBatch.
class RowSink {
 public:
  explicit RowSink(Row* row) : row_(row) {}
  explicit RowSink(ColumnBatch* batch) : batch_(batch) {}

  /// The Row destination, or nullptr for a batch.
  Row* row() const { return row_; }

  /// Appends columns `projection` of `full` (every column when empty).
  void Append(const Row& full, const std::vector<int>& projection) const {
    if (batch_ != nullptr) {
      batch_->AppendProjected(full, projection);
    } else if (projection.empty()) {
      row_->insert(row_->end(), full.begin(), full.end());
    } else {
      for (int c : projection) row_->push_back(full[static_cast<size_t>(c)]);
    }
  }

 private:
  Row* row_ = nullptr;
  ColumnBatch* batch_ = nullptr;
};

class RowStore {
 public:
  virtual ~RowStore() = default;

  /// Appends a row; returns its RowId.
  virtual RowId Append(Row row) = 0;

  /// Reads columns `projection` of the row at `rid` (every column when
  /// `projection` is empty) into `sink`. Index probes read a few columns
  /// of wide rows (OPA/IPA) this way without copying the rest.
  /// `projection` must be ascending; the paged store answers
  /// InvalidArgument otherwise. Fails for tombstoned/bad ids.
  virtual util::Status Read(RowId rid, const std::vector<int>& projection,
                            const RowSink& sink) const = 0;

  /// Copies the row at `rid` into `*out`.
  util::Status Get(RowId rid, Row* out) const {
    out->clear();
    return Read(rid, {}, RowSink(out));
  }

  /// Appends the projected columns of the row at `rid` to `*out` as one
  /// new row.
  util::Status AppendProjected(RowId rid, const std::vector<int>& projection,
                               ColumnBatch* out) const {
    return Read(rid, projection, RowSink(out));
  }

  /// Replaces the row at `rid`.
  virtual util::Status Update(RowId rid, Row row) = 0;

  /// Tombstones the row at `rid`.
  virtual util::Status Delete(RowId rid) = 0;

  /// Resurrects a tombstoned slot with `row` (MVCC commit unwind; the
  /// inverse of Delete). Fails if `rid` is out of range or still live.
  virtual util::Status Restore(RowId rid, Row row) = 0;

  virtual bool IsLive(RowId rid) const = 0;

  /// Visits every live row in RowId order. The reference is only valid for
  /// the duration of the callback.
  virtual void Scan(
      const std::function<void(RowId, const Row&)>& visit) const = 0;

  /// Number of slots ever allocated (live + tombstoned).
  virtual size_t NumSlots() const = 0;
  virtual size_t NumLive() const = 0;

  /// Serialized footprint in bytes ("size on disk").
  virtual size_t SerializedBytes() const = 0;
};

/// Memory-resident row store.
class VectorRowStore : public RowStore {
 public:
  RowId Append(Row row) override;
  util::Status Read(RowId rid, const std::vector<int>& projection,
                    const RowSink& sink) const override;
  util::Status Update(RowId rid, Row row) override;
  util::Status Delete(RowId rid) override;
  util::Status Restore(RowId rid, Row row) override;
  bool IsLive(RowId rid) const override;
  void Scan(
      const std::function<void(RowId, const Row&)>& visit) const override;
  size_t NumSlots() const override { return rows_.size(); }
  size_t NumLive() const override { return live_count_; }
  size_t SerializedBytes() const override;

 private:
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
};

/// Page-serialized row store behind the shared buffer pool.
///
/// Reads may run concurrently (callers hold a shared table lock); writes
/// need exclusive access. A write splices the re-encoded row into its
/// page's blob and installs a fresh frame for that page, never changing a
/// frame a concurrent reader may hold.
class PagedRowStore : public RowStore {
 public:
  /// `rows_per_page` trades page-copy size for blob count.
  PagedRowStore(BufferPool* pool, size_t num_columns,
                size_t rows_per_page = 64);

  RowId Append(Row row) override;
  util::Status Read(RowId rid, const std::vector<int>& projection,
                    const RowSink& sink) const override;
  util::Status Update(RowId rid, Row row) override;
  util::Status Delete(RowId rid) override;
  util::Status Restore(RowId rid, Row row) override;
  bool IsLive(RowId rid) const override;
  void Scan(
      const std::function<void(RowId, const Row&)>& visit) const override;
  size_t NumSlots() const override { return num_rows_; }
  size_t NumLive() const override { return live_count_; }
  size_t SerializedBytes() const override;

 private:
  // Returns the cached frame of page `page_index`, copying the page's blob
  // into a new frame on a miss.
  std::shared_ptr<const PageFrame> FetchFrame(uint32_t page_index) const;
  // Decodes sealed row `rid` out of `frame`, which must hold its page.
  void DecodeSealed(const PageFrame& frame, RowId rid, Row* out) const;
  // Writes `row` into slot `rid` (sealed or tail), whatever its live bit.
  void WriteSlot(RowId rid, Row row);
  // Seals the append buffer into a blob once full.
  void SealTailIfFull();

  BufferPool* pool_;
  uint32_t store_id_;
  size_t num_columns_;
  size_t rows_per_page_;
  std::vector<std::string> page_blobs_;  // sealed, serialized pages
  // Byte offset of each sealed row inside its page's blob, indexed by
  // RowId; a row ends where the next row of its page starts, or at the end
  // of the blob. Recorded at seal time, shifted by writes; not serialized.
  // 32 bits: a page of rows_per_page rows stays far below 4 GiB.
  std::vector<uint32_t> row_offsets_;
  std::vector<Row> tail_;                // unsealed append buffer
  std::vector<bool> live_;
  size_t num_rows_ = 0;
  size_t live_count_ = 0;
  size_t serialized_bytes_ = 0;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_ROW_STORE_H_
