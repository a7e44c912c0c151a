#include "rel/row_store.h"

#include <cassert>

namespace sqlgraph {
namespace rel {

// ---------------------------------------------------------------- Vector --

RowId VectorRowStore::Append(Row row) {
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  return rows_.size() - 1;
}

util::Status VectorRowStore::Read(RowId rid,
                                  const std::vector<int>& projection,
                                  const RowSink& sink) const {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  sink.Append(rows_[rid], projection);
  return util::Status::OK();
}

util::Status VectorRowStore::Update(RowId rid, Row row) {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  rows_[rid] = std::move(row);
  return util::Status::OK();
}

util::Status VectorRowStore::Delete(RowId rid) {
  if (rid >= rows_.size() || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  live_[rid] = false;
  rows_[rid].clear();
  rows_[rid].shrink_to_fit();
  --live_count_;
  return util::Status::OK();
}

util::Status VectorRowStore::Restore(RowId rid, Row row) {
  if (rid >= rows_.size()) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  if (live_[rid]) {
    return util::Status::InvalidArgument("row " + std::to_string(rid) +
                                         " is live; Restore needs a tombstone");
  }
  rows_[rid] = std::move(row);
  live_[rid] = true;
  ++live_count_;
  return util::Status::OK();
}

bool VectorRowStore::IsLive(RowId rid) const {
  return rid < rows_.size() && live_[rid];
}

void VectorRowStore::Scan(
    const std::function<void(RowId, const Row&)>& visit) const {
  for (RowId rid = 0; rid < rows_.size(); ++rid) {
    if (live_[rid]) visit(rid, rows_[rid]);
  }
}

size_t VectorRowStore::SerializedBytes() const {
  size_t total = 0;
  std::string scratch;
  for (RowId rid = 0; rid < rows_.size(); ++rid) {
    if (!live_[rid]) continue;
    scratch.clear();
    EncodeRow(rows_[rid], &scratch);
    total += scratch.size();
  }
  return total;
}

// ----------------------------------------------------------------- Paged --

PagedRowStore::PagedRowStore(BufferPool* pool, size_t num_columns,
                             size_t rows_per_page)
    : pool_(pool),
      store_id_(pool->NextStoreId()),
      num_columns_(num_columns),
      rows_per_page_(rows_per_page) {
  assert(rows_per_page_ > 0);
}

void PagedRowStore::SealTailIfFull() {
  if (tail_.size() < rows_per_page_) return;
  std::string blob;
  for (const Row& r : tail_) {
    row_offsets_.push_back(static_cast<uint32_t>(blob.size()));
    EncodeRow(r, &blob);
  }
  serialized_bytes_ += blob.size();
  page_blobs_.push_back(std::move(blob));
  tail_.clear();
}

RowId PagedRowStore::Append(Row row) {
  assert(row.size() == num_columns_);
  tail_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  const RowId rid = num_rows_++;
  SealTailIfFull();
  return rid;
}

std::shared_ptr<const PageFrame> PagedRowStore::FetchFrame(
    uint32_t page_index) const {
  const PageId id{store_id_, page_index};
  if (auto cached = pool_->Lookup(id)) return cached;
  // Miss: copy the page image in from its blob (this stands in for the
  // disk read whose count the pool budget controls).
  auto frame = std::make_shared<const PageFrame>(page_blobs_[page_index]);
  pool_->Insert(id, frame);
  return frame;
}

void PagedRowStore::DecodeSealed(const PageFrame& frame, RowId rid,
                                 Row* out) const {
  size_t offset = row_offsets_[rid];
  util::Status st = DecodeRow(frame.bytes, num_columns_, &offset, out);
  // We only decode blobs this store encoded; failure is a bug, asserted in
  // debug builds and unreachable in release.
  assert(st.ok());
  (void)st;
}

void PagedRowStore::WriteSlot(RowId rid, Row row) {
  const size_t page_index = rid / rows_per_page_;
  if (page_index >= page_blobs_.size()) {
    tail_[rid - page_blobs_.size() * rows_per_page_] = std::move(row);
    return;
  }
  std::string encoded;
  EncodeRow(row, &encoded);
  std::string& blob = page_blobs_[page_index];
  const RowId page_end = (page_index + 1) * rows_per_page_;
  const size_t start = row_offsets_[rid];
  const size_t old_len =
      (rid + 1 < page_end ? row_offsets_[rid + 1] : blob.size()) - start;
  blob.replace(start, old_len, encoded);
  // Later rows of the page move by the length change (each starts at or
  // after this row's old end, so the unsigned sum cannot underflow).
  for (RowId r = rid + 1; r < page_end; ++r) {
    row_offsets_[r] =
        static_cast<uint32_t>(row_offsets_[r] + encoded.size() - old_len);
  }
  serialized_bytes_ = serialized_bytes_ + encoded.size() - old_len;
  // Replace, never modify, the cached frame: a reader may still hold it.
  pool_->Insert(PageId{store_id_, static_cast<uint32_t>(page_index)},
                std::make_shared<const PageFrame>(blob));
}

util::Status PagedRowStore::Read(RowId rid,
                                 const std::vector<int>& projection,
                                 const RowSink& sink) const {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  const size_t page_index = rid / rows_per_page_;
  if (page_index >= page_blobs_.size()) {
    // Row still in the unsealed tail.
    sink.Append(tail_[rid - page_blobs_.size() * rows_per_page_], projection);
    return util::Status::OK();
  }
  const auto frame = FetchFrame(static_cast<uint32_t>(page_index));
  size_t offset = row_offsets_[rid];
  if (sink.row() != nullptr) {
    return DecodeRowProjected(frame->bytes, num_columns_, &offset, projection,
                              sink.row());
  }
  Row decoded;
  RETURN_NOT_OK(DecodeRowProjected(frame->bytes, num_columns_, &offset,
                                   projection, &decoded));
  sink.Append(decoded, {});
  return util::Status::OK();
}

util::Status PagedRowStore::Update(RowId rid, Row row) {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  WriteSlot(rid, std::move(row));
  return util::Status::OK();
}

util::Status PagedRowStore::Delete(RowId rid) {
  if (rid >= num_rows_ || !live_[rid]) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  live_[rid] = false;
  --live_count_;
  return util::Status::OK();
}

util::Status PagedRowStore::Restore(RowId rid, Row row) {
  if (rid >= num_rows_) {
    return util::Status::NotFound("row " + std::to_string(rid));
  }
  if (live_[rid]) {
    return util::Status::InvalidArgument("row " + std::to_string(rid) +
                                         " is live; Restore needs a tombstone");
  }
  live_[rid] = true;
  ++live_count_;
  // Deletion only flips the live bit and leaves the old bytes in the page;
  // the restored row need not match them, so write it back unconditionally.
  WriteSlot(rid, std::move(row));
  return util::Status::OK();
}

bool PagedRowStore::IsLive(RowId rid) const {
  return rid < num_rows_ && live_[rid];
}

size_t PagedRowStore::SerializedBytes() const {
  // Sealed pages are pre-accounted; the unsealed tail is encoded on demand.
  size_t total = serialized_bytes_;
  std::string scratch;
  for (const Row& row : tail_) {
    scratch.clear();
    EncodeRow(row, &scratch);
    total += scratch.size();
  }
  return total;
}

void PagedRowStore::Scan(
    const std::function<void(RowId, const Row&)>& visit) const {
  RowId rid = 0;
  Row decoded;  // reused across rows; valid only during visit()
  for (size_t p = 0; p < page_blobs_.size(); ++p) {
    const auto frame = FetchFrame(static_cast<uint32_t>(p));
    for (const RowId page_end = rid + rows_per_page_; rid < page_end; ++rid) {
      if (!live_[rid]) continue;
      DecodeSealed(*frame, rid, &decoded);
      visit(rid, decoded);
    }
  }
  for (const Row& row : tail_) {
    if (live_[rid]) visit(rid, row);
    ++rid;
  }
}

}  // namespace rel
}  // namespace sqlgraph
