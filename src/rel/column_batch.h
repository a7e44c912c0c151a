// Columnar batches: the working set every SQL executor operator takes and
// returns.
//
// A ColumnBatch is the batch-at-a-time counterpart of std::vector<Row>: one
// ColumnVector per combined-row slot, all the same length. Each column keeps
// a byte-per-row null mask plus typed storage selected by the first non-NULL
// value appended (int64/double/bool/string); columns that turn out to hold
// mixed types promote themselves to boxed rel::Value storage, so dynamic
// typing keeps working at a per-column instead of per-cell cost. JSON
// documents always live in boxed storage.
//
// Literal operands broadcast as constant columns (one physical element,
// logical length n). Filters communicate through selection vectors —
// std::vector<uint32_t> of surviving row indexes — applied with Gather().
//
// Index probes and scans fill batches one stored value at a time
// (RowStore::AppendProjected); ColumnVector::Append takes a value whose type
// matches the column's fixed int64 or string storage inline, and leaves
// retagging, promotion and the other types out of line.

#ifndef SQLGRAPH_REL_COLUMN_BATCH_H_
#define SQLGRAPH_REL_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rel/value.h"

namespace sqlgraph {
namespace rel {

/// Rows per filter/eval chunk in the scan pipeline: big enough to amortize
/// per-vector dispatch, small enough that a chunk's columns stay cache
/// resident.
inline constexpr size_t kVectorChunkRows = 2048;

class ColumnVector {
 public:
  enum class Tag : uint8_t { kInt64, kDouble, kBool, kString, kBoxed };

  ColumnVector() = default;

  /// A column whose every row is `v` (one physical element).
  static ColumnVector Constant(const Value& v, size_t n);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Tag tag() const { return tag_; }
  bool is_constant() const { return constant_; }
  /// False until the first non-NULL value fixes the storage tag.
  bool typed() const { return typed_; }

  void Reserve(size_t n);
  void Clear();

  void Append(const Value& v) {
    if (typed_ && !constant_) {
      if (tag_ == Tag::kInt64 && v.is_int()) {
        nulls_.push_back(0);
        ints_.push_back(v.AsInt());
        ++size_;
        return;
      }
      if (tag_ == Tag::kString && v.is_string()) {
        nulls_.push_back(0);
        strings_.push_back(v.AsString());
        ++size_;
        return;
      }
    }
    AppendSlow(v);
  }
  void AppendNull();
  /// Appends row `i` of `src` (cheap when the tags already agree).
  void AppendFrom(const ColumnVector& src, size_t i);
  /// Appends rows `sel[*]` of `src`.
  void AppendGather(const ColumnVector& src, const std::vector<uint32_t>& sel);
  /// Appends every row of `src` (a bulk copy when the tags agree).
  void AppendAll(const ColumnVector& src);

  bool IsNull(size_t i) const { return nulls_[phys(i)] != 0; }
  /// Boxes row `i` back into a Value (NULL rows yield Value::Null()).
  Value GetValue(size_t i) const;

  // Typed readers; valid only when tag() matches and !IsNull(i).
  int64_t IntAt(size_t i) const { return ints_[phys(i)]; }
  double DoubleAt(size_t i) const { return doubles_[phys(i)]; }
  bool BoolAt(size_t i) const { return bools_[phys(i)] != 0; }
  const std::string& StringAt(size_t i) const { return strings_[phys(i)]; }
  const Value& BoxedAt(size_t i) const { return boxed_[phys(i)]; }

  /// New column with rows `sel[*]` of this one. Constants stay constant.
  ColumnVector Gather(const std::vector<uint32_t>& sel) const;

 private:
  size_t phys(size_t i) const { return constant_ ? 0 : i; }
  /// Append for every case the inline fast path does not take.
  void AppendSlow(const Value& v);
  /// Switches an all-NULL column to `t` storage.
  void Retag(Tag t);
  /// Reboxes every row into Value storage (mixed-type column).
  void PromoteToBoxed();
  /// Expands a constant into per-row storage so appends can proceed.
  void MaterializeConstant();
  std::vector<uint8_t>& ActiveNulls() { return nulls_; }

  Tag tag_ = Tag::kInt64;
  bool typed_ = false;
  bool constant_ = false;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  // 1 = NULL; placeholder stored in the slot
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<std::string> strings_;
  std::vector<Value> boxed_;
};

/// A batch of rows in columnar form; `cols` all share length `num_rows`.
struct ColumnBatch {
  std::vector<ColumnVector> cols;
  size_t num_rows = 0;

  size_t num_cols() const { return cols.size(); }

  /// Clears and re-shapes to `n` empty columns.
  void Reset(size_t n);
  void Reserve(size_t n);

  void AppendRow(const Row& row);
  /// Appends `full` through a column projection (empty = identity): the
  /// executor's projection pushdown, with no intermediate Row.
  void AppendProjected(const Row& full, const std::vector<int>& projection);
  /// Appends rows `sel[*]` of `src`.
  void AppendGather(const ColumnBatch& src, const std::vector<uint32_t>& sel);
  /// Appends every row of `src` (UNION ALL); `src` must have as many
  /// columns.
  void Append(const ColumnBatch& src);

  Row GetRow(size_t i) const;

  /// Keeps only rows `sel[*]`, in order.
  void KeepOnly(const std::vector<uint32_t>& sel);

  std::vector<Row> ToRows() const;
  static ColumnBatch FromRows(const std::vector<Row>& rows, size_t width);
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_COLUMN_BATCH_H_
