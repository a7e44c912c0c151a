#include "rel/column_batch.h"

#include <utility>

namespace sqlgraph {
namespace rel {

namespace {

ColumnVector::Tag TagFor(const Value& v) {
  if (v.is_int()) return ColumnVector::Tag::kInt64;
  if (v.is_double()) return ColumnVector::Tag::kDouble;
  if (v.is_bool()) return ColumnVector::Tag::kBool;
  if (v.is_string()) return ColumnVector::Tag::kString;
  return ColumnVector::Tag::kBoxed;  // JSON (and anything future) boxes
}

}  // namespace

ColumnVector ColumnVector::Constant(const Value& v, size_t n) {
  ColumnVector c;
  c.constant_ = true;
  c.size_ = n;
  c.nulls_.push_back(v.is_null() ? 1 : 0);
  if (v.is_null()) {
    c.ints_.push_back(0);
    return c;
  }
  c.typed_ = true;
  c.tag_ = TagFor(v);
  switch (c.tag_) {
    case Tag::kInt64: c.ints_.push_back(v.AsInt()); break;
    case Tag::kDouble: c.doubles_.push_back(v.AsDouble()); break;
    case Tag::kBool: c.bools_.push_back(v.AsBool() ? 1 : 0); break;
    case Tag::kString: c.strings_.push_back(v.AsString()); break;
    case Tag::kBoxed: c.boxed_.push_back(v); break;
  }
  return c;
}

void ColumnVector::Reserve(size_t n) {
  if (constant_) return;
  nulls_.reserve(n);
  switch (tag_) {
    case Tag::kInt64: ints_.reserve(n); break;
    case Tag::kDouble: doubles_.reserve(n); break;
    case Tag::kBool: bools_.reserve(n); break;
    case Tag::kString: strings_.reserve(n); break;
    case Tag::kBoxed: boxed_.reserve(n); break;
  }
}

void ColumnVector::Clear() {
  tag_ = Tag::kInt64;
  typed_ = false;
  constant_ = false;
  size_ = 0;
  nulls_.clear();
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  boxed_.clear();
}

void ColumnVector::Retag(Tag t) {
  // Only reachable while every row is NULL: swap the placeholder storage.
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  boxed_.clear();
  tag_ = t;
  switch (t) {
    case Tag::kInt64: ints_.assign(size_, 0); break;
    case Tag::kDouble: doubles_.assign(size_, 0.0); break;
    case Tag::kBool: bools_.assign(size_, 0); break;
    case Tag::kString: strings_.assign(size_, std::string()); break;
    case Tag::kBoxed: boxed_.assign(size_, Value()); break;
  }
}

void ColumnVector::PromoteToBoxed() {
  if (tag_ == Tag::kBoxed) return;
  std::vector<Value> boxed;
  const size_t n = constant_ ? 1 : size_;
  boxed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (nulls_[i]) {
      boxed.emplace_back();
      continue;
    }
    switch (tag_) {
      case Tag::kInt64: boxed.emplace_back(ints_[i]); break;
      case Tag::kDouble: boxed.emplace_back(doubles_[i]); break;
      case Tag::kBool: boxed.emplace_back(bools_[i] != 0); break;
      case Tag::kString: boxed.emplace_back(strings_[i]); break;
      case Tag::kBoxed: break;  // unreachable
    }
  }
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  boxed_ = std::move(boxed);
  tag_ = Tag::kBoxed;
}

void ColumnVector::MaterializeConstant() {
  if (!constant_) return;
  const Value v = GetValue(0);
  const size_t n = size_;
  const bool null = nulls_[0] != 0;
  constant_ = false;
  size_ = 0;
  nulls_.clear();
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  strings_.clear();
  boxed_.clear();
  Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (null) {
      AppendNull();
    } else {
      Append(v);
    }
  }
}

void ColumnVector::AppendSlow(const Value& v) {
  if (constant_) MaterializeConstant();
  if (v.is_null()) {
    AppendNull();
    return;
  }
  const Tag t = TagFor(v);
  if (!typed_) {
    if (t != tag_) Retag(t);
    typed_ = true;
  } else if (t != tag_ && tag_ != Tag::kBoxed) {
    PromoteToBoxed();
  }
  nulls_.push_back(0);
  ++size_;
  switch (tag_) {
    case Tag::kInt64: ints_.push_back(v.AsInt()); break;
    case Tag::kDouble: doubles_.push_back(v.AsDouble()); break;
    case Tag::kBool: bools_.push_back(v.AsBool() ? 1 : 0); break;
    case Tag::kString: strings_.push_back(v.AsString()); break;
    case Tag::kBoxed: boxed_.push_back(v); break;
  }
}

void ColumnVector::AppendNull() {
  if (constant_) MaterializeConstant();
  nulls_.push_back(1);
  ++size_;
  switch (tag_) {
    case Tag::kInt64: ints_.push_back(0); break;
    case Tag::kDouble: doubles_.push_back(0.0); break;
    case Tag::kBool: bools_.push_back(0); break;
    case Tag::kString: strings_.emplace_back(); break;
    case Tag::kBoxed: boxed_.emplace_back(); break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (!constant_ && (typed_ ? tag_ == src.tag_ : true)) {
    if (!typed_) {
      if (src.tag_ != tag_) Retag(src.tag_);
      typed_ = true;
    }
    nulls_.push_back(0);
    ++size_;
    const size_t p = src.phys(i);
    switch (tag_) {
      case Tag::kInt64: ints_.push_back(src.ints_[p]); return;
      case Tag::kDouble: doubles_.push_back(src.doubles_[p]); return;
      case Tag::kBool: bools_.push_back(src.bools_[p]); return;
      case Tag::kString: strings_.push_back(src.strings_[p]); return;
      case Tag::kBoxed: boxed_.push_back(src.boxed_[p]); return;
    }
  }
  Append(src.GetValue(i));
}

void ColumnVector::AppendGather(const ColumnVector& src,
                                const std::vector<uint32_t>& sel) {
  Reserve(size_ + sel.size());
  for (uint32_t i : sel) AppendFrom(src, i);
}

void ColumnVector::AppendAll(const ColumnVector& src) {
  if (!src.typed_ && !src.constant_) {
    // All NULL: nothing to copy but the row count.
    for (size_t i = 0; i < src.size_; ++i) AppendNull();
    return;
  }
  if (!constant_ && !src.constant_ && (!typed_ || tag_ == src.tag_)) {
    if (!typed_) {
      if (src.tag_ != tag_) Retag(src.tag_);
      typed_ = true;
    }
    nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
    switch (tag_) {
      case Tag::kInt64:
        ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
        break;
      case Tag::kDouble:
        doubles_.insert(doubles_.end(), src.doubles_.begin(),
                        src.doubles_.end());
        break;
      case Tag::kBool:
        bools_.insert(bools_.end(), src.bools_.begin(), src.bools_.end());
        break;
      case Tag::kString:
        strings_.insert(strings_.end(), src.strings_.begin(),
                        src.strings_.end());
        break;
      case Tag::kBoxed:
        boxed_.insert(boxed_.end(), src.boxed_.begin(), src.boxed_.end());
        break;
    }
    size_ += src.size_;
    return;
  }
  Reserve(size_ + src.size_);
  for (size_t i = 0; i < src.size_; ++i) AppendFrom(src, i);
}

Value ColumnVector::GetValue(size_t i) const {
  const size_t p = phys(i);
  if (nulls_[p]) return Value::Null();
  switch (tag_) {
    case Tag::kInt64: return Value(ints_[p]);
    case Tag::kDouble: return Value(doubles_[p]);
    case Tag::kBool: return Value(bools_[p] != 0);
    case Tag::kString: return Value(strings_[p]);
    case Tag::kBoxed: return boxed_[p];
  }
  return Value::Null();
}

ColumnVector ColumnVector::Gather(const std::vector<uint32_t>& sel) const {
  if (constant_) {
    ColumnVector out = *this;
    out.size_ = sel.size();
    return out;
  }
  ColumnVector out;
  out.tag_ = tag_;
  out.typed_ = typed_;
  out.size_ = sel.size();
  out.nulls_.reserve(sel.size());
  for (uint32_t i : sel) out.nulls_.push_back(nulls_[i]);
  switch (tag_) {
    case Tag::kInt64:
      out.ints_.reserve(sel.size());
      for (uint32_t i : sel) out.ints_.push_back(ints_[i]);
      break;
    case Tag::kDouble:
      out.doubles_.reserve(sel.size());
      for (uint32_t i : sel) out.doubles_.push_back(doubles_[i]);
      break;
    case Tag::kBool:
      out.bools_.reserve(sel.size());
      for (uint32_t i : sel) out.bools_.push_back(bools_[i]);
      break;
    case Tag::kString:
      out.strings_.reserve(sel.size());
      for (uint32_t i : sel) out.strings_.push_back(strings_[i]);
      break;
    case Tag::kBoxed:
      out.boxed_.reserve(sel.size());
      for (uint32_t i : sel) out.boxed_.push_back(boxed_[i]);
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------

void ColumnBatch::Reset(size_t n) {
  cols.assign(n, ColumnVector());
  num_rows = 0;
}

void ColumnBatch::Reserve(size_t n) {
  for (auto& c : cols) c.Reserve(n);
}

void ColumnBatch::AppendRow(const Row& row) {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (c < row.size()) {
      cols[c].Append(row[c]);
    } else {
      cols[c].AppendNull();  // short rows pad with NULL (outer-join style)
    }
  }
  ++num_rows;
}

void ColumnBatch::AppendProjected(const Row& full,
                                  const std::vector<int>& projection) {
  if (projection.empty()) {
    AppendRow(full);
    return;
  }
  for (size_t c = 0; c < projection.size(); ++c) {
    cols[c].Append(full[static_cast<size_t>(projection[c])]);
  }
  ++num_rows;
}

void ColumnBatch::AppendGather(const ColumnBatch& src,
                               const std::vector<uint32_t>& sel) {
  for (size_t c = 0; c < cols.size(); ++c) {
    cols[c].AppendGather(src.cols[c], sel);
  }
  num_rows += sel.size();
}

void ColumnBatch::Append(const ColumnBatch& src) {
  for (size_t c = 0; c < cols.size(); ++c) cols[c].AppendAll(src.cols[c]);
  num_rows += src.num_rows;
}

Row ColumnBatch::GetRow(size_t i) const {
  Row row;
  row.reserve(cols.size());
  for (const auto& c : cols) row.push_back(c.GetValue(i));
  return row;
}

void ColumnBatch::KeepOnly(const std::vector<uint32_t>& sel) {
  for (auto& c : cols) c = c.Gather(sel);
  num_rows = sel.size();
}

std::vector<Row> ColumnBatch::ToRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) rows.push_back(GetRow(i));
  return rows;
}

ColumnBatch ColumnBatch::FromRows(const std::vector<Row>& rows, size_t width) {
  ColumnBatch b;
  b.Reset(width);
  b.Reserve(rows.size());
  for (const Row& r : rows) b.AppendRow(r);
  return b;
}

}  // namespace rel
}  // namespace sqlgraph
