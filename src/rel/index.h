// Secondary indexes: hash (equality) and ordered (equality + range).
//
// A HashIndex keeps every one-part integral key (an int64, or a double with
// an integral value inside the int64 range) in a flat open-addressing table
// of raw int64 keys, each slot holding its key and RowId list; that covers
// the VID/EID/VALID columns every adjacency join probes. LookupInt probes it
// without boxing the key. Every other key -- composite keys, strings, NULL,
// bool, non-integral doubles, JSON documents -- stays in a node map keyed
// by IndexKey.
//
// Equality is Value::Compare's (int 3 matches double 3.0; a non-integral
// double, a bool or NULL never matches an int), with one deliberate
// exception beyond 2^53, where Compare's int-vs-double equality is not
// transitive (int 2^53+1 and int 2^53 both "equal" double 2^53): a double
// key matches only the int key of exactly its integral value, so double
// 2^53 finds int 2^53 but not int 2^53+1. Doubles at or beyond +-2^63 never
// match an int key.

#ifndef SQLGRAPH_REL_INDEX_H_
#define SQLGRAPH_REL_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rel/row_store.h"
#include "rel/value.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

enum class IndexKind { kHash, kOrdered };

/// \brief Secondary index over one or more columns of a table.
///
/// The table owns its indexes and keeps them in sync on insert / update /
/// delete. Unique indexes reject duplicate keys.
class Index {
 public:
  Index(std::string name, std::vector<int> column_ids, bool unique)
      : name_(std::move(name)),
        column_ids_(std::move(column_ids)),
        unique_(unique) {}
  virtual ~Index() = default;

  const std::string& name() const { return name_; }
  const std::vector<int>& column_ids() const { return column_ids_; }
  bool unique() const { return unique_; }
  virtual IndexKind kind() const = 0;

  virtual util::Status Insert(const IndexKey& key, RowId rid) = 0;
  virtual void Remove(const IndexKey& key, RowId rid) = 0;

  /// Appends matching RowIds to `*out`.
  virtual void Lookup(const IndexKey& key, std::vector<RowId>* out) const = 0;

  /// Lookup of the one-part key `key`; the hash index answers it without
  /// building an IndexKey.
  virtual void LookupInt(int64_t key, std::vector<RowId>* out) const {
    IndexKey k;
    k.parts.emplace_back(key);
    Lookup(k, out);
  }

  /// Number of distinct keys (used for cardinality estimates).
  virtual size_t NumDistinctKeys() const = 0;
  virtual size_t NumEntries() const = 0;

  /// Extracts this index's key from a full table row. For JSON functional
  /// indexes (the equivalent of the paper's "JSON indexes" on VA/EA), the
  /// key is JSON_VAL(column, json_key) of the single indexed column.
  IndexKey KeyFromRow(const Row& row) const {
    IndexKey key;
    if (is_json()) {
      key.parts.push_back(
          ExtractJsonVal(row[static_cast<size_t>(column_ids_[0])]));
      return key;
    }
    key.parts.reserve(column_ids_.size());
    for (int c : column_ids_) key.parts.push_back(row[static_cast<size_t>(c)]);
    return key;
  }

  bool is_json() const { return !json_key_.empty(); }
  const std::string& json_key() const { return json_key_; }
  void set_json_key(std::string key) { json_key_ = std::move(key); }

  /// JSON_VAL semantics shared with the SQL evaluator: scalar members map to
  /// scalar Values, missing keys / non-objects map to NULL, nested values
  /// stay JSON.
  Value ExtractJsonVal(const Value& column_value) const;

 protected:
  std::string name_;
  std::vector<int> column_ids_;
  bool unique_;
  std::string json_key_;  // non-empty => functional JSON index
};

class HashIndex : public Index {
 public:
  using Index::Index;
  IndexKind kind() const override { return IndexKind::kHash; }

  util::Status Insert(const IndexKey& key, RowId rid) override;
  void Remove(const IndexKey& key, RowId rid) override;
  void Lookup(const IndexKey& key, std::vector<RowId>* out) const override;
  void LookupInt(int64_t key, std::vector<RowId>* out) const override;
  size_t NumDistinctKeys() const override {
    return map_.size() + int_keys_;
  }
  size_t NumEntries() const override { return entries_; }

 private:
  // One slot of the int64 table; an empty `rids` marks a vacant slot.
  struct IntSlot {
    int64_t key = 0;
    std::vector<RowId> rids;
  };

  // Slot of `key`, or of the vacant slot ending its probe chain.
  size_t FindSlot(int64_t key) const;
  // Doubles the table (from 16 slots) and reinserts every key.
  void Grow();

  std::vector<IntSlot> int_slots_;  // linear probing; size a power of two
  size_t int_keys_ = 0;
  std::unordered_map<IndexKey, std::vector<RowId>, IndexKeyHash> map_;
  size_t entries_ = 0;
};

class OrderedIndex : public Index {
 public:
  using Index::Index;
  IndexKind kind() const override { return IndexKind::kOrdered; }

  util::Status Insert(const IndexKey& key, RowId rid) override;
  void Remove(const IndexKey& key, RowId rid) override;
  void Lookup(const IndexKey& key, std::vector<RowId>* out) const override;
  size_t NumDistinctKeys() const override { return map_.size(); }
  size_t NumEntries() const override { return entries_; }

  /// Range scan on the first key column: appends RowIds whose key is within
  /// [lo, hi] (either bound may be NULL-valued Value to mean unbounded).
  void Range(const Value& lo, bool lo_inclusive, const Value& hi,
             bool hi_inclusive, std::vector<RowId>* out) const;

 private:
  std::map<IndexKey, std::vector<RowId>> map_;
  size_t entries_ = 0;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_INDEX_H_
