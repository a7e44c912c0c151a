#include "rel/index.h"

#include <algorithm>
#include <cmath>

namespace sqlgraph {
namespace rel {

namespace {
/// Sets `*out` and returns true when `key` is one integral part: an int64,
/// or a double whose value is an integer inside the int64 range (-0.0 is
/// 0). Such keys live in HashIndex's int64 table.
bool IntegralKey(const IndexKey& key, int64_t* out) {
  if (key.parts.size() != 1) return false;
  const Value& v = key.parts[0];
  if (v.is_int()) {
    *out = v.AsInt();
    return true;
  }
  if (!v.is_double()) return false;
  const double d = v.AsDouble();
  // -2^63 and 2^63 are exact doubles; NaN fails both comparisons.
  if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) ||
      std::trunc(d) != d) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

/// Home slot of `key` in a table of `mask + 1` slots: a 64-bit finalizer
/// (murmur3 fmix64) so that dense VIDs spread over the whole table.
size_t HomeSlot(int64_t key, size_t mask) {
  uint64_t h = static_cast<uint64_t>(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<size_t>(h) & mask;
}

template <typename Map>
util::Status InsertImpl(Map* map, size_t* entries, bool unique,
                        const std::string& name, const IndexKey& key,
                        RowId rid) {
  auto& bucket = (*map)[key];
  if (unique && !bucket.empty()) {
    return util::Status::AlreadyExists("duplicate key in unique index " + name);
  }
  bucket.push_back(rid);
  ++*entries;
  return util::Status::OK();
}

template <typename Map>
void RemoveImpl(Map* map, size_t* entries, const IndexKey& key, RowId rid) {
  auto it = map->find(key);
  if (it == map->end()) return;
  auto& bucket = it->second;
  auto pos = std::find(bucket.begin(), bucket.end(), rid);
  if (pos == bucket.end()) return;
  bucket.erase(pos);
  --*entries;
  if (bucket.empty()) map->erase(it);
}
}  // namespace

Value Index::ExtractJsonVal(const Value& column_value) const {
  if (!column_value.is_json()) return Value::Null();
  const json::JsonValue* member = column_value.AsJson().Find(json_key_);
  if (member == nullptr) return Value::Null();
  switch (member->type()) {
    case json::JsonType::kNull: return Value::Null();
    case json::JsonType::kBool: return Value(member->AsBool());
    case json::JsonType::kInt: return Value(member->AsInt());
    case json::JsonType::kDouble: return Value(member->AsDouble());
    case json::JsonType::kString: return Value(member->AsString());
    default: return Value(*member);  // arrays/objects stay JSON
  }
}

size_t HashIndex::FindSlot(int64_t key) const {
  const size_t mask = int_slots_.size() - 1;
  size_t i = HomeSlot(key, mask);
  while (!int_slots_[i].rids.empty() && int_slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void HashIndex::Grow() {
  std::vector<IntSlot> old = std::move(int_slots_);
  int_slots_ = std::vector<IntSlot>(old.empty() ? 16 : old.size() * 2);
  for (IntSlot& slot : old) {
    if (!slot.rids.empty()) int_slots_[FindSlot(slot.key)] = std::move(slot);
  }
}

util::Status HashIndex::Insert(const IndexKey& key, RowId rid) {
  int64_t k = 0;
  if (!IntegralKey(key, &k)) {
    return InsertImpl(&map_, &entries_, unique_, name_, key, rid);
  }
  // Keep the load factor at or below 1/2 so that misses stay short.
  if (2 * (int_keys_ + 1) > int_slots_.size()) Grow();
  IntSlot& slot = int_slots_[FindSlot(k)];
  if (slot.rids.empty()) {
    slot.key = k;
    ++int_keys_;
  } else if (unique_) {
    return util::Status::AlreadyExists("duplicate key in unique index " +
                                       name_);
  }
  slot.rids.push_back(rid);
  ++entries_;
  return util::Status::OK();
}

void HashIndex::Remove(const IndexKey& key, RowId rid) {
  int64_t k = 0;
  if (!IntegralKey(key, &k)) {
    RemoveImpl(&map_, &entries_, key, rid);
    return;
  }
  if (int_keys_ == 0) return;
  size_t hole = FindSlot(k);
  std::vector<RowId>& rids = int_slots_[hole].rids;
  auto pos = std::find(rids.begin(), rids.end(), rid);
  if (pos == rids.end()) return;  // also covers a vacant slot
  rids.erase(pos);
  --entries_;
  if (!rids.empty()) return;
  rids.shrink_to_fit();
  --int_keys_;
  // Backward-shift deletion: pull each later member of the probe chain
  // whose home slot does not lie strictly between the hole and itself back
  // into the hole, so that no chain has a vacant slot in its middle.
  const size_t mask = int_slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; !int_slots_[j].rids.empty();
       j = (j + 1) & mask) {
    const size_t home = HomeSlot(int_slots_[j].key, mask);
    // Cyclic distances back from j: j may move unless `home` lies in
    // (hole, j].
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      int_slots_[hole] = std::move(int_slots_[j]);
      int_slots_[j].rids.clear();
      hole = j;
    }
  }
}

void HashIndex::Lookup(const IndexKey& key, std::vector<RowId>* out) const {
  int64_t k = 0;
  if (IntegralKey(key, &k)) {
    LookupInt(k, out);
    return;
  }
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

void HashIndex::LookupInt(int64_t key, std::vector<RowId>* out) const {
  if (int_keys_ == 0) return;
  const std::vector<RowId>& rids = int_slots_[FindSlot(key)].rids;
  out->insert(out->end(), rids.begin(), rids.end());
}

util::Status OrderedIndex::Insert(const IndexKey& key, RowId rid) {
  return InsertImpl(&map_, &entries_, unique_, name_, key, rid);
}

void OrderedIndex::Remove(const IndexKey& key, RowId rid) {
  RemoveImpl(&map_, &entries_, key, rid);
}

void OrderedIndex::Lookup(const IndexKey& key, std::vector<RowId>* out) const {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  out->insert(out->end(), it->second.begin(), it->second.end());
}

void OrderedIndex::Range(const Value& lo, bool lo_inclusive, const Value& hi,
                         bool hi_inclusive, std::vector<RowId>* out) const {
  auto it = map_.begin();
  if (!lo.is_null()) {
    IndexKey lo_key;
    lo_key.parts.push_back(lo);
    it = lo_inclusive ? map_.lower_bound(lo_key) : map_.upper_bound(lo_key);
    // upper_bound on a 1-part key still admits composite keys with the same
    // first part; advance past them for the exclusive case.
    if (!lo_inclusive) {
      while (it != map_.end() && !it->first.parts.empty() &&
             it->first.parts[0] == lo) {
        ++it;
      }
    }
  }
  for (; it != map_.end(); ++it) {
    if (!hi.is_null() && !it->first.parts.empty()) {
      const int c = it->first.parts[0].Compare(hi);
      if (c > 0 || (c == 0 && !hi_inclusive)) break;
    }
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
}

}  // namespace rel
}  // namespace sqlgraph
