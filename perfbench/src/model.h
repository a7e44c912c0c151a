// The benchmark's own view of graph data, used by the correctness checks
// and by store_bytes_per_user_byte: a canonical attribute text that does
// not depend on key order, and the user-byte count of a vertex or edge.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json/json_parser.h"
#include "json/json_value.h"
#include "sqlgraph/store.h"

namespace perfbench {

/// JSON text of `v` with object keys sorted at every level, so two stores
/// that keep attributes in different orders compare equal.
inline std::string CanonicalJson(const sqlgraph::json::JsonValue& v) {
  using sqlgraph::json::JsonValue;
  if (v.is_object()) {
    std::vector<std::pair<std::string, std::string>> members;
    for (const auto& [key, value] : v.AsObject()) {
      members.emplace_back(sqlgraph::json::Write(JsonValue(key)),
                           CanonicalJson(value));
    }
    std::sort(members.begin(), members.end());
    std::string out = "{";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i) out += ",";
      out += members[i].first + ":" + members[i].second;
    }
    return out + "}";
  }
  if (v.is_array()) {
    std::string out = "[";
    const auto& items = v.AsArray();
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) out += ",";
      out += CanonicalJson(items[i]);
    }
    return out + "]";
  }
  return sqlgraph::json::Write(v);
}

// User bytes: what a user stored, counted without any store's overhead.
// A vertex is its 8-byte id plus its attribute JSON; an edge is three
// 8-byte ids (edge, source, target), its label and its attribute JSON.
inline uint64_t VertexUserBytes(const sqlgraph::json::JsonValue& attrs) {
  return 8 + sqlgraph::json::Write(attrs).size();
}
inline uint64_t EdgeUserBytes(const std::string& label,
                              const sqlgraph::json::JsonValue& attrs) {
  return 24 + label.size() + sqlgraph::json::Write(attrs).size();
}

/// Serialized bytes of each of the six SQLGraph tables, keyed
/// "rel.bytes.<table>".
inline void AddTableBytes(const sqlgraph::core::SqlGraphStore& store,
                          std::map<std::string, double>* metrics) {
  for (const char* table : {"VA", "EA", "OPA", "IPA", "OSA", "ISA"}) {
    const sqlgraph::rel::Table* t = store.db()->GetTable(table);
    (*metrics)[std::string("rel.bytes.") + table] =
        t == nullptr ? 0.0 : static_cast<double>(t->SerializedBytes());
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
