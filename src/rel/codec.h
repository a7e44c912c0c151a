// Binary row codec used by the paged row store. Rows are serialized into
// page blobs; every paged read decodes its row from a cached page image,
// and every paged write encodes its row into the page.

#ifndef SQLGRAPH_REL_CODEC_H_
#define SQLGRAPH_REL_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rel/schema.h"
#include "rel/value.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

/// Appends a serialized row to `out`. Format per value: 1 type tag byte,
/// then a fixed 8-byte payload for numbers, or a varint length + bytes for
/// strings/JSON (JSON is stored as compact text).
void EncodeRow(const Row& row, std::string* out);

/// Decodes one row (arity `num_columns`) starting at `*offset`; advances
/// `*offset` past it.
util::Status DecodeRow(const std::string& buf, size_t num_columns,
                       size_t* offset, Row* out);

/// Decodes one row like DecodeRow but appends only the columns listed in
/// `projection` (ascending column indexes; empty = every column) to `*out`,
/// after what it already holds. Skipped strings and JSON documents are
/// stepped over without being copied or parsed.
util::Status DecodeRowProjected(const std::string& buf, size_t num_columns,
                                size_t* offset,
                                const std::vector<int>& projection, Row* out);

/// Varint helpers (LEB128, unsigned).
void PutVarint(uint64_t v, std::string* out);
util::Status GetVarint(const std::string& buf, size_t* offset, uint64_t* out);

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_CODEC_H_
