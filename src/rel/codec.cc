#include "rel/codec.h"

#include <cstring>

#include "json/json_parser.h"

namespace sqlgraph {
namespace rel {

namespace {
enum Tag : uint8_t {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagJson = 6,
};

void PutFixed64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

util::Status GetFixed64(const std::string& buf, size_t* offset, uint64_t* out) {
  if (*offset > buf.size() || buf.size() - *offset < 8) {
    return util::Status::OutOfRange("truncated fixed64");
  }
  std::memcpy(out, buf.data() + *offset, 8);
  *offset += 8;
  return util::Status::OK();
}
}  // namespace

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

util::Status GetVarint(const std::string& buf, size_t* offset, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (*offset < buf.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(buf[*offset]);
    ++*offset;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return util::Status::OK();
    }
    shift += 7;
  }
  return util::Status::OutOfRange("truncated varint");
}

void EncodeRow(const Row& row, std::string* out) {
  for (const Value& v : row) {
    if (v.is_null()) {
      out->push_back(kTagNull);
    } else if (v.is_bool()) {
      out->push_back(v.AsBool() ? kTagTrue : kTagFalse);
    } else if (v.is_int()) {
      out->push_back(kTagInt);
      PutFixed64(static_cast<uint64_t>(v.AsInt()), out);
    } else if (v.is_double()) {
      out->push_back(kTagDouble);
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, 8);
      PutFixed64(bits, out);
    } else if (v.is_string()) {
      out->push_back(kTagString);
      PutVarint(v.AsString().size(), out);
      out->append(v.AsString());
    } else {
      out->push_back(kTagJson);
      const std::string text = json::Write(v.AsJson());
      PutVarint(text.size(), out);
      out->append(text);
    }
  }
}

namespace {

/// Decodes the value at `*offset` and appends it to `*out`, or, when `out`
/// is null, only steps over it (no string copy, no JSON parse).
util::Status DecodeValue(const std::string& buf, size_t* offset, Row* out) {
  if (*offset >= buf.size()) return util::Status::OutOfRange("truncated row");
  const uint8_t tag = static_cast<uint8_t>(buf[*offset]);
  ++*offset;
  switch (tag) {
    case kTagNull:
      if (out != nullptr) out->emplace_back();
      return util::Status::OK();
    case kTagFalse:
    case kTagTrue:
      if (out != nullptr) out->emplace_back(tag == kTagTrue);
      return util::Status::OK();
    case kTagInt: {
      uint64_t bits;
      RETURN_NOT_OK(GetFixed64(buf, offset, &bits));
      if (out != nullptr) out->emplace_back(static_cast<int64_t>(bits));
      return util::Status::OK();
    }
    case kTagDouble: {
      uint64_t bits;
      RETURN_NOT_OK(GetFixed64(buf, offset, &bits));
      double d;
      std::memcpy(&d, &bits, 8);
      if (out != nullptr) out->emplace_back(d);
      return util::Status::OK();
    }
    case kTagString:
    case kTagJson: {
      uint64_t len;
      RETURN_NOT_OK(GetVarint(buf, offset, &len));
      // Overflow-safe form: *offset + len can wrap for adversarial len.
      if (len > buf.size() - *offset) {
        return util::Status::OutOfRange(tag == kTagString
                                            ? "truncated string payload"
                                            : "truncated json payload");
      }
      if (out != nullptr) {
        if (tag == kTagString) {
          out->emplace_back(buf.substr(*offset, len));
        } else {
          ASSIGN_OR_RETURN(
              json::JsonValue jv,
              json::Parse(std::string_view(buf).substr(*offset, len)));
          out->emplace_back(std::move(jv));
        }
      }
      *offset += len;
      return util::Status::OK();
    }
    default:
      return util::Status::Internal("bad value tag " + std::to_string(tag));
  }
}

}  // namespace

util::Status DecodeRow(const std::string& buf, size_t num_columns,
                       size_t* offset, Row* out) {
  out->clear();
  return DecodeRowProjected(buf, num_columns, offset, {}, out);
}

util::Status DecodeRowProjected(const std::string& buf, size_t num_columns,
                                size_t* offset,
                                const std::vector<int>& projection, Row* out) {
  out->reserve(out->size() +
               (projection.empty() ? num_columns : projection.size()));
  size_t next = 0;  // cursor into the ascending projection
  for (size_t c = 0; c < num_columns; ++c) {
    const bool wanted = projection.empty() ||
                        (next < projection.size() &&
                         static_cast<size_t>(projection[next]) == c);
    if (wanted && !projection.empty()) ++next;
    RETURN_NOT_OK(DecodeValue(buf, offset, wanted ? out : nullptr));
  }
  if (next != projection.size()) {
    return util::Status::InvalidArgument(
        "projection is not ascending or names a missing column");
  }
  return util::Status::OK();
}

}  // namespace rel
}  // namespace sqlgraph
