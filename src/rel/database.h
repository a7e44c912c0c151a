// Database catalog: named tables sharing one buffer pool.

#ifndef SQLGRAPH_REL_DATABASE_H_
#define SQLGRAPH_REL_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rel/buffer_pool.h"
#include "rel/table.h"
#include "util/status.h"

namespace sqlgraph {
namespace rel {

class Database {
 public:
  /// `buffer_pool_bytes` only constrains tables created with
  /// StorageMode::kPaged; resident tables ignore it.
  explicit Database(size_t buffer_pool_bytes = 256ull << 20)
      : pool_(buffer_pool_bytes) {}

  /// Creates an empty table; fails if the name is taken.
  util::Result<Table*> CreateTable(const std::string& name, Schema schema,
                                   StorageMode mode = StorageMode::kResident);

  Table* GetTable(std::string_view name);
  const Table* GetTable(std::string_view name) const;

  util::Status DropTable(const std::string& name);

  BufferPool* buffer_pool() { return &pool_; }

  /// Serialized footprint of all tables ("size on disk").
  size_t TotalSerializedBytes() const;

  /// Sum of every table's mutation_count(): a cheap database-wide "anything
  /// changed?" signal for the WAL checkpoint coordinator.
  uint64_t TotalMutations() const;

  const std::unordered_map<std::string, std::unique_ptr<Table>>& tables()
      const {
    return tables_;
  }

 private:
  BufferPool pool_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_DATABASE_H_
