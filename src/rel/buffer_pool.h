// Byte-budgeted LRU buffer pool over page images.
//
// Paged row stores keep their rows in serialized page blobs (the "disk").
// The pool caches immutable copies of those blobs (frames), as a DBMS
// buffer pool holds page images; readers decode a row straight from the
// frame. A miss copies the page's blob into a new frame, which stands in
// for the disk read, so a smaller budget means more page copies per access
// — the mechanism the memory-sensitivity experiment (paper Fig. 8c)
// manipulates, instead of an artificial sleep.

#ifndef SQLGRAPH_REL_BUFFER_POOL_H_
#define SQLGRAPH_REL_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "util/thread_annotations.h"

namespace sqlgraph {
namespace rel {

struct PageId {
  uint32_t store_id;
  uint32_t page_index;
  bool operator==(const PageId& o) const {
    return store_id == o.store_id && page_index == o.page_index;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& p) const {
    return (static_cast<size_t>(p.store_id) << 32) ^ p.page_index;
  }
};

/// An immutable page image: one sealed page's bytes as its store wrote
/// them. A frame is never changed once built; a write builds a new frame
/// and replaces the cached one, so a reader still holding the old frame
/// keeps a consistent image.
struct PageFrame {
  /// Bookkeeping charged per frame on top of its bytes (pool list and map
  /// entries, shared_ptr control block, string header).
  static constexpr size_t kOverheadBytes = 64;

  explicit PageFrame(std::string image)
      : bytes(std::move(image)), byte_size(bytes.size() + kOverheadBytes) {}

  const std::string bytes;
  const size_t byte_size;  // charge against the pool's budget
};

/// \brief LRU cache of page frames with a byte budget.
///
/// Thread-safe; every operation takes one internal mutex for a hash lookup
/// and a list splice. Page copies and row decoding happen outside it, in
/// the calling store, so concurrent readers of paged tables (under shared
/// table locks) serialize only on that short critical section.
class BufferPool {
 public:
  explicit BufferPool(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Returns the cached frame or nullptr on miss.
  std::shared_ptr<const PageFrame> Lookup(PageId id);

  /// Inserts (or replaces) a frame, evicting LRU frames as needed.
  void Insert(PageId id, std::shared_ptr<const PageFrame> frame);

  /// Drops every page belonging to a store.
  void InvalidateStore(uint32_t store_id);

  /// Drops everything (used between benchmark configurations).
  void Clear();

  void set_capacity(size_t bytes);
  size_t capacity() const {
    util::MutexLock lock(&mu_);
    return capacity_;
  }

  uint64_t hits() const {
    util::MutexLock lock(&mu_);
    return hits_;
  }
  uint64_t misses() const {
    util::MutexLock lock(&mu_);
    return misses_;
  }
  uint64_t evictions() const {
    util::MutexLock lock(&mu_);
    return evictions_;
  }
  size_t cached_bytes() const {
    util::MutexLock lock(&mu_);
    return used_.Read();
  }

  /// Allocates a store id for a new paged store.
  uint32_t NextStoreId() {
    util::MutexLock lock(&mu_);
    return next_store_id_++;
  }

 private:
  void EvictIfNeeded() REQUIRES(mu_);

  struct Entry {
    PageId id;
    std::shared_ptr<const PageFrame> frame;
  };

  mutable util::Mutex mu_{util::LockRank::kBufferPool, "buffer_pool"};
  size_t capacity_ GUARDED_BY(mu_);
  // Eviction driver (cached bytes). SharedVar: scheduling point + race
  // check under the schedule explorer (util/sched.h), plain size_t
  // otherwise.
  util::sched::SharedVar<size_t> used_ GUARDED_BY(mu_){"buffer_pool.used"};
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<PageId, std::list<Entry>::iterator, PageIdHash> map_
      GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
  uint32_t next_store_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace rel
}  // namespace sqlgraph

#endif  // SQLGRAPH_REL_BUFFER_POOL_H_
