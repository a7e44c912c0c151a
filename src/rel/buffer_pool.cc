#include "rel/buffer_pool.h"

#include "obs/metrics.h"

namespace sqlgraph {
namespace rel {

namespace {
// Process-wide registry export, aggregated across pool instances; the
// per-instance hits()/misses() accessors keep their per-pool meaning.
obs::Counter* HitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.hits");
  return c;
}
obs::Counter* MissCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.misses");
  return c;
}
obs::Counter* EvictionCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("rel.buffer_pool.evictions");
  return c;
}
}  // namespace

std::shared_ptr<const PageFrame> BufferPool::Lookup(PageId id) {
  util::MutexLock lock(&mu_);
  auto it = map_.find(id);
  if (it == map_.end()) {
    ++misses_;
    MissCounter()->Increment();
    return nullptr;
  }
  ++hits_;
  HitCounter()->Increment();
  // Move to front of LRU list.
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->frame;
}

void BufferPool::Insert(PageId id, std::shared_ptr<const PageFrame> frame) {
  util::MutexLock lock(&mu_);
  auto it = map_.find(id);
  if (it != map_.end()) {
    used_.Write() -= it->second->frame->byte_size;
    lru_.erase(it->second);
    map_.erase(it);
  }
  used_.Write() += frame->byte_size;
  lru_.push_front(Entry{id, std::move(frame)});
  map_[id] = lru_.begin();
  EvictIfNeeded();
}

void BufferPool::InvalidateStore(uint32_t store_id) {
  util::MutexLock lock(&mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->id.store_id == store_id) {
      used_.Write() -= it->frame->byte_size;
      map_.erase(it->id);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void BufferPool::Clear() {
  util::MutexLock lock(&mu_);
  lru_.clear();
  map_.clear();
  used_.Write() = 0;
  hits_ = misses_ = evictions_ = 0;
}

void BufferPool::set_capacity(size_t bytes) {
  util::MutexLock lock(&mu_);
  capacity_ = bytes;
  EvictIfNeeded();
}

void BufferPool::EvictIfNeeded() {
  while (used_.Read() > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    used_.Write() -= victim.frame->byte_size;
    map_.erase(victim.id);
    lru_.pop_back();
    ++evictions_;
    EvictionCounter()->Increment();
  }
}

}  // namespace rel
}  // namespace sqlgraph
