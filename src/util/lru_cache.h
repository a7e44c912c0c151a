// util::LruCache — a thread-safe, single-flight LRU cache for the "parse
// once, replay many" lookups: the SQL plan cache (sql::PlanCache, which
// also serves the store's fixed CRUD statements) and the Gremlin
// translation cache (gremlin::TranslationCache).
//
// Single flight: the first caller for a missing key becomes its loader. It
// publishes a pending entry, releases the cache mutex and runs the load;
// later callers for that key find the pending entry and wait for the
// load's result instead of loading again. A successful result is cached; a
// failed one reaches every waiter but is dropped, so the next caller loads
// afresh. Counts follow loads: the loader counts the one miss, and every
// other caller — one that found a cached value or one that waited on
// another's load — counts a hit.
//
// Waiting is a lock acquisition, not a condition variable: the loader holds
// the pending entry's mutex from the moment the entry is published until
// its result is set, and a waiter takes and drops that mutex. The schedule
// explorer (util/sched.h) therefore sees a wait as an ordinary blocking
// acquisition and can drive the real cache.
//
// Lock discipline: the cache mutex has rank `rank`, a pending entry's mutex
// (rank, order 1). The loader holds the pending mutex while it loads, so
// the lock-rank validator lets a load take only locks ranked above `rank`,
// while a caller enters holding only locks ranked below it. A load thus
// never needs a lock that a waiter may hold (DESIGN.md §7). A load must not
// call back into the same cache, and must report errors through its Result
// rather than throw.

#ifndef SQLGRAPH_UTIL_LRU_CACHE_H_
#define SQLGRAPH_UTIL_LRU_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/lock_rank.h"
#include "util/sched.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlgraph {
namespace util {

/// Transparent string hash: with std::equal_to<> it lets an
/// LruCache<std::string, V> look keys up by std::string_view, so a hit
/// never materializes a std::string.
struct StringViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// `Hash` and `Eq` may be transparent (see StringViewHash); lookups then
/// accept any key-like type they accept, and only a miss builds a `K`.
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class LruCache {
 public:
  LruCache(size_t capacity, LockRank rank, const char* name)
      : capacity_(std::max<size_t>(capacity, 1)),
        rank_(rank),
        name_(name),
        mu_(rank, name) {}

  /// Returns the value for `key`, running `load()` (a callable returning
  /// Result<V>) when no usable value is cached. A cached value for which
  /// `fresh(value)` is false is replaced by a new load; `fresh` runs under
  /// the cache mutex and must not lock. `*hit`, when non-null, reports
  /// whether this caller was served without loading.
  template <typename KeyArg, typename Load, typename Fresh>
  Result<V> GetOrLoad(const KeyArg& key, Load&& load, Fresh&& fresh,
                      bool* hit = nullptr) EXCLUDES(mu_) {
    for (;;) {
      std::shared_ptr<Flight> flight;
      bool loading = false;
      {
        MutexLock guard(&mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.value.has_value() &&
            !fresh(*it->second.value)) {
          lru_.erase(it->second.lru_it);
          entries_.erase(it);
          it = entries_.end();
        }
        if (it != entries_.end()) {
          lru_.splice(lru_.begin(), lru_, it->second.lru_it);
          if (it->second.value.has_value()) {
            return Hit(*it->second.value, hit);
          }
          flight = it->second.flight;
        } else {
          // Miss: publish a pending entry whose mutex this thread holds
          // until the load's result is set.
          flight = std::make_shared<Flight>(rank_, name_);
          flight->Begin();
          lru_.push_front(K(key));
          entries_.emplace(lru_.front(),
                           Entry{lru_.begin(), flight, std::nullopt});
          while (entries_.size() > capacity_) {
            entries_.erase(lru_.back());
            lru_.pop_back();
          }
          misses_.fetch_add(1, std::memory_order_relaxed);
          loading = true;
        }
      }
      if (loading) {
        if (hit != nullptr) *hit = false;
        return Publish(key, flight, load());
      }
      Result<V> result = flight->Wait();
      // A load begun under an older notion of freshness (a plan compiled
      // before a schema-epoch bump) is retried, not returned.
      if (result.ok() && !fresh(result.value())) continue;
      return Hit(std::move(result), hit);
    }
  }

  /// GetOrLoad for values that never go stale.
  template <typename KeyArg, typename Load>
  Result<V> GetOrLoad(const KeyArg& key, Load&& load, bool* hit = nullptr)
      EXCLUDES(mu_) {
    return GetOrLoad(
        key, std::forward<Load>(load), [](const V&) { return true; }, hit);
  }

  /// Drops every entry. Loads in flight still reach their waiters; their
  /// results are not cached.
  void Clear() EXCLUDES(mu_) {
    MutexLock guard(&mu_);
    entries_.clear();
    lru_.clear();
  }

  /// Cached plus in-flight entries.
  size_t size() const EXCLUDES(mu_) {
    MutexLock guard(&mu_);
    return entries_.size();
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  // One in-flight load. Its mutex is the wait: see the header comment.
  class Flight {
   public:
    Flight(LockRank rank, const char* name) : mu_(rank, name, /*order=*/1) {}

    // Begin runs under the cache mutex, before the entry is visible; End
    // sets the result and releases the waiters. The mutex is held across
    // the caller's load, between the two calls, which the static analysis
    // cannot follow.
    void Begin() NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
    void End(const Result<V>& result) NO_THREAD_SAFETY_ANALYSIS {
      result_.Write() = result;
      mu_.unlock();
    }
    Result<V> Wait() EXCLUDES(mu_) {
      MutexLock guard(&mu_);
      return *result_.Read();
    }

   private:
    Mutex mu_;
    sched::SharedVar<std::optional<Result<V>>> result_ GUARDED_BY(mu_){
        "lru_cache.flight_result"};
  };

  struct Entry {
    typename std::list<K>::iterator lru_it;
    std::shared_ptr<Flight> flight;  // set while the load runs
    std::optional<V> value;          // set once it succeeded
  };

  template <typename R>
  R Hit(R value, bool* hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit != nullptr) *hit = true;
    return value;
  }

  // Hands the load's result to the waiters, then caches it (success) or
  // drops the pending entry (failure) — unless Clear() or eviction already
  // removed that entry.
  template <typename KeyArg>
  Result<V> Publish(const KeyArg& key, const std::shared_ptr<Flight>& flight,
                    Result<V> result) EXCLUDES(mu_) {
    flight->End(result);
    MutexLock guard(&mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.flight == flight) {
      if (result.ok()) {
        it->second.value = result.value();
        it->second.flight.reset();
      } else {
        lru_.erase(it->second.lru_it);
        entries_.erase(it);
      }
    }
    return result;
  }

  const size_t capacity_;
  const LockRank rank_;
  const char* const name_;
  mutable Mutex mu_;
  std::list<K> lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<K, Entry, Hash, Eq> entries_ GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace util
}  // namespace sqlgraph

#endif  // SQLGRAPH_UTIL_LRU_CACHE_H_
