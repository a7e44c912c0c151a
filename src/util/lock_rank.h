// Runtime lock-rank validation: every ranked mutex belongs to one global
// acquisition hierarchy, and a debug-checked per-thread stack aborts the
// process the moment any thread acquires locks out of documented order —
// whether or not the interleaving that would deadlock actually occurs.
//
// This complements the Clang thread-safety annotations
// (util/thread_annotations.h): the annotations prove "this member is only
// touched under its mutex" statically, but they cannot express cross-mutex
// *ordering* invariants, condition-variable handoffs, or the WAL
// Enqueue/WaitDurable split where a lock is released between the two halves
// of one logical operation. The rank validator covers exactly that gap at
// runtime.
//
// The global hierarchy (acquired strictly in increasing rank order; see
// DESIGN.md "Lock hierarchy & error discipline" for the protocol-level
// rationale):
//
//   kThreadPool        bench thread-pool queue; never held across a task
//   kWalRotate         SqlGraphStore::wal_rotate_mu_ — CommitGuard (shared)
//                      / Checkpoint (exclusive); the outermost store lock
//   kBaselineStore     baseline stores' one big request lock (independent
//                      subsystem; never nested with sqlgraph locks)
//   kStoreTable        the six table locks, sub-ordered by TableIdx
//                      (OPA < IPA < OSA < ISA < VA < EA)
//   kStoreCounter      id-counter lock; taken while holding table locks
//                      (list-id allocation inside AddAdjacencyEntry)
//   kTxnManager        SqlGraphStore::txn_mu_ — conflict map + active-txn
//                      registry; commit validates/publishes while holding
//                      the table locks, so it ranks above kStoreTable (and
//                      above kStoreCounter: commit allocates ids first).
//                      Never nested with kWalWriter on the same thread
//                      (Enqueue happens after txn_mu_ is released).
//   kWalWriter         wal::LogWriter::mu_ — Enqueue runs under the
//                      serializing table lock, so the writer ranks below
//                      nothing it is ever held with
//   kBufferPool        rel::BufferPool::mu_ — frame lookups and inserts
//                      during reads that already hold table locks
//   kTranslationCache  gremlin::TranslationCache's util::LruCache
//   kPlanCache         sql::PlanCache's util::LruCache — also reached from
//                      the store's CRUD templates under table locks. A
//                      cache's pending-load mutexes share its rank at
//                      order 1, held by the loader for the whole load, so
//                      a load may take only locks ranked above its cache
//   kPlanMemo          sql::PlanMemo::mu_ (leaf; plain map accessors)
//   kStoreStats        SqlGraphStore::stats_mu_ (leaf)
//   kMetricsRegistry   obs::MetricsRegistry::mu_ — metric creation happens
//                      lazily under any of the locks above, so the registry
//                      is the global leaf
//
// Checking is compiled in unconditionally but costs one relaxed atomic load
// plus a branch when disabled. It defaults ON in debug builds (!NDEBUG) so
// the ASan/TSan CI stages validate the hierarchy across the whole test
// suite, and OFF in release builds; SQLGRAPH_LOCK_RANK=0/1 overrides the
// default, and SetLockRankCheckingEnabled() overrides both.

#ifndef SQLGRAPH_UTIL_LOCK_RANK_H_
#define SQLGRAPH_UTIL_LOCK_RANK_H_

#include <atomic>

namespace sqlgraph {
namespace util {

/// Global mutex hierarchy; a thread may only acquire a lock whose
/// (rank, order) pair is strictly greater than every lock it already holds.
enum class LockRank : int {
  kUnranked = 0,  ///< Not tracked (default-constructed shims, local mutexes).
  kThreadPool = 5,
  kWalRotate = 10,
  kBaselineStore = 15,
  kStoreTable = 20,
  kStoreCounter = 30,
  kTxnManager = 35,
  kWalWriter = 40,
  kBufferPool = 50,
  kTranslationCache = 70,
  kPlanCache = 80,
  kPlanMemo = 85,
  kStoreStats = 90,
  kMetricsRegistry = 100,
};

/// Identity of one ranked mutex. `order` sub-orders mutexes that share a
/// rank and are legitimately held together (table locks by TableIdx, a
/// cache mutex then its pending-load mutex); two distinct mutexes with the
/// same (rank, order) may never be held by one thread at once.
struct LockRankInfo {
  LockRank rank = LockRank::kUnranked;
  int order = 0;
  const char* name = "";
};

/// True when acquisitions are being validated on this process.
bool LockRankCheckingEnabled();
/// Force checking on/off (tests); overrides the build-type/env default.
void SetLockRankCheckingEnabled(bool enabled);

namespace lock_rank_internal {
extern std::atomic<bool> g_checking;
void AcquireSlow(const void* mu, const LockRankInfo& info);
void ReleaseSlow(const void* mu);
}  // namespace lock_rank_internal

/// Hot-path hooks called by the Mutex/SharedMutex shims. Validation happens
/// *before* the underlying lock call blocks, so a real inversion aborts
/// with stack traces instead of deadlocking silently.
inline void LockRankOnAcquire(const void* mu, const LockRankInfo& info) {
  if (info.rank == LockRank::kUnranked) return;
  if (!lock_rank_internal::g_checking.load(std::memory_order_relaxed)) return;
  lock_rank_internal::AcquireSlow(mu, info);
}

inline void LockRankOnRelease(const void* mu, const LockRankInfo& info) {
  if (info.rank == LockRank::kUnranked) return;
  if (!lock_rank_internal::g_checking.load(std::memory_order_relaxed)) return;
  lock_rank_internal::ReleaseSlow(mu);
}

}  // namespace util
}  // namespace sqlgraph

#endif  // SQLGRAPH_UTIL_LOCK_RANK_H_
