// Tests for the runtime lock-rank validator (util/lock_rank.h) and the
// annotated mutex shims (util/thread_annotations.h).
//
// Death tests prove that a hierarchy inversion aborts with the documented
// "lock-rank violation" diagnostic instead of deadlocking; the positive
// tests drive every acquisition shape the real subsystems use (ascending
// ranks, same-rank sub-orders, out-of-order release, condvar-style
// unlock/relock) with checking force-enabled, and an end-to-end test runs
// concurrent store CRUD + checkpoints + SQL under the validator so any rank
// misassignment in the production hierarchy aborts the suite. These tests
// must also run clean under TSan (ci/check.sh builds the suite with
// -fsanitize=thread).

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "rel/buffer_pool.h"
#include "sqlgraph/store.h"
#include "util/lock_rank.h"
#include "util/thread_annotations.h"
#include "wal/durability.h"

namespace sqlgraph {
namespace util {
namespace {

namespace fs = std::filesystem;

/// Force-enables rank checking for one test and restores the previous
/// setting afterwards (tier-1 runs in Release, where the default is off).
class ScopedRankChecking {
 public:
  explicit ScopedRankChecking(bool enabled)
      : prev_(LockRankCheckingEnabled()) {
    SetLockRankCheckingEnabled(enabled);
  }
  ~ScopedRankChecking() { SetLockRankCheckingEnabled(prev_); }

 private:
  const bool prev_;
};

// ------------------------------------------------------------ inversions --

using LockRankDeathTest = ::testing::Test;

TEST(LockRankDeathTest, RankInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(LockRank::kWalRotate, "low");
  Mutex high(LockRank::kBufferPool, "high");
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        high.lock();
        low.lock();  // rank 10 after rank 50: inversion
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SharedAcquisitionIsAlsoChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex low(LockRank::kWalRotate, "rotate");
  Mutex high(LockRank::kWalWriter, "writer");
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        high.lock();
        low.lock_shared();  // shared mode does not excuse the inversion
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankEqualOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two mutexes with the same (rank, order) pair — nothing orders them, so
  // acquiring the second while holding the first can deadlock against a
  // thread that takes them the other way round.
  Mutex a(LockRank::kStoreTable, "table_twin_a", 4);
  Mutex b(LockRank::kStoreTable, "table_twin_b", 4);
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        a.lock();
        b.lock();
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, SameRankDescendingOrderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedMutex s3(LockRank::kStoreTable, "table_isa", 3);
  SharedMutex s1(LockRank::kStoreTable, "table_ipa", 1);
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        s3.lock();
        s1.lock();  // descending TableIdx order
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu(LockRank::kBufferPool, "pool");
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        mu.lock();
        mu.lock();  // std::mutex UB, caught before it deadlocks
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, TryLockSuccessIsChecked) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(LockRank::kThreadPool, "pool");
  Mutex high(LockRank::kMetricsRegistry, "metrics");
  EXPECT_DEATH(
      {
        SetLockRankCheckingEnabled(true);
        high.lock();
        // The try_lock succeeds (nobody holds `low`), which still leaves
        // this thread holding locks in an undocumented order.
        (void)low.try_lock();
      },
      "lock-rank violation");
}

// -------------------------------------------------------- positive paths --

TEST(LockRankTest, AscendingRanksAreClean) {
  ScopedRankChecking check(true);
  SharedMutex rotate(LockRank::kWalRotate, "rotate");
  SharedMutex table(LockRank::kStoreTable, "table_va", 4);
  SharedMutex counter(LockRank::kStoreCounter, "counter");
  Mutex writer(LockRank::kWalWriter, "writer");
  Mutex metrics(LockRank::kMetricsRegistry, "metrics");
  // The CRUD commit shape: rotate(shared) → table → counter → wal → metrics.
  rotate.lock_shared();
  table.lock();
  counter.lock();
  metrics.lock();
  metrics.unlock();
  counter.unlock();
  writer.lock();
  writer.unlock();
  table.unlock();
  rotate.unlock_shared();
}

TEST(LockRankTest, SameRankAscendingOrderIsClean) {
  ScopedRankChecking check(true);
  // Same-rank mutexes sub-ordered like the six table locks: every pair
  // taken in ascending order, then all six at once, must never trip the
  // validator.
  constexpr int kN = 6;
  std::vector<std::unique_ptr<Mutex>> mus;
  for (int i = 0; i < kN; ++i) {
    mus.push_back(std::make_unique<Mutex>(LockRank::kStoreTable, "table", i));
  }
  for (int a = 0; a < kN; ++a) {
    for (int b = a + 1; b < kN; ++b) {
      mus[a]->lock();
      mus[b]->lock();
      mus[b]->unlock();
      mus[a]->unlock();
    }
  }
  for (auto& mu : mus) mu->lock();
  for (auto& mu : mus) mu->unlock();
}

TEST(LockRankTest, OutOfOrderReleaseIsClean) {
  ScopedRankChecking check(true);
  // WriteLock's guard vectors destroy in non-LIFO order; release must
  // remove by identity, not pop, or the next acquisition misfires.
  Mutex a(LockRank::kWalRotate, "a");
  Mutex b(LockRank::kBufferPool, "b");
  a.lock();
  b.lock();
  a.unlock();  // released before b despite being acquired first
  b.unlock();
  a.lock();  // stack must be empty again
  a.unlock();
}

TEST(LockRankTest, UnrankedMutexesAreNotTracked) {
  ScopedRankChecking check(true);
  Mutex ranked(LockRank::kMetricsRegistry, "metrics");
  Mutex unranked;  // default-constructed: annotations only
  ranked.lock();
  unranked.lock();  // would be an inversion if the unranked lock ranked
  unranked.unlock();
  ranked.unlock();
}

TEST(LockRankTest, DisabledCheckingIgnoresInversions) {
  ScopedRankChecking check(false);
  Mutex low(LockRank::kWalRotate, "low");
  Mutex high(LockRank::kBufferPool, "high");
  high.lock();
  low.lock();  // inversion, but the validator is off
  low.unlock();
  high.unlock();
}

TEST(LockRankTest, WaitReacquisitionReenters) {
  ScopedRankChecking check(true);
  // condition_variable_any routes its unlock/relock through the shim; the
  // relock after a wait must re-enter the rank stack cleanly. Simulate the
  // unlock/relock pair std::unique_lock performs around a wait.
  Mutex mu(LockRank::kWalWriter, "writer");
  std::unique_lock<Mutex> lock(mu);
  lock.unlock();
  lock.lock();
}

// --------------------------------------------------- production hierarchy --

json::JsonValue Attrs(std::initializer_list<std::pair<const char*, int>> kv) {
  json::JsonValue obj = json::JsonValue::Object();
  for (const auto& [k, v] : kv) obj.Set(k, json::JsonValue(int64_t{v}));
  return obj;
}

// Concurrent CRUD + SQL + checkpoints with the validator on: every lock
// acquisition the store makes is checked against the documented hierarchy,
// so a misranked mutex aborts here rather than deadlocking in production.
TEST(LockRankTest, StoreWorkloadRespectsHierarchy) {
  ScopedRankChecking check(true);
  core::StoreConfig config;
  config.durability_dir =
      std::string(::testing::TempDir()) + "/lock_rank_store";
  fs::remove_all(config.durability_dir);
  auto store = wal::OpenDurableStore(config);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // This worker's previous vertex. Ids are drawn before a vertex's row
      // is written, so another worker's id may not have a row yet; a
      // worker's own vertices always do.
      core::VertexId prev = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto v = (*store)->AddVertex(Attrs({{"n", i}}));
        if (!v.ok()) {
          failed = true;
          return;
        }
        if (i > 0) {
          auto e = (*store)->AddEdge(prev, *v, "next", Attrs({}));
          if (!e.ok()) failed = true;
          (void)(*store)->Out(prev);
          (void)(*store)->CountOutEdges(prev, "next");
        }
        prev = *v;
        if (t == 0 && i % 16 == 0) {
          if (!(*store)->Checkpoint().ok()) failed = true;
        }
        if (i % 8 == 0) {
          auto rs = (*store)->ExecuteSql("SELECT COUNT(*) FROM VA");
          if (!rs.ok()) failed = true;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  fs::remove_all(config.durability_dir);
}

// ------------------------------------------- buffer-pool race regressions --

// Regression: hits()/misses()/evictions()/cached_bytes()/capacity() used to
// read their counters without the pool mutex — a data race against any
// concurrent Lookup/Insert (TSan catches reversions of the fix here).
TEST(BufferPoolStatsTest, AccessorsAreRaceFreeAgainstWriters) {
  rel::BufferPool pool(1 << 16);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      sink += pool.hits() + pool.misses() + pool.evictions() +
              pool.cached_bytes() + pool.capacity();
    }
    EXPECT_GE(sink, 0u);
  });
  constexpr int kWriters = 3;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint32_t i = 0; i < 500; ++i) {
        auto page = std::make_shared<const rel::PageFrame>(
            std::string(512 - rel::PageFrame::kOverheadBytes, 'x'));
        const rel::PageId id{static_cast<uint32_t>(t), i};
        pool.Insert(id, std::move(page));
        (void)pool.Lookup(id);
        (void)pool.Lookup(rel::PageId{static_cast<uint32_t>(t), i + 1});
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  // Every Lookup above was counted exactly once under the lock.
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(kWriters) * 1000u);
}

// Regression: NextStoreId() used to be `return next_store_id_++;` with no
// synchronization — concurrent paged-store creation could hand out the same
// store id twice, silently mixing two stores' pages in the pool.
TEST(BufferPoolStatsTest, NextStoreIdIsUniqueUnderConcurrency) {
  rel::BufferPool pool(1 << 16);
  constexpr int kThreads = 4;
  constexpr int kIdsPerThread = 250;
  std::vector<std::vector<uint32_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ids[t].reserve(kIdsPerThread);
      for (int i = 0; i < kIdsPerThread; ++i) ids[t].push_back(pool.NextStoreId());
    });
  }
  for (auto& th : threads) th.join();
  std::vector<uint32_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate store id handed out";
}

}  // namespace
}  // namespace util
}  // namespace sqlgraph
