// Tests for util::sched (DESIGN.md §13): the deterministic schedule
// explorer, the vector-clock happens-before race checker, and the model
// checks it enables over the real concurrency core —
//
//  * explorer unit tests on tiny models (PCT finds an unsynchronized
//    counter race; DFS exhausts a locked model; DFS finds a lost update;
//    deadlock detection; Choose() branching; WaitUntil handoff),
//  * mutation self-tests: with SQLGRAPH_SCHED_SELFTEST-style injection the
//    harness must catch a deliberately re-broken store (unlocked GC
//    watermark read; skipped first-committer-wins validation) and replay
//    each failure byte-identically from its token,
//  * model checks of the real subsystems: version-log GC vs concurrent
//    snapshot scans (raw rel::Table, exhaustive), store-level txn
//    begin/end vs autocommit trims (PCT), a WAL group-commit protocol
//    model with crash-point injection (correct variant exhaustively safe,
//    ack-before-fsync variant caught), buffer-pool eviction vs a pinned
//    page, and the real util::LruCache's single-flight load (exhaustive).
//
// The PCT trial count is SQLGRAPH_SCHED_TRIALS when set (the CI sched
// stage elevates it); defaults here keep the default ctest run fast.

#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/property_graph.h"
#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "rel/buffer_pool.h"
#include "rel/row_store.h"
#include "rel/schema.h"
#include "rel/table.h"
#include "sqlgraph/store.h"
#include "sqlgraph/txn.h"
#include "util/lru_cache.h"
#include "util/sched.h"
#include "util/thread_annotations.h"

namespace sqlgraph {
namespace util {
namespace sched {
namespace {

using core::SqlGraphStore;
using core::Txn;
using graph::PropertyGraph;
using graph::VertexId;

using Bodies = std::vector<std::function<void()>>;

int TrialsFromEnv(int default_trials) {
  const char* env = std::getenv("SQLGRAPH_SCHED_TRIALS");
  if (env == nullptr || *env == '\0') return default_trials;
  const int n = std::atoi(env);
  return n > 0 ? n : default_trials;
}

/// Scoped bug injection; restores kNone even when an assertion fails out.
class ScopedSelfTest {
 public:
  explicit ScopedSelfTest(SelfTest mode) { SetSelfTestModeForTest(mode); }
  ~ScopedSelfTest() { SetSelfTestModeForTest(SelfTest::kNone); }
};

json::JsonValue Attr(const char* key, json::JsonValue value) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set(key, std::move(value));
  return obj;
}

int64_t IntAttr(const json::JsonValue& obj, const char* key) {
  const json::JsonValue* v = obj.Find(key);
  EXPECT_NE(v, nullptr) << key;
  return v == nullptr ? -1 : v->AsInt();
}

std::unique_ptr<SqlGraphStore> EmptyStore() {
  auto built = SqlGraphStore::Build(PropertyGraph());
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// ------------------------------------------------------- explorer basics --

TEST(SchedExplorerTest, PctFindsUnsynchronizedCounterRace) {
  SharedVar<int> counter{"counter"};
  SchedOptions opts;
  opts.trials = TrialsFromEnv(50);
  opts.setup = [&] { counter.MutUnchecked() = 0; };
  Bodies bodies = {
      [&] { counter.Write() += 1; },
      [&] { counter.Write() += 1; },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  ASSERT_FALSE(r.ok) << "two unlocked writes must race";
  EXPECT_NE(r.failure.find("data race on SharedVar 'counter'"),
            std::string::npos)
      << r.failure;
  ASSERT_EQ(r.races.size(), 1u);
  EXPECT_EQ(r.races[0].var, "counter");
  // Both stacks are attached, lock_rank-style.
  EXPECT_NE(r.races[0].first.find("write"), std::string::npos);
  EXPECT_NE(r.races[0].second.find("write"), std::string::npos);
  ASSERT_FALSE(r.token.empty());

  // The printed token replays the failure deterministically.
  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.token, r.token);
  EXPECT_NE(rep.failure.find("data race on SharedVar 'counter'"),
            std::string::npos);
}

TEST(SchedExplorerTest, LockedCounterPassesPctAndExhaustiveDfs) {
  Mutex mu;  // unranked: leaf-scoped test lock
  SharedVar<int> counter{"counter"};
  SchedOptions opts;
  opts.trials = TrialsFromEnv(25);
  opts.setup = [&] { counter.MutUnchecked() = 0; };
  opts.invariant = [&]() -> std::string {
    return counter.PeekUnchecked() == 2 ? "" : "counter != 2";
  };
  auto inc = [&] {
    MutexLock lock(&mu);
    counter.Write() += 1;
  };
  Bodies bodies = {inc, inc};

  Explorer ex(opts);
  ScheduleResult pct = ex.RunPct(bodies);
  EXPECT_TRUE(pct.ok) << pct.failure;
  EXPECT_TRUE(pct.races.empty());
  EXPECT_EQ(pct.schedules, static_cast<uint64_t>(opts.trials));

  ScheduleResult dfs = ex.RunDfs(bodies);
  EXPECT_TRUE(dfs.ok) << dfs.failure;
  EXPECT_TRUE(dfs.exhausted) << "small model must be fully explored";
  EXPECT_GE(dfs.schedules, 2u) << "both acquisition orders must be visited";
}

TEST(SchedExplorerTest, DfsFindsLostUpdateAndReplaysIt) {
  // Non-atomic read-modify-write: DFS must find the read/read/write/write
  // interleaving where one increment is lost. Race checking is off so the
  // *invariant* (not the HB checker) has to catch it.
  SharedVar<int> val{"val"};
  SchedOptions opts;
  opts.check_races = false;
  opts.setup = [&] { val.MutUnchecked() = 0; };
  opts.invariant = [&]() -> std::string {
    const int v = val.PeekUnchecked();
    return v == 2 ? "" : "lost update: val == " + std::to_string(v);
  };
  auto rmw = [&] {
    const int v = val.Read();
    Yield();
    val.Write() = v + 1;
  };
  Bodies bodies = {rmw, rmw};

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("lost update"), std::string::npos) << r.failure;
  ASSERT_FALSE(r.token.empty());

  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.token, r.token);
  // RunDfs suffixes the replay token onto the message; the replayed
  // diagnosis is the same failure.
  EXPECT_EQ(r.failure.find(rep.failure), 0u) << rep.failure;
}

TEST(SchedExplorerTest, DfsDetectsAbBaDeadlock) {
  Mutex a;
  Mutex b;
  SchedOptions opts;
  Bodies bodies = {
      [&] {
        MutexLock la(&a);
        Yield();
        MutexLock lb(&b);
      },
      [&] {
        MutexLock lb(&b);
        Yield();
        MutexLock la(&a);
      },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("deadlock"), std::string::npos) << r.failure;

  // The deadlocking schedule replays: same decisions, same diagnosis.
  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.failure.find("deadlock"), std::string::npos) << rep.failure;
}

TEST(SchedExplorerTest, DfsBranchesChooseExhaustively) {
  std::array<bool, 3> seen = {false, false, false};
  SchedOptions opts;
  Bodies bodies = {[&] { seen[Choose(3)] = true; }};

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.schedules, 3u);
  EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(SchedExplorerTest, WaitUntilHandoffIsNotAFalseRace) {
  // Producer publishes through a plain SharedVar, consumer blocks in
  // WaitUntil on the flag: the grant edge (the cv-handoff analogue) must
  // order the write before the read, so no race is reported.
  SharedVar<int> data{"data"};
  SharedVar<bool> ready{"ready"};
  SchedOptions opts;
  opts.setup = [&] {
    data.MutUnchecked() = 0;
    ready.MutUnchecked() = false;
  };
  Bodies bodies = {
      [&] {
        data.Write() = 42;
        ready.Write() = true;
      },
      [&] {
        if (!WaitUntil([&] { return ready.PeekUnchecked(); })) return;
        if (data.Read() != 42) Fail("handoff read stale data");
      },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.exhausted);
  EXPECT_TRUE(r.races.empty());
}

// ------------------------------------------------- mutation self-tests --
//
// The harness must *detect*, not just run: re-break the store on purpose
// and require the exact report, then replay it byte-identically.

TEST(SchedSelfTest, InjectedWatermarkRaceIsCaughtAndReplays) {
  ScopedSelfTest mode(SelfTest::kRace);
  std::unique_ptr<SqlGraphStore> store;
  std::unique_ptr<Txn> pin;  // keeps a txn active so mutations record MVCC
  VertexId base = 0;
  SchedOptions opts;
  opts.trials = TrialsFromEnv(100);
  opts.setup = [&] {
    pin.reset();
    store = EmptyStore();
    auto v = store->AddVertex(Attr("n", json::JsonValue(0)));
    ASSERT_TRUE(v.ok());
    base = *v;
    // Pre-warm every static-local metrics counter on the explored paths
    // (begin/rollback, versioned autocommit) — function-local static
    // initialization blocks in a guard the controller cannot see.
    pin = store->BeginTxn();
    ASSERT_TRUE(store->SetVertexAttr(base, "warm", json::JsonValue(1)).ok());
    (void)store->BeginTxn()->Rollback();
  };
  Bodies bodies = {
      // Versioned autocommit mutation: PublishAndTrimLocked's injected bug
      // reads the snapshot registry after dropping txn_mu_.
      [&] { (void)store->SetVertexAttr(base, "x", json::JsonValue(1)); },
      // Snapshot begin/end: writes the registry under txn_mu_.
      [&] { (void)store->BeginTxn()->Rollback(); },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  ASSERT_FALSE(r.ok) << "injected unlocked watermark read must be reported";
  EXPECT_NE(r.failure.find("data race on SharedVar 'store.active_read_ts'"),
            std::string::npos)
      << r.failure;
  ASSERT_FALSE(r.races.empty());
  ASSERT_FALSE(r.token.empty());

  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.token, r.token) << "replay must be byte-identical";
  EXPECT_NE(rep.failure.find("data race on SharedVar 'store.active_read_ts'"),
            std::string::npos)
      << rep.failure;
  pin.reset();
}

namespace {
struct ReorderRig {
  std::unique_ptr<SqlGraphStore> store;
  VertexId base = 0;
  std::array<bool, 2> committed = {false, false};

  void Reset() {
    store = EmptyStore();
    auto v = store->AddVertex(Attr("n", json::JsonValue(0)));
    ASSERT_TRUE(v.ok());
    base = *v;
    committed = {false, false};
    // Pre-warm every lazily-initialized static on the explored paths
    // (metrics counters, snapshot-read templates): function-local static
    // initialization blocks in a guard the controller cannot see, so it
    // must finish before exploration starts.
    auto warm = store->BeginTxn();
    ASSERT_TRUE(warm->GetVertex(base).ok());
    ASSERT_TRUE(warm->SetVertexAttr(base, "warm", json::JsonValue(1)).ok());
    ASSERT_TRUE(warm->Commit().ok());
    (void)store->BeginTxn()->Rollback();
  }

  std::function<void()> Incrementer(int i) {
    return [this, i] {
      auto txn = store->BeginTxn();
      auto v = txn->GetVertex(base);
      if (!v.ok()) {
        Fail("snapshot read failed: " + v.status().ToString());
        return;
      }
      const int64_t n = IntAttr(*v, "n");
      if (!txn->SetVertexAttr(base, "n", json::JsonValue(n + 1)).ok()) {
        Fail("buffered write failed");
        return;
      }
      committed[i] = txn->Commit().ok();
    };
  }

  // Every committed increment must be visible: under first-committer-wins
  // the conflicting loser aborts, so `n` always equals the commit count.
  std::string CheckNoLostUpdate() {
    auto v = store->GetVertex(base);
    if (!v.ok()) return "final read failed";
    const int64_t n = IntAttr(*v, "n");
    const int commits = (committed[0] ? 1 : 0) + (committed[1] ? 1 : 0);
    if (n != commits) {
      return "lost update: " + std::to_string(commits) +
             " commits acknowledged but n == " + std::to_string(n);
    }
    return "";
  }
};
}  // namespace

TEST(SchedSelfTest, InjectedCommitReorderIsCaughtAndReplays) {
  ScopedSelfTest mode(SelfTest::kReorder);
  ReorderRig rig;
  SchedOptions opts;
  opts.trials = TrialsFromEnv(100);
  opts.setup = [&] { rig.Reset(); };
  opts.invariant = [&] { return rig.CheckNoLostUpdate(); };
  Bodies bodies = {rig.Incrementer(0), rig.Incrementer(1)};

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  ASSERT_FALSE(r.ok)
      << "skipped first-committer-wins validation must lose an update";
  EXPECT_NE(r.failure.find("lost update"), std::string::npos) << r.failure;
  ASSERT_FALSE(r.token.empty());

  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.token, r.token) << "replay must be byte-identical";
  EXPECT_NE(rep.failure.find("lost update"), std::string::npos)
      << rep.failure;
}

TEST(SchedSelfTest, UnbrokenCommitPathHasNoLostUpdates) {
  // Control: the same workload with validation active passes every trial.
  ReorderRig rig;
  SchedOptions opts;
  opts.trials = TrialsFromEnv(25);
  opts.setup = [&] { rig.Reset(); };
  opts.invariant = [&] { return rig.CheckNoLostUpdate(); };
  Bodies bodies = {rig.Incrementer(0), rig.Incrementer(1)};

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.races.empty());
}

// ---------------------------------------------------- subsystem models --

// Version-log GC vs a concurrent snapshot scan on a raw rel::Table,
// explored exhaustively: TrimVersions (the commit-side GC) and
// RevertVersionsAt (the failed-commit unwind) race ScanAt under the
// table's external lock; a reader pinned above the trim watermark must
// see its snapshot in every interleaving.
TEST(SchedModelTest, TableGcVsSnapshotScanExhaustive) {
  Mutex table_mu;  // the "store table lock" of this one-table model
  std::unique_ptr<rel::Table> table;
  SchedOptions opts;
  opts.setup = [&] {
    rel::Schema schema;
    schema.AddColumn("v", rel::ColumnType::kInt64, /*nullable=*/false);
    table = std::make_unique<rel::Table>(
        "t", std::move(schema), std::make_unique<rel::VectorRowStore>());
    // One committed row at ts=2; its before-image seeds the version log.
    auto rid = table->Insert({rel::Value(1)}, /*version_ts=*/2);
    ASSERT_TRUE(rid.ok());
  };
  opts.invariant = [&]() -> std::string {
    if (table->NumRows() != 2) {
      return "expected 2 live rows, got " + std::to_string(table->NumRows());
    }
    // Trim dropped ts<=2, revert removed ts=4: only the ts=3 entry stays.
    if (table->NumVersions() != 1) {
      return "expected 1 surviving version entry, got " +
             std::to_string(table->NumVersions());
    }
    return "";
  };
  Bodies bodies = {
      // Committer + GC + failed-commit unwind.
      [&] {
        {
          MutexLock lock(&table_mu);
          if (!table->Insert({rel::Value(7)}, /*version_ts=*/3).ok()) {
            Fail("insert@3 failed");
            return;
          }
        }
        {
          MutexLock lock(&table_mu);
          table->TrimVersions(/*watermark=*/2);
        }
        {
          MutexLock lock(&table_mu);
          if (!table->Insert({rel::Value(9)}, /*version_ts=*/4).ok()) {
            Fail("insert@4 failed");
            return;
          }
          if (!table->RevertVersionsAt(4).ok()) Fail("unwind@4 failed");
        }
      },
      // Snapshot reader pinned at ts=2 (above the trim watermark): must
      // see exactly the one committed row in every interleaving.
      [&] {
        MutexLock lock(&table_mu);
        size_t rows = 0;
        table->ScanAt(2, [&](const rel::Row&) { ++rows; });
        if (rows != 1) {
          Fail("snapshot@2 saw " + std::to_string(rows) + " rows");
        }
      },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.exhausted) << "GC model must be fully explored";
  EXPECT_TRUE(r.races.empty());
}

// Store-level companion: a real snapshot transaction (begin, repeated
// reads, end) racing versioned autocommit writers whose commits drive
// PublishAndTrimLocked's version-log GC.
TEST(SchedModelTest, StoreGcVsSnapshotBeginEndPct) {
  std::unique_ptr<SqlGraphStore> store;
  VertexId base = 0;
  SchedOptions opts;
  opts.trials = TrialsFromEnv(50);
  opts.setup = [&] {
    store = EmptyStore();
    auto v = store->AddVertex(Attr("n", json::JsonValue(0)));
    ASSERT_TRUE(v.ok());
    base = *v;
    // Pre-warm every lazily-initialized static on the explored paths
    // (metrics counters, snapshot-read templates) — static init guards
    // block outside the controller's sight.
    auto warm = store->BeginTxn();
    ASSERT_TRUE(warm->GetVertex(base).ok());
    (void)warm->Rollback();
    ASSERT_TRUE(store->SetVertexAttr(base, "n", json::JsonValue(0)).ok());
  };
  Bodies bodies = {
      [&] {
        auto txn = store->BeginTxn();
        auto first = txn->GetVertex(base);
        auto second = txn->GetVertex(base);
        if (!first.ok() || !second.ok()) {
          Fail("snapshot read failed");
          return;
        }
        if (IntAttr(*first, "n") != IntAttr(*second, "n")) {
          Fail("non-repeatable read inside one snapshot");
          return;
        }
        (void)txn->Rollback();
      },
      [&] {
        (void)store->SetVertexAttr(base, "n", json::JsonValue(1));
        (void)store->SetVertexAttr(base, "n", json::JsonValue(2));
      },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.races.empty());
}

// WAL leader/follower group commit as a protocol model. The real
// LogWriter blocks followers in a condition variable the controller
// cannot drive, so the protocol is modeled with SharedVars + WaitUntil;
// Choose() injects a crash at each point of the leader's I/O sequence.
// `acked[i]` is committer i's acknowledged ticket (0 = none); the
// durability contract is that an acknowledged ticket never exceeds what
// reached the disk.
struct WalModel {
  Mutex mu;
  SharedVar<uint64_t> next_seq{"wal_model.next_seq"};
  SharedVar<uint64_t> durable{"wal_model.durable"};
  SharedVar<uint64_t> disk{"wal_model.disk"};
  SharedVar<bool> leader{"wal_model.leader"};
  SharedVar<bool> crashed{"wal_model.crashed"};
  std::array<uint64_t, 2> acked = {0, 0};

  void Reset() {
    next_seq.MutUnchecked() = 0;
    durable.MutUnchecked() = 0;
    disk.MutUnchecked() = 0;
    leader.MutUnchecked() = false;
    crashed.MutUnchecked() = false;
    acked = {0, 0};
  }

  // One committer: enqueue, then wait to be covered by a batch or elect
  // self as leader. `ack_before_fsync` is the injected protocol bug.
  void Commit(int i, bool ack_before_fsync) {
    uint64_t ticket;
    {
      MutexLock lock(&mu);
      ticket = next_seq.Read() + 1;
      next_seq.Write() = ticket;
    }
    for (;;) {
      const bool proceed = WaitUntil([this, ticket] {
        return crashed.PeekUnchecked() ||
               durable.PeekUnchecked() >= ticket ||
               !leader.PeekUnchecked();
      });
      if (!proceed) return;  // schedule aborted
      bool am_leader = false;
      uint64_t batch = 0;
      {
        MutexLock lock(&mu);
        if (crashed.Read()) return;  // no ack
        if (durable.Read() >= ticket) {
          acked[i] = ticket;
          return;
        }
        if (!leader.Read()) {
          leader.Write() = true;
          am_leader = true;
          batch = next_seq.Read();
        }
      }
      if (!am_leader) continue;
      if (ack_before_fsync) {
        // BUG: followers (and self, next round) may ack before the batch
        // reaches the disk.
        {
          MutexLock lock(&mu);
          durable.Write() = batch;
          leader.Write() = false;
        }
        if (Choose(2) == 1) {  // crash after ack, before fsync
          MutexLock lock(&mu);
          crashed.Write() = true;
          return;
        }
        MutexLock lock(&mu);
        disk.Write() = batch;
      } else {
        if (Choose(2) == 1) {  // crash before fsync: nothing acked
          MutexLock lock(&mu);
          crashed.Write() = true;
          return;
        }
        {
          MutexLock lock(&mu);
          disk.Write() = batch;  // write + fsync
        }
        if (Choose(2) == 1) {  // crash after fsync, before ack: still safe
          MutexLock lock(&mu);
          crashed.Write() = true;
          return;
        }
        MutexLock lock(&mu);
        durable.Write() = batch;
        leader.Write() = false;
      }
    }
  }

  std::string CheckDurability() {
    for (int i = 0; i < 2; ++i) {
      if (acked[i] != 0 && acked[i] > disk.PeekUnchecked()) {
        return "acked ticket " + std::to_string(acked[i]) +
               " beyond disk at " + std::to_string(disk.PeekUnchecked());
      }
    }
    if (!crashed.PeekUnchecked() && (acked[0] == 0 || acked[1] == 0)) {
      return "crash-free run left a committer unacknowledged";
    }
    return "";
  }
};

TEST(SchedModelTest, WalGroupCommitModelExhaustivelySafe) {
  WalModel m;
  SchedOptions opts;
  opts.setup = [&] { m.Reset(); };
  opts.invariant = [&] { return m.CheckDurability(); };
  Bodies bodies = {
      [&] { m.Commit(0, /*ack_before_fsync=*/false); },
      [&] { m.Commit(1, /*ack_before_fsync=*/false); },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.exhausted)
      << "crash-injected group-commit model must be fully explored";
}

TEST(SchedModelTest, WalAckBeforeFsyncIsCaughtAndReplays) {
  WalModel m;
  SchedOptions opts;
  opts.setup = [&] { m.Reset(); };
  opts.invariant = [&] { return m.CheckDurability(); };
  Bodies bodies = {
      [&] { m.Commit(0, /*ack_before_fsync=*/true); },
      [&] { m.Commit(1, /*ack_before_fsync=*/true); },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(bodies);
  ASSERT_FALSE(r.ok) << "ack-before-fsync must lose an acknowledged commit";
  EXPECT_NE(r.failure.find("beyond disk"), std::string::npos) << r.failure;

  ScheduleResult rep = ex.Replay(r.token, bodies);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.token, r.token);
  EXPECT_EQ(r.failure.find(rep.failure), 0u) << rep.failure;
}

// Buffer-pool eviction racing a pinned page: the eviction driver (used_)
// is explored while a reader holds a shared_ptr to a page the writer
// evicts underneath it. The pin must stay valid and the byte budget must
// hold in every schedule.
TEST(SchedModelTest, BufferPoolEvictionVsPinnedPagePct) {
  std::unique_ptr<rel::BufferPool> pool;
  const rel::PageId kPinned{1, 0};
  // Each frame is charged 200 bytes, so the 256-byte pool holds only one.
  const std::string kImage(200 - rel::PageFrame::kOverheadBytes, '7');
  auto make_page = [&] {
    return std::make_shared<const rel::PageFrame>(kImage);
  };
  SchedOptions opts;
  opts.trials = TrialsFromEnv(50);
  opts.setup = [&] {
    pool = std::make_unique<rel::BufferPool>(256);
    pool->Insert(kPinned, make_page());
  };
  opts.invariant = [&]() -> std::string {
    if (pool->cached_bytes() > pool->capacity()) {
      return "cached_bytes " + std::to_string(pool->cached_bytes()) +
             " over capacity";
    }
    return "";
  };
  Bodies bodies = {
      [&] {
        auto pin = pool->Lookup(kPinned);
        // A miss is a legal interleaving (the writer evicted first); the
        // contract under test is that a *hit* stays valid while pinned.
        if (pin == nullptr) return;
        Yield();  // hold the pin across the writer's evictions
        if (pin->bytes != kImage || pin->byte_size != 200) {
          Fail("pinned page mutated under eviction");
        }
      },
      [&] {
        pool->Insert(rel::PageId{1, 1}, make_page());
        pool->Insert(rel::PageId{1, 2}, make_page());  // evicts kPinned
      },
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunPct(bodies);
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.races.empty());
}

// The real util::LruCache with two first callers for one key. Load n
// returns 42 or fails with "load n"; each caller keeps what it got.
struct LruCacheModel {
  std::unique_ptr<LruCache<std::string, int>> cache;
  SharedAtomic<int> loads{0, "loads"};
  std::array<std::optional<Result<int>>, 2> got;

  void Reset() {
    cache = std::make_unique<LruCache<std::string, int>>(
        8, LockRank::kPlanCache, "model_cache");
    loads.store(0);
    got = {};
  }
  Bodies Callers(bool fail) {
    auto call = [this, fail](int who) {
      got[who] = cache->GetOrLoad("k", [this, fail]() -> Result<int> {
        const int n = loads.fetch_add(1) + 1;
        Yield();  // the window a second caller may arrive in
        if (fail) return Status::Internal("load " + std::to_string(n));
        return 42;
      });
    };
    return {[call] { call(0); }, [call] { call(1); }};
  }
};

TEST(SchedModelTest, LruCacheSingleFlightLoadsOnceExhaustive) {
  LruCacheModel m;
  SchedOptions opts;
  opts.setup = [&] { m.Reset(); };
  opts.invariant = [&]() -> std::string {
    if (m.loads.PeekUnchecked() != 1) {
      return std::to_string(m.loads.PeekUnchecked()) + " loads for one key";
    }
    for (const auto& got : m.got) {
      if (!got.has_value() || !got->ok() || got->value() != 42) {
        return "a caller did not receive the loaded value";
      }
    }
    if (m.cache->misses() != 1 || m.cache->hits() != 1) {
      return "expected one miss and one hit, got " +
             std::to_string(m.cache->misses()) + " and " +
             std::to_string(m.cache->hits());
    }
    if (m.cache->size() != 1) return "loaded value was not cached";
    return "";
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(m.Callers(/*fail=*/false));
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.exhausted) << "cache model must be fully explored";
  EXPECT_GE(r.schedules, 2u) << "both arrival orders must be visited";
  EXPECT_TRUE(r.races.empty());
}

TEST(SchedModelTest, LruCacheFailedLoadReachesWaiterAndIsNotCached) {
  LruCacheModel m;
  int shared_failures = 0;
  int reloads = 0;
  SchedOptions opts;
  opts.setup = [&] { m.Reset(); };
  opts.invariant = [&]() -> std::string {
    const int loads = m.loads.PeekUnchecked();
    for (const auto& got : m.got) {
      if (!got.has_value() || got->ok()) {
        return "a caller did not receive the failed load's status";
      }
    }
    if (m.cache->size() != 0) return "failed load was cached";
    if (m.cache->misses() != static_cast<uint64_t>(loads)) {
      return "misses do not match loads";
    }
    if (loads == 1) {
      // The second caller waited on the first's load: same status, one hit.
      if (m.got[0]->status().message() != "load 1" ||
          m.got[1]->status().message() != "load 1" || m.cache->hits() != 1) {
        return "the waiter did not receive the loader's failure";
      }
      ++shared_failures;
    } else if (loads == 2) {
      // The failure was dropped before the second caller looked: it loaded
      // afresh and got its own status.
      if (m.got[0]->status().message() == m.got[1]->status().message()) {
        return "two loads, yet both callers got the same status";
      }
      ++reloads;
    } else {
      return std::to_string(loads) + " loads for two callers";
    }
    return "";
  };

  Explorer ex(opts);
  ScheduleResult r = ex.RunDfs(m.Callers(/*fail=*/true));
  EXPECT_TRUE(r.ok) << r.failure << "\nreplay: " << r.token;
  EXPECT_TRUE(r.exhausted) << "cache model must be fully explored";
  EXPECT_TRUE(r.races.empty());
  EXPECT_GT(shared_failures, 0) << "no schedule shared a failed load";
  EXPECT_GT(reloads, 0) << "no schedule reloaded after a failure";
}

}  // namespace
}  // namespace sched
}  // namespace util
}  // namespace sqlgraph
