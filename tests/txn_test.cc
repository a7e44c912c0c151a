// Transaction-torture tests for the MVCC snapshot-transaction layer
// (src/sqlgraph/txn.{h,cc} + the versioned store machinery, DESIGN.md §12):
// visibility, repeatable reads, read-your-writes, first-committer-wins
// conflicts, the SQL session surface, durable atomic commits, version-log
// GC, and a multi-threaded invariant-transfer torture test that must hold
// under TSan.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "graph/property_graph.h"
#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "sqlgraph/store.h"
#include "sqlgraph/txn.h"
#include "temp_dir.h"
#include "util/rng.h"
#include "wal/durability.h"

namespace sqlgraph {
namespace core {
namespace {

namespace fs = std::filesystem;
using graph::PropertyGraph;
using graph::VertexId;

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

/// Base seed the torture tests fold into their per-worker Rng seeds.
/// Defaults to 0 (the historical fixed schedules); set SQLGRAPH_SEED to
/// vary a run or to reproduce a failure — every torture failure message
/// names the value that produced it.
uint64_t TortureSeed() {
  const char* e = std::getenv("SQLGRAPH_SEED");
  if (e == nullptr || e[0] == '\0') return 0;
  return std::strtoull(e, nullptr, 0);
}

// ------------------------------------------------------------ visibility --

TEST(TxnVisibilityTest, UncommittedWritesAreInvisibleOutside) {
  auto store = EmptyStore();
  auto base = store->AddVertex(Attr("name", json::JsonValue("base")));
  ASSERT_TRUE(base.ok());

  auto txn = store->BeginTxn();
  auto vid = txn->AddVertex(Attr("name", json::JsonValue("pending")));
  ASSERT_TRUE(vid.ok());
  ASSERT_TRUE(txn->SetVertexAttr(*base, "tag", json::JsonValue(7)).ok());

  // Outside the transaction: the new vertex does not exist and the attr is
  // unchanged — the handle buffers, it does not apply.
  EXPECT_TRUE(store->GetVertex(*vid).status().IsNotFound());
  auto outside = store->GetVertex(*base);
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(outside->Find("tag"), nullptr);

  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(store->GetVertex(*vid).ok());
  auto after = store->GetVertex(*base);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(IntAttr(*after, "tag"), 7);

  const TxnStats stats = store->txn_stats();
  EXPECT_EQ(stats.begun, 1u);
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.active, 0u);
}

TEST(TxnVisibilityTest, RollbackDiscardsEverything) {
  auto store = EmptyStore();
  auto a = store->AddVertex(Attr("name", json::JsonValue("a")));
  auto b = store->AddVertex(Attr("name", json::JsonValue("b")));
  ASSERT_TRUE(a.ok() && b.ok());
  auto e = store->AddEdge(*a, *b, "knows", json::JsonValue::Object());
  ASSERT_TRUE(e.ok());

  auto txn = store->BeginTxn();
  ASSERT_TRUE(txn->RemoveEdge(*e).ok());
  ASSERT_TRUE(txn->RemoveVertex(*b).ok());
  ASSERT_TRUE(txn->SetVertexAttr(*a, "x", json::JsonValue(1)).ok());
  ASSERT_TRUE(txn->AddVertex(json::JsonValue::Object()).ok());
  ASSERT_TRUE(txn->Rollback().ok());
  EXPECT_FALSE(txn->open());
  // Closed handles reject further use.
  EXPECT_TRUE(txn->Commit().IsInvalidArgument());
  EXPECT_TRUE(txn->GetVertex(*a).status().IsInvalidArgument());

  EXPECT_TRUE(store->GetEdge(*e).ok());
  EXPECT_TRUE(store->GetVertex(*b).ok());
  auto va = store->GetVertex(*a);
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(va->Find("x"), nullptr);
  EXPECT_EQ(store->txn_stats().aborted, 1u);
  EXPECT_EQ(store->txn_stats().conflicts, 0u);
}

TEST(TxnVisibilityTest, DroppedHandleRollsBack) {
  auto store = EmptyStore();
  {
    auto txn = store->BeginTxn();
    ASSERT_TRUE(txn->AddVertex(json::JsonValue::Object()).ok());
  }  // destructor
  EXPECT_EQ(store->db()->GetTable("VA")->NumRows(), 0u);
  EXPECT_EQ(store->txn_stats().aborted, 1u);
  EXPECT_EQ(store->txn_stats().active, 0u);
}

TEST(TxnVisibilityTest, EmptyCommitSucceeds) {
  auto store = EmptyStore();
  auto txn = store->BeginTxn();
  EXPECT_TRUE(txn->Commit().ok());
  EXPECT_EQ(store->txn_stats().committed, 1u);
}

// --------------------------------------------------------- repeatability --

TEST(TxnSnapshotTest, RepeatableReadsDespiteConcurrentCommits) {
  auto store = EmptyStore();
  auto v = store->AddVertex(Attr("bal", json::JsonValue(100)));
  ASSERT_TRUE(v.ok());

  auto reader = store->BeginTxn();
  auto before = reader->GetVertex(*v);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(IntAttr(*before, "bal"), 100);

  // A writer commits while the snapshot is open — and does not block on it.
  ASSERT_TRUE(store->SetVertexAttr(*v, "bal", json::JsonValue(55)).ok());
  auto fresh = store->GetVertex(*v);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(IntAttr(*fresh, "bal"), 55);

  // The snapshot still sees the old world, via CRUD reads and via SQL.
  auto again = reader->GetVertex(*v);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(IntAttr(*again, "bal"), 100);
  auto rs = reader->ExecuteSql("SELECT ATTR FROM VA WHERE VID = 0");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(IntAttr(rs->rows[0][0].AsJson(), "bal"), 100);

  ASSERT_TRUE(reader->Commit().ok());
  // With the last snapshot gone, live reads see the new value everywhere.
  auto done = store->GetVertex(*v);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(IntAttr(*done, "bal"), 55);
}

TEST(TxnSnapshotTest, SnapshotSurvivesVertexRemovalAndReAdd) {
  auto store = EmptyStore();
  auto a = store->AddVertex(Attr("name", json::JsonValue("a")));
  auto b = store->AddVertex(Attr("name", json::JsonValue("b")));
  ASSERT_TRUE(a.ok() && b.ok());
  auto e = store->AddEdge(*a, *b, "knows", Attr("w", json::JsonValue(1)));
  ASSERT_TRUE(e.ok());

  auto reader = store->BeginTxn();
  ASSERT_TRUE(store->RemoveEdge(*e).ok());
  ASSERT_TRUE(store->RemoveVertex(*b).ok());

  // Live store: gone. Snapshot: intact, including adjacency.
  EXPECT_TRUE(store->GetVertex(*b).status().IsNotFound());
  EXPECT_TRUE(store->GetEdge(*e).status().IsNotFound());
  EXPECT_TRUE(reader->GetVertex(*b).ok());
  auto edge = reader->GetEdge(*e);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(edge->dst, *b);
  auto out = reader->Out(*a, "knows");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0], *b);
  auto in = reader->In(*b, "");
  ASSERT_TRUE(in.ok());
  ASSERT_EQ(in->size(), 1u);
  EXPECT_EQ((*in)[0], *a);
  ASSERT_TRUE(reader->Rollback().ok());
}

TEST(TxnSnapshotTest, SnapshotIsStableAcrossCompact) {
  auto store = EmptyStore();
  auto a = store->AddVertex(Attr("name", json::JsonValue("a")));
  auto b = store->AddVertex(Attr("name", json::JsonValue("b")));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(store->AddEdge(*a, *b, "knows", json::JsonValue::Object()).ok());
  ASSERT_TRUE(store->RemoveVertex(*b).ok());

  auto reader = store->BeginTxn();
  // Compact physically erases the soft-deleted rows under the snapshot.
  ASSERT_TRUE(store->Compact().ok());
  // b was already removed before the snapshot — but a's survival and the
  // absence of dangling adjacency must look identical before/after Compact.
  EXPECT_TRUE(reader->GetVertex(*a).ok());
  EXPECT_TRUE(reader->GetVertex(*b).status().IsNotFound());
  auto out = reader->Out(*a, "");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  ASSERT_TRUE(reader->Commit().ok());
}

// ------------------------------------------------------- read-your-writes --

TEST(TxnOverlayTest, ReadYourWrites) {
  auto store = EmptyStore();
  auto base = store->AddVertex(Attr("name", json::JsonValue("base")));
  ASSERT_TRUE(base.ok());

  auto txn = store->BeginTxn();
  auto v = txn->AddVertex(Attr("name", json::JsonValue("mine")));
  ASSERT_TRUE(v.ok());
  auto e = txn->AddEdge(*base, *v, "knows", Attr("w", json::JsonValue(3)));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(txn->SetVertexAttr(*v, "age", json::JsonValue(5)).ok());
  ASSERT_TRUE(txn->SetEdgeAttr(*e, "w", json::JsonValue(9)).ok());
  ASSERT_TRUE(txn->RemoveVertexAttr(*v, "name").ok());

  auto got = txn->GetVertex(*v);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(IntAttr(*got, "age"), 5);
  EXPECT_EQ(got->Find("name"), nullptr);
  auto edge = txn->GetEdge(*e);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(IntAttr(edge->attrs, "w"), 9);
  auto out = txn->Out(*base, "knows");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0], *v);
  auto in = txn->In(*v, "knows");
  ASSERT_TRUE(in.ok());
  ASSERT_EQ(in->size(), 1u);
  EXPECT_EQ((*in)[0], *base);

  ASSERT_TRUE(txn->Commit().ok());
  auto committed = store->GetVertex(*v);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(IntAttr(*committed, "age"), 5);
  EXPECT_EQ(committed->Find("name"), nullptr);
  auto cedge = store->GetEdge(*e);
  ASSERT_TRUE(cedge.ok());
  EXPECT_EQ(IntAttr(cedge->attrs, "w"), 9);
}

TEST(TxnOverlayTest, RemoveVertexHidesIncidentEdges) {
  auto store = EmptyStore();
  auto a = store->AddVertex(Attr("name", json::JsonValue("a")));
  auto b = store->AddVertex(Attr("name", json::JsonValue("b")));
  ASSERT_TRUE(a.ok() && b.ok());
  auto snap_edge = store->AddEdge(*a, *b, "knows", json::JsonValue::Object());
  ASSERT_TRUE(snap_edge.ok());

  auto txn = store->BeginTxn();
  auto added_edge = txn->AddEdge(*a, *b, "likes", json::JsonValue::Object());
  ASSERT_TRUE(added_edge.ok());
  ASSERT_TRUE(txn->RemoveVertex(*b).ok());

  // Both the snapshot edge and the overlay-added edge died with b.
  EXPECT_TRUE(txn->GetEdge(*snap_edge).status().IsNotFound());
  EXPECT_TRUE(txn->GetEdge(*added_edge).status().IsNotFound());
  auto out = txn->GetOutEdges(*a, "");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_TRUE(txn->GetVertex(*b).status().IsNotFound());
  EXPECT_TRUE(
      txn->SetVertexAttr(*b, "x", json::JsonValue(1)).IsNotFound());
  EXPECT_TRUE(txn->AddEdge(*a, *b, "knows", json::JsonValue::Object())
                  .status()
                  .IsNotFound());

  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_TRUE(store->GetVertex(*b).status().IsNotFound());
  EXPECT_TRUE(store->GetEdge(*snap_edge).status().IsNotFound());
  EXPECT_TRUE(store->GetEdge(*added_edge).status().IsNotFound());
  auto live_out = store->GetOutEdges(*a, "");
  ASSERT_TRUE(live_out.ok());
  EXPECT_TRUE(live_out->empty());
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(TxnOverlayTest, SqlDoesNotSeeBufferedWrites) {
  // Documented divergence: SQL through the handle is snapshot-only.
  auto store = EmptyStore();
  ASSERT_TRUE(store->AddVertex(json::JsonValue::Object()).ok());
  auto txn = store->BeginTxn();
  ASSERT_TRUE(txn->AddVertex(json::JsonValue::Object()).ok());
  auto rs = txn->ExecuteSql("SELECT COUNT(*) FROM VA WHERE VID >= 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 1);  // snapshot count, not 2
  ASSERT_TRUE(txn->Commit().ok());
}

// --------------------------------------------------------------- conflicts --

TEST(TxnConflictTest, FirstCommitterWinsOnVertexAttr) {
  auto store = EmptyStore();
  auto v = store->AddVertex(Attr("bal", json::JsonValue(10)));
  ASSERT_TRUE(v.ok());

  auto t1 = store->BeginTxn();
  auto t2 = store->BeginTxn();
  ASSERT_TRUE(t1->SetVertexAttr(*v, "bal", json::JsonValue(11)).ok());
  ASSERT_TRUE(t2->SetVertexAttr(*v, "bal", json::JsonValue(12)).ok());

  ASSERT_TRUE(t1->Commit().ok());
  util::Status st = t2->Commit();
  EXPECT_TRUE(st.IsConflict()) << st.ToString();
  EXPECT_FALSE(t2->open());

  auto got = store->GetVertex(*v);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(IntAttr(*got, "bal"), 11);
  const TxnStats stats = store->txn_stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.conflicts, 1u);
}

TEST(TxnConflictTest, AutocommitWriteConflictsOpenTxn) {
  auto store = EmptyStore();
  auto v = store->AddVertex(Attr("bal", json::JsonValue(10)));
  ASSERT_TRUE(v.ok());

  auto txn = store->BeginTxn();
  ASSERT_TRUE(txn->SetVertexAttr(*v, "bal", json::JsonValue(11)).ok());
  // An autocommit mutation is a committed transaction too.
  ASSERT_TRUE(store->SetVertexAttr(*v, "bal", json::JsonValue(99)).ok());
  EXPECT_TRUE(txn->Commit().IsConflict());
  auto got = store->GetVertex(*v);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(IntAttr(*got, "bal"), 99);
}

TEST(TxnConflictTest, AddEdgeConflictsWithEndpointRemoval) {
  auto store = EmptyStore();
  auto a = store->AddVertex(json::JsonValue::Object());
  auto b = store->AddVertex(json::JsonValue::Object());
  ASSERT_TRUE(a.ok() && b.ok());

  auto adder = store->BeginTxn();
  auto remover = store->BeginTxn();
  ASSERT_TRUE(adder->AddEdge(*a, *b, "knows", json::JsonValue::Object()).ok());
  ASSERT_TRUE(remover->RemoveVertex(*b).ok());

  ASSERT_TRUE(remover->Commit().ok());
  // The edge's write set includes V(b): the adder must lose, otherwise a
  // committed edge would dangle from a removed vertex.
  EXPECT_TRUE(adder->Commit().IsConflict());
  auto out = store->GetOutEdges(*a, "");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(TxnConflictTest, DisjointWriteSetsBothCommit) {
  auto store = EmptyStore();
  auto a = store->AddVertex(json::JsonValue::Object());
  auto b = store->AddVertex(json::JsonValue::Object());
  ASSERT_TRUE(a.ok() && b.ok());

  auto t1 = store->BeginTxn();
  auto t2 = store->BeginTxn();
  ASSERT_TRUE(t1->SetVertexAttr(*a, "x", json::JsonValue(1)).ok());
  ASSERT_TRUE(t2->SetVertexAttr(*b, "y", json::JsonValue(2)).ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());
  EXPECT_EQ(store->txn_stats().conflicts, 0u);
}

// ---------------------------------------------------------------- session --

TEST(TxnSessionTest, BeginCommitRollbackFlow) {
  auto store = EmptyStore();
  auto v = store->AddVertex(Attr("bal", json::JsonValue(100)));
  ASSERT_TRUE(v.ok());
  Session session(store.get());

  // Control statements parse in their SQL spellings.
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  EXPECT_TRUE(session.in_txn());
  EXPECT_TRUE(session.Execute("begin transaction").status()
                  .IsInvalidArgument());  // nested

  // Statements inside the transaction run against its snapshot.
  ASSERT_TRUE(store->SetVertexAttr(*v, "bal", json::JsonValue(1)).ok());
  auto rs = session.Execute("SELECT ATTR FROM VA WHERE VID = 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(IntAttr(rs->rows[0][0].AsJson(), "bal"), 100);

  // CRUD through the handle; the autocommit write above wins at COMMIT.
  ASSERT_TRUE(session.txn()->SetVertexAttr(*v, "tag", json::JsonValue(5)).ok());
  EXPECT_TRUE(session.Execute("COMMIT").status().IsConflict());
  EXPECT_FALSE(session.in_txn());

  // ROLLBACK flow.
  ASSERT_TRUE(session.Execute("START TRANSACTION").ok());
  EXPECT_TRUE(session.in_txn());
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
  EXPECT_FALSE(session.in_txn());

  // Control statements outside a transaction are errors.
  EXPECT_TRUE(session.Execute("COMMIT").status().IsInvalidArgument());
  EXPECT_TRUE(session.Execute("ROLLBACK WORK").status().IsInvalidArgument());

  // Autocommit mode still executes plain queries.
  auto plain = session.Execute("SELECT COUNT(*) FROM VA WHERE VID >= 0");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->rows[0][0].AsInt(), 1);
}

TEST(TxnSessionTest, TxnControlOutsideSessionIsRejected) {
  auto store = EmptyStore();
  // Raw ExecuteSql has no session: control statements parse but cannot run.
  EXPECT_TRUE(store->ExecuteSql("BEGIN").status().IsInvalidArgument());
  EXPECT_TRUE(store->ExecuteSql("COMMIT").status().IsInvalidArgument());
}

// ------------------------------------------------------------- durability --

TEST(TxnDurabilityTest, CommittedTxnSurvivesReopenRolledBackDoesNot) {
  StoreConfig config;
  config.durability_dir = testutil::TempPath("txn_durable_test");
  fs::remove_all(config.durability_dir);

  VertexId committed_vid = 0, burned_vid = 0;
  EdgeId committed_eid = 0;
  {
    auto store = wal::OpenDurableStore(config);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto base = (*store)->AddVertex(Attr("name", json::JsonValue("base")));
    ASSERT_TRUE(base.ok());

    auto txn = (*store)->BeginTxn();
    auto v = txn->AddVertex(Attr("name", json::JsonValue("committed")));
    ASSERT_TRUE(v.ok());
    committed_vid = *v;
    auto e = txn->AddEdge(*base, *v, "knows", json::JsonValue::Object());
    ASSERT_TRUE(e.ok());
    committed_eid = *e;
    ASSERT_TRUE(txn->Commit().ok());

    auto doomed = (*store)->BeginTxn();
    auto burned = doomed->AddVertex(Attr("name", json::JsonValue("burned")));
    ASSERT_TRUE(burned.ok());
    burned_vid = *burned;
    ASSERT_TRUE(doomed->Rollback().ok());
  }

  auto reopened = wal::OpenDurableStore(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto v = (*reopened)->GetVertex(committed_vid);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("name")->AsString(), "committed");
  EXPECT_TRUE((*reopened)->GetEdge(committed_eid).ok());
  EXPECT_TRUE((*reopened)->GetVertex(burned_vid).status().IsNotFound());
  EXPECT_TRUE((*reopened)->CheckConsistency().ok());
  fs::remove_all(config.durability_dir);
}

// -------------------------------------------------------------------- GC --

TEST(TxnGcTest, VersionLogsDrainAfterLastSnapshotEnds) {
  auto store = EmptyStore();
  auto v = store->AddVertex(Attr("bal", json::JsonValue(0)));
  ASSERT_TRUE(v.ok());
  rel::Table* va = store->db()->GetTable("VA");
  EXPECT_EQ(va->NumVersions(), 0u);  // no snapshot: mutations record nothing

  {
    auto reader = store->BeginTxn();
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(store->SetVertexAttr(*v, "bal", json::JsonValue(i)).ok());
    }
    EXPECT_GE(va->NumVersions(), 5u);  // pinned by the open snapshot
    auto bal = reader->GetVertex(*v);
    ASSERT_TRUE(bal.ok());
    EXPECT_EQ(IntAttr(*bal, "bal"), 0);
    ASSERT_TRUE(reader->Commit().ok());
  }
  // The next mutation trims everything: no snapshot pins the log.
  ASSERT_TRUE(store->SetVertexAttr(*v, "bal", json::JsonValue(6)).ok());
  EXPECT_EQ(va->NumVersions(), 0u);
}

// ---------------------------------------------------------------- torture --

// The classic invariant-transfer torture test: writers move balance between
// vertices in snapshot transactions with retry-on-conflict; concurrent
// snapshot readers must see the invariant total at every read timestamp.
// Run under TSan in ci/check.sh's txn stage.
TEST(TxnTortureTest, ConcurrentTransfersPreserveInvariant) {
  constexpr int kAccounts = 8;
  constexpr int64_t kInitialBalance = 1000;
  constexpr int64_t kTotal = kAccounts * kInitialBalance;
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr int kTransfersPerWriter = 120;
  constexpr int kReadsPerReader = 40;

  const uint64_t seed = TortureSeed();
  SCOPED_TRACE(testing::Message() << "SQLGRAPH_SEED=" << seed);

  auto store = EmptyStore();
  std::vector<VertexId> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    auto v = store->AddVertex(Attr("bal", json::JsonValue(kInitialBalance)));
    ASSERT_TRUE(v.ok());
    accounts.push_back(*v);
  }

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> transfers_done{0};
  // Writers that have read their first transfer's accounts. Every writer's
  // first transfer moves balance out of accounts[0] and commits only once
  // all writers have read it, so all first transfers overlap on one vertex
  // and first-committer-wins must reject at least kWriters - 1 commits.
  std::atomic<int> first_reads{0};

  auto writer = [&](int worker) {
    util::Rng rng(seed ^ 0xabcdef ^ static_cast<uint64_t>(worker));
    for (int i = 0; i < kTransfersPerWriter && !failed.load(); ++i) {
      size_t from_idx = rng.Uniform(kAccounts);
      if (i == 0) from_idx = 0;
      size_t to_idx = rng.Uniform(kAccounts);
      if (to_idx == from_idx) to_idx = (from_idx + 1) % kAccounts;
      const VertexId from = accounts[from_idx];
      const VertexId to = accounts[to_idx];
      const int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(10));
      // Retry-on-conflict loop: snapshot isolation makes losing normal.
      for (bool first_attempt = true;; first_attempt = false) {
        auto txn = store->BeginTxn();
        auto src = txn->GetVertex(from);
        auto dst = txn->GetVertex(to);
        if (!src.ok() || !dst.ok()) {
          failed = true;
          break;
        }
        const int64_t src_bal = IntAttr(*src, "bal");
        const int64_t dst_bal = IntAttr(*dst, "bal");
        if (!txn->SetVertexAttr(from, "bal",
                                json::JsonValue(src_bal - amount))
                 .ok() ||
            !txn->SetVertexAttr(to, "bal",
                                json::JsonValue(dst_bal + amount))
                 .ok()) {
          failed = true;
          break;
        }
        if (i == 0 && first_attempt) {
          first_reads.fetch_add(1);
          while (first_reads.load() < kWriters && !failed.load()) {
            std::this_thread::yield();
          }
        }
        util::Status st = txn->Commit();
        if (st.ok()) {
          transfers_done.fetch_add(1);
          break;
        }
        if (!st.IsConflict()) {
          ADD_FAILURE() << "unexpected commit failure: " << st.ToString();
          failed = true;
          break;
        }
      }
    }
  };

  auto reader = [&](int worker) {
    util::Rng rng(seed ^ 0x123457 ^ static_cast<uint64_t>(worker));
    for (int i = 0; i < kReadsPerReader && !failed.load(); ++i) {
      auto txn = store->BeginTxn();
      int64_t sum = 0;
      bool ok = true;
      for (VertexId v : accounts) {
        auto got = txn->GetVertex(v);
        if (!got.ok()) {
          ok = false;
          break;
        }
        sum += IntAttr(*got, "bal");
      }
      if (ok && sum != kTotal) {
        ADD_FAILURE() << "snapshot at ts " << txn->read_ts()
                      << " saw total " << sum << " != " << kTotal;
        failed = true;
      }
      if (!ok) {
        ADD_FAILURE() << "snapshot read failed";
        failed = true;
      }
      EXPECT_TRUE(txn->Rollback().ok());
      if (rng.Chance(0.25)) std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (std::thread& t : threads) t.join();

  // Worker-thread ADD_FAILUREs miss the main thread's SCOPED_TRACE; name
  // the reproducing seed here too.
  ASSERT_FALSE(failed.load()) << "reproduce with SQLGRAPH_SEED=" << seed;
  EXPECT_EQ(transfers_done.load(),
            static_cast<uint64_t>(kWriters * kTransfersPerWriter));

  // Final state: invariant holds live, store is consistent, and the
  // contention actually exercised the conflict path.
  int64_t total = 0;
  for (VertexId v : accounts) {
    auto got = store->GetVertex(v);
    ASSERT_TRUE(got.ok());
    total += IntAttr(*got, "bal");
  }
  EXPECT_EQ(total, kTotal);
  EXPECT_TRUE(store->CheckConsistency().ok());
  const TxnStats stats = store->txn_stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.committed, transfers_done.load());  // readers roll back
  EXPECT_GT(stats.conflicts, 0u) << "torture run saw no write conflicts; "
                                    "raise contention";
  EXPECT_GT(stats.aborted, 0u);
  // With no snapshot left, the next mutation drains every version log.
  ASSERT_TRUE(
      store->SetVertexAttr(accounts[0], "bal", json::JsonValue(0)).ok());
  EXPECT_EQ(store->db()->GetTable("VA")->NumVersions(), 0u);
}

// Mixed CRUD torture: writers exercise every buffered op kind against a
// shared graph while snapshot readers assert their cut is internally
// consistent (edges never dangle from removed vertices).
TEST(TxnTortureTest, MixedCrudSnapshotsNeverSeeDanglingEdges) {
  const uint64_t seed = TortureSeed();
  SCOPED_TRACE(testing::Message() << "SQLGRAPH_SEED=" << seed);

  auto store = EmptyStore();
  std::vector<VertexId> base;
  for (int i = 0; i < 6; ++i) {
    auto v = store->AddVertex(Attr("i", json::JsonValue(i)));
    ASSERT_TRUE(v.ok());
    base.push_back(*v);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  auto writer = [&](int worker) {
    util::Rng rng(seed ^ 0x5eed ^ static_cast<uint64_t>(worker));
    for (int i = 0; i < 80 && !failed.load(); ++i) {
      auto txn = store->BeginTxn();
      const VertexId a = base[rng.Uniform(base.size())];
      const VertexId b = base[rng.Uniform(base.size())];
      const double roll = rng.NextDouble();
      bool buffered = false;
      if (roll < 0.5) {
        buffered = txn->AddEdge(a, b, "k", json::JsonValue::Object()).ok();
      } else if (roll < 0.8) {
        auto out = txn->GetOutEdges(a, "");
        if (out.ok() && !out->empty()) {
          buffered =
              txn->RemoveEdge((*out)[rng.Uniform(out->size())].id).ok();
        }
      } else {
        buffered =
            txn->SetVertexAttr(a, "t", json::JsonValue(i)).ok();
      }
      util::Status st = txn->Commit();
      if (!st.ok() && !st.IsConflict()) {
        ADD_FAILURE() << "commit: " << st.ToString();
        failed = true;
      }
      (void)buffered;
    }
  };

  auto reader = [&]() {
    while (!stop.load() && !failed.load()) {
      auto txn = store->BeginTxn();
      for (VertexId v : base) {
        auto edges = txn->GetOutEdges(v, "");
        if (!edges.ok()) {
          ADD_FAILURE() << edges.status().ToString();
          failed = true;
          break;
        }
        for (const EdgeRecord& e : *edges) {
          // Every endpoint of a snapshot-visible edge must be visible too.
          if (!txn->GetVertex(e.src).ok() || !txn->GetVertex(e.dst).ok()) {
            ADD_FAILURE() << "snapshot saw dangling edge " << e.id;
            failed = true;
            break;
          }
        }
      }
      EXPECT_TRUE(txn->Rollback().ok());
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) threads.emplace_back(writer, w);
  std::thread r1(reader), r2(reader);
  for (std::thread& t : threads) t.join();
  stop = true;
  r1.join();
  r2.join();

  ASSERT_FALSE(failed.load()) << "reproduce with SQLGRAPH_SEED=" << seed;
  EXPECT_TRUE(store->CheckConsistency().ok());
  EXPECT_EQ(store->txn_stats().active, 0u);
}

}  // namespace
}  // namespace core
}  // namespace sqlgraph
