// Tests for the WAL durability subsystem (src/wal): record framing, the
// group-commit writer, torn-tail reading, the durable-store lifecycle, and
// a fault-injection crash-recovery property test that compares a recovered
// store against an in-memory oracle at hundreds of random crash points.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/property_graph.h"
#include "gremlin/runtime.h"
#include "gtest/gtest.h"
#include "json/json_parser.h"
#include "sqlgraph/store.h"
#include "sqlgraph/txn.h"
#include "temp_dir.h"
#include "util/rng.h"
#include "wal/durability.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"
#include "wal/record.h"

namespace sqlgraph {
namespace wal {
namespace {

namespace fs = std::filesystem;
using core::SqlGraphStore;
using core::StoreConfig;

using testutil::TempPath;

/// Fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  fs::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

json::JsonValue Attr(const char* key, json::JsonValue value) {
  json::JsonValue obj = json::JsonValue::Object();
  obj.Set(key, std::move(value));
  return obj;
}

// The live segment of a store that has checkpointed exactly once at build
// time (snap-000000 covers nothing; all records land here).
constexpr char kFirstSegment[] = "wal-000001.log";

// ------------------------------------------------------------ record codec --

std::vector<Record> SampleRecords() {
  std::vector<Record> recs;
  Record r;
  r.type = RecordType::kAddVertex;
  r.id = 7;
  r.json = "{\"name\":\"peter\"}";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kAddEdge;
  r.id = 12;
  r.src = 7;
  r.dst = 3;
  r.label = "knows";
  r.json = "{}";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kSetVertexAttr;
  r.id = 3;
  r.label = "age";
  r.json = "42";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kSetEdgeAttr;
  r.id = 12;
  r.label = "weight";
  r.json = "0.5";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kRemoveVertexAttr;
  r.id = 3;
  r.label = "age";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kRemoveEdgeAttr;
  r.id = 12;
  r.label = "weight";
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kRemoveVertex;
  r.id = -5;  // ids are zigzag-encoded; exercise a negative one
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kRemoveEdge;
  r.id = 12;
  recs.push_back(r);
  r = Record{};
  r.type = RecordType::kCompact;
  recs.push_back(r);
  // Embedded NUL and non-ASCII bytes must survive framing.
  r = Record{};
  r.type = RecordType::kAddVertex;
  r.id = 1;
  r.json = std::string("{\"k\":\"a\0b\xc3\xa9\"}", 14);
  recs.push_back(r);
  return recs;
}

TEST(WalRecordTest, RoundTripsEveryType) {
  std::string buf;
  const std::vector<Record> recs = SampleRecords();
  for (const Record& r : recs) EncodeRecord(r, &buf);
  size_t offset = 0;
  for (const Record& expected : recs) {
    Record got;
    ASSERT_TRUE(DecodeRecord(buf, &offset, &got).ok());
    EXPECT_TRUE(got == expected);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(WalRecordTest, DetectsCorruptionAnywhere) {
  std::string buf;
  for (const Record& r : SampleRecords()) EncodeRecord(r, &buf);
  const size_t total = SampleRecords().size();
  // Flip every byte in turn: the decode loop must never produce more than
  // the records preceding the damaged frame, and never crash.
  for (size_t flip = 0; flip < buf.size(); ++flip) {
    std::string damaged = buf;
    damaged[flip] = static_cast<char>(damaged[flip] ^ 0x40);
    size_t offset = 0;
    size_t decoded = 0;
    Record rec;
    while (offset < damaged.size() &&
           DecodeRecord(damaged, &offset, &rec).ok()) {
      ++decoded;
    }
    EXPECT_LT(decoded, total) << "flip at byte " << flip;
  }
}

TEST(WalRecordTest, TruncationStopsAtFrameStart) {
  std::string buf;
  Record r;
  r.type = RecordType::kAddVertex;
  r.id = 1;
  r.json = "{\"a\":1}";
  EncodeRecord(r, &buf);
  const size_t frame = buf.size();
  EncodeRecord(r, &buf);
  // Any truncation inside the second frame leaves offset at its start.
  for (size_t cut = frame; cut < buf.size(); ++cut) {
    size_t offset = 0;
    Record got;
    ASSERT_TRUE(DecodeRecord(std::string_view(buf.data(), cut), &offset, &got)
                    .ok());
    EXPECT_FALSE(
        DecodeRecord(std::string_view(buf.data(), cut), &offset, &got).ok());
    EXPECT_EQ(offset, frame);
  }
}

// ---------------------------------------------------------- writer / reader --

TEST(WalLogTest, WriteReadRoundTripAllSyncModes) {
  for (SyncMode mode :
       {SyncMode::kNone, SyncMode::kBatched, SyncMode::kPerCommit}) {
    const std::string path =
        TempPath("wal_roundtrip_" + std::to_string(static_cast<int>(mode)));
    std::remove(path.c_str());
    auto writer = LogWriter::Open(path, mode);
    ASSERT_TRUE(writer.ok());
    const std::vector<Record> recs = SampleRecords();
    for (const Record& r : recs) ASSERT_TRUE((*writer)->Append(r).ok());
    ASSERT_TRUE((*writer)->Close().ok());
    EXPECT_EQ((*writer)->counters().records.load(), recs.size());

    auto read = ReadLogFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->clean);
    ASSERT_EQ(read->records.size(), recs.size());
    for (size_t i = 0; i < recs.size(); ++i) {
      EXPECT_TRUE(read->records[i] == recs[i]) << "record " << i;
    }
    std::remove(path.c_str());
  }
}

TEST(WalLogTest, TornTailIsDroppedAndTruncatable) {
  const std::string path = TempPath("wal_torn.log");
  std::remove(path.c_str());
  auto writer = LogWriter::Open(path, SyncMode::kBatched);
  ASSERT_TRUE(writer.ok());
  const std::vector<Record> recs = SampleRecords();
  for (const Record& r : recs) ASSERT_TRUE((*writer)->Append(r).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  // Simulate a crash mid-append: garbage after the last full frame.
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes + "torn");
  auto read = ReadLogFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  EXPECT_FALSE(read->tail_error.empty());
  EXPECT_EQ(read->records.size(), recs.size());
  EXPECT_EQ(read->valid_bytes, bytes.size());
  EXPECT_EQ(read->file_bytes, bytes.size() + 4);

  ASSERT_TRUE(TruncateLog(path, read->valid_bytes).ok());
  auto reread = ReadLogFile(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_TRUE(reread->clean);
  EXPECT_EQ(reread->records.size(), recs.size());

  EXPECT_TRUE(ReadLogFile(TempPath("wal_missing.log")).status().IsNotFound());
  std::remove(path.c_str());
}

TEST(WalLogTest, GroupCommitKeepsEveryConcurrentAppend) {
  const std::string path = TempPath("wal_group.log");
  std::remove(path.c_str());
  auto writer = LogWriter::Open(path, SyncMode::kBatched);
  ASSERT_TRUE(writer.ok());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Record r;
      r.type = RecordType::kAddVertex;
      r.json = "{}";
      for (int i = 0; i < kPerThread; ++i) {
        r.id = t * kPerThread + i;
        if (!(*writer)->Append(r).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE((*writer)->Close().ok());

  const WalCounters& c = (*writer)->counters();
  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(c.records.load(), kTotal);
  // Batching can only reduce fsyncs; every grouped record was covered.
  EXPECT_LE(c.fsyncs.load(), c.records.load());
  EXPECT_EQ(c.grouped_records.load(), kTotal);
  EXPECT_GE(c.groups.load(), 1u);

  auto read = ReadLogFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  // Every acknowledged append is in the file exactly once.
  ASSERT_EQ(read->records.size(), static_cast<size_t>(kThreads * kPerThread));
  std::vector<bool> seen(kThreads * kPerThread, false);
  for (const Record& r : read->records) {
    ASSERT_GE(r.id, 0);
    ASSERT_LT(r.id, kThreads * kPerThread);
    EXPECT_FALSE(seen[static_cast<size_t>(r.id)]) << "duplicate " << r.id;
    seen[static_cast<size_t>(r.id)] = true;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------ durable store basic --

TEST(DurableStoreTest, RequiresDurabilityDir) {
  EXPECT_TRUE(OpenDurableStore(StoreConfig()).status().IsInvalidArgument());
  auto plain = SqlGraphStore::Build(graph::PropertyGraph());
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE((*plain)->durable());
  EXPECT_TRUE((*plain)->Checkpoint().IsInvalidArgument());
  EXPECT_EQ((*plain)->wal_stats().records, 0u);
}

TEST(DurableStoreTest, SurvivesReopenWithoutCheckpoint) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_reopen");
  graph::VertexId alice = 0, bob = 0;
  graph::EdgeId e = 0;
  {
    auto store = OpenDurableStore(config);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->durable());
    auto a = (*store)->AddVertex(Attr("name", json::JsonValue("alice")));
    auto b = (*store)->AddVertex(Attr("name", json::JsonValue("bob")));
    ASSERT_TRUE(a.ok() && b.ok());
    alice = *a;
    bob = *b;
    auto eid = (*store)->AddEdge(alice, bob, "knows",
                                 Attr("weight", json::JsonValue(0.9)));
    ASSERT_TRUE(eid.ok());
    e = *eid;
    ASSERT_TRUE((*store)->SetVertexAttr(bob, "age", json::JsonValue(30)).ok());
    const WalStats stats = (*store)->wal_stats();
    EXPECT_EQ(stats.records, 4u);
    EXPECT_GT(stats.bytes, 0u);
    // Store destroyed WITHOUT Checkpoint: state must come back from the log.
  }
  auto reopened = OpenDurableStore(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WalStats stats = (*reopened)->wal_stats();
  EXPECT_EQ(stats.recovered_records, 4u);
  auto v = (*reopened)->GetVertex(bob);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("age")->AsInt(), 30);
  auto edges = (*reopened)->GetOutEdges(alice, "knows");
  ASSERT_TRUE(edges.ok());
  ASSERT_EQ(edges->size(), 1u);
  EXPECT_EQ((*edges)[0].id, e);
  EXPECT_EQ((*edges)[0].dst, bob);
  fs::remove_all(config.durability_dir);
}

TEST(DurableStoreTest, CheckpointRotatesAndPrunes) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_ckpt");
  auto store = OpenDurableStore(config);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AddVertex(Attr("n", json::JsonValue(1))).ok());
  ASSERT_TRUE((*store)->Checkpoint().ok());
  // Rotated: snap-1 covers wal-1, live segment is wal-2.
  const fs::path dir(config.durability_dir);
  EXPECT_TRUE(fs::exists(dir / "snap-000001.sqlg"));
  EXPECT_TRUE(fs::exists(dir / "wal-000002.log"));
  EXPECT_FALSE(fs::exists(dir / "snap-000000.sqlg"));
  EXPECT_FALSE(fs::exists(dir / kFirstSegment));
  // A checkpoint with no new mutations is a no-op.
  const uint64_t checkpoints = (*store)->wal_stats().checkpoints;
  ASSERT_TRUE((*store)->Checkpoint().ok());
  EXPECT_EQ((*store)->wal_stats().checkpoints, checkpoints);
  store->reset();

  auto reopened = OpenDurableStore(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->wal_stats().recovered_records, 0u);
  auto v = (*reopened)->GetVertex(0);
  ASSERT_TRUE(v.ok());
  fs::remove_all(config.durability_dir);
}

TEST(DurableStoreTest, BuildRefusesNonEmptyDirAndBulkLoads) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_build");
  graph::PropertyGraph g;
  g.AddVertex(Attr("name", json::JsonValue("v0")));
  g.AddVertex(Attr("name", json::JsonValue("v1")));
  (void)g.AddEdge(0, 1, "knows", json::JsonValue::Object());
  {
    auto store = BuildDurableStore(g, config);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE((*store)->durable());
    auto out = (*store)->Out(0, "knows");
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->size(), 1u);
  }
  EXPECT_EQ(BuildDurableStore(g, config).status().code(),
            util::StatusCode::kAlreadyExists);
  auto reopened = OpenDurableStore(config);
  ASSERT_TRUE(reopened.ok());
  auto out = (*reopened)->Out(0, "knows");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
  fs::remove_all(config.durability_dir);
}

TEST(DurableStoreTest, FallsBackToOlderSnapshotWhenNewestIsCorrupt) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_fallback");
  {
    auto store = OpenDurableStore(config);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AddVertex(Attr("n", json::JsonValue(1))).ok());
    ASSERT_TRUE((*store)->AddVertex(Attr("n", json::JsonValue(2))).ok());
  }
  // A crash mid-checkpoint can leave a newer-but-corrupt snapshot next to
  // the old one. Recovery must fall back and replay the covering log.
  WriteFileBytes(config.durability_dir + "/snap-000001.sqlg",
                 "SQLG2\ngarbage that is definitely not a snapshot");
  auto reopened = OpenDurableStore(config);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->wal_stats().recovered_records, 2u);
  EXPECT_TRUE((*reopened)->GetVertex(1).ok());
  fs::remove_all(config.durability_dir);
}

TEST(DurableStoreTest, FailsOnSegmentGap) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_gap");
  {
    auto store = OpenDurableStore(config);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AddVertex(Attr("n", json::JsonValue(1))).ok());
  }
  // Fabricate a hole: wal-3 appears while wal-2 never existed. Replaying
  // across the gap would reconstruct a state that never existed, so
  // recovery must refuse instead.
  const std::string seg1 = config.durability_dir + "/" + kFirstSegment;
  WriteFileBytes(config.durability_dir + "/wal-000003.log",
                 ReadFileBytes(seg1));
  auto reopened = OpenDurableStore(config);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("segment gap"),
            std::string::npos)
      << reopened.status().ToString();
  fs::remove_all(config.durability_dir);
}

// Conflicting commits from many threads must appear in the log in the same
// order the table locks applied them, or replay reconstructs a different
// final state (last-writer-wins flips) or aborts on a remove logged before
// the add it depends on.
TEST(DurableStoreTest, ConcurrentConflictingCommitsReplayInApplyOrder) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_order");
  config.wal_sync_mode = SyncMode::kNone;  // ordering is what matters here
  int64_t live_value = -1;
  int64_t live_edges = -1;
  {
    auto store = OpenDurableStore(config);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AddVertex(json::JsonValue::Object()).ok());
    ASSERT_TRUE((*store)->AddVertex(json::JsonValue::Object()).ok());
    constexpr int kThreads = 8;
    constexpr int kIters = 150;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (int i = 0; i < kIters; ++i) {
          // All threads race on one attribute of one vertex...
          EXPECT_TRUE((*store)
                          ->SetVertexAttr(0, "k",
                                          json::JsonValue(
                                              int64_t{t} * kIters + i))
                          .ok());
          // ...while adders and removers race on the 0 -l-> 1 edges
          // (FindEdge + RemoveEdge against a concurrent AddEdge is the
          // remove-before-add hazard).
          if (t % 2 == 0) {
            EXPECT_TRUE(
                (*store)->AddEdge(0, 1, "l", json::JsonValue::Object()).ok());
          } else {
            auto found = (*store)->FindEdge(0, "l", 1);
            EXPECT_TRUE(found.ok());
            if (found.ok() && found->has_value()) {
              // A racing remover may have won; NotFound is fine.
              (void)(*store)->RemoveEdge(**found);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    auto v = (*store)->GetVertex(0);
    ASSERT_TRUE(v.ok());
    live_value = v->Find("k")->AsInt();
    auto n = (*store)->CountOutEdges(0, "l");
    ASSERT_TRUE(n.ok());
    live_edges = *n;
    // Clean close: the writer flushes on destruction, so the full log
    // survives and recovery replays every acknowledged commit.
  }
  auto recovered = OpenDurableStore(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto v = (*recovered)->GetVertex(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("k")->AsInt(), live_value);
  auto n = (*recovered)->CountOutEdges(0, "l");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, live_edges);
  fs::remove_all(config.durability_dir);
}

// Recovered stores must answer the paper's query workloads identically:
// Fig. 3-style Gremlin adjacency traversals and LinkBench get_link_list.
TEST(DurableStoreTest, RecoveredStoreAnswersQueriesIdentically) {
  StoreConfig config;
  config.durability_dir = FreshDir("wal_store_queries");
  auto pristine = SqlGraphStore::Build(graph::PropertyGraph());
  ASSERT_TRUE(pristine.ok());
  {
    auto store = OpenDurableStore(config);
    ASSERT_TRUE(store.ok());
    util::Rng rng(42);
    for (SqlGraphStore* s : {store->get(), pristine->get()}) {
      rng.Seed(42);
      for (int v = 0; v < 40; ++v) {
        ASSERT_TRUE(
            s->AddVertex(Attr("name", json::JsonValue("v" + std::to_string(v))))
                .ok());
      }
      for (int e = 0; e < 120; ++e) {
        const auto src = static_cast<graph::VertexId>(rng.Uniform(40));
        const auto dst = static_cast<graph::VertexId>(rng.Uniform(40));
        const char* label = rng.Chance(0.5) ? "knows" : "likes";
        ASSERT_TRUE(
            s->AddEdge(src, dst, label, Attr("w", json::JsonValue(e))).ok());
      }
      ASSERT_TRUE(s->RemoveVertex(7).ok());
    }
    // Crash: drop the store without checkpointing.
  }
  auto recovered = OpenDurableStore(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // LinkBench get_link_list on every vertex.
  for (graph::VertexId v = 0; v < 40; ++v) {
    for (const char* label : {"", "knows", "likes"}) {
      auto a = (*recovered)->GetOutEdges(v, label);
      auto b = (*pristine)->GetOutEdges(v, label);
      ASSERT_EQ(a.ok(), b.ok()) << "vertex " << v;
      if (!a.ok()) continue;
      auto key = [](const core::EdgeRecord& e) { return e.id; };
      std::sort(a->begin(), a->end(),
                [&](const auto& x, const auto& y) { return key(x) < key(y); });
      std::sort(b->begin(), b->end(),
                [&](const auto& x, const auto& y) { return key(x) < key(y); });
      ASSERT_EQ(a->size(), b->size()) << "vertex " << v;
      for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ((*a)[i].id, (*b)[i].id);
        EXPECT_EQ((*a)[i].dst, (*b)[i].dst);
        EXPECT_EQ((*a)[i].label, (*b)[i].label);
        EXPECT_EQ(json::Write((*a)[i].attrs), json::Write((*b)[i].attrs));
      }
    }
  }
  // Fig. 3-style adjacency traversals through the Gremlin pipeline.
  gremlin::GremlinRuntime ga(recovered->get()), gb(pristine->get());
  for (const char* q :
       {"g.V.count()", "g.V(3).out('knows').count()",
        "g.V(3).out('knows').out('likes').count()",
        "g.V.has('name', 'v5').in().count()", "g.V(9).outE('likes').count()"}) {
    auto ra = ga.Count(q), rb = gb.Count(q);
    ASSERT_TRUE(ra.ok() && rb.ok()) << q;
    EXPECT_EQ(*ra, *rb) << q;
  }
  fs::remove_all(config.durability_dir);
}

// --------------------------------------- crash-recovery fault injection --

// One logical mutation of the random trace, replayable against any store.
struct TraceOp {
  RecordType type;
  int64_t id = 0;
  int64_t src = 0;
  int64_t dst = 0;
  std::string key;        // attr key, or edge label for kAddEdge
  json::JsonValue value;  // attrs object / attr value
};

util::Status ApplyOp(SqlGraphStore* store, const TraceOp& op) {
  switch (op.type) {
    case RecordType::kAddVertex: {
      auto id = store->AddVertex(op.value);
      if (!id.ok()) return id.status();
      EXPECT_EQ(*id, op.id) << "vertex ids diverged from the trace";
      return util::Status::OK();
    }
    case RecordType::kAddEdge: {
      auto id = store->AddEdge(op.src, op.dst, op.key, op.value);
      if (!id.ok()) return id.status();
      EXPECT_EQ(*id, op.id) << "edge ids diverged from the trace";
      return util::Status::OK();
    }
    case RecordType::kSetVertexAttr:
      return store->SetVertexAttr(op.id, op.key, op.value);
    case RecordType::kSetEdgeAttr:
      return store->SetEdgeAttr(op.id, op.key, op.value);
    case RecordType::kRemoveVertexAttr:
      return store->RemoveVertexAttr(op.id, op.key);
    case RecordType::kRemoveEdgeAttr:
      return store->RemoveEdgeAttr(op.id, op.key);
    case RecordType::kRemoveVertex:
      return store->RemoveVertex(op.id);
    case RecordType::kRemoveEdge:
      return store->RemoveEdge(op.id);
    case RecordType::kCompact:
      return store->Compact();
  }
  return util::Status::Internal("unhandled trace op");
}

/// Generates a trace in which every op succeeds (so ops map 1:1 to WAL
/// records and a k-record log prefix equals the first k ops).
std::vector<TraceOp> GenerateTrace(uint64_t seed, size_t length) {
  util::Rng rng(seed);
  std::vector<TraceOp> ops;
  int64_t next_vid = 0, next_eid = 0;
  std::vector<int64_t> vids;
  struct LiveEdge {
    int64_t eid, src, dst;
  };
  std::vector<LiveEdge> edges;
  const char* keys[] = {"name", "age", "w", "k1"};
  while (ops.size() < length) {
    TraceOp op;
    const double roll = rng.NextDouble();
    if (roll < 0.30 || vids.empty()) {
      op.type = RecordType::kAddVertex;
      op.id = next_vid++;
      op.value = json::JsonValue::Object();
      op.value.Set("name", json::JsonValue(rng.NextString(6)));
      vids.push_back(op.id);
    } else if (roll < 0.55) {
      op.type = RecordType::kAddEdge;
      op.id = next_eid++;
      op.src = vids[rng.Uniform(vids.size())];
      op.dst = vids[rng.Uniform(vids.size())];
      op.key = rng.Chance(0.5) ? "knows" : "likes";
      op.value = json::JsonValue::Object();
      op.value.Set("w", json::JsonValue(static_cast<int64_t>(ops.size())));
      edges.push_back({op.id, op.src, op.dst});
    } else if (roll < 0.68) {
      op.type = RecordType::kSetVertexAttr;
      op.id = vids[rng.Uniform(vids.size())];
      op.key = keys[rng.Uniform(4)];
      op.value = json::JsonValue(static_cast<int64_t>(rng.Uniform(1000)));
    } else if (roll < 0.76 && !edges.empty()) {
      op.type = RecordType::kSetEdgeAttr;
      op.id = edges[rng.Uniform(edges.size())].eid;
      op.key = keys[rng.Uniform(4)];
      op.value = json::JsonValue(rng.NextString(4));
    } else if (roll < 0.82) {
      // OK whether or not the key exists — always succeeds on a live vertex.
      op.type = RecordType::kRemoveVertexAttr;
      op.id = vids[rng.Uniform(vids.size())];
      op.key = keys[rng.Uniform(4)];
    } else if (roll < 0.86 && !edges.empty()) {
      op.type = RecordType::kRemoveEdgeAttr;
      op.id = edges[rng.Uniform(edges.size())].eid;
      op.key = keys[rng.Uniform(4)];
    } else if (roll < 0.91 && vids.size() > 3) {
      op.type = RecordType::kRemoveVertex;
      const size_t pick = rng.Uniform(vids.size());
      op.id = vids[pick];
      vids.erase(vids.begin() + static_cast<ptrdiff_t>(pick));
      // Edges touching the vertex die with it.
      std::erase_if(edges, [&](const LiveEdge& e) {
        return e.src == op.id || e.dst == op.id;
      });
    } else if (roll < 0.96 && !edges.empty()) {
      op.type = RecordType::kRemoveEdge;
      const size_t pick = rng.Uniform(edges.size());
      op.id = edges[pick].eid;
      edges.erase(edges.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      op.type = RecordType::kCompact;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Compares a recovered store against the in-memory oracle over every id
/// the trace could have touched: vertex attrs, edge rows, and adjacency in
/// both directions (OPA/OSA templates and the EA combined index).
void ExpectStoresEqual(SqlGraphStore* got, SqlGraphStore* oracle,
                       int64_t max_vid, int64_t max_eid) {
  for (int64_t v = 0; v < max_vid; ++v) {
    auto a = got->GetVertex(v);
    auto b = oracle->GetVertex(v);
    ASSERT_EQ(a.ok(), b.ok()) << "vertex " << v << ": "
                              << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) EXPECT_EQ(json::Write(*a), json::Write(*b)) << "vertex " << v;
    // Adjacency reads answer NotFound on a deleted or absent vertex and
    // only there, so their status follows the vertex's existence.
    auto oa = got->Out(v);
    auto ob = oracle->Out(v);
    ASSERT_EQ(oa.ok(), a.ok()) << "out(" << v << "): " << oa.status().ToString();
    ASSERT_EQ(ob.ok(), a.ok()) << "out(" << v << "): " << ob.status().ToString();
    if (!oa.ok()) {
      EXPECT_TRUE(oa.status().IsNotFound()) << oa.status().ToString();
      EXPECT_TRUE(ob.status().IsNotFound()) << ob.status().ToString();
    } else {
      std::sort(oa->begin(), oa->end());
      std::sort(ob->begin(), ob->end());
      EXPECT_EQ(*oa, *ob) << "out(" << v << ")";
    }
    auto ia = got->In(v);
    auto ib = oracle->In(v);
    ASSERT_EQ(ia.ok(), a.ok()) << "in(" << v << "): " << ia.status().ToString();
    ASSERT_EQ(ib.ok(), a.ok()) << "in(" << v << "): " << ib.status().ToString();
    if (!ia.ok()) {
      EXPECT_TRUE(ia.status().IsNotFound()) << ia.status().ToString();
      EXPECT_TRUE(ib.status().IsNotFound()) << ib.status().ToString();
    } else {
      std::sort(ia->begin(), ia->end());
      std::sort(ib->begin(), ib->end());
      EXPECT_EQ(*ia, *ib) << "in(" << v << ")";
    }
    auto ea = got->GetOutEdges(v, "");
    auto eb = oracle->GetOutEdges(v, "");
    ASSERT_EQ(ea.ok(), a.ok()) << "get_link_list(" << v << "): "
                               << ea.status().ToString();
    ASSERT_EQ(eb.ok(), a.ok()) << "get_link_list(" << v << "): "
                               << eb.status().ToString();
    if (!ea.ok()) {
      EXPECT_TRUE(ea.status().IsNotFound()) << ea.status().ToString();
      EXPECT_TRUE(eb.status().IsNotFound()) << eb.status().ToString();
      continue;
    }
    auto by_id = [](const core::EdgeRecord& x, const core::EdgeRecord& y) {
      return x.id < y.id;
    };
    std::sort(ea->begin(), ea->end(), by_id);
    std::sort(eb->begin(), eb->end(), by_id);
    ASSERT_EQ(ea->size(), eb->size()) << "get_link_list(" << v << ")";
    for (size_t i = 0; i < ea->size(); ++i) {
      EXPECT_EQ((*ea)[i].id, (*eb)[i].id);
      EXPECT_EQ((*ea)[i].dst, (*eb)[i].dst);
      EXPECT_EQ((*ea)[i].label, (*eb)[i].label);
      EXPECT_EQ(json::Write((*ea)[i].attrs), json::Write((*eb)[i].attrs));
    }
  }
  for (int64_t e = 0; e < max_eid; ++e) {
    auto a = got->GetEdge(e);
    auto b = oracle->GetEdge(e);
    ASSERT_EQ(a.ok(), b.ok()) << "edge " << e;
    if (!a.ok()) continue;
    EXPECT_EQ(a->src, b->src);
    EXPECT_EQ(a->dst, b->dst);
    EXPECT_EQ(a->label, b->label);
    EXPECT_EQ(json::Write(a->attrs), json::Write(b->attrs));
  }
}

// Random CRUD trace → crash at a random byte of the log (torn tail, flipped
// byte, or truncation+garbage) → recover → compare against an in-memory
// oracle replaying exactly the ops whose records survived. Trial count can
// be raised via SQLGRAPH_WAL_CRASH_TRIALS (ci/check.sh's recovery smoke).
TEST(WalCrashRecoveryTest, RecoversExactValidPrefixAtRandomCrashPoints) {
  int total_trials = 216;
  if (const char* env = std::getenv("SQLGRAPH_WAL_CRASH_TRIALS")) {
    total_trials = std::max(1, std::atoi(env));
  }
  constexpr int kTraces = 6;
  const int trials_per_trace = std::max(1, total_trials / kTraces);

  for (int trace_idx = 0; trace_idx < kTraces; ++trace_idx) {
    const uint64_t seed = 0xc0ffee + static_cast<uint64_t>(trace_idx);
    const std::vector<TraceOp> ops = GenerateTrace(seed, 60);
    int64_t max_vid = 0, max_eid = 0;
    for (const TraceOp& op : ops) {
      if (op.type == RecordType::kAddVertex) max_vid = op.id + 1;
      if (op.type == RecordType::kAddEdge) max_eid = op.id + 1;
    }

    // Run the full trace against a durable store; keep its directory as the
    // pristine pre-crash image.
    StoreConfig config;
    config.durability_dir =
        FreshDir("wal_crash_pristine_" + std::to_string(trace_idx));
    {
      auto store = OpenDurableStore(config);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      for (const TraceOp& op : ops) {
        ASSERT_TRUE(ApplyOp(store->get(), op).ok());
      }
    }
    const std::string log_path =
        config.durability_dir + "/" + kFirstSegment;
    const std::string log_bytes = ReadFileBytes(log_path);
    {
      auto full = ReadLogFile(log_path);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(full->clean);
      // The 1:1 op↔record mapping the oracle comparison depends on.
      ASSERT_EQ(full->records.size(), ops.size());
    }

    util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int trial = 0; trial < trials_per_trace; ++trial) {
      // Build the crashed image: copy the pristine dir, then damage the log.
      StoreConfig crashed;
      crashed.durability_dir = FreshDir("wal_crash_trial");
      fs::copy(config.durability_dir, crashed.durability_dir);
      std::string damaged = log_bytes;
      const int fault = static_cast<int>(rng.Uniform(3));
      if (fault == 0) {  // torn tail: truncate at an arbitrary byte
        damaged.resize(rng.Uniform(damaged.size() + 1));
      } else if (fault == 1) {  // bit flip at an arbitrary byte
        const size_t at = rng.Uniform(damaged.size());
        damaged[at] = static_cast<char>(damaged[at] ^ (1 + rng.Uniform(255)));
      } else {  // truncation plus garbage tail
        damaged.resize(rng.Uniform(damaged.size() + 1));
        damaged += rng.NextString(rng.Uniform(24));
      }
      WriteFileBytes(crashed.durability_dir + "/" + kFirstSegment, damaged);

      // How many records survive the damage decides the oracle prefix.
      auto surviving = ReadLogFile(crashed.durability_dir + "/" +
                                   kFirstSegment);
      ASSERT_TRUE(surviving.ok());
      const size_t k = surviving->records.size();

      auto recovered = OpenDurableStore(crashed);
      ASSERT_TRUE(recovered.ok())
          << "trace " << trace_idx << " trial " << trial << ": "
          << recovered.status().ToString();
      EXPECT_EQ((*recovered)->wal_stats().recovered_records, k);

      auto oracle = SqlGraphStore::Build(graph::PropertyGraph());
      ASSERT_TRUE(oracle.ok());
      for (size_t i = 0; i < k; ++i) {
        ASSERT_TRUE(ApplyOp(oracle->get(), ops[i]).ok());
      }
      ExpectStoresEqual(recovered->get(), oracle->get(), max_vid, max_eid);

      // The recovered store accepts new commits and they persist too.
      auto extra = (*recovered)->AddVertex(Attr("post", json::JsonValue(1)));
      ASSERT_TRUE(extra.ok());
      recovered->reset();
      auto reopened = OpenDurableStore(crashed);
      ASSERT_TRUE(reopened.ok());
      EXPECT_TRUE((*reopened)->GetVertex(*extra).ok());
      fs::remove_all(crashed.durability_dir);
    }
    fs::remove_all(config.durability_dir);
  }
}

// ----------------------------------- transactional crash-point recovery --

// One transactional unit of the trace. kAuto applies its single op through
// the autocommit path (one WAL record); kCommit applies all ops through one
// Txn handle and commits (one kTxnCommit record framing the whole unit);
// kRollback applies ops through a Txn handle and rolls back (NO records —
// and, so the trace's eager id allocation stays aligned with the oracle's,
// rollback units carry only attr ops, which allocate nothing).
struct TxnUnit {
  enum class Kind { kAuto, kCommit, kRollback };
  Kind kind;
  std::vector<TraceOp> ops;
};

util::Status TxnApplyOp(core::Txn* txn, const TraceOp& op) {
  switch (op.type) {
    case RecordType::kAddVertex: {
      auto id = txn->AddVertex(op.value);
      if (!id.ok()) return id.status();
      EXPECT_EQ(*id, op.id) << "txn vertex ids diverged from the trace";
      return util::Status::OK();
    }
    case RecordType::kAddEdge: {
      auto id = txn->AddEdge(op.src, op.dst, op.key, op.value);
      if (!id.ok()) return id.status();
      EXPECT_EQ(*id, op.id) << "txn edge ids diverged from the trace";
      return util::Status::OK();
    }
    case RecordType::kSetVertexAttr:
      return txn->SetVertexAttr(op.id, op.key, op.value);
    case RecordType::kSetEdgeAttr:
      return txn->SetEdgeAttr(op.id, op.key, op.value);
    case RecordType::kRemoveVertexAttr:
      return txn->RemoveVertexAttr(op.id, op.key);
    case RecordType::kRemoveEdgeAttr:
      return txn->RemoveEdgeAttr(op.id, op.key);
    case RecordType::kRemoveVertex:
      return txn->RemoveVertex(op.id);
    case RecordType::kRemoveEdge:
      return txn->RemoveEdge(op.id);
    default:
      return util::Status::Internal("unsupported txn trace op");
  }
}

/// Generates a unit trace in which every op succeeds. Tracks the live
/// graph exactly like GenerateTrace so ids and entity liveness line up
/// between the durable run and the oracle replay.
std::vector<TxnUnit> GenerateTxnTrace(uint64_t seed, size_t units) {
  util::Rng rng(seed);
  std::vector<TxnUnit> trace;
  int64_t next_vid = 0, next_eid = 0;
  std::vector<int64_t> vids;
  struct LiveEdge {
    int64_t eid, src, dst;
  };
  std::vector<LiveEdge> edges;
  const char* keys[] = {"name", "age", "w", "k1"};

  // One mutation against the tracked live graph; updates the tracking.
  auto next_op = [&]() {
    TraceOp op;
    const double roll = rng.NextDouble();
    if (roll < 0.34 || vids.empty()) {
      op.type = RecordType::kAddVertex;
      op.id = next_vid++;
      op.value = json::JsonValue::Object();
      op.value.Set("name", json::JsonValue(rng.NextString(6)));
      vids.push_back(op.id);
    } else if (roll < 0.60) {
      op.type = RecordType::kAddEdge;
      op.id = next_eid++;
      op.src = vids[rng.Uniform(vids.size())];
      op.dst = vids[rng.Uniform(vids.size())];
      op.key = rng.Chance(0.5) ? "knows" : "likes";
      op.value = json::JsonValue::Object();
      op.value.Set("w", json::JsonValue(static_cast<int64_t>(next_eid)));
      edges.push_back({op.id, op.src, op.dst});
    } else if (roll < 0.75) {
      op.type = RecordType::kSetVertexAttr;
      op.id = vids[rng.Uniform(vids.size())];
      op.key = keys[rng.Uniform(4)];
      op.value = json::JsonValue(static_cast<int64_t>(rng.Uniform(1000)));
    } else if (roll < 0.82 && !edges.empty()) {
      op.type = RecordType::kSetEdgeAttr;
      op.id = edges[rng.Uniform(edges.size())].eid;
      op.key = keys[rng.Uniform(4)];
      op.value = json::JsonValue(rng.NextString(4));
    } else if (roll < 0.90 && vids.size() > 3) {
      op.type = RecordType::kRemoveVertex;
      const size_t pick = rng.Uniform(vids.size());
      op.id = vids[pick];
      vids.erase(vids.begin() + static_cast<ptrdiff_t>(pick));
      std::erase_if(edges, [&](const LiveEdge& e) {
        return e.src == op.id || e.dst == op.id;
      });
    } else if (roll < 0.97 && !edges.empty()) {
      op.type = RecordType::kRemoveEdge;
      const size_t pick = rng.Uniform(edges.size());
      op.id = edges[pick].eid;
      edges.erase(edges.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      op.type = RecordType::kRemoveVertexAttr;
      op.id = vids[rng.Uniform(vids.size())];
      op.key = keys[rng.Uniform(4)];
    }
    return op;
  };

  while (trace.size() < units) {
    TxnUnit unit;
    const double roll = rng.NextDouble();
    if (roll < 0.40) {
      unit.kind = TxnUnit::Kind::kAuto;
      unit.ops.push_back(next_op());
    } else if (roll < 0.82 || vids.empty()) {
      unit.kind = TxnUnit::Kind::kCommit;
      const size_t n = 2 + rng.Uniform(3);
      for (size_t i = 0; i < n; ++i) unit.ops.push_back(next_op());
    } else {
      // Rolled back: attr ops only (no id allocation, no tracking update —
      // the work is discarded, so the tracked graph must not change).
      unit.kind = TxnUnit::Kind::kRollback;
      const size_t n = 1 + rng.Uniform(2);
      for (size_t i = 0; i < n; ++i) {
        TraceOp op;
        op.type = rng.Chance(0.7) ? RecordType::kSetVertexAttr
                                  : RecordType::kRemoveVertexAttr;
        op.id = vids[rng.Uniform(vids.size())];
        op.key = keys[rng.Uniform(4)];
        if (op.type == RecordType::kSetVertexAttr) {
          op.value = json::JsonValue(static_cast<int64_t>(rng.Uniform(1000)));
        }
        unit.ops.push_back(std::move(op));
      }
    }
    trace.push_back(std::move(unit));
  }
  return trace;
}

util::Status ApplyUnit(SqlGraphStore* store, const TxnUnit& unit) {
  if (unit.kind == TxnUnit::Kind::kAuto) {
    return ApplyOp(store, unit.ops[0]);
  }
  auto txn = store->BeginTxn();
  for (const TraceOp& op : unit.ops) {
    util::Status st = TxnApplyOp(txn.get(), op);
    if (!st.ok()) return st;
  }
  return unit.kind == TxnUnit::Kind::kCommit ? txn->Commit()
                                             : txn->Rollback();
}

// Transactional trace → crash at a random byte of the log → recover →
// compare against an oracle replaying exactly the units whose records
// survived. A transaction replayed partially (some ops applied, the rest
// lost) can never match the unit-granularity oracle, so this is the
// atomic-commit-unit property: recovery is all-or-nothing per transaction.
// Trial count can be raised via SQLGRAPH_TXN_TRIALS (ci/check.sh txn stage).
TEST(TxnCrashRecoveryTest, CommitUnitsRecoverAtomicallyAtRandomCrashPoints) {
  int total_trials = 216;
  if (const char* env = std::getenv("SQLGRAPH_TXN_TRIALS")) {
    total_trials = std::max(1, std::atoi(env));
  }
  constexpr int kTraces = 6;
  const int trials_per_trace = std::max(1, total_trials / kTraces);

  for (int trace_idx = 0; trace_idx < kTraces; ++trace_idx) {
    const uint64_t seed = 0x7ea5eedULL + static_cast<uint64_t>(trace_idx);
    const std::vector<TxnUnit> units = GenerateTxnTrace(seed, 40);
    // The WAL-producing units, in record order: rollbacks emit nothing.
    std::vector<const TxnUnit*> logged;
    int64_t max_vid = 0, max_eid = 0;
    for (const TxnUnit& u : units) {
      if (u.kind != TxnUnit::Kind::kRollback) logged.push_back(&u);
      for (const TraceOp& op : u.ops) {
        if (op.type == RecordType::kAddVertex) max_vid = op.id + 1;
        if (op.type == RecordType::kAddEdge) max_eid = op.id + 1;
      }
    }

    StoreConfig config;
    config.durability_dir =
        FreshDir("txn_crash_pristine_" + std::to_string(trace_idx));
    {
      auto store = OpenDurableStore(config);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      for (const TxnUnit& u : units) {
        ASSERT_TRUE(ApplyUnit(store->get(), u).ok());
      }
    }
    const std::string log_path = config.durability_dir + "/" + kFirstSegment;
    const std::string log_bytes = ReadFileBytes(log_path);
    {
      auto full = ReadLogFile(log_path);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(full->clean);
      // One record per autocommit op, ONE per committed transaction (its
      // atomic commit unit), zero per rollback.
      ASSERT_EQ(full->records.size(), logged.size());
    }

    util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int trial = 0; trial < trials_per_trace; ++trial) {
      StoreConfig crashed;
      crashed.durability_dir = FreshDir("txn_crash_trial");
      fs::copy(config.durability_dir, crashed.durability_dir);
      std::string damaged = log_bytes;
      const int fault = static_cast<int>(rng.Uniform(3));
      if (fault == 0) {
        damaged.resize(rng.Uniform(damaged.size() + 1));
      } else if (fault == 1) {
        const size_t at = rng.Uniform(damaged.size());
        damaged[at] = static_cast<char>(damaged[at] ^ (1 + rng.Uniform(255)));
      } else {
        damaged.resize(rng.Uniform(damaged.size() + 1));
        damaged += rng.NextString(rng.Uniform(24));
      }
      WriteFileBytes(crashed.durability_dir + "/" + kFirstSegment, damaged);

      auto surviving =
          ReadLogFile(crashed.durability_dir + "/" + kFirstSegment);
      ASSERT_TRUE(surviving.ok());
      const size_t k = surviving->records.size();

      auto recovered = OpenDurableStore(crashed);
      ASSERT_TRUE(recovered.ok())
          << "trace " << trace_idx << " trial " << trial << ": "
          << recovered.status().ToString();

      // Oracle: the first k logged units, each applied IN FULL via the
      // autocommit path. No partial transaction can match this.
      auto oracle = SqlGraphStore::Build(graph::PropertyGraph());
      ASSERT_TRUE(oracle.ok());
      for (size_t i = 0; i < k; ++i) {
        for (const TraceOp& op : logged[i]->ops) {
          ASSERT_TRUE(ApplyOp(oracle->get(), op).ok());
        }
      }
      ExpectStoresEqual(recovered->get(), oracle->get(), max_vid, max_eid);
      EXPECT_TRUE((*recovered)->CheckConsistency().ok())
          << "trace " << trace_idx << " trial " << trial;
      fs::remove_all(crashed.durability_dir);
    }
    fs::remove_all(config.durability_dir);
  }
}

}  // namespace
}  // namespace wal
}  // namespace sqlgraph
