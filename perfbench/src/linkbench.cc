// Workloads `linkbench` and `linkbench_paged`: the LinkBench-like graph and
// the Table-6 request mix (graph::LinkBenchWorkload) from one client,
// against a durable store whose WAL is written to the OS but never fsynced
// (SyncMode::kNone; see README.md for why no fsync). `linkbench` keeps the
// tables resident; `linkbench_paged` pages them through a buffer pool far
// smaller than the store.
//
// Every request is also applied, outside the timed call, to a
// baseline::NativeStore shadow built from the same graph, in a child process
// (ReferenceProcess) that the timed phase asks for a round of outcomes
// before it runs the round; the two outcomes
// (status codes plus counts, list lengths and attributes, ignoring ids the
// stores assign) must agree. As in LinkBench, links are keyed by
// (id1, type, id2): the loaded graph has one link per key and add_link and
// update_link are both upserts, so FindEdge names the same link in both
// stores. At the end CheckConsistency() must be clean
// and the store reopened from its WAL directory must equal the live store.
// A run is whole rounds of kRound requests.

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "baseline/native_store.h"
#include "graph/linkbench_gen.h"
#include "harness.h"
#include "model.h"
#include "sqlgraph/store.h"
#include "util/string_util.h"
#include "wal/durability.h"

namespace perfbench {
namespace {

using namespace sqlgraph;
using graph::LinkBenchOp;
using graph::LinkBenchRequest;

constexpr size_t kObjects = 50000;
constexpr size_t kPagedPoolBytes = size_t{16} << 20;
constexpr int kSetups = 3;
constexpr size_t kWarmup = 2000;
constexpr size_t kRound = 1000;

// Indexed by LinkBenchOp.
const char* const kRequestNames[10] = {
    "add_node",    "update_node", "delete_node", "get_node",
    "add_link",    "delete_link", "update_link", "count_link",
    "multiget_link", "get_link_list"};
const char* const kRequestSpans[10] = {
    "linkbench.add_node",    "linkbench.update_node", "linkbench.delete_node",
    "linkbench.get_node",    "linkbench.add_link",    "linkbench.delete_link",
    "linkbench.update_link", "linkbench.count_link",  "linkbench.multiget_link",
    "linkbench.get_link_list"};

/// What a request returned, without the ids a store assigns.
struct Outcome {
  int code0 = 0;
  int code1 = 0;
  int64_t count = -1;
  std::vector<std::string> items;  // sorted
  bool operator==(const Outcome& o) const {
    return code0 == o.code0 && code1 == o.code1 && count == o.count &&
           items == o.items;
  }
  std::string ToString() const {
    return util::StrFormat("codes %d/%d count %lld items %zu", code0, code1,
                           static_cast<long long>(count), items.size());
  }
};

int Code(const util::Status& s) { return static_cast<int>(s.code()); }

json::JsonValue NodeAttrs(const graph::LinkBenchConfig& cfg,
                          const LinkBenchRequest& req) {
  json::JsonValue attrs = json::JsonValue::Object();
  attrs.Set("type", static_cast<int64_t>(
                        req.id2 % static_cast<int64_t>(cfg.num_object_types)));
  attrs.Set("version", int64_t{1});
  attrs.Set("time", int64_t{1400000000});
  attrs.Set("data", req.payload);
  return attrs;
}

json::JsonValue LinkAttrs(const LinkBenchRequest& req) {
  json::JsonValue attrs = json::JsonValue::Object();
  attrs.Set("visibility", int64_t{1});
  attrs.Set("timestamp", int64_t{1400000000});
  attrs.Set("data", req.payload);
  return attrs;
}

std::vector<std::string> EdgeItems(const std::vector<core::EdgeRecord>& edges) {
  std::vector<std::string> items;
  for (const auto& e : edges) {
    items.push_back(util::StrFormat("%lld>%lld %s ", static_cast<long long>(e.src),
                                    static_cast<long long>(e.dst),
                                    e.label.c_str()) +
                    CanonicalJson(e.attrs));
  }
  std::sort(items.begin(), items.end());
  return items;
}

/// Applies `req` to either store. Both expose the same CRUD names, so one
/// template serves the SQLGraph store and the NativeStore shadow. Each call
/// into the store runs inside a span of `tracer` (free when it is off).
template <typename Store>
Outcome Apply(Store* s, const graph::LinkBenchConfig& cfg,
              const LinkBenchRequest& req, Tracer* tracer) {
  auto span = [tracer](const char* name, const auto& call) {
    Tracer::Scope scope(tracer, name);
    return call();
  };
  Outcome out;
  switch (req.op) {
    case LinkBenchOp::kAddNode: {
      auto r = span("sqlgraph.AddVertex", [&] { return s->AddVertex(NodeAttrs(cfg, req)); });
      out.code0 = Code(r.status());
      break;
    }
    case LinkBenchOp::kUpdateNode:
      out.code0 = Code(span("sqlgraph.SetVertexAttr", [&] {
        return s->SetVertexAttr(req.id1, "data", json::JsonValue(req.payload));
      }));
      break;
    case LinkBenchOp::kDeleteNode:  // left out of the stream (NextRequest)
      break;
    case LinkBenchOp::kGetNode: {
      auto r = span("sqlgraph.GetVertex", [&] { return s->GetVertex(req.id1); });
      out.code0 = Code(r.status());
      if (r.ok()) out.items.push_back(CanonicalJson(*r));
      break;
    }
    case LinkBenchOp::kAddLink:
    case LinkBenchOp::kDeleteLink:
    case LinkBenchOp::kUpdateLink: {
      auto found = span("sqlgraph.FindEdge", [&] {
        return s->FindEdge(req.id1, req.assoc_type, req.id2);
      });
      out.code0 = Code(found.status());
      const bool hit = found.ok() && found->has_value();
      out.count = hit ? 1 : 0;
      if (req.op == LinkBenchOp::kDeleteLink) {
        if (hit) {
          out.code1 = Code(span("sqlgraph.RemoveEdge", [&] { return s->RemoveEdge(**found); }));
        }
      } else if (hit) {
        out.code1 = Code(span("sqlgraph.SetEdgeAttr", [&] {
          return s->SetEdgeAttr(**found, "data", json::JsonValue(req.payload));
        }));
      } else {  // add and update are both LinkBench upserts
        auto r = span("sqlgraph.AddEdge", [&] {
          return s->AddEdge(req.id1, req.id2, req.assoc_type, LinkAttrs(req));
        });
        out.code1 = Code(r.status());
      }
      break;
    }
    case LinkBenchOp::kCountLink: {
      auto r = span("sqlgraph.CountOutEdges", [&] {
        return s->CountOutEdges(req.id1, req.assoc_type);
      });
      out.code0 = Code(r.status());
      if (r.ok()) out.count = *r;
      break;
    }
    case LinkBenchOp::kMultigetLink: {
      const graph::VertexId other =
          (req.id2 + 1) % static_cast<int64_t>(cfg.num_objects);
      auto a = span("sqlgraph.FindEdge", [&] { return s->FindEdge(req.id1, req.assoc_type, req.id2); });
      auto b = span("sqlgraph.FindEdge", [&] { return s->FindEdge(req.id1, req.assoc_type, other); });
      out.code0 = Code(a.status());
      out.code1 = Code(b.status());
      out.count = (a.ok() && a->has_value() ? 2 : 0) + (b.ok() && b->has_value() ? 1 : 0);
      break;
    }
    case LinkBenchOp::kGetLinkList: {
      auto r = span("sqlgraph.GetOutEdges", [&] {
        return s->GetOutEdges(req.id1, req.assoc_type);
      });
      out.code0 = Code(r.status());
      if (r.ok()) {
        out.count = static_cast<int64_t>(r->size());
        out.items = EdgeItems(*r);
      }
      break;
    }
  }
  return out;
}

void EncodeOutcome(const Outcome& o, Encoder* enc) {
  enc->I64(o.code0);
  enc->I64(o.code1);
  enc->I64(o.count);
  enc->I64(static_cast<int64_t>(o.items.size()));
  for (const std::string& item : o.items) enc->Str(item);
}

Outcome DecodeOutcome(Decoder* dec) {
  Outcome o;
  o.code0 = static_cast<int>(dec->I64());
  o.code1 = static_cast<int>(dec->I64());
  o.count = dec->I64();
  const int64_t n = dec->I64();
  for (int64_t i = 0; i < n && dec->ok(); ++i) o.items.push_back(dec->Str());
  return o;
}

/// Reads `n` outcomes from a reply of the reference process; empty when
/// the reply is malformed.
std::vector<Outcome> DecodeOutcomes(const std::string& reply, size_t n) {
  Decoder dec(reply);
  std::vector<Outcome> out;
  for (size_t i = 0; i < n; ++i) out.push_back(DecodeOutcome(&dec));
  if (!dec.ok() || !dec.done()) out.clear();
  return out;
}

/// The LinkBench graph with one link per (id1, link type, id2), LinkBench's
/// link-table key. The generator can draw a key twice; with two parallel
/// links FindEdge may name either, and the store and its shadow would
/// update different ones.
graph::PropertyGraph GenerateGraph(const graph::LinkBenchConfig& cfg) {
  const graph::PropertyGraph raw = graph::GenerateLinkBenchGraph(cfg);
  graph::PropertyGraph g;
  for (const graph::Vertex& v : raw.vertices()) g.AddVertex(v.attrs);
  std::unordered_set<std::string> keys;
  for (const graph::Edge& e : raw.edges()) {
    const std::string key = util::StrFormat(
        "%lld %lld ", static_cast<long long>(e.src), static_cast<long long>(e.dst)) + e.label;
    if (keys.insert(key).second) (void)g.AddEdge(e.src, e.dst, e.label, e.attrs);  // endpoints exist
  }
  return g;
}

/// The next request of `stream`, leaving out delete_node. After a vertex
/// is deleted, SQLGraph's link reads on it (GetOutEdges, CountOutEdges,
/// FindEdge) return OK with no rows where the reference store returns
/// NotFound, and which vertices the Zipf stream deletes and reads again
/// depends on the seed. The other nine request types keep their Table-6
/// shares relative to each other.
LinkBenchRequest NextRequest(graph::LinkBenchWorkload* stream) {
  LinkBenchRequest req = stream->Next();
  while (req.op == LinkBenchOp::kDeleteNode) req = stream->Next();
  return req;
}

/// The logical graph of `store` as sorted row hashes of its vertex table
/// (VID, ATTR) and edge table (EID, INV, OUTV, LBL, ATTR), read through
/// ExecuteSql. Two stores with equal digests hold the same vertices and
/// edges, ids and attributes included. Empty on a failed scan.
std::vector<size_t> Digest(core::SqlGraphStore* store) {
  std::vector<size_t> out;
  std::hash<std::string> hasher;
  for (const char* table : {"VA", "EA"}) {
    auto rows = store->ExecuteSql(std::string("SELECT * FROM ") + table);
    if (!rows.ok()) return {};
    for (const auto& row : rows->rows) {
      std::string text = table;
      for (const rel::Value& v : row) {
        text += '|';
        text += v.is_json() ? CanonicalJson(v.AsJson()) : v.ToString();
      }
      out.push_back(hasher(text));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

RunResult RunLinkBench(const Options& opts, bool paged) {
  RunResult res;
  Tracer tracer(opts.trace);
  const int64_t run_start = NowNs();
  const char* workload = paged ? "linkbench_paged" : "linkbench";

  // The graph is fixed (the generator's own seed); --seed draws the
  // request streams. A per-seed graph changes the hot vertices' degrees,
  // which moves every latency with the seed.
  graph::LinkBenchConfig lcfg;
  lcfg.num_objects = kObjects;
  core::StoreConfig scfg;
  scfg.wal_sync_mode = wal::SyncMode::kNone;
  if (paged) {
    scfg.storage = rel::StorageMode::kPaged;
    scfg.buffer_pool_bytes = kPagedPoolBytes;
  }

  // ------------------------------------------------------- reference ----
  // A child process holds the NativeStore shadow and draws the same two
  // request streams. "warm" answers with the outcomes of the kWarmup
  // warm-up requests, "round" with those of the next kRound timed requests,
  // "user_bytes" with the user bytes of the shadow's graph at that point.
  std::string error;
  auto reference = ReferenceProcess::Start(
      [&](std::string* err) -> ReferenceProcess::Handler {
        auto native = baseline::NativeStore::Build(GenerateGraph(lcfg),
                                                   baseline::NativeStoreConfig());
        if (!native.ok()) {
          *err = "shadow build failed: " + native.status().ToString();
          return {};
        }
        struct State {
          std::unique_ptr<baseline::NativeStore> shadow;
          graph::LinkBenchWorkload warm_stream;
          graph::LinkBenchWorkload stream;
          Tracer off{false};
        };
        auto st = std::make_shared<State>(State{std::move(native).value(),
                                                graph::LinkBenchWorkload(lcfg, ~opts.seed),
                                                graph::LinkBenchWorkload(lcfg, opts.seed)});
        return [st, lcfg](const std::string& request) {
          Encoder enc;
          if (request == "user_bytes") {
            int64_t user_bytes = -1;
            auto vids = st->shadow->AllVertices();
            auto eids = st->shadow->AllEdges();
            if (vids.ok() && eids.ok()) {
              user_bytes = 0;
              for (graph::VertexId v : *vids) {
                auto attrs = st->shadow->GetVertex(v);
                if (attrs.ok()) user_bytes += VertexUserBytes(*attrs);
              }
              for (graph::EdgeId e : *eids) {
                auto edge = st->shadow->GetEdge(e);
                if (edge.ok()) user_bytes += EdgeUserBytes(edge->label, edge->attrs);
              }
            }
            enc.I64(user_bytes);
            return enc.data();
          }
          const bool warm = request == "warm";
          graph::LinkBenchWorkload* stream = warm ? &st->warm_stream : &st->stream;
          for (size_t i = 0, n = warm ? kWarmup : kRound; i < n; ++i) {
            EncodeOutcome(Apply(st->shadow.get(), lcfg, NextRequest(stream), &st->off),
                          &enc);
          }
          return enc.data();
        };
      },
      &error);
  if (!reference) {
    res.correct = false;
    res.notes.push_back("reference process: " + error);
    return res;
  }
  std::string reply;
  std::vector<Outcome> warm_want;
  if (reference->Call("warm", &reply)) warm_want = DecodeOutcomes(reply, kWarmup);
  if (warm_want.empty()) {
    res.correct = false;
    res.notes.push_back("reference process: no warm-up outcomes");
    return res;
  }

  // ---------------------------------------------------------- set-up ----
  // Set up kSetups times and keep the last; setup_s is the median. Each
  // set-up generates the graph, bulk-loads it into a fresh durable store
  // (base checkpoint included) and runs kWarmup requests. The kept
  // set-up's warm-up outcomes are checked after the set-ups.
  std::unique_ptr<core::SqlGraphStore> store;
  std::vector<double> setup_s, generate_s, build_s;
  std::vector<Outcome> warm_got;
  std::string dir;
  for (int setup = 0; setup < kSetups; ++setup) {
    store.reset();
    if (!dir.empty() && !RemoveTree(dir, &error)) res.notes.push_back(error);
    dir = util::StrFormat("%s/wal-%s-%d-%d", kOutDir, workload,
                          static_cast<int>(getpid()), setup);
    if (!RemoveTree(dir, &error) || !MakeDirs(kOutDir, &error)) {
      res.correct = false;
      res.notes.push_back(error);
      return res;
    }
    scfg.durability_dir = dir;
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    {
      const graph::PropertyGraph g = [&] {
        Tracer::Scope span(&tracer, "graph.generate");
        return GenerateGraph(lcfg);
      }();
      t1 = NowNs();
      Tracer::Scope span(&tracer, "sqlgraph.build");
      auto built = wal::BuildDurableStore(g, scfg);
      if (!built.ok()) {
        res.correct = false;
        res.notes.push_back("durable build failed: " + built.status().ToString());
        return res;
      }
      store = std::move(built).value();
    }
    const int64_t t2 = NowNs();
    graph::LinkBenchWorkload warm_stream(lcfg, /*requester_seed=*/~opts.seed);
    warm_got.clear();
    for (size_t i = 0; i < kWarmup; ++i) {
      warm_got.push_back(Apply(store.get(), lcfg, NextRequest(&warm_stream), &tracer));
    }
    const int64_t t3 = NowNs();
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    generate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  for (size_t i = 0; i < kWarmup; ++i) {
    if (!(warm_got[i] == warm_want[i])) {
      res.correct = false;
      res.notes.push_back(util::StrFormat("warm-up request %zu: ", i) +
                          warm_got[i].ToString() + " vs shadow " +
                          warm_want[i].ToString());
    }
  }

  // ------------------------------------------------------- timed phase ----
  // Each round first fetches the shadow's outcomes of its kRound requests,
  // so the reference process is idle while requests are timed.
  graph::LinkBenchWorkload stream(lcfg, /*requester_seed=*/opts.seed);
  std::vector<std::vector<double>> kind_us(10);
  std::vector<double> all_us;
  double busy_s = 0;
  rel::BufferPool* pool = store->db()->buffer_pool();
  const uint64_t hits0 = pool->hits(), misses0 = pool->misses(),
                 evictions0 = pool->evictions();
  const wal::WalStats wal0 = store->wal_stats();
  bool planted = !opts.plant_wrong;
  const int64_t timed_start = NowNs();
  const int64_t deadline = timed_start + static_cast<int64_t>(opts.seconds * 1e9);
  uint64_t op_id = 0;
  do {
    std::vector<Outcome> want;
    if (reference->Call("round", &reply)) want = DecodeOutcomes(reply, kRound);
    if (want.empty()) {
      res.correct = false;
      res.notes.push_back("reference process: no outcomes for a round");
      return res;
    }
    if (!planted) {
      want[0].code0 = -1;  // self-test: one wrong reference answer
      planted = true;
    }
    for (size_t i = 0; i < kRound; ++i) {
      const LinkBenchRequest req = NextRequest(&stream);
      const int kind = static_cast<int>(req.op);
      tracer.set_op(++op_id);
      Outcome got;
      const int64_t t0 = NowNs();
      {
        Tracer::Scope span(&tracer, kRequestSpans[kind]);
        got = Apply(store.get(), lcfg, req, &tracer);
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      busy_s += us / 1e6;
      kind_us[static_cast<size_t>(kind)].push_back(us);
      all_us.push_back(us);
      ++res.attempted;
      if (!(got == want[i])) {
        ++res.failed;
        if (res.failed <= 3) {
          res.notes.push_back(std::string(kRequestNames[kind]) + ": " + got.ToString() +
                              " vs shadow " + want[i].ToString());
        }
      }
    }
  } while (NowNs() < deadline);
  const int64_t timed_end = NowNs();
  const double ops = static_cast<double>(res.attempted);
  const wal::WalStats wal1 = store->wal_stats();
  const double pool_hits = static_cast<double>(pool->hits() - hits0);
  const double pool_misses = static_cast<double>(pool->misses() - misses0);
  const double pool_evictions = static_cast<double>(pool->evictions() - evictions0);
  const double peak_rss_mb = PeakRssMiB();  // before the checks allocate

  // --------------------------------------------- end-of-run checks ----
  // The checks scan every table; a pool that holds the whole store keeps
  // them to one miss per page. Timing is over, so this changes no metric.
  constexpr size_t kCheckPoolBytes = size_t{1} << 30;
  pool->set_capacity(kCheckPoolBytes);
  const core::ConsistencyReport report = store->CheckConsistency();
  if (!report.ok()) {
    res.correct = false;
    res.notes.push_back("CheckConsistency: " + report.ToString());
  }
  int64_t user_bytes = -1;
  if (reference->Call("user_bytes", &reply)) {
    Decoder dec(reply);
    user_bytes = dec.I64();
    if (!dec.ok() || !dec.done()) user_bytes = -1;
  }
  reference.reset();
  if (user_bytes <= 0) {
    res.correct = false;
    res.notes.push_back("shadow scan failed");
  }
  const double store_bytes = static_cast<double>(store->SerializedBytes());
  std::map<std::string, double> table_bytes;
  AddTableBytes(*store, &table_bytes);

  const std::vector<size_t> live_digest = Digest(store.get());
  if (live_digest.empty()) {
    res.correct = false;
    res.notes.push_back("scan of the live store failed");
  }
  store.reset();  // closes the log
  {
    core::StoreConfig reopen_cfg = scfg;
    reopen_cfg.buffer_pool_bytes = kCheckPoolBytes;
    auto reopened = wal::OpenDurableStore(reopen_cfg);
    if (!reopened.ok()) {
      res.correct = false;
      res.notes.push_back("reopen failed: " + reopened.status().ToString());
    } else {
      if (Digest(reopened->get()) != live_digest) {
        res.correct = false;
        res.notes.push_back("reopened store differs from the live store");
      }
    }
  }
  if (!RemoveTree(dir, &error)) res.notes.push_back(error);

  res.notes.push_back(util::StrFormat(
      "wall seconds: before timed phase %.1f, timed phase %.1f, after %.1f",
      static_cast<double>(timed_start - run_start) / 1e9,
      static_cast<double>(timed_end - timed_start) / 1e9,
      static_cast<double>(NowNs() - timed_end) / 1e9));

  // ------------------------------------------------------------ report ----
  std::vector<double> kind_medians;
  for (const auto& v : kind_us) {
    if (!v.empty()) kind_medians.push_back(Median(v));
  }
  auto& e2e = res.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = ops / busy_s;
  e2e["latency_p50_us"] = Quantile(all_us, 0.50);
  e2e["latency_p95_us"] = Quantile(all_us, 0.95);
  e2e["kind_geomean_us"] = GeoMean(kind_medians);
  e2e["store_bytes_per_user_byte"] = store_bytes / static_cast<double>(user_bytes);
  e2e["peak_rss_mb"] = peak_rss_mb;
  if (!tracer.on()) return res;

  auto& pl = res.per_layer;
  for (int k = 0; k < 10; ++k) {
    if (k == static_cast<int>(LinkBenchOp::kDeleteNode)) continue;  // not run
    pl[std::string("sqlgraph.") + kRequestNames[k] + "_p50_us"] =
        Median(tracer.Durations(kRequestSpans[k])) / 1e3;
  }
  const double accesses = pool_hits + pool_misses;
  pl["rel.pool_hit_ratio"] = accesses > 0 ? pool_hits / accesses : 0;
  pl["rel.pool_misses_per_op"] = pool_misses / ops;
  pl["rel.pool_evictions_per_op"] = pool_evictions / ops;
  pl.insert(table_bytes.begin(), table_bytes.end());
  pl["sqlgraph.build_s"] = Median(build_s);
  pl["graph.generate_s"] = Median(generate_s);
  pl["wal.records_per_op"] = static_cast<double>(wal1.records - wal0.records) / ops;
  pl["wal.bytes_per_op"] = static_cast<double>(wal1.bytes - wal0.bytes) / ops;
  pl["traced.ops_per_s"] = ops / busy_s;
  if (!MakeDirs(kOutDir, &error) ||
      !tracer.WriteJson(std::string(kOutDir) + "/trace-" + workload + ".json")) {
    res.notes.push_back("trace file not written: " + error);
  }
  return res;
}

}  // namespace perfbench
