// Workload `dbpedia`: the 47 read queries of the paper's DBpedia
// experiments over the DBpedia-like graph at scale 0.1, resident storage.
//
//   * the 20 Fig-8a queries (dq1..dq20, dq15 the pathological one) and the
//     11 Table-1 long-path queries (lq1..lq11), as Gremlin text through
//     gremlin::GremlinRuntime;
//   * the 16 Table-2 attribute lookups (aq1..aq16), as SQL text through
//     SqlGraphStore::ExecuteSql.
//
// Each Gremlin count is checked against baseline::GremlinInterpreter over a
// baseline::NativeStore built from the same graph; each Table-2 count
// against a direct count over the generated PropertyGraph. Both are computed
// in a child process (ReferenceProcess). One operation is
// one query; a round runs all 47 once in a seeded order, and a run is whole
// rounds.

#include <algorithm>
#include <cctype>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "baseline/gremlin_interp.h"
#include "baseline/native_store.h"
#include "bench_core/workloads.h"
#include "graph/dbpedia_gen.h"
#include "gremlin/parser.h"
#include "gremlin/runtime.h"
#include "gremlin/translation_cache.h"
#include "gremlin/translator.h"
#include "harness.h"
#include "model.h"
#include "sql/parser.h"
#include "sql/render.h"
#include "sqlgraph/store.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using namespace sqlgraph;

// At scale 0.2 the same queries spread twice as much from run to run (see
// README.md), and a 10-second run held only 6 to 8 rounds.
constexpr double kScale = 0.1;
constexpr int kSetups = 3;

struct Query {
  std::string name;
  std::string text;
  bool gremlin = true;
  int64_t expected = -1;  // reference answer
};

std::vector<Query> MakeQueries() {
  std::vector<Query> out;
  const auto dq = bench::DbpediaBenchmarkQueries();
  for (size_t i = 0; i < dq.size(); ++i) {
    out.push_back({util::StrFormat("dq%zu", i + 1), dq[i], true});
  }
  for (const auto& q : bench::Table1Queries()) {
    out.push_back({util::StrFormat("lq%d", q.id), q.ToGremlin(), true});
  }
  for (const auto& q : bench::Table2Queries()) {
    out.push_back({util::StrFormat("aq%d", q.id), q.ToJsonSql(), false});
  }
  return out;
}

/// Table-2 answer counted straight from the generated graph, following the
/// SQL semantics of JSON_VAL: a missing key or JSON null is NULL; LIKE
/// matches strings; '=' with a string operand matches equal strings only;
/// '=' with a number matches numbers of equal value.
int64_t ReferenceTable2(const graph::PropertyGraph& g,
                        const bench::AttributeQuery& q) {
  using K = core::HashAttrStore::QueryKind;
  int64_t n = 0;
  for (const graph::Vertex& v : g.vertices()) {
    const json::JsonValue* a = v.attrs.Find(q.key);
    if (a == nullptr || a->is_null()) continue;
    bool match = false;
    switch (q.kind) {
      case K::kNotNull:
        match = true;
        break;
      case K::kLike: {
        const std::string& suffix = q.operand.AsString();  // "%en"
        const std::string tail = suffix.substr(1);
        match = a->is_string() && a->AsString().size() >= tail.size() &&
                a->AsString().compare(a->AsString().size() - tail.size(),
                                      tail.size(), tail) == 0;
        break;
      }
      case K::kEqString:
        match = a->is_string() && a->AsString() == q.operand.AsString();
        break;
      case K::kEqNumeric:
        match = a->is_number() && a->AsDouble() == q.operand.AsDouble();
        break;
    }
    n += match ? 1 : 0;
  }
  return n;
}

bool ScalarOf(const sql::ResultSet& rs, int64_t* out) {
  if (rs.rows.size() != 1 || rs.rows[0].empty() || !rs.rows[0][0].is_number()) {
    return false;
  }
  *out = rs.rows[0][0].AsInt();
  return true;
}

/// Pipe kind of an attributed pipe text such as "out('team')" or
/// "V('uri', ...)": its leading identifier.
std::string PipeKind(const std::string& pipe) {
  std::string p = pipe.rfind("g.", 0) == 0 ? pipe.substr(2) : pipe;
  size_t n = 0;
  while (n < p.size() && std::isalpha(static_cast<unsigned char>(p[n]))) ++n;
  return p.substr(0, n);
}

/// Operator kind of an executor span name ("hash join on T1" → hash_join).
/// Kinds the 47 queries never run (sort, cross join, plain index lookup,
/// recursive CTE) fall under "other".
const char* OperatorKind(const std::string& op) {
  auto starts = [&](const char* prefix) { return op.rfind(prefix, 0) == 0; };
  if (op.find("left-outer join") != std::string::npos) return "left_outer_join";
  if (starts("seq scan")) return "seq_scan";
  if (starts("scan ")) return "cte_scan";
  if (starts("JSON index range scan")) return "json_index_range_scan";
  if (starts("JSON index lookup")) return "json_index_lookup";
  if (starts("index nested-loop join")) return "index_nl_join";
  if (starts("hash join")) return "hash_join";
  if (starts("unnest")) return "unnest";
  if (starts("aggregate")) return "aggregate";
  return "other";
}

/// Adds each span's self time to `by_kind`. Only a recursive CTE encloses
/// other operators; they are the other spans of its own CTE context.
void AddOperatorSelfTimes(const std::vector<obs::TraceSpan>& spans,
                          std::map<std::string, double>* by_kind) {
  std::map<std::string, uint64_t> context_ns;
  for (const auto& s : spans) {
    if (s.op.rfind("recursive cte", 0) != 0) context_ns[s.context] += s.ns;
  }
  for (const auto& s : spans) {
    double ns = static_cast<double>(s.ns);
    if (s.op.rfind("recursive cte", 0) == 0) {
      ns -= static_cast<double>(context_ns[s.context]);
    }
    (*by_kind)[std::string("sql.op_self_ms.") + OperatorKind(s.op)] += ns / 1e6;
  }
}

// Pipe kinds that own at least one CTE in the 31 Gremlin queries; pipes
// folded into a neighbour's CTE (count, hasNot, interval, aggregate)
// report no time of their own.
const char* const kPipeKinds[] = {"V",     "has",  "out",      "in",
                                  "both",  "outE", "inV",      "dedup",
                                  "loop",  "copySplit", "and", "except",
                                  "simplePath"};

}  // namespace

RunResult RunDbpedia(const Options& opts) {
  RunResult res;
  Tracer tracer(opts.trace);
  const int64_t run_start = NowNs();
  std::vector<Query> queries = MakeQueries();

  // The dataset is fixed (the generator's own seed); --seed draws the
  // query order. A per-seed graph would move every query's cost with the
  // seed and hide a change of the program in seed-to-seed spread.
  graph::DbpediaConfig gcfg;
  gcfg.scale = kScale;
  core::StoreConfig scfg;
  scfg.va_hash_indexes = bench::IndexedAttributeKeys();
  scfg.va_ordered_indexes = bench::OrderedIndexedAttributeKeys();

  // ------------------------------------------------------- reference ----
  // A child process generates the same graph and computes every reference
  // answer and the graph's user bytes, before any set-up is timed.
  std::string error;
  auto reference = ReferenceProcess::Start(
      [&](std::string* err) -> ReferenceProcess::Handler {
        const graph::PropertyGraph g = graph::DbpediaGenerator(gcfg).Generate();
        baseline::NativeStoreConfig ncfg;
        ncfg.indexed_keys = bench::IndexedAttributeKeys();
        auto native = baseline::NativeStore::Build(g, ncfg);
        if (!native.ok()) {
          *err = "reference store build failed: " + native.status().ToString();
          return {};
        }
        const auto table2 = bench::Table2Queries();
        size_t t2_index = 0;
        Encoder enc;
        for (const Query& q : queries) {
          if (!q.gremlin) {
            enc.I64(ReferenceTable2(g, table2[t2_index++]));
            continue;
          }
          baseline::GremlinInterpreter interp(native->get());
          auto r = interp.Count(q.text);
          if (!r.ok()) {
            *err = q.name + ": reference failed: " + r.status().ToString();
            return {};
          }
          enc.I64(*r);
        }
        int64_t user_bytes = 0;
        for (const auto& v : g.vertices()) user_bytes += VertexUserBytes(v.attrs);
        for (const auto& e : g.edges()) user_bytes += EdgeUserBytes(e.label, e.attrs);
        enc.I64(user_bytes);
        auto answers = std::make_shared<const std::string>(std::move(enc.data()));
        return [answers](const std::string&) { return *answers; };
      },
      &error);
  std::string reply;
  if (!reference || !reference->Call("answers", &reply)) {
    res.correct = false;
    res.notes.push_back("reference process: " + (error.empty() ? "no answers" : error));
    return res;
  }
  reference.reset();
  Decoder answers(reply);
  for (Query& q : queries) q.expected = answers.I64();
  const int64_t user_bytes = answers.I64();
  if (!answers.ok() || !answers.done() || user_bytes <= 0) {
    res.correct = false;
    res.notes.push_back("reference process: malformed answers");
    return res;
  }
  if (opts.plant_wrong) queries[0].expected += 1;

  // One query as every phase runs it: Gremlin text through ParseGremlin and
  // GremlinRuntime::Run (which is what GremlinRuntime::Count does, with the
  // parse as a span of its own), SQL text through ExecuteSql.
  std::unique_ptr<core::SqlGraphStore> store;
  std::unique_ptr<gremlin::GremlinRuntime> runtime;
  struct Answer {
    bool ok = false;
    int64_t value = -1;
    uint64_t rows = 0;
    sql::ExecStats stats;
  };
  auto run_query = [&](const Query& q, Answer* a) {
    if (q.gremlin) {
      auto pipeline = [&] {
        Tracer::Scope span(&tracer, "gremlin.parse");
        return gremlin::ParseGremlin(q.text);
      }();
      if (!pipeline.ok()) return;
      Tracer::Scope span(&tracer, "gremlin.run");
      auto r = runtime->Run(*pipeline);
      a->ok = r.ok() && ScalarOf(*r, &a->value);
      if (r.ok()) a->rows = r->rows.size();
    } else {
      Tracer::Scope span(&tracer, "sql.execute");
      auto r = store->ExecuteSql(q.text, &a->stats);
      a->ok = r.ok() && ScalarOf(*r, &a->value);
      if (r.ok()) a->rows = r->rows.size();
    }
  };

  // ---------------------------------------------------------- set-up ----
  // Set up kSetups times and keep the last; setup_s is the median. The
  // warm-up runs every query once. In a traced run the kept set-up also
  // probes parse, uncached translation and cold prepare of every query.
  std::vector<double> setup_s, generate_s, build_s;
  std::vector<int64_t> warm_answers(queries.size(), -1);
  for (int setup = 0; setup < kSetups; ++setup) {
    runtime.reset();
    store.reset();
    const bool probe = tracer.on() && setup == kSetups - 1;
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    {
      const graph::PropertyGraph g = [&] {
        Tracer::Scope span(&tracer, "graph.generate");
        return graph::DbpediaGenerator(gcfg).Generate();
      }();
      t1 = NowNs();
      Tracer::Scope span(&tracer, "sqlgraph.build");
      auto built = core::SqlGraphStore::Build(g, scfg);
      if (!built.ok()) {
        res.correct = false;
        res.notes.push_back("build failed: " + built.status().ToString());
        return res;
      }
      store = std::move(built).value();
    }
    const int64_t t2 = NowNs();
    runtime = std::make_unique<gremlin::GremlinRuntime>(store.get());
    gremlin::Translator translator(&store->schema());
    gremlin::TranslationCache probe_cache;
    for (size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      if (probe) {
        std::string sql_text = q.text;
        if (q.gremlin) {
          auto pipeline = [&] {
            Tracer::Scope span(&tracer, "gremlin.parse");
            return gremlin::ParseGremlin(q.text);
          }();
          if (pipeline.ok()) {
            {
              Tracer::Scope span(&tracer, "gremlin.translate");
              auto translated = translator.Translate(*pipeline);
              if (translated.ok()) (void)sql::Render(*translated).size();
            }
            // The parameterized text the runtime will prepare.
            sql::ParamBindings binds;
            auto cached = probe_cache.GetOrTranslate(translator, *pipeline, &binds);
            if (cached.ok()) sql_text = cached->sql;
          }
        }
        {
          Tracer::Scope span(&tracer, "sql.parse");
          (void)sql::ParseQuery(sql_text).ok();
        }
        Tracer::Scope span(&tracer, "sql.prepare");
        (void)store->Prepare(sql_text).ok();  // cold: first sight of this text
      }
      Answer a;
      run_query(q, &a);
      warm_answers[i] = a.ok ? a.value : -1;
    }
    const int64_t t3 = NowNs();
    setup_s.push_back(static_cast<double>(t3 - t0) / 1e9);
    generate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    build_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (warm_answers[i] != queries[i].expected) {
      res.correct = false;
      res.notes.push_back(util::StrFormat(
          "warm-up %s: got %lld, reference %lld", queries[i].name.c_str(),
          static_cast<long long>(warm_answers[i]),
          static_cast<long long>(queries[i].expected)));
    }
  }

  // ------------------------------------------------------- timed phase ----
  std::vector<std::vector<double>> kind_us(queries.size());
  std::vector<double> all_us;
  double busy_s = 0;
  std::vector<double> exec_us;
  sql::ExecStats sum;
  uint64_t rows_out = 0;
  const uint64_t tc_hits0 = runtime->translation_cache().hits();
  const uint64_t tc_misses0 = runtime->translation_cache().misses();
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0);
  util::Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 47);
  const int64_t timed_start = NowNs();
  const int64_t deadline = timed_start + static_cast<int64_t>(opts.seconds * 1e9);
  uint64_t op_id = 0;
  do {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    for (size_t qi : order) {
      const Query& q = queries[qi];
      tracer.set_op(++op_id);
      Answer a;
      const int64_t t0 = NowNs();
      {
        Tracer::Scope op_span(&tracer, q.gremlin ? "op.gremlin" : "op.sql");
        run_query(q, &a);
      }
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      busy_s += us / 1e6;
      kind_us[qi].push_back(us);
      all_us.push_back(us);
      ++res.attempted;
      if (!a.ok || a.value != q.expected) {
        ++res.failed;
        if (res.failed <= 3) {
          res.notes.push_back(util::StrFormat(
              "%s: got %lld, reference %lld", q.name.c_str(),
              static_cast<long long>(a.value), static_cast<long long>(q.expected)));
        }
      }
      if (q.gremlin) a.stats = store->last_exec_stats();
      exec_us.push_back(static_cast<double>(a.stats.exec_ns) / 1e3);
      sum.plan_cache_hits += a.stats.plan_cache_hits;
      sum.plan_cache_misses += a.stats.plan_cache_misses;
      sum.rows_scanned += a.stats.rows_scanned;
      sum.table_scans += a.stats.table_scans;
      sum.index_lookups += a.stats.index_lookups;
      sum.hash_joins += a.stats.hash_joins;
      sum.index_nl_joins += a.stats.index_nl_joins;
      rows_out += a.rows;
    }
  } while (NowNs() < deadline);
  const int64_t timed_end = NowNs();

  res.notes.push_back(util::StrFormat(
      "wall seconds: before timed phase %.1f, timed phase %.1f, after %.1f",
      static_cast<double>(timed_start - run_start) / 1e9,
      static_cast<double>(timed_end - timed_start) / 1e9,
      static_cast<double>(NowNs() - timed_end) / 1e9));

  // ------------------------------------------------------------ report ----
  std::vector<double> kind_medians;
  for (const auto& v : kind_us) kind_medians.push_back(Median(v));
  const double ops = static_cast<double>(res.attempted);
  auto& e2e = res.end_to_end;
  e2e["setup_s"] = Median(setup_s);
  e2e["ops_per_s"] = ops / busy_s;
  e2e["latency_p50_us"] = Quantile(all_us, 0.50);
  e2e["latency_p95_us"] = Quantile(all_us, 0.95);
  e2e["kind_geomean_us"] = GeoMean(kind_medians);
  e2e["store_bytes_per_user_byte"] =
      static_cast<double>(store->SerializedBytes()) / static_cast<double>(user_bytes);
  e2e["peak_rss_mb"] = PeakRssMiB();
  if (!tracer.on()) return res;

  // Per-layer: EXPLAIN ANALYZE of every query once, after the timed phase.
  auto& pl = res.per_layer;
  for (const char* kind : kPipeKinds) pl[std::string("gremlin.pipe_ms.") + kind] = 0;
  pl["gremlin.pipe_ms.final"] = 0;
  pl["gremlin.pipe_ms.other"] = 0;
  for (const Query& q : queries) {
    Tracer::Scope span(&tracer, q.gremlin ? "gremlin.explain_analyze"
                                          : "sql.explain_analyze");
    if (q.gremlin) {
      auto explain = runtime->ExplainAnalyze(q.text);
      int64_t got = -1;
      if (!explain.ok() || !ScalarOf(explain->result, &got) || got != q.expected) {
        res.correct = false;
        res.notes.push_back(q.name + ": EXPLAIN ANALYZE answer differs");
        continue;
      }
      std::vector<obs::TraceSpan> spans = explain->final_spans;
      for (const auto& p : explain->pipes) {
        std::string key = "gremlin.pipe_ms." + PipeKind(p.pipe);
        if (pl.count(key) == 0) key = "gremlin.pipe_ms.other";
        pl[key] += static_cast<double>(p.ns) / 1e6;
        spans.insert(spans.end(), p.spans.begin(), p.spans.end());
      }
      for (const auto& s : explain->final_spans) {
        pl["gremlin.pipe_ms.final"] += static_cast<double>(s.ns) / 1e6;
      }
      AddOperatorSelfTimes(spans, &pl);
    } else {
      sql::ExecStats stats;
      auto r = store->ExecuteSql("EXPLAIN ANALYZE " + q.text, &stats);
      if (!r.ok()) {
        res.correct = false;
        res.notes.push_back(q.name + ": EXPLAIN ANALYZE failed");
        continue;
      }
      AddOperatorSelfTimes(stats.spans, &pl);
    }
  }
  pl["gremlin.parse_us"] = Median(tracer.Durations("gremlin.parse")) / 1e3;
  pl["gremlin.translate_us"] = Median(tracer.Durations("gremlin.translate")) / 1e3;
  pl["gremlin.cache_hits"] =
      static_cast<double>(runtime->translation_cache().hits() - tc_hits0);
  pl["gremlin.cache_misses"] =
      static_cast<double>(runtime->translation_cache().misses() - tc_misses0);
  pl["sql.parse_us"] = Median(tracer.Durations("sql.parse")) / 1e3;
  pl["sql.prepare_us"] = Median(tracer.Durations("sql.prepare")) / 1e3;
  pl["sql.exec_us"] = Median(exec_us);
  const double lookups =
      static_cast<double>(sum.plan_cache_hits + sum.plan_cache_misses);
  pl["sql.plan_cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(sum.plan_cache_hits) / lookups : 0;
  pl["sql.rows_scanned_per_row_out"] =
      rows_out > 0 ? static_cast<double>(sum.rows_scanned) / static_cast<double>(rows_out) : 0;
  pl["sql.table_scans"] = static_cast<double>(sum.table_scans) / ops;
  pl["sql.index_lookups"] = static_cast<double>(sum.index_lookups) / ops;
  pl["sql.hash_joins"] = static_cast<double>(sum.hash_joins) / ops;
  pl["sql.index_nl_joins"] = static_cast<double>(sum.index_nl_joins) / ops;
  AddTableBytes(*store, &pl);
  pl["sqlgraph.build_s"] = Median(build_s);
  pl["graph.generate_s"] = Median(generate_s);
  pl["traced.ops_per_s"] = ops / busy_s;

  if (!MakeDirs(kOutDir, &error) ||
      !tracer.WriteJson(std::string(kOutDir) + "/trace-dbpedia.json")) {
    res.notes.push_back("trace file not written: " + error);
  }
  return res;
}

}  // namespace perfbench
