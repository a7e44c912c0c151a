// perfbench: the repository benchmark. One single-client, closed-loop
// workload per run, seeded from the command line, checked against answers
// computed apart from SQLGraph. The last line of stdout is one JSON object
// {correct, attempted, failed, metrics}; with --trace 0 the metrics are the
// end-to-end table below, with --trace 1 the per-layer table.
//
//   perfbench --workload dbpedia|linkbench|linkbench_paged --seed N
//             --seconds S --trace 0|1 [--plant-wrong 1]
//   perfbench --list-metrics

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The seven user-visible metrics every workload reports.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "op/s"},
    {"latency_p50_us", "us"},
    {"latency_p95_us", "us"},
    {"kind_geomean_us", "us"},
    {"store_bytes_per_user_byte", "ratio"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics. Every traced run prints all of them; a layer the
// workload does not reach reads 0 (e.g. the WAL on dbpedia, Gremlin on
// LinkBench). Pipe and operator kinds are the ones the 31 Gremlin queries
// and 16 SQL lookups produce; anything else is summed under `.other`.
const MetricDef kPerLayer[] = {
    {"gremlin.parse_us", "us"},
    {"gremlin.translate_us", "us"},
    {"gremlin.cache_hits", "count"},
    {"gremlin.cache_misses", "count"},
    {"gremlin.pipe_ms.V", "ms"},
    {"gremlin.pipe_ms.has", "ms"},
    {"gremlin.pipe_ms.out", "ms"},
    {"gremlin.pipe_ms.in", "ms"},
    {"gremlin.pipe_ms.both", "ms"},
    {"gremlin.pipe_ms.outE", "ms"},
    {"gremlin.pipe_ms.inV", "ms"},
    {"gremlin.pipe_ms.dedup", "ms"},
    {"gremlin.pipe_ms.loop", "ms"},
    {"gremlin.pipe_ms.copySplit", "ms"},
    {"gremlin.pipe_ms.and", "ms"},
    {"gremlin.pipe_ms.except", "ms"},
    {"gremlin.pipe_ms.simplePath", "ms"},
    {"gremlin.pipe_ms.final", "ms"},
    {"gremlin.pipe_ms.other", "ms"},
    {"sql.parse_us", "us"},
    {"sql.prepare_us", "us"},
    {"sql.exec_us", "us"},
    {"sql.plan_cache_hit_ratio", "ratio"},
    {"sql.rows_scanned_per_row_out", "ratio"},
    {"sql.table_scans", "count/op"},
    {"sql.index_lookups", "count/op"},
    {"sql.hash_joins", "count/op"},
    {"sql.index_nl_joins", "count/op"},
    {"sql.op_self_ms.seq_scan", "ms"},
    {"sql.op_self_ms.cte_scan", "ms"},
    {"sql.op_self_ms.json_index_lookup", "ms"},
    {"sql.op_self_ms.json_index_range_scan", "ms"},
    {"sql.op_self_ms.index_nl_join", "ms"},
    {"sql.op_self_ms.hash_join", "ms"},
    {"sql.op_self_ms.left_outer_join", "ms"},
    {"sql.op_self_ms.unnest", "ms"},
    {"sql.op_self_ms.aggregate", "ms"},
    {"sql.op_self_ms.other", "ms"},
    {"rel.pool_hit_ratio", "ratio"},
    {"rel.pool_misses_per_op", "count/op"},
    {"rel.pool_evictions_per_op", "count/op"},
    {"rel.bytes.VA", "bytes"},
    {"rel.bytes.EA", "bytes"},
    {"rel.bytes.OPA", "bytes"},
    {"rel.bytes.IPA", "bytes"},
    {"rel.bytes.OSA", "bytes"},
    {"rel.bytes.ISA", "bytes"},
    {"sqlgraph.add_node_p50_us", "us"},
    {"sqlgraph.update_node_p50_us", "us"},
    {"sqlgraph.get_node_p50_us", "us"},
    {"sqlgraph.add_link_p50_us", "us"},
    {"sqlgraph.delete_link_p50_us", "us"},
    {"sqlgraph.update_link_p50_us", "us"},
    {"sqlgraph.count_link_p50_us", "us"},
    {"sqlgraph.multiget_link_p50_us", "us"},
    {"sqlgraph.get_link_list_p50_us", "us"},
    {"sqlgraph.build_s", "s"},
    {"graph.generate_s", "s"},
    {"wal.records_per_op", "count/op"},
    {"wal.bytes_per_op", "bytes/op"},
    {"traced.ops_per_s", "op/s"},
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "dbpedia|linkbench|linkbench_paged --seed N --seconds S "
               "--trace 0|1 [--plant-wrong 1]\n       perfbench "
               "--list-metrics\n",
               msg);
  std::exit(2);
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

template <size_t N>
void PrintTable(const char* kind, const MetricDef (&table)[N]) {
  for (const MetricDef& m : table) {
    std::printf("%s %s %s\n", kind, m.name, m.unit);
  }
}

/// Appends `"name": {"value": v, "unit": u}` for each metric of `table`,
/// failing when the run produced a metric the table does not list (the
/// table and BENCHMARK.json must name the same metrics).
template <size_t N>
bool AppendMetrics(const MetricDef (&table)[N],
                   const std::map<std::string, double>& values,
                   std::string* out) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricDef& m : table) known |= name == m.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return false;
    }
  }
  bool first = true;
  for (const MetricDef& m : table) {
    auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    *out += buf;
    first = false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      PrintTable("end_to_end", kEndToEnd);
      PrintTable("per_layer", kPerLayer);
      return 0;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(val, &n)) Usage("--seed takes a whole number");
      opts.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(val, &n) || n == 0 || n > 600) {
        Usage("--seconds takes a whole number from 1 to 600");
      }
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseUint(val, &n) || n > 1) Usage("--trace takes 0 or 1");
      opts.trace = n == 1;
      have_trace = true;
    } else if (arg == "--plant-wrong") {
      if (!ParseUint(val, &n) || n > 1) Usage("--plant-wrong takes 0 or 1");
      opts.plant_wrong = n == 1;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  RunResult result;
  if (opts.workload == "dbpedia") {
    result = RunDbpedia(opts);
  } else if (opts.workload == "linkbench") {
    result = RunLinkBench(opts, /*paged=*/false);
  } else if (opts.workload == "linkbench_paged") {
    result = RunLinkBench(opts, /*paged=*/true);
  } else {
    Usage(("unknown workload " + opts.workload).c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }

  std::string metrics;
  const bool ok = opts.trace ? AppendMetrics(kPerLayer, result.per_layer, &metrics)
                             : AppendMetrics(kEndToEnd, result.end_to_end, &metrics);
  if (!ok) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted, result.failed,
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
