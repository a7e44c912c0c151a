#include "graph/linkbench_gen.h"

#include "util/string_util.h"

namespace sqlgraph {
namespace graph {

const double kLinkBenchOpMix[10] = {2.6, 7.4, 1.0, 12.9, 9.0,
                                    3.0, 8.0, 4.9, 0.5, 50.7};

const char* LinkBenchOpName(LinkBenchOp op) {
  switch (op) {
    case LinkBenchOp::kAddNode: return "add node";
    case LinkBenchOp::kUpdateNode: return "update node";
    case LinkBenchOp::kDeleteNode: return "delete node";
    case LinkBenchOp::kGetNode: return "get node";
    case LinkBenchOp::kAddLink: return "add link";
    case LinkBenchOp::kDeleteLink: return "delete link";
    case LinkBenchOp::kUpdateLink: return "update link";
    case LinkBenchOp::kCountLink: return "count link";
    case LinkBenchOp::kMultigetLink: return "multiget link";
    case LinkBenchOp::kGetLinkList: return "get link list";
  }
  return "?";
}

namespace {

std::string AssocType(size_t k) { return util::StrFormat("assoc_%zu", k); }

json::JsonValue ObjectAttrs(const LinkBenchConfig& cfg, util::Rng* rng) {
  json::JsonValue attrs = json::JsonValue::Object();
  attrs.Set("type", static_cast<int64_t>(rng->Uniform(cfg.num_object_types)));
  attrs.Set("version", int64_t{1});
  attrs.Set("time", static_cast<int64_t>(1300000000 + rng->Uniform(100000000)));
  attrs.Set("data", rng->NextString(cfg.payload_bytes));
  return attrs;
}

json::JsonValue AssocAttrs(const LinkBenchConfig& cfg, util::Rng* rng) {
  json::JsonValue attrs = json::JsonValue::Object();
  attrs.Set("visibility", int64_t{1});
  attrs.Set("timestamp",
            static_cast<int64_t>(1300000000 + rng->Uniform(100000000)));
  attrs.Set("data", rng->NextString(cfg.payload_bytes));
  return attrs;
}

}  // namespace

PropertyGraph GenerateLinkBenchGraph(const LinkBenchConfig& config) {
  PropertyGraph graph;
  util::Rng rng(config.seed);
  util::ZipfSampler dst_zipf(config.num_objects, config.zipf_theta);

  for (size_t i = 0; i < config.num_objects; ++i) {
    graph.AddVertex(ObjectAttrs(config, &rng));
  }
  // Power-law-ish out-degree: most nodes near the mean, a heavy tail from
  // Zipf-sampled sources receiving extra edges.
  const size_t total_edges =
      static_cast<size_t>(config.avg_degree * config.num_objects);
  const size_t base_edges = total_edges * 6 / 10;
  size_t added = 0;
  for (size_t i = 0; i < config.num_objects && added < base_edges; ++i) {
    const size_t degree = 1 + rng.Uniform(
        static_cast<uint64_t>(config.avg_degree) + 1);
    for (size_t e = 0; e < degree && added < base_edges; ++e) {
      const VertexId dst = static_cast<VertexId>(dst_zipf.Sample(&rng));
      auto st = graph.AddEdge(static_cast<VertexId>(i), dst,
                              AssocType(rng.Uniform(config.num_assoc_types)),
                              AssocAttrs(config, &rng));
      // PropertyGraph::AddEdge keeps a duplicate (src, type, dst) pick as
      // a parallel edge and fails only for an endpoint outside the graph,
      // which both ids here are not; the status has nothing to report.
      (void)st;
      ++added;
    }
  }
  util::ZipfSampler src_zipf(config.num_objects, config.zipf_theta);
  while (added < total_edges) {
    const VertexId src = static_cast<VertexId>(src_zipf.Sample(&rng));
    const VertexId dst = static_cast<VertexId>(dst_zipf.Sample(&rng));
    auto st = graph.AddEdge(src, dst,
                            AssocType(rng.Uniform(config.num_assoc_types)),
                            AssocAttrs(config, &rng));
    (void)st;
    ++added;
  }
  return graph;
}

LinkBenchWorkload::LinkBenchWorkload(const LinkBenchConfig& config,
                                     uint64_t requester_seed)
    : config_(config),
      rng_(config.seed ^ (requester_seed * 0x9e3779b97f4a7c15ULL)),
      id_zipf_(config.num_objects, config.zipf_theta) {
  double total = 0;
  for (int i = 0; i < 10; ++i) {
    total += kLinkBenchOpMix[i];
    cumulative_[i] = total;
  }
}

LinkBenchRequest LinkBenchWorkload::Next() {
  LinkBenchRequest req;
  const double roll = rng_.NextDouble() * cumulative_[9];
  int op = 0;
  while (op < 9 && roll >= cumulative_[op]) ++op;
  req.op = static_cast<LinkBenchOp>(op);
  req.id1 = static_cast<VertexId>(id_zipf_.Sample(&rng_));
  req.id2 = static_cast<VertexId>(id_zipf_.Sample(&rng_));
  req.assoc_type = util::StrFormat(
      "assoc_%llu",
      static_cast<unsigned long long>(rng_.Uniform(config_.num_assoc_types)));
  if (req.op == LinkBenchOp::kAddNode || req.op == LinkBenchOp::kUpdateNode ||
      req.op == LinkBenchOp::kAddLink || req.op == LinkBenchOp::kUpdateLink) {
    req.payload = rng_.NextString(config_.payload_bytes);
  }
  return req;
}

}  // namespace graph
}  // namespace sqlgraph
