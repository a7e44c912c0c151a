#include "gremlin/translation_cache.h"

#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sql/render.h"
#include "sql/verify.h"

namespace sqlgraph {
namespace gremlin {

namespace {

// Process-wide registry export, aggregated across cache instances; the
// per-instance hits()/misses() accessors keep their per-cache meaning.
obs::Counter* CacheHitCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "gremlin.translation_cache.hits");
  return c;
}
obs::Counter* CacheMissCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "gremlin.translation_cache.misses");
  return c;
}

void AddBind(const rel::Value& value, int* slot_out,
             sql::ParamBindings* binds) {
  const int slot = static_cast<int>(binds->positional.size());
  *slot_out = slot;
  binds->named["p" + std::to_string(slot)] = value;
  binds->positional.push_back(value);
}

void ParameterizePipes(Pipeline* pipeline, sql::ParamBindings* binds) {
  for (Pipe& pipe : pipeline->pipes) {
    switch (pipe.kind) {
      case PipeKind::kStartV:
      case PipeKind::kStartE:
        // g.V(id) / g.V('key', value): the id or lookup value binds; the
        // key stays literal (it selects the JSON index).
        if (pipe.has_start_id || !pipe.start_key.empty()) {
          AddBind(pipe.value, &pipe.value_param, binds);
        }
        break;
      case PipeKind::kHas:
        if (pipe.has_value) AddBind(pipe.value, &pipe.value_param, binds);
        break;
      case PipeKind::kInterval:
        AddBind(pipe.value, &pipe.value_param, binds);
        AddBind(pipe.value2, &pipe.value2_param, binds);
        break;
      default:
        break;
    }
    // and/or/ifThenElse/copySplit sub-pipelines, including the ifThenElse
    // test pipe (branches[0]), parameterize recursively.
    for (Pipeline& branch : pipe.branches) {
      ParameterizePipes(&branch, binds);
    }
  }
}

void AppendShape(const Pipeline& pipeline, std::string* out) {
  for (const Pipe& pipe : pipeline.pipes) {
    out->push_back('[');
    out->append(std::to_string(static_cast<int>(pipe.kind)));
    for (const auto& label : pipe.labels) {
      out->push_back(',');
      out->append(label);
    }
    out->push_back('|');
    out->append(pipe.key);
    out->push_back('|');
    out->append(std::to_string(static_cast<int>(pipe.cmp)));
    out->push_back(pipe.has_value ? 'v' : '-');
    out->push_back(pipe.has_start_id ? 'i' : '-');
    out->push_back('|');
    out->append(pipe.start_key);
    out->push_back('|');
    // Values ride as binds when a slot is assigned; a residual literal
    // (e.g. on a pipeline cached without parameterization) keys by text.
    out->append(pipe.value_param >= 0 ? "?" + std::to_string(pipe.value_param)
                                      : pipe.value.ToString());
    out->push_back('|');
    out->append(pipe.value2_param >= 0
                    ? "?" + std::to_string(pipe.value2_param)
                    : pipe.value2.ToString());
    // Structural integers: LIMIT/OFFSET and loop shape are part of the SQL.
    out->push_back('|');
    out->append(std::to_string(pipe.lo));
    out->push_back(',');
    out->append(std::to_string(pipe.hi));
    out->push_back(',');
    out->append(std::to_string(pipe.loop_steps));
    out->push_back(',');
    out->append(std::to_string(pipe.loop_count));
    for (const Pipeline& branch : pipe.branches) {
      out->push_back('{');
      AppendShape(branch, out);
      out->push_back('}');
    }
    out->push_back(']');
  }
}

}  // namespace

Pipeline ParameterizePipeline(const Pipeline& pipeline,
                              sql::ParamBindings* binds) {
  Pipeline shaped = pipeline;
  ParameterizePipes(&shaped, binds);
  return shaped;
}

std::string PipelineShapeKey(const Pipeline& pipeline) {
  std::string key;
  key.reserve(pipeline.pipes.size() * 24);
  AppendShape(pipeline, &key);
  return key;
}

util::Result<CachedTranslation> TranslationCache::GetOrTranslate(
    const Translator& translator, const Pipeline& pipeline,
    sql::ParamBindings* binds) {
  sql::ParamBindings extracted;
  Pipeline shaped = ParameterizePipeline(pipeline, &extracted);
  bool hit = false;
  util::Result<CachedTranslation> translation = cache_.GetOrLoad(
      PipelineShapeKey(shaped),
      [&]() -> util::Result<CachedTranslation> {
        PipeAttribution attribution;
        auto query = translator.Translate(
            shaped, verify_attribution_ ? &attribution : nullptr);
        if (!query.ok()) return query.status();
        if (verify_attribution_) {
          // Flatten to the layering-neutral shape sql/verify.h accepts and
          // check that every CTE of the translation is attributed to
          // exactly one pipe.
          std::vector<std::pair<std::string, std::vector<std::string>>> pipes;
          pipes.reserve(attribution.pipes.size());
          for (const PipeAttribution::Entry& entry : attribution.pipes) {
            pipes.emplace_back(entry.pipe, entry.ctes);
          }
          sql::PlanVerifyReport report;
          sql::VerifyCteAttribution(*query, pipes, &report);
          if (!report.ok()) return report.ToStatus();
        }
        CachedTranslation rendered;
        rendered.sql = sql::Render(*query);
        rendered.param_count = static_cast<int>(extracted.positional.size());
        return rendered;
      },
      &hit);
  (hit ? CacheHitCounter() : CacheMissCounter())->Increment();
  if (translation.ok()) *binds = std::move(extracted);
  return translation;
}

}  // namespace gremlin
}  // namespace sqlgraph
