// Gremlin translation cache: one Gremlin pipeline *shape* → one
// parameterized SQL text.
//
// ParameterizePipeline lifts the constant comparison values out of a
// pipeline (start ids, has()/interval() values) into bind parameters, so
// g.V('qtag','a').out() and g.V('qtag','b').out() share a single
// translation. The cache key serializes everything that still affects the
// SQL shape — pipe kinds, labels (color pruning), attribute keys (JSON
// index choice), range bounds (LIMIT/OFFSET) — and a hit skips the
// translator walk and rendering entirely. The cached text then flows into
// SqlGraphStore::Prepare(), whose plan cache skips lex/parse/plan too, so a
// repeated pipeline shape costs only bind + execute.

#ifndef SQLGRAPH_GREMLIN_TRANSLATION_CACHE_H_
#define SQLGRAPH_GREMLIN_TRANSLATION_CACHE_H_

#include <cstdint>
#include <string>

#include "gremlin/pipe.h"
#include "gremlin/translator.h"
#include "sql/expr_eval.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace sqlgraph {
namespace gremlin {

/// Returns a copy of `pipeline` whose constant comparison values carry
/// bind-parameter slots, appending each extracted value to `binds` (both
/// positionally and under its `p<slot>` name, so the rendered `:p<slot>`
/// placeholders resolve by name after a render→parse round trip).
Pipeline ParameterizePipeline(const Pipeline& pipeline,
                              sql::ParamBindings* binds);

/// Serializes the translation-relevant structure of a (parameterized)
/// pipeline: structurally identical queries produce identical keys.
std::string PipelineShapeKey(const Pipeline& pipeline);

/// One cached translation: parameterized SQL text ready for
/// SqlGraphStore::Prepare() / ExecutePrepared().
struct CachedTranslation {
  std::string sql;
  int param_count = 0;
};

/// Thread-safe, single-flight LRU cache (util::LruCache) of Gremlin→SQL
/// translations keyed by pipeline shape: concurrent first callers for one
/// shape translate it once.
class TranslationCache {
 public:
  explicit TranslationCache(size_t capacity = 128)
      : cache_(capacity, util::LockRank::kTranslationCache,
               "translation_cache") {}

  /// Returns the SQL for `pipeline`'s shape (translating and rendering on a
  /// miss) and fills `binds` with this pipeline's extracted constants. With
  /// attribution verification on, a miss also checks that the translator
  /// attributed every emitted CTE to exactly one source pipe
  /// (sql::VerifyCteAttribution) and fails the translation if not; hits
  /// reuse a shape that already passed, so the check amortizes to once per
  /// pipeline shape.
  util::Result<CachedTranslation> GetOrTranslate(const Translator& translator,
                                                 const Pipeline& pipeline,
                                                 sql::ParamBindings* binds);

  /// Toggles pipe-attribution verification on cache misses. GremlinRuntime
  /// wires this to StoreConfig::verify_plans.
  void set_verify_attribution(bool on) { verify_attribution_ = on; }
  bool verify_attribution() const { return verify_attribution_; }

  void Clear() { cache_.Clear(); }
  size_t size() const { return cache_.size(); }
  uint64_t hits() const { return cache_.hits(); }
  uint64_t misses() const { return cache_.misses(); }

 private:
  // Translation runs with the cache mutex released, holding only the
  // pending entry's lock; kTranslationCache ranks above the table locks
  // (runtime code may consult the cache mid-query) and below the metrics
  // registry (lazy counter init).
  util::LruCache<std::string, CachedTranslation> cache_;
  // Written once at runtime construction, before concurrent use.
  bool verify_attribution_ = false;
};

}  // namespace gremlin
}  // namespace sqlgraph

#endif  // SQLGRAPH_GREMLIN_TRANSLATION_CACHE_H_
