#include "gremlin/runtime.h"

#include <unordered_map>

#include "sql/render.h"
#include "util/string_util.h"

namespace sqlgraph {
namespace gremlin {

std::string GremlinExplain::ToString() const {
  std::string out;
  for (const PipeStats& p : pipes) {
    std::string cte_list;
    for (size_t i = 0; i < p.ctes.size(); ++i) {
      if (i) cte_list += ",";
      cte_list += p.ctes[i];
    }
    out += util::StrFormat("pipe %-28s [%s] rows=%llu time=%.3f ms\n",
                           p.pipe.c_str(), cte_list.c_str(),
                           static_cast<unsigned long long>(p.rows),
                           static_cast<double>(p.ns) / 1e6);
    for (const obs::TraceSpan& s : p.spans) {
      out += util::StrFormat("    %s: %s rows=%llu time=%.3f ms\n",
                             s.context.c_str(), s.op.c_str(),
                             static_cast<unsigned long long>(s.rows),
                             static_cast<double>(s.ns) / 1e6);
    }
  }
  for (const obs::TraceSpan& s : final_spans) {
    out += util::StrFormat("final %s: %s rows=%llu time=%.3f ms\n",
                           s.context.c_str(), s.op.c_str(),
                           static_cast<unsigned long long>(s.rows),
                           static_cast<double>(s.ns) / 1e6);
  }
  return out;
}

util::Result<sql::ResultSet> GremlinRuntime::Query(std::string_view text) {
  ASSIGN_OR_RETURN(Pipeline pipeline, ParseGremlin(text));
  return Run(pipeline);
}

util::Result<sql::ResultSet> GremlinRuntime::Run(const Pipeline& pipeline) {
  sql::ParamBindings binds;
  ASSIGN_OR_RETURN(CachedTranslation cached,
                   cache_.GetOrTranslate(translator_, pipeline, &binds));
  ASSIGN_OR_RETURN(sql::PreparedQueryPtr prepared,
                   store_->Prepare(cached.sql));
  return store_->ExecutePrepared(*prepared, binds);
}

util::Result<std::string> GremlinRuntime::TranslateToSql(
    std::string_view text) const {
  ASSIGN_OR_RETURN(Pipeline pipeline, ParseGremlin(text));
  ASSIGN_OR_RETURN(sql::SqlQuery query, translator_.Translate(pipeline));
  return sql::Render(query);
}

util::Result<GremlinExplain> GremlinRuntime::ExplainAnalyze(
    std::string_view text) {
  ASSIGN_OR_RETURN(Pipeline pipeline, ParseGremlin(text));
  PipeAttribution attribution;
  ASSIGN_OR_RETURN(sql::SqlQuery query,
                   translator_.Translate(pipeline, &attribution));

  GremlinExplain explain;
  explain.sql = sql::Render(query);
  for (const auto& entry : attribution.pipes) {
    GremlinExplain::PipeStats p;
    p.pipe = entry.pipe;
    p.ctes = entry.ctes;
    explain.pipes.push_back(std::move(p));
  }

  sql::ExecStats stats;
  ASSIGN_OR_RETURN(explain.result, store_->ExecuteAnalyze(query, &stats));

  // CTE name -> owning pipe. Executor spans carry the CTE they ran in as
  // their context, which is the join key back to the source pipe.
  std::unordered_map<std::string, size_t> owner;
  for (size_t i = 0; i < explain.pipes.size(); ++i) {
    for (const std::string& cte : explain.pipes[i].ctes) owner[cte] = i;
  }
  for (const obs::TraceSpan& span : stats.spans) {
    auto it = owner.find(span.context);
    if (it == owner.end()) {
      explain.final_spans.push_back(span);
      continue;
    }
    GremlinExplain::PipeStats& p = explain.pipes[it->second];
    p.ns += span.ns;
    // The last operator of the pipe's last CTE is what the next pipe sees.
    if (!p.ctes.empty() && span.context == p.ctes.back()) p.rows = span.rows;
    p.spans.push_back(span);
  }
  return explain;
}

util::Result<int64_t> GremlinRuntime::Count(std::string_view text) {
  ASSIGN_OR_RETURN(sql::ResultSet result, Query(text));
  if (result.rows.size() != 1 || result.rows[0].empty() ||
      !result.rows[0][0].is_number()) {
    return util::Status::InvalidArgument("query did not produce a scalar");
  }
  return result.rows[0][0].AsInt();
}

}  // namespace gremlin
}  // namespace sqlgraph
