#include "matcher/matcher_program.h"

#include <utility>

namespace tpstream {

MatcherProgram::MatcherProgram(TemporalPattern pattern_in, Duration window_in,
                               double stats_alpha,
                               DetectionAnalysis analysis_in)
    : window(window_in),
      pattern(std::move(pattern_in)),
      analysis(std::move(analysis_in)),
      working_set(pattern.num_symbols(), nullptr),
      initial_stats(pattern, stats_alpha) {}

const EvaluationOrder* MatcherProgram::Order(
    const std::vector<int>& permutation) {
  auto it = orders_.find(permutation);
  if (it == orders_.end()) {
    it = orders_
             .emplace(permutation, EvaluationOrder::Build(pattern, permutation))
             .first;
  }
  return &it->second;
}

void MatcherProgram::EnableMetrics(obs::MetricsRegistry* registry,
                                   bool low_latency) {
  if (registry == nullptr) return;
  shed_situations_ctr = registry->GetCounter("robust.shed_situations");
  lost_match_bound_ctr =
      registry->GetCounter("robust.lost_match_upper_bound");
  probes_ctr = registry->GetCounter("matcher.probes");
  range_queries_ctr = registry->GetCounter("matcher.range_queries");
  range_query_hits_ctr = registry->GetCounter("matcher.range_query_hits");
  partial_configs_ctr = registry->GetCounter("matcher.partial_configs");
  full_matches_ctr = registry->GetCounter("matcher.full_matches");
  window_rejects_ctr = registry->GetCounter("matcher.window_rejects");
  if (!low_latency) return;
  triggers_ctr = registry->GetCounter("matcher.triggers");
  dedup_hits_ctr = registry->GetCounter("matcher.dedup_hits");
  shed_trigger_ctr = registry->GetCounter("robust.shed_trigger_candidates");
}

}  // namespace tpstream
