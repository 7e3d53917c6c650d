#ifndef TPSTREAM_MATCHER_MATCHER_PROGRAM_H_
#define TPSTREAM_MATCHER_MATCHER_PROGRAM_H_

#include <map>
#include <memory>
#include <vector>

#include "algebra/detection.h"
#include "algebra/pattern.h"
#include "common/situation.h"
#include "matcher/eval_order.h"
#include "matcher/index_ranges.h"
#include "matcher/match.h"
#include "matcher/stats.h"
#include "obs/metrics.h"

namespace tpstream {

/// The per-query half of a matcher (Matcher or LowLatencyMatcher, with
/// its PatternJoiner): the pattern and its detection analysis, the
/// window, the overload caps, the metric handles, the evaluation orders
/// in use and the per-event scratch. Everything derived from the stream
/// — situation buffers, statistics, started slots, the exactly-once
/// table, shed accounting — lives in the matcher. Under PARTITION BY one
/// program serves the matcher of every key, so a new key costs only its
/// stream state.
///
/// The configuration fields are set up before the first situation is
/// consumed; afterwards only the scratch and the order memo change.
/// Single-threaded, like the matchers sharing it.
struct MatcherProgram {
  MatcherProgram(TemporalPattern pattern, Duration window, double stats_alpha,
                 DetectionAnalysis analysis = {});
  MatcherProgram(const MatcherProgram&) = delete;
  MatcherProgram& operator=(const MatcherProgram&) = delete;

  /// The evaluation order visiting symbols in `permutation`, built on
  /// first use and shared by every matcher of the query.
  const EvaluationOrder* Order(const std::vector<int>& permutation);

  /// Starts recording into `registry`: the join-core counters (probes,
  /// range queries and their hits, partial configurations, full matches,
  /// window rejects) and the `robust.shed_situations` /
  /// `robust.lost_match_upper_bound` overload counters, plus — with
  /// `low_latency` — the trigger, dedup-suppression and
  /// `robust.shed_trigger_candidates` counters. Disabled (null handles, a
  /// dead branch per site) by default.
  void EnableMetrics(obs::MetricsRegistry* registry, bool low_latency);

  // Fields the per-update paths read come first, so that the matchers of
  // many keys, each on a private program (a key per operator), touch few
  // cache lines per update.
  const Duration window;

  // Overload caps (Degradation contract); 0 = unbounded.
  size_t situation_cap = 0;
  size_t max_trigger_pool = 0;
  /// Ablation switch: linear candidate scans (PatternJoiner::SetNaiveScan).
  bool naive_scan = false;

  // Observability handles (null when metrics are disabled).
  obs::Counter* shed_situations_ctr = nullptr;
  obs::Counter* lost_match_bound_ctr = nullptr;
  obs::Counter* probes_ctr = nullptr;
  obs::Counter* range_queries_ctr = nullptr;
  obs::Counter* range_query_hits_ctr = nullptr;
  obs::Counter* partial_configs_ctr = nullptr;
  obs::Counter* full_matches_ctr = nullptr;
  obs::Counter* window_rejects_ctr = nullptr;
  obs::Counter* triggers_ctr = nullptr;
  obs::Counter* dedup_hits_ctr = nullptr;
  obs::Counter* shed_trigger_ctr = nullptr;

  const TemporalPattern pattern;
  const DetectionAnalysis analysis;  // consulted by LowLatencyMatcher only

  /// Join scratch for one recursion depth: candidate-set construction
  /// never allocates in steady state because the range vectors keep
  /// their capacity across probes.
  struct StepScratch {
    IndexRanges result;
    IndexRanges per_constraint;
    IndexRanges tmp;
  };
  std::vector<StepScratch> step_scratch;  // indexed by recursion depth
  std::vector<const Situation*> working_set;
  std::vector<int> pool;  // candidate started symbols per trigger
  /// Reused per emission; the Match reference handed to callbacks is
  /// valid only for the duration of the call.
  Match scratch_match;

  /// The statistics of a fresh stream (empty buffers, Table 3
  /// selectivities); a matcher starts from, and resets to, a copy.
  const MatcherStats initial_stats;
  // Reused by the matchers' Update() to hand Consume() mutable copies.
  std::vector<SymbolSituation> scratch_started;
  std::vector<SymbolSituation> scratch_finished;

 private:
  std::map<std::vector<int>, EvaluationOrder> orders_;  // nodes are stable
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_MATCHER_PROGRAM_H_
