#ifndef TPSTREAM_MATCHER_MATCHER_H_
#define TPSTREAM_MATCHER_MATCHER_H_

#include <memory>
#include <vector>

#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/joiner.h"
#include "matcher/match.h"
#include "matcher/matcher_program.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The baseline matcher component (Algorithms 2 and 3): consumes finished
/// situations ordered by end timestamp and reports every matching temporal
/// configuration exactly once, at the end timestamp of its last situation.
///
/// Like LowLatencyMatcher, the matcher holds only stream state; the query
/// half lives in a MatcherProgram shared by the matchers of one query.
class Matcher {
 public:
  /// A matcher with a private program.
  Matcher(TemporalPattern pattern, Duration window, MatchCallback callback,
          double stats_alpha = 0.01);
  /// A matcher over a shared program.
  Matcher(std::shared_ptr<MatcherProgram> program, MatchCallback callback);

  /// Installs a new evaluation order. The matcher keeps no intermediate
  /// state between updates, so migration is free (Section 5.4.1).
  void SetEvaluationOrder(const std::vector<int>& permutation);
  std::vector<int> CurrentOrder() const { return joiner_.order().Permutation(); }

  /// Ablation switch: linear candidate scans instead of range queries
  /// (see PatternJoiner::SetNaiveScan).
  void SetNaiveScan(bool naive) { joiner_.SetNaiveScan(naive); }

  /// Starts recording the `matcher.*` join-core counters into `registry`
  /// (see MatcherProgram::EnableMetrics).
  void EnableMetrics(obs::MetricsRegistry* registry) {
    program_->EnableMetrics(registry, /*low_latency=*/false);
  }

  /// Processes the batch of situations finished at application time `now`
  /// (Algorithm 2): purges expired situations, adds the new ones, and
  /// matches each of them.
  void Update(const std::vector<SymbolSituation>& finished, TimePoint now);

  /// Move-consuming variant used by the operator hot path: situation
  /// payloads are moved (not copied) into the matcher buffers, leaving
  /// `finished` with moved-from elements. Results are identical to
  /// Update(); no allocation occurs in steady state.
  void Consume(std::vector<SymbolSituation>& finished, TimePoint now);

  const TemporalPattern& pattern() const { return program_->pattern; }
  const MatcherStats& stats() const { return stats_; }
  Duration window() const { return program_->window; }

  /// Number of buffered situations (memory accounting, Section 6.2.2).
  size_t BufferedCount() const { return joiner_.BufferedCount(); }

  /// Returns the matcher to its freshly-constructed stream state (buffers,
  /// shed accounting, statistics EMAs). Configuration — window, evaluation
  /// order, overload caps, metrics — is retained.
  void Reset();

  /// Serializes all stream-derived state (joiner + statistics).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a matcher over the same pattern. On
  /// error the matcher must be Reset() or discarded before further use.
  Status Restore(ckpt::Reader& r);

  /// Installs the overload caps (Degradation contract); only the
  /// situation-buffer cap applies to the baseline matcher.
  void SetOverload(const robust::OverloadPolicy& policy) {
    joiner_.SetSituationCap(policy.max_situations_per_buffer);
  }
  int64_t shed_situations() const { return joiner_.shed_situations(); }
  int64_t lost_match_upper_bound() const {
    return joiner_.lost_match_upper_bound();
  }

 private:
  std::shared_ptr<MatcherProgram> program_;
  MatchCallback callback_;
  PatternJoiner joiner_;
  MatcherStats stats_;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_MATCHER_H_
