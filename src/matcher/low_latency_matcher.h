#ifndef TPSTREAM_MATCHER_LOW_LATENCY_MATCHER_H_
#define TPSTREAM_MATCHER_LOW_LATENCY_MATCHER_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/detection.h"
#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/joiner.h"
#include "matcher/match.h"
#include "matcher/matcher_program.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The low-latency matcher (Algorithm 4): concludes matches at the
/// earliest possible point in time t_d(P) by matching on the starts and
/// ends of *trigger* situations (Section 5.3).
///
/// Started (ongoing) situations live in a separate per-symbol slot that is
/// invisible to the join core; every trigger explicitly seeds the working
/// set with combinations of the trigger situation and compatible started
/// situations. Certainty of all constraints is established with the
/// three-valued relation evaluation (including the prefix-group
/// relaxation), so every emitted configuration is guaranteed to match.
///
/// Deviations from the paper's presentation, chosen for robustness and
/// documented in DESIGN.md:
///  - all situations finished at the current instant are migrated to the
///    regular buffers before end-triggers run, which resolves
///    simultaneous-end configurations (equals/finishes) uniformly;
///  - a fingerprint table enforces exactly-once emission instead of the
///    paper's case analysis;
///  - the window condition for configurations containing ongoing
///    situations is evaluated against the current time.
///
/// The pattern, its analysis, caps, metric handles and scratch live in a
/// MatcherProgram that the matchers of one query share (one matcher per
/// PARTITION BY key); the matcher itself holds only stream state.
class LowLatencyMatcher {
 public:
  /// A matcher with a private program.
  LowLatencyMatcher(TemporalPattern pattern, DetectionAnalysis analysis,
                    Duration window, MatchCallback callback,
                    double stats_alpha = 0.01);
  /// A matcher over a shared program (built with the pattern's
  /// DetectionAnalysis).
  LowLatencyMatcher(std::shared_ptr<MatcherProgram> program,
                    MatchCallback callback);

  void SetEvaluationOrder(const std::vector<int>& permutation);
  std::vector<int> CurrentOrder() const { return joiner_.order().Permutation(); }

  /// Starts recording the `matcher.*` counters into `registry`: the
  /// shared join-core counters (see MatcherProgram::EnableMetrics) plus
  /// the low-latency trigger and dedup-suppression counts.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Processes the situations started and finished at application time
  /// `now` (one deriver step).
  void Update(const std::vector<SymbolSituation>& started,
              const std::vector<SymbolSituation>& finished, TimePoint now);

  /// Move-consuming variant used by the operator hot path: situation
  /// payloads are moved (not copied) into the matcher state, leaving the
  /// input vectors with moved-from elements. Results are identical to
  /// Update(); no allocation occurs in steady state.
  void Consume(std::vector<SymbolSituation>& started,
               std::vector<SymbolSituation>& finished, TimePoint now);

  const TemporalPattern& pattern() const { return program_->pattern; }
  const MatcherStats& stats() const { return stats_; }
  size_t BufferedCount() const { return joiner_.BufferedCount(); }

  /// Returns the matcher to its freshly-constructed stream state: clears
  /// the situation buffers, the per-symbol started slots (the trigger
  /// pool source), the `emitted_` exactly-once fingerprint table and the
  /// shed accounting, and re-seeds the statistics EMAs. Stale fingerprints
  /// surviving a reset would silently suppress legitimate re-emissions
  /// when the same stream prefix is replayed into the same engine —
  /// pinned by MatcherReset.ReplayAfterResetReEmits. Configuration
  /// (window, evaluation order, overload caps, metrics) is retained.
  void Reset();

  /// Serializes all stream-derived state: joiner (buffers + order),
  /// statistics, started slots, the exactly-once fingerprint table (with
  /// its sweep threshold) and the trigger-shed accounting.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on a matcher over the same pattern.
  /// Replaces all stream state; on error the matcher must be Reset() or
  /// discarded before further use.
  Status Restore(ckpt::Reader& r);

  /// Installs the overload caps (Degradation contract): the per-symbol
  /// situation-buffer cap (enforced via the joiner, oldest evicted first)
  /// and the trigger-pool cap bounding the 2^pool subset enumeration per
  /// trigger (oldest started candidates shed first).
  void SetOverload(const robust::OverloadPolicy& policy) {
    joiner_.SetSituationCap(policy.max_situations_per_buffer);
    program_->max_trigger_pool = policy.max_trigger_pool;
  }
  int64_t shed_situations() const { return joiner_.shed_situations(); }
  int64_t lost_match_upper_bound() const {
    return joiner_.lost_match_upper_bound();
  }
  /// Started situations dropped from trigger pools by the pool cap.
  int64_t shed_trigger_candidates() const { return shed_trigger_candidates_; }

 private:
  /// Runs the join for every admissible combination of the trigger
  /// situation and started situations (the power-set construction of
  /// Algorithm 4). `allow_bare` permits the combination containing only
  /// the trigger situation itself.
  void Trigger(int symbol, const Situation& situation, bool allow_bare,
               TimePoint now);

  void Emit(const Match& match);

  std::shared_ptr<MatcherProgram> program_;
  MatchCallback callback_;
  PatternJoiner joiner_;
  MatcherStats stats_;

  /// Ongoing situation per symbol (at most one: situations of a stream
  /// are disjoint). The payload is the aggregate snapshot at announcement.
  std::vector<std::optional<Situation>> started_;

  /// Exactly-once guard: configuration fingerprint -> min start timestamp
  /// (for purging).
  std::unordered_map<uint64_t, TimePoint> emitted_;
  size_t emitted_sweep_threshold_ = 1024;

  // Trigger-pool shed accounting (Degradation contract).
  int64_t shed_trigger_candidates_ = 0;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_LOW_LATENCY_MATCHER_H_
