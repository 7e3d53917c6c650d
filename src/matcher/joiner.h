#ifndef TPSTREAM_MATCHER_JOINER_H_
#define TPSTREAM_MATCHER_JOINER_H_

#include <functional>
#include <vector>

#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/eval_order.h"
#include "matcher/match.h"
#include "matcher/matcher_program.h"
#include "matcher/situation_buffer.h"
#include "matcher/stats.h"
#include "obs/metrics.h"

namespace tpstream {

/// The pattern-matching join core shared by the baseline and the
/// low-latency matcher (Algorithm 3 / PerformMatch).
///
/// Owns one SituationBuffer per symbol and enumerates all temporal
/// configurations that extend a partially bound working set, following the
/// current evaluation order. For unbound symbols, candidates are found
/// with binary-search range queries per temporal relation, unioned within
/// a constraint and intersected across constraints (Section 5.2,
/// Figure 3). Bound entries may be ongoing; every emitted configuration is
/// *certain* to match (three-valued constraint evaluation).
///
/// The joiner holds the stream state (buffers, current order, shed
/// accounting); configuration, metric handles and scratch belong to the
/// query's MatcherProgram, which must outlive it. Settings made through
/// the joiner (naive scan, caps) are the program's, so they
/// apply to every joiner sharing it.
class PatternJoiner {
 public:
  /// Starts with empty buffers and the identity evaluation order.
  explicit PatternJoiner(MatcherProgram* program);

  /// Installs the order visiting symbols in `permutation`.
  void SetOrder(const std::vector<int>& permutation) {
    order_ = program_->Order(permutation);
  }
  const EvaluationOrder& order() const { return *order_; }

  /// Ablation switch: scan buffers linearly and test every candidate
  /// against the constraints (the naive strategy of Equation 1) instead
  /// of binary-search range queries (Equation 2). Results are identical;
  /// only the cost differs. Used by bench_ablation_rangequery.
  void SetNaiveScan(bool naive) { program_->naive_scan = naive; }

  /// Overload protection (Degradation contract): caps every symbol
  /// buffer at `max_per_buffer` finished situations. 0 disables the cap;
  /// non-zero values are clamped to >= 1 so the newest situation always
  /// survives (incremental matching forces it into every new
  /// configuration). Enforcement happens via EnforceCap() after each
  /// append; evictions drop the *oldest* situations and are accounted.
  void SetSituationCap(size_t max_per_buffer) {
    program_->situation_cap = max_per_buffer;
  }
  size_t situation_cap() const { return program_->situation_cap; }

  /// Evicts `symbol`'s buffer down to the cap (oldest first), updating
  /// the shed accounting. Called by the matchers right after appending.
  void EnforceCap(int symbol);

  /// Situations evicted by cap enforcement since construction.
  int64_t shed_situations() const { return shed_situations_; }
  /// Upper bound on the matches that were enumerable at shed time (one
  /// candidate per other symbol already buffered) and can no longer be
  /// emitted. Configurations completed by situations arriving *after*
  /// the shed are additionally lost and not counted here — see
  /// docs/architecture.md, "Degradation contract".
  int64_t lost_match_upper_bound() const { return lost_match_bound_; }

  SituationBuffer& buffer(int symbol) { return buffers_[symbol]; }
  const SituationBuffer& buffer(int symbol) const { return buffers_[symbol]; }

  void PurgeBefore(TimePoint min_ts) {
    for (SituationBuffer& b : buffers_) b.PurgeBefore(min_ts);
  }

  /// Total buffered situations / approximate state bytes (for the memory
  /// experiments of Section 6.2.2).
  size_t BufferedCount() const;

  /// Drops all stream-derived state: every situation buffer and the shed
  /// accounting. The installed evaluation order and configuration
  /// (window, caps, metrics handles) survive — they are plan/config, not
  /// stream state. Observability counters keep accumulating (process
  /// lifetime, Durability contract).
  void Reset();

  /// Serializes buffers, shed accounting and the evaluation order.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores from a checkpoint taken on a joiner over the same pattern.
  Status Restore(ckpt::Reader& r);

  using EmitFn = std::function<void(const Match&)>;

  /// Enumerates every certain configuration containing all non-null
  /// entries of `working_set` (pointers indexed by symbol). `now` is the
  /// current application time, used to close the window condition for
  /// ongoing entries. Statistics are folded into `stats` when non-null.
  void Enumerate(std::vector<const Situation*>& working_set, TimePoint now,
                 const EmitFn& emit, MatcherStats* stats);

 private:
  using StepScratch = MatcherProgram::StepScratch;

  void Step(std::vector<const Situation*>& ws, size_t step_index,
            TimePoint now, const EmitFn& emit, MatcherStats* stats);

  /// Checks all constraints of `step` whose other endpoint is bound,
  /// against the bound situation of the step's own symbol.
  bool CheckBound(const EvalStep& step,
                  const std::vector<const Situation*>& ws) const;

  /// Candidate indices in the step symbol's buffer satisfying every
  /// applicable constraint (Figure 3: two range queries per relation,
  /// union within a constraint, intersection across constraints). The
  /// returned reference points into `scratch` and is valid until the next
  /// call with the same scratch (i.e. the next probe at this depth).
  const IndexRanges& FindCandidates(const EvalStep& step,
                                    const std::vector<const Situation*>& ws,
                                    MatcherStats* stats,
                                    StepScratch& scratch);

  void EmitIfWindowOk(const std::vector<const Situation*>& ws, TimePoint now,
                      const EmitFn& emit) const;

  const IndexRanges& FindCandidatesNaive(
      const EvalStep& step, const std::vector<const Situation*>& ws,
      StepScratch& scratch) const;

  MatcherProgram* program_;
  const EvaluationOrder* order_;
  std::vector<SituationBuffer> buffers_;

  // Overload shedding accounting (Degradation contract).
  int64_t shed_situations_ = 0;
  int64_t lost_match_bound_ = 0;
};

}  // namespace tpstream

#endif  // TPSTREAM_MATCHER_JOINER_H_
