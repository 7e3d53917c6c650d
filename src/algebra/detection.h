#ifndef TPSTREAM_ALGEBRA_DETECTION_H_
#define TPSTREAM_ALGEBRA_DETECTION_H_

#include <vector>

#include "algebra/pattern.h"
#include "common/time.h"

namespace tpstream {

/// Static analysis of a temporal pattern determining, per symbol, at which
/// endpoints the low-latency matcher must be invoked (Section 5.3.1,
/// Table 2).
///
/// For every relation of every constraint, the earliest detection time
/// t_d(R) is the third timestamp of its definition; if a constraint
/// contains a complete prefix group, the detection time of the group's
/// relations shifts to the later start timestamp. Symbols whose situation
/// definition carries a maximum duration constraint are excluded from
/// matching until their end is known (Section 5.3.2), so their start
/// triggers are folded into end triggers.
class DetectionAnalysis {
 public:
  DetectionAnalysis() = default;
  DetectionAnalysis(const TemporalPattern& pattern,
                    const std::vector<DurationConstraint>& durations);

  /// True if a situation of `symbol` can conclude a match when it starts.
  bool match_on_start(int symbol) const { return match_on_start_[symbol]; }

  /// True if a situation of `symbol` can conclude a match when it ends.
  bool match_on_end(int symbol) const { return match_on_end_[symbol]; }

  /// True if `symbol` must never participate in matching while ongoing
  /// (it has a maximum duration constraint).
  bool excluded_while_ongoing(int symbol) const {
    return excluded_while_ongoing_[symbol];
  }

  /// True if some constraint involving `symbol` contains a relation with
  /// simultaneous ends (equals / finishes / finished-by). Only then can a
  /// configuration whose last contributing endpoint is `symbol`'s end
  /// consist purely of already-finished situations.
  bool has_simultaneous_end(int symbol) const {
    return has_simultaneous_end_[symbol];
  }

  /// True if the trigger structure can reach the same configuration from
  /// more than one trigger, so the matcher must deduplicate emissions.
  /// False proves exactly-once delivery statically, letting the matcher
  /// skip per-match fingerprinting (important for match-heavy patterns).
  ///
  /// Duplicates require one of:
  ///  - a simultaneous-end relation (several enders re-derive the
  ///    configuration from the regular buffers);
  ///  - two or more symbols with end triggers (members may end at the
  ///    same instant and each re-derive);
  ///  - an end-triggered symbol that can still be ongoing when a
  ///    configuration is first concluded (its later end re-derives).
  bool needs_dedup() const { return needs_dedup_; }

 private:
  std::vector<bool> match_on_start_;
  std::vector<bool> match_on_end_;
  std::vector<bool> excluded_while_ongoing_;
  std::vector<bool> has_simultaneous_end_;
  bool needs_dedup_ = true;
};

/// Analytic earliest detection time t_d of a fully known configuration
/// (Section 5.3.1): the first instant at which the pattern match is
/// certain, given that at instant t a situation is visible once started
/// and its end is unknown until reached. Returns the last end timestamp if
/// no earlier instant concludes the match (and kTimeMax if the
/// configuration does not match at all). Ignores windows and duration
/// constraints. Reads only the situations' intervals and never
/// allocates.
TimePoint EarliestDetection(const TemporalPattern& pattern,
                            const std::vector<Situation>& config);

}  // namespace tpstream

#endif  // TPSTREAM_ALGEBRA_DETECTION_H_
