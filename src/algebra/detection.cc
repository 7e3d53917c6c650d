#include "algebra/detection.h"

#include <algorithm>

namespace tpstream {

namespace {

// The prefix group a relation belongs to, if any. Only the three groups
// with non-trivial detection-time gain are tracked ({before, meets} and
// {after, met-by} already trigger at a start timestamp individually).
std::optional<PrefixGroup> GroupOf(Relation r) {
  switch (r) {
    case Relation::kStarts:
    case Relation::kEquals:
    case Relation::kStartedBy:
      return PrefixGroup::kStartEqual;
    case Relation::kOverlaps:
    case Relation::kFinishes:
    case Relation::kContains:
      return PrefixGroup::kAStartsFirst;
    case Relation::kOverlappedBy:
    case Relation::kFinishedBy:
    case Relation::kDuring:
      return PrefixGroup::kBStartsFirst;
    default:
      return std::nullopt;
  }
}

bool IsSimultaneousEnd(Relation r) {
  return r == Relation::kEquals || r == Relation::kFinishes ||
         r == Relation::kFinishedBy;
}

}  // namespace

DetectionAnalysis::DetectionAnalysis(
    const TemporalPattern& pattern,
    const std::vector<DurationConstraint>& durations) {
  const int n = pattern.num_symbols();
  match_on_start_.assign(n, false);
  match_on_end_.assign(n, false);
  excluded_while_ongoing_.assign(n, false);
  has_simultaneous_end_.assign(n, false);

  for (const TemporalConstraint& c : pattern.constraints()) {
    c.relations.ForEach([&](Relation r) {
      if (IsSimultaneousEnd(r)) {
        has_simultaneous_end_[c.a] = true;
        has_simultaneous_end_[c.b] = true;
      }
      // With the full prefix group present, the relation concludes at the
      // later start (Table 2) instead of its individual trigger point.
      if (auto group = GroupOf(r);
          group && c.relations.ContainsAll(PrefixGroupMask(*group))) {
        switch (*group) {
          case PrefixGroup::kStartEqual:
            match_on_start_[c.a] = true;
            match_on_start_[c.b] = true;
            break;
          case PrefixGroup::kAStartsFirst:
            match_on_start_[c.b] = true;
            break;
          case PrefixGroup::kBStartsFirst:
            match_on_start_[c.a] = true;
            break;
        }
        return;
      }
      switch (DetectionTrigger(r)) {
        case TriggerPoint::kStartOfA:
          match_on_start_[c.a] = true;
          break;
        case TriggerPoint::kStartOfB:
          match_on_start_[c.b] = true;
          break;
        case TriggerPoint::kEndOfA:
          match_on_end_[c.a] = true;
          break;
        case TriggerPoint::kEndOfB:
          match_on_end_[c.b] = true;
          break;
        case TriggerPoint::kBothEnds:
          match_on_end_[c.a] = true;
          match_on_end_[c.b] = true;
          break;
      }
    });
  }

  // Duration-constraint adjustment (Section 5.3.2): situations with a
  // maximum duration must not be matched while ongoing; their start
  // triggers are deferred to their end.
  for (int s = 0; s < n && s < static_cast<int>(durations.size()); ++s) {
    if (durations[s].has_max()) {
      excluded_while_ongoing_[s] = true;
      if (match_on_start_[s]) {
        match_on_start_[s] = false;
        match_on_end_[s] = true;
      }
    }
  }
  // Symbols without any temporal constraint (single-symbol queries,
  // disconnected pattern components) have no relation-derived triggers;
  // their mere existence contributes to a match, so their (possibly
  // deferred) start is a detection point.
  for (int s = 0; s < n; ++s) {
    if (pattern.RelatedSymbols(s).empty()) match_on_start_[s] = true;
  }

  // A minimum duration defers the start announcement to the deferred start
  // timestamp ts̄; matches whose remaining trigger endpoints passed during
  // the deferral can only be concluded at ts̄, so the deferred start joins
  // t_d(P) (see the "A during B" example in Section 5.3.2).
  for (int s = 0; s < n && s < static_cast<int>(durations.size()); ++s) {
    if (durations[s].has_min() && !durations[s].has_max() &&
        !pattern.RelatedSymbols(s).empty()) {
      match_on_start_[s] = true;
    }
  }
  // An excluded symbol is invisible to the matcher while ongoing, so any
  // relation that would have relied on observing it ongoing (end triggers
  // with an ongoing counterpart, prefix-group start triggers) must defer
  // until both endpoints of the constraint are finished. Conservatively
  // trigger on both ends of every constraint touching an excluded symbol.
  for (const TemporalConstraint& c : pattern.constraints()) {
    if (excluded_while_ongoing_[c.a] || excluded_while_ongoing_[c.b]) {
      match_on_end_[c.a] = true;
      match_on_end_[c.b] = true;
    }
  }

  // --- exactly-once analysis (see needs_dedup()) ---------------------
  bool any_simultaneous = false;
  for (bool flag : has_simultaneous_end_) any_simultaneous |= flag;

  int end_triggered = 0;
  for (bool flag : match_on_end_) end_triggered += flag ? 1 : 0;

  // A relation keeps `symbol` usable while ongoing if it can be certain
  // with that side's end unknown, or through a complete prefix group.
  auto ongoing_allowed = [&](int symbol) {
    for (const TemporalConstraint& c : pattern.constraints()) {
      if (c.a != symbol && c.b != symbol) continue;
      bool any = false;
      for (PrefixGroup g : {PrefixGroup::kStartEqual,
                            PrefixGroup::kAStartsFirst,
                            PrefixGroup::kBStartsFirst}) {
        any |= c.relations.ContainsAll(PrefixGroupMask(g));
      }
      c.relations.ForEach([&](Relation r) {
        any |= CertainWhileOngoing(r, /*a_side_ongoing=*/c.a == symbol);
      });
      if (!any) return false;  // this constraint pins symbol's end
    }
    return true;
  };

  bool end_trigger_on_possibly_ongoing = false;
  for (int s = 0; s < n; ++s) {
    if (match_on_end_[s] && ongoing_allowed(s)) {
      end_trigger_on_possibly_ongoing = true;
    }
  }
  // Disconnected multi-symbol patterns join unconstrained components by
  // cross product; a configuration concluded with an ongoing
  // unconstrained member is re-derivable from later triggers once that
  // member is buffered. Be conservative there.
  needs_dedup_ = any_simultaneous || end_triggered >= 2 ||
                 end_trigger_on_possibly_ongoing ||
                 (n > 1 && !pattern.IsConnected());
}

TimePoint EarliestDetection(const TemporalPattern& pattern,
                            const std::vector<Situation>& config) {
  // Certainty can only change at endpoints of the involved situations,
  // and every situation must have started: walk the distinct endpoints
  // from the latest start upwards, in ascending order. The walk picks
  // each next endpoint by a scan instead of sorting a copy, and the
  // visible situations carry only their interval, so nothing allocates
  // (the matcher calls this on every match when metrics are on).
  if (config.empty()) return kTimeMax;
  TimePoint t = kTimeMin;
  for (const Situation& s : config) t = std::max(t, s.ts);
  auto visible = [&config, &t](int symbol) {
    Situation v;
    v.ts = config[symbol].ts;
    v.te = config[symbol].te > t ? kTimeUnknown : config[symbol].te;
    return v;
  };
  for (;;) {
    bool certain = true;
    for (const TemporalConstraint& c : pattern.constraints()) {
      if (c.Check(visible(c.a), visible(c.b)) != Certainty::kCertain) {
        certain = false;
        break;
      }
    }
    if (certain) return t;
    // kTimeMax is also where an unfinished situation (te unknown) ends.
    TimePoint next = kTimeMax;
    for (const Situation& s : config) {
      if (s.ts > t) next = std::min(next, s.ts);
      if (s.te > t) next = std::min(next, s.te);
    }
    if (next == kTimeMax) return kTimeMax;
    t = next;
  }
}

}  // namespace tpstream
