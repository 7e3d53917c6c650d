#include "matcher/joiner.h"

#include <numeric>

#include "robust/saturating.h"

namespace tpstream {

using robust::SaturatingAdd;
using robust::SaturatingMul;

PatternJoiner::PatternJoiner(MatcherProgram* program)
    : program_(program), buffers_(program->pattern.num_symbols()) {
  std::vector<int> identity(buffers_.size());
  std::iota(identity.begin(), identity.end(), 0);
  order_ = program_->Order(identity);
}

void PatternJoiner::Reset() {
  for (SituationBuffer& b : buffers_) b.Clear();
  shed_situations_ = 0;
  lost_match_bound_ = 0;
}

void PatternJoiner::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kJoiner);
  w.U32(static_cast<uint32_t>(buffers_.size()));
  for (const SituationBuffer& b : buffers_) b.Checkpoint(w);
  w.I64(shed_situations_);
  w.I64(lost_match_bound_);
  const std::vector<int> perm = order_->Permutation();
  w.U32(static_cast<uint32_t>(perm.size()));
  for (int s : perm) w.U32(static_cast<uint32_t>(s));
  w.EndSection(cookie);
}

Status PatternJoiner::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kJoiner);
  const uint32_t num_buffers = r.U32();
  if (r.ok() && num_buffers != buffers_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: joiner symbol count mismatch (pattern changed?)"));
    return r.status();
  }
  for (SituationBuffer& b : buffers_) {
    Status status = b.Restore(r);
    if (!status.ok()) return status;
  }
  shed_situations_ = r.I64();
  lost_match_bound_ = r.I64();
  const uint32_t perm_size = r.U32();
  std::vector<int> perm;
  std::vector<bool> seen(buffers_.size(), false);
  for (uint32_t i = 0; i < perm_size && r.ok(); ++i) {
    const uint32_t s = r.U32();
    if (s >= buffers_.size() || seen[s]) {
      r.Fail(Status::ParseError(
          "checkpoint: evaluation order is not a permutation"));
      return r.status();
    }
    seen[s] = true;
    perm.push_back(static_cast<int>(s));
  }
  Status status = r.EndSection(end);
  if (!status.ok()) return status;
  if (perm.size() == buffers_.size()) order_ = program_->Order(perm);
  return Status::OK();
}

size_t PatternJoiner::BufferedCount() const {
  size_t total = 0;
  for (const SituationBuffer& b : buffers_) total += b.size();
  return total;
}

void PatternJoiner::EnforceCap(int symbol) {
  const size_t cap = program_->situation_cap;
  if (cap == 0) return;
  SituationBuffer& buf = buffers_[symbol];
  if (buf.size() <= cap) return;

  // Upper bound on the matches enumerable right now that each evicted
  // situation could still complete: one candidate per other symbol
  // already buffered (future arrivals are not counted — the bound
  // covers the currently-enumerable loss only).
  int64_t per_evicted = 1;
  for (size_t j = 0; j < buffers_.size(); ++j) {
    if (static_cast<int>(j) == symbol) continue;
    per_evicted = SaturatingMul(
        per_evicted,
        std::max<int64_t>(1, static_cast<int64_t>(buffers_[j].size())));
  }

  int64_t evicted = 0;
  while (buf.size() > cap) {
    buf.PopFront();
    ++evicted;
  }
  shed_situations_ += evicted;
  // Accumulate the delta actually applied after saturation, and saturate
  // the counter too: once the bound pins at int64 max, a plain Inc(kMax)
  // per eviction round would wrap the metric while the member stays
  // pinned, and the two would disagree.
  const int64_t before = lost_match_bound_;
  lost_match_bound_ =
      SaturatingAdd(lost_match_bound_, SaturatingMul(evicted, per_evicted));
  if (program_->shed_situations_ctr != nullptr) {
    program_->shed_situations_ctr->Inc(evicted);
    program_->lost_match_bound_ctr->IncSaturating(lost_match_bound_ - before);
  }
}

void PatternJoiner::Enumerate(std::vector<const Situation*>& working_set,
                              TimePoint now, const EmitFn& emit,
                              MatcherStats* stats) {
  if (program_->probes_ctr != nullptr) program_->probes_ctr->Inc();
  if (program_->step_scratch.size() < order_->steps().size()) {
    program_->step_scratch.resize(order_->steps().size());
  }
  Step(working_set, 0, now, emit, stats);
}

void PatternJoiner::Step(std::vector<const Situation*>& ws, size_t step_index,
                         TimePoint now, const EmitFn& emit,
                         MatcherStats* stats) {
  if (step_index == order_->steps().size()) {
    EmitIfWindowOk(ws, now, emit);
    return;
  }
  const EvalStep& step = order_->steps()[step_index];
  if (ws[step.symbol] != nullptr) {
    // The symbol was pre-bound by the caller (the new situation in
    // Algorithm 2, or started situations in Algorithm 4): skip its buffer
    // and verify the applicable constraints directly.
    if (CheckBound(step, ws)) {
      Step(ws, step_index + 1, now, emit, stats);
    }
    return;
  }
  // The per-depth scratch keeps the reference stable across the recursive
  // Step calls below (deeper levels use their own scratch slot).
  const IndexRanges& candidates =
      FindCandidates(step, ws, stats, program_->step_scratch[step_index]);
  const SituationBuffer& buf = buffers_[step.symbol];
  if (program_->partial_configs_ctr != nullptr) {
    program_->partial_configs_ctr->Inc(
        static_cast<int64_t>(candidates.TotalSize()));
  }
  candidates.ForEach([&](uint32_t idx) {
    ws[step.symbol] = &buf.At(idx);
    Step(ws, step_index + 1, now, emit, stats);
  });
  ws[step.symbol] = nullptr;
}

bool PatternJoiner::CheckBound(const EvalStep& step,
                               const std::vector<const Situation*>& ws) const {
  const Situation& self = *ws[step.symbol];
  for (const EvalStep::Touching& t : step.constraints) {
    const Situation* other = ws[t.other_symbol];
    if (other == nullptr) continue;  // checked at the other symbol's step
    const TemporalConstraint& c = program_->pattern.constraints()[t.constraint];
    const Situation& sa = t.symbol_is_a ? self : *other;
    const Situation& sb = t.symbol_is_a ? *other : self;
    if (c.Check(sa, sb) != Certainty::kCertain) return false;
  }
  return true;
}

const IndexRanges& PatternJoiner::FindCandidatesNaive(
    const EvalStep& step, const std::vector<const Situation*>& ws,
    StepScratch& scratch) const {
  // Equation 1: scan the whole buffer and evaluate every applicable
  // constraint per candidate.
  const SituationBuffer& buf = buffers_[step.symbol];
  IndexRanges& result = scratch.result;
  result.Clear();
  for (uint32_t i = 0; i < buf.size(); ++i) {
    const Situation& candidate = buf.At(i);
    bool ok = true;
    for (const EvalStep::Touching& t : step.constraints) {
      const Situation* other = ws[t.other_symbol];
      if (other == nullptr) continue;
      const TemporalConstraint& c =
          program_->pattern.constraints()[t.constraint];
      const Situation& sa = t.symbol_is_a ? candidate : *other;
      const Situation& sb = t.symbol_is_a ? *other : candidate;
      if (c.Check(sa, sb) != Certainty::kCertain) {
        ok = false;
        break;
      }
    }
    if (ok) result.Add(IndexRange{i, i + 1});
  }
  return result;
}

const IndexRanges& PatternJoiner::FindCandidates(
    const EvalStep& step, const std::vector<const Situation*>& ws,
    MatcherStats* stats, StepScratch& scratch) {
  const SituationBuffer& buf = buffers_[step.symbol];
  if (program_->naive_scan && !buf.empty()) {
    return FindCandidatesNaive(step, ws, scratch);
  }
  IndexRanges& result = scratch.result;
  result.Clear();
  if (buf.empty()) return result;

  bool first = true;
  IndexRanges& per_constraint = scratch.per_constraint;
  for (const EvalStep::Touching& t : step.constraints) {
    const Situation* other = ws[t.other_symbol];
    if (other == nullptr) continue;
    const TemporalConstraint& c = program_->pattern.constraints()[t.constraint];

    // Union of the index ranges of the constraint's relations. The
    // candidate plays role A iff this step's symbol is the constraint's A.
    per_constraint.Clear();
    c.relations.ForEach([&](Relation r) {
      const auto bounds =
          BoundsForCounterpart(r, *other, /*fixed_is_a=*/!t.symbol_is_a);
      if (!bounds) return;
      per_constraint.Add(buf.Find(*bounds));
    });

    if (program_->range_queries_ctr != nullptr) {
      program_->range_queries_ctr->Inc();
      program_->range_query_hits_ctr->Inc(
          static_cast<int64_t>(per_constraint.TotalSize()));
    }
    if (stats != nullptr) {
      stats->UpdateSelectivity(
          t.constraint, static_cast<double>(per_constraint.TotalSize()) /
                            static_cast<double>(buf.size()));
    }
    if (first) {
      result.Swap(per_constraint);
      first = false;
    } else {
      result.IntersectInto(per_constraint, &scratch.tmp);
      result.Swap(scratch.tmp);
    }
    if (result.empty()) return result;
  }
  if (first) {
    // No applicable constraint: cross product over the whole buffer
    // (only reachable for disconnected patterns).
    result.Add(IndexRange{0, static_cast<uint32_t>(buf.size())});
  }
  return result;
}

void PatternJoiner::EmitIfWindowOk(const std::vector<const Situation*>& ws,
                                   TimePoint now, const EmitFn& emit) const {
  TimePoint min_ts = kTimeMax;
  TimePoint max_te = kTimeMin;
  for (const Situation* s : ws) {
    if (s->ts < min_ts) min_ts = s->ts;
    // Ongoing situations extend at least to the current time; the match
    // is emitted early under the documented low-latency window semantics.
    const TimePoint te = s->ongoing() ? now : s->te;
    if (te > max_te) max_te = te;
  }
  if (max_te - min_ts > program_->window) {
    if (program_->window_rejects_ctr != nullptr) {
      program_->window_rejects_ctr->Inc();
    }
    return;
  }
  if (program_->full_matches_ctr != nullptr) program_->full_matches_ctr->Inc();

  // The scratch match is reused across emissions; the reference passed to
  // the callback is only valid during the call (callbacks copy what they
  // keep).
  Match& match = program_->scratch_match;
  match.detected_at = now;
  if (match.config.size() != ws.size()) match.config.resize(ws.size());
  for (size_t i = 0; i < ws.size(); ++i) match.config[i] = *ws[i];
  emit(match);
}

}  // namespace tpstream
