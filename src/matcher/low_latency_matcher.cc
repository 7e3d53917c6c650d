#include "matcher/low_latency_matcher.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace tpstream {

namespace {

// Fingerprint of a temporal configuration. Situations within one stream
// have unique start timestamps, so the sequence of (symbol, ts) pairs
// identifies a configuration; FNV-1a over the start timestamps suffices.
uint64_t Fingerprint(const std::vector<Situation>& config) {
  uint64_t h = 1469598103934665603ull;
  for (const Situation& s : config) {
    uint64_t x = static_cast<uint64_t>(s.ts);
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

LowLatencyMatcher::LowLatencyMatcher(TemporalPattern pattern,
                                     DetectionAnalysis analysis,
                                     Duration window, MatchCallback callback,
                                     double stats_alpha)
    : LowLatencyMatcher(
          std::make_shared<MatcherProgram>(std::move(pattern), window,
                                           stats_alpha, std::move(analysis)),
          std::move(callback)) {}

LowLatencyMatcher::LowLatencyMatcher(std::shared_ptr<MatcherProgram> program,
                                     MatchCallback callback)
    : program_(std::move(program)),
      callback_(std::move(callback)),
      joiner_(program_.get()),
      stats_(program_->initial_stats),
      started_(program_->pattern.num_symbols()) {}

void LowLatencyMatcher::SetEvaluationOrder(
    const std::vector<int>& permutation) {
  joiner_.SetOrder(permutation);
}

void LowLatencyMatcher::Reset() {
  joiner_.Reset();
  for (std::optional<Situation>& slot : started_) slot.reset();
  // The exactly-once guard MUST be dropped with the rest of the stream
  // state: a fingerprint left over from before the reset matches the
  // configuration a replayed stream produces again and would suppress its
  // (legitimate) emission.
  emitted_.clear();
  emitted_sweep_threshold_ = 1024;
  shed_trigger_candidates_ = 0;
  stats_ = program_->initial_stats;
}

void LowLatencyMatcher::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kLowLatencyMatcher);
  joiner_.Checkpoint(w);
  stats_.Checkpoint(w);
  w.U32(static_cast<uint32_t>(started_.size()));
  for (const std::optional<Situation>& slot : started_) {
    w.Bool(slot.has_value());
    if (slot.has_value()) w.WriteSituation(*slot);
  }
  // The fingerprint table is serialized in sorted order so that two
  // checkpoints of identical state are byte-identical (the
  // checkpoint-of-restore determinism property tested in
  // checkpoint_test.cc); unordered_map iteration order is not stable
  // across processes.
  std::vector<std::pair<uint64_t, TimePoint>> entries(emitted_.begin(),
                                                      emitted_.end());
  std::sort(entries.begin(), entries.end());
  w.U64(entries.size());
  for (const auto& [fp, min_ts] : entries) {
    w.U64(fp);
    w.I64(min_ts);
  }
  w.U64(emitted_sweep_threshold_);
  w.I64(shed_trigger_candidates_);
  w.EndSection(cookie);
}

Status LowLatencyMatcher::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kLowLatencyMatcher);
  Status status = joiner_.Restore(r);
  if (!status.ok()) return status;
  status = stats_.Restore(r);
  if (!status.ok()) return status;
  const uint32_t num_slots = r.U32();
  if (r.ok() && num_slots != started_.size()) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: started-slot count mismatch (pattern changed?)"));
    return r.status();
  }
  for (std::optional<Situation>& slot : started_) {
    slot.reset();
    if (r.Bool()) slot = r.ReadSituation();
  }
  const uint64_t num_emitted = r.U64();
  if (num_emitted > r.remaining() / 16) {
    r.Fail(Status::ParseError(
        "checkpoint: fingerprint table size exceeds input"));
    return r.status();
  }
  emitted_.clear();
  emitted_.reserve(num_emitted);
  for (uint64_t i = 0; i < num_emitted && r.ok(); ++i) {
    const uint64_t fp = r.U64();
    const TimePoint min_ts = r.I64();
    emitted_.emplace(fp, min_ts);
  }
  emitted_sweep_threshold_ = r.U64();
  shed_trigger_candidates_ = r.I64();
  return r.EndSection(end);
}

void LowLatencyMatcher::EnableMetrics(obs::MetricsRegistry* registry) {
  program_->EnableMetrics(registry, /*low_latency=*/true);
}

void LowLatencyMatcher::Update(const std::vector<SymbolSituation>& started,
                               const std::vector<SymbolSituation>& finished,
                               TimePoint now) {
  program_->scratch_started.assign(started.begin(), started.end());
  program_->scratch_finished.assign(finished.begin(), finished.end());
  Consume(program_->scratch_started, program_->scratch_finished, now);
}

void LowLatencyMatcher::Consume(std::vector<SymbolSituation>& started,
                                std::vector<SymbolSituation>& finished,
                                TimePoint now) {
  const DetectionAnalysis& analysis = program_->analysis;
  joiner_.PurgeBefore(now - program_->window);

  // Migrate every situation finishing now before running end triggers, so
  // that simultaneously ending counterparts (equals / finishes /
  // finished-by) are visible in the regular buffers.
  for (SymbolSituation& ss : finished) {
    started_[ss.symbol].reset();
    joiner_.buffer(ss.symbol).Append(std::move(ss.situation));
    // Overload cap: evict oldest situations; the one just appended is the
    // newest and always survives (cap >= 1), so Back() below stays valid.
    joiner_.EnforceCap(ss.symbol);
  }
  for (const SymbolSituation& ss : finished) {
    if (!analysis.match_on_end(ss.symbol)) continue;
    // A configuration completed purely by already-finished situations can
    // only have its latest endpoint here if some relation ends
    // simultaneously with this one; otherwise an earlier trigger covered
    // it. Symbols excluded while ongoing defer all their triggers to the
    // end, so for them the bare combination is always admissible.
    const bool allow_bare = analysis.has_simultaneous_end(ss.symbol) ||
                            analysis.excluded_while_ongoing(ss.symbol);
    Trigger(ss.symbol, joiner_.buffer(ss.symbol).Back(), allow_bare, now);
  }

  // Start triggers run after end migration: a situation ending at `now`
  // can relate to one starting at `now` only via meets/met-by, which
  // trigger at the *start* of the later situation and find the ended
  // counterpart in its buffer.
  for (SymbolSituation& ss : started) {
    started_[ss.symbol] = std::move(ss.situation);
    if (!analysis.match_on_start(ss.symbol)) continue;
    Trigger(ss.symbol, *started_[ss.symbol], /*allow_bare=*/true, now);
  }

  for (int s = 0; s < program_->pattern.num_symbols(); ++s) {
    stats_.UpdateBufferSize(s, static_cast<double>(joiner_.buffer(s).size()));
  }

  // Amortized sweep of the exactly-once guard.
  if (analysis.needs_dedup() &&
      emitted_.size() >= emitted_sweep_threshold_) {
    const TimePoint horizon = now - program_->window;
    for (auto it = emitted_.begin(); it != emitted_.end();) {
      it = it->second < horizon ? emitted_.erase(it) : std::next(it);
    }
    emitted_sweep_threshold_ =
        std::max<size_t>(1024, emitted_.size() * 2);
  }
}

void LowLatencyMatcher::Trigger(int symbol, const Situation& situation,
                                bool allow_bare, TimePoint now) {
  MatcherProgram& p = *program_;
  if (p.triggers_ctr != nullptr) p.triggers_ctr->Inc();
  const TemporalPattern& pattern = p.pattern;
  std::vector<int>& pool = p.pool;
  std::vector<const Situation*>& working_set = p.working_set;
  // Candidate pool: started situations that can coexist with the trigger
  // situation in a certain configuration. A related started situation
  // whose constraint with the trigger is not yet certain cannot
  // contribute now (its configurations will be concluded by a later
  // trigger), and impossible ones never will.
  pool.clear();
  for (int j = 0; j < pattern.num_symbols(); ++j) {
    if (j == symbol || !started_[j].has_value()) continue;
    if (started_[j]->ts < now - p.window) continue;  // window purge
    const int ci = pattern.ConstraintIndex(symbol, j);
    if (ci >= 0) {
      const TemporalConstraint& c = pattern.constraints()[ci];
      const Situation& sa = (c.a == symbol) ? situation : *started_[j];
      const Situation& sb = (c.a == symbol) ? *started_[j] : situation;
      if (c.Check(sa, sb) != Certainty::kCertain) continue;
    }
    pool.push_back(j);
  }

  // Trigger-pool cap: the subset enumeration below is 2^pool, so a flood
  // of concurrently ongoing situations on a wide pattern can stall a
  // single trigger. Shed the *oldest* started candidates (smallest start
  // timestamp — closest to expiry, least likely to complete), keep the
  // newest, then restore ascending symbol order so the enumeration
  // sequence for surviving candidates is unperturbed.
  if (p.max_trigger_pool > 0 && pool.size() > p.max_trigger_pool) {
    const int64_t excess =
        static_cast<int64_t>(pool.size() - p.max_trigger_pool);
    std::sort(pool.begin(), pool.end(), [this](int a, int b) {
      return started_[a]->ts > started_[b]->ts;
    });
    pool.resize(p.max_trigger_pool);
    std::sort(pool.begin(), pool.end());
    shed_trigger_candidates_ += excess;
    if (p.shed_trigger_ctr != nullptr) p.shed_trigger_ctr->Inc(excess);
  }

  const size_t subsets = size_t{1} << pool.size();
  for (size_t mask = 0; mask < subsets; ++mask) {
    if (mask == 0 && !allow_bare) continue;
    working_set.assign(working_set.size(), nullptr);
    working_set[symbol] = &situation;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (mask & (size_t{1} << i)) {
        working_set[pool[i]] = &*started_[pool[i]];
      }
    }
    joiner_.Enumerate(
        working_set, now, [this](const Match& m) { Emit(m); }, &stats_);
  }
}

void LowLatencyMatcher::Emit(const Match& match) {
  // When the detection analysis proves exactly-once delivery, skip the
  // fingerprint table entirely — it dominates per-match cost on
  // match-heavy patterns.
  if (program_->analysis.needs_dedup()) {
    TimePoint min_ts = kTimeMax;
    for (const Situation& s : match.config) {
      if (s.ts < min_ts) min_ts = s.ts;
    }
    const uint64_t fp = Fingerprint(match.config);
    auto [it, inserted] = emitted_.emplace(fp, min_ts);
    if (!inserted) {
      if (program_->dedup_hits_ctr != nullptr) {
        program_->dedup_hits_ctr->Inc();
      }
      return;
    }
  }
  callback_(match);
}

}  // namespace tpstream
