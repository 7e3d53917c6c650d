#include "matcher/matcher.h"

namespace tpstream {

Matcher::Matcher(TemporalPattern pattern, Duration window,
                 MatchCallback callback, double stats_alpha)
    : Matcher(std::make_shared<MatcherProgram>(std::move(pattern), window,
                                               stats_alpha),
              std::move(callback)) {}

Matcher::Matcher(std::shared_ptr<MatcherProgram> program,
                 MatchCallback callback)
    : program_(std::move(program)),
      callback_(std::move(callback)),
      joiner_(program_.get()),
      stats_(program_->initial_stats) {}

void Matcher::SetEvaluationOrder(const std::vector<int>& permutation) {
  joiner_.SetOrder(permutation);
}

void Matcher::Reset() {
  joiner_.Reset();
  stats_ = program_->initial_stats;
}

void Matcher::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kBaselineMatcher);
  joiner_.Checkpoint(w);
  stats_.Checkpoint(w);
  w.EndSection(cookie);
}

Status Matcher::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kBaselineMatcher);
  Status status = joiner_.Restore(r);
  if (!status.ok()) return status;
  status = stats_.Restore(r);
  if (!status.ok()) return status;
  return r.EndSection(end);
}

void Matcher::Update(const std::vector<SymbolSituation>& finished,
                     TimePoint now) {
  program_->scratch_finished.assign(finished.begin(), finished.end());
  Consume(program_->scratch_finished, now);
}

void Matcher::Consume(std::vector<SymbolSituation>& finished, TimePoint now) {
  joiner_.PurgeBefore(now - program_->window);
  std::vector<const Situation*>& working_set = program_->working_set;

  for (SymbolSituation& ss : finished) {
    SituationBuffer& buf = joiner_.buffer(ss.symbol);
    buf.Append(std::move(ss.situation));
    // Overload cap: evict the oldest situations before enumerating (the
    // appended one is the newest and always survives — cap >= 1).
    joiner_.EnforceCap(ss.symbol);
    // Force the new situation into every produced configuration: this
    // yields incremental, exactly-once results (Algorithm 2).
    working_set.assign(working_set.size(), nullptr);
    working_set[ss.symbol] = &buf.Back();
    joiner_.Enumerate(working_set, now, callback_, &stats_);
  }

  for (int s = 0; s < program_->pattern.num_symbols(); ++s) {
    stats_.UpdateBufferSize(s, static_cast<double>(joiner_.buffer(s).size()));
  }
}

}  // namespace tpstream
