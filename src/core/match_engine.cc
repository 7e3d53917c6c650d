#include "core/match_engine.h"

#include <algorithm>

#include "algebra/detection.h"

namespace tpstream {

MatchEngine::Program::Program(const QuerySpec* spec,
                              std::vector<int> deriver_slots, Options options,
                              OutputCallback output,
                              std::shared_ptr<InitialPlan> initial_plan)
    : options_(std::move(options)),
      spec_(spec),
      deriver_slots_(std::move(deriver_slots)),
      output_(std::move(output)) {
  DetectionAnalysis analysis;
  if (options_.low_latency) {
    std::vector<DurationConstraint> durations;
    durations.reserve(spec_->definitions.size());
    for (const SituationDefinition& def : spec_->definitions) {
      durations.push_back(def.duration);
    }
    analysis = DetectionAnalysis(spec_->pattern, durations);
  }
  matcher_ = std::make_shared<MatcherProgram>(spec_->pattern, spec_->window,
                                              options_.stats_alpha,
                                              std::move(analysis));
  if (!options_.overload.unbounded()) {
    matcher_->situation_cap = options_.overload.max_situations_per_buffer;
    if (options_.low_latency) {
      matcher_->max_trigger_pool = options_.overload.max_trigger_pool;
    }
  }

  if (options_.metrics != nullptr) {
    matcher_->EnableMetrics(options_.metrics, options_.low_latency);
    events_ctr_ = options_.metrics->GetCounter("operator.events");
    matches_ctr_ = options_.metrics->GetCounter("operator.matches");
    detection_latency_hist_ =
        options_.metrics->GetHistogram("matcher.detection_latency");
    stats_publisher_ = MatcherStatsPublisher(options_.metrics, spec_->pattern);
  }

  if (options_.fixed_order.has_value()) {
    initial_order_ = *options_.fixed_order;
    return;
  }
  initial_plan_ = initial_plan != nullptr ? std::move(initial_plan)
                                          : std::make_shared<InitialPlan>();
  AdaptiveController::Options copts;
  copts.threshold = options_.reopt_threshold;
  copts.check_interval = options_.reopt_interval;
  copts.low_latency = options_.low_latency;
  copts.metrics = options_.metrics;
  copts.plan_cache = options_.plan_cache;
  planner_ =
      std::make_shared<const AdaptiveController::Planner>(&spec_->pattern,
                                                          copts);
}

void MatchEngine::Program::LoadInitialPlan() {
  if (initial_plan_ == nullptr || initial_controller_.has_value()) return;
  InitialPlan& plan = *initial_plan_;
  std::call_once(plan.once, [&] {
    // The cost-based initial plan (Table 3 selectivities): the first
    // MaybeReoptimize always suggests it.
    plan.state.emplace(planner_);
    plan.order = *plan.state->MaybeReoptimize(matcher_->initial_stats);
  });
  initial_order_ = plan.order;
  initial_controller_.emplace(planner_, *plan.state);
}

MatchEngine::MatchEngine(const QuerySpec* spec, const Deriver* deriver,
                         std::vector<int> deriver_slots, Options options,
                         OutputCallback output)
    : MatchEngine(std::make_shared<Program>(spec, std::move(deriver_slots),
                                           std::move(options),
                                           std::move(output)),
                  deriver) {}

MatchEngine::MatchEngine(std::shared_ptr<Program> program,
                         const Deriver* deriver)
    : program_(std::move(program)), deriver_(deriver) {
  auto on_match = [this](const Match& m) { OnMatch(m); };
  Program& p = *program_;
  p.LoadInitialPlan();
  if (p.options_.low_latency) {
    ll_matcher_ = std::make_unique<LowLatencyMatcher>(p.matcher_, on_match);
  } else {
    matcher_ = std::make_unique<Matcher>(p.matcher_, on_match);
  }
  InstallInitialPlan();
}

void MatchEngine::InstallInitialPlan() {
  const Program& p = *program_;
  if (ll_matcher_) ll_matcher_->SetEvaluationOrder(p.initial_order_);
  if (matcher_) matcher_->SetEvaluationOrder(p.initial_order_);
  if (p.options_.adaptive && p.initial_controller_.has_value()) {
    controller_.emplace(*p.initial_controller_);
  } else {
    controller_.reset();
  }
}

void MatchEngine::Reset() {
  num_events_ = 0;
  num_matches_ = 0;
  if (ll_matcher_) ll_matcher_->Reset();
  if (matcher_) matcher_->Reset();
  // Rebuild the adaptive state exactly as construction would: the
  // query's initial plan, and a controller (if adaptive) continuing from
  // it.
  InstallInitialPlan();
}

void MatchEngine::Checkpoint(ckpt::Writer& w) const {
  const size_t cookie = w.BeginSection(ckpt::Tag::kMatchEngine);
  w.I64(num_events_);
  w.I64(num_matches_);
  w.Bool(ll_matcher_ != nullptr);
  if (ll_matcher_) {
    ll_matcher_->Checkpoint(w);
  } else {
    matcher_->Checkpoint(w);
  }
  w.Bool(controller_.has_value());
  if (controller_) controller_->Checkpoint(w);
  w.EndSection(cookie);
}

Status MatchEngine::Restore(ckpt::Reader& r) {
  const size_t end = r.BeginSection(ckpt::Tag::kMatchEngine);
  const int64_t num_events = r.I64();
  const int64_t num_matches = r.I64();
  const bool low_latency = r.Bool();
  if (r.ok() && low_latency != (ll_matcher_ != nullptr)) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: matcher mode mismatch (low_latency option changed?)"));
    return r.status();
  }
  Status status = ll_matcher_ ? ll_matcher_->Restore(r) : matcher_->Restore(r);
  if (!status.ok()) return status;
  const bool adaptive = r.Bool();
  if (r.ok() && adaptive != (controller_.has_value())) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: adaptivity mismatch (adaptive option changed?)"));
    return r.status();
  }
  if (controller_) {
    status = controller_->Restore(r);
    if (!status.ok()) return status;
  }
  status = r.EndSection(end);
  if (!status.ok()) return status;
  num_events_ = num_events;
  num_matches_ = num_matches;
  return Status::OK();
}

void MatchEngine::NoteEvents(int64_t n) {
  num_events_ += n;
  if (program_->events_ctr_ != nullptr) program_->events_ctr_->Inc(n);
}

void MatchEngine::Consume(Deriver::Update& update, TimePoint t) {
  if (update.empty()) return;

  // The update vectors are scratch, cleared by the producer; the matcher
  // is free to move the situations out of them.
  if (ll_matcher_) {
    ll_matcher_->Consume(update.started, update.finished, t);
  } else if (!update.finished.empty()) {
    matcher_->Consume(update.finished, t);
  }

  if (controller_.has_value()) {
    if (auto order = controller_->MaybeReoptimize(stats())) {
      if (ll_matcher_) ll_matcher_->SetEvaluationOrder(*order);
      if (matcher_) matcher_->SetEvaluationOrder(*order);
    }
  }

  // EMAs change slowly; publishing at the optimizer's check cadence keeps
  // the gauges fresh without touching the per-event fast path.
  Program& p = *program_;
  if (p.stats_publisher_.enabled() &&
      num_events_ % std::max(p.options_.reopt_interval, 1) == 0) {
    p.stats_publisher_.Publish(stats());
  }
}

void MatchEngine::Flush() {
  Program& p = *program_;
  if (p.stats_publisher_.enabled()) p.stats_publisher_.Publish(stats());
}

void MatchEngine::OnMatch(const Match& match) {
  const Program& p = *program_;
  const QuerySpec& spec = *p.spec_;
  ++num_matches_;
  if (p.matches_ctr_ != nullptr) p.matches_ctr_->Inc();
  if (p.detection_latency_hist_ != nullptr) {
    // Detection latency in application time: how far behind the analytic
    // earliest detection instant t_d (Section 5.3.1) this match surfaced.
    // The low-latency matcher should pin this at ~0; the baseline matcher
    // pays the distance between t_d and the last end timestamp.
    const TimePoint td = EarliestDetection(spec.pattern, match.config);
    if (td != kTimeMax && match.detected_at >= td) {
      p.detection_latency_hist_->Record(
          static_cast<int64_t>(match.detected_at - td));
    }
  }
  if (p.match_observer_) p.match_observer_(match);
  if (!p.output_) return;

  Tuple payload;
  payload.reserve(spec.returns.size());
  for (const ReturnItem& item : spec.returns) {
    const Situation& s = match.config[item.symbol];
    switch (item.source) {
      case ReturnItem::Source::kStartTime:
        payload.push_back(Value(static_cast<int64_t>(s.ts)));
        continue;
      case ReturnItem::Source::kEndTime:
        payload.push_back(s.ongoing() ? Value::Null()
                                      : Value(static_cast<int64_t>(s.te)));
        continue;
      case ReturnItem::Source::kDuration:
        payload.push_back(
            s.ongoing() ? Value::Null()
                        : Value(static_cast<int64_t>(s.duration())));
        continue;
      case ReturnItem::Source::kAggregate:
        break;
    }
    const int slot = p.deriver_slots_[item.symbol];
    if (s.ongoing() && deriver_->IsOngoing(slot)) {
      // Freshest aggregate snapshot for situations still being derived.
      const Tuple snapshot = deriver_->SnapshotOngoing(slot);
      payload.push_back(item.agg_index < static_cast<int>(snapshot.size())
                            ? snapshot[item.agg_index]
                            : Value::Null());
    } else {
      payload.push_back(item.agg_index < static_cast<int>(s.payload.size())
                            ? s.payload[item.agg_index]
                            : Value::Null());
    }
  }
  p.output_(Event(std::move(payload), match.detected_at));
}

void MatchEngine::ForceEvaluationOrder(const std::vector<int>& order) {
  if (ll_matcher_) ll_matcher_->SetEvaluationOrder(order);
  if (matcher_) matcher_->SetEvaluationOrder(order);
}

std::vector<int> MatchEngine::CurrentOrder() const {
  return ll_matcher_ ? ll_matcher_->CurrentOrder() : matcher_->CurrentOrder();
}

const MatcherStats& MatchEngine::stats() const {
  return ll_matcher_ ? ll_matcher_->stats() : matcher_->stats();
}

size_t MatchEngine::BufferedCount() const {
  return ll_matcher_ ? ll_matcher_->BufferedCount()
                     : matcher_->BufferedCount();
}

int64_t MatchEngine::shed_situations() const {
  return ll_matcher_ ? ll_matcher_->shed_situations()
                     : matcher_->shed_situations();
}

int64_t MatchEngine::lost_match_upper_bound() const {
  return ll_matcher_ ? ll_matcher_->lost_match_upper_bound()
                     : matcher_->lost_match_upper_bound();
}

int64_t MatchEngine::shed_trigger_candidates() const {
  return ll_matcher_ ? ll_matcher_->shed_trigger_candidates() : 0;
}

}  // namespace tpstream
