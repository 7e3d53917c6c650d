#include "core/operator.h"

#include <numeric>

namespace tpstream {

namespace {

MatchEngine::Options EngineOptions(const TPStreamOperator::Options& o) {
  MatchEngine::Options eo;
  eo.low_latency = o.low_latency;
  eo.adaptive = o.adaptive;
  eo.stats_alpha = o.stats_alpha;
  eo.reopt_threshold = o.reopt_threshold;
  eo.reopt_interval = o.reopt_interval;
  eo.fixed_order = o.fixed_order;
  eo.metrics = o.metrics;
  eo.overload = o.overload;
  return eo;
}

std::vector<int> IdentitySlots(size_t n) {
  std::vector<int> slots(n);
  std::iota(slots.begin(), slots.end(), 0);
  return slots;
}

}  // namespace

std::shared_ptr<Deriver::Program> MakeDeriveProgram(
    const QuerySpec& spec, const TPStreamOperator::Options& options) {
  return std::make_shared<Deriver::Program>(
      spec.definitions, /*announce_starts=*/options.low_latency,
      options.metrics,
      DeriveOptions{options.compiled_predicates, options.simd});
}

std::shared_ptr<MatchEngine::Program> MakeMatchProgram(
    const QuerySpec* spec, const TPStreamOperator::Options& options,
    MatchEngine::OutputCallback output,
    std::shared_ptr<MatchEngine::Program::InitialPlan> initial_plan) {
  std::vector<DurationConstraint> durations;
  durations.reserve(spec->definitions.size());
  for (const SituationDefinition& def : spec->definitions) {
    durations.push_back(def.duration);
  }
  return std::make_shared<MatchEngine::Program>(
      spec, std::move(durations), IdentitySlots(spec->definitions.size()),
      EngineOptions(options), std::move(output), std::move(initial_plan));
}

TPStreamOperator::TPStreamOperator(QuerySpec spec, Options options,
                                   OutputCallback output)
    : spec_(std::move(spec)),
      deriver_(MakeDeriveProgram(spec_, options)),
      engine_(std::make_unique<MatchEngine>(
          MakeMatchProgram(&spec_, options, std::move(output)), &deriver_)) {}

void TPStreamOperator::Push(const Event& event) {
  engine_->NoteEvents(1);
  Deriver::Update& update = deriver_.Process(event);
  if (update.empty()) return;
  engine_->Consume(update, event.t);
}

void TPStreamOperator::PushBatch(std::span<const Event> events) {
  deriver_.PrepareBatch(events);
  for (const Event& event : events) Push(event);
}

void TPStreamOperator::Flush() { engine_->Flush(); }

void TPStreamOperator::Reset() {
  deriver_.Reset();
  engine_->Reset();
}

void TPStreamOperator::Checkpoint(ckpt::Writer& w) const {
  CheckpointOperatorState(w, deriver_, *engine_);
}

Status TPStreamOperator::Restore(ckpt::Reader& r, uint64_t* offset) {
  return RestoreOperatorState(r, &deriver_, engine_.get(), offset);
}

void CheckpointOperatorState(ckpt::Writer& w, const Deriver& deriver,
                             const MatchEngine& engine) {
  w.Envelope(static_cast<uint64_t>(engine.num_events()));
  const size_t cookie = w.BeginSection(ckpt::Tag::kOperator);
  deriver.Checkpoint(w);
  engine.Checkpoint(w);
  w.EndSection(cookie);
}

Status RestoreOperatorState(ckpt::Reader& r, Deriver* deriver,
                            MatchEngine* engine, uint64_t* offset) {
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(ckpt::Tag::kOperator);
  status = deriver->Restore(r);
  if (!status.ok()) return status;
  status = engine->Restore(r);
  if (!status.ok()) return status;
  status = r.EndSection(end);
  if (!status.ok()) return status;
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

}  // namespace tpstream
