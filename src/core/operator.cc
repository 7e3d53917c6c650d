#include "core/operator.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <type_traits>
#include <utility>

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

/// The operator checkpoint layout of one deriver/engine pair: the
/// envelope (offset = the engine's event count), then a kOperator section
/// holding the deriver's and the engine's state. An unpartitioned
/// operator writes exactly this; a PARTITION BY one writes it per key.
void WriteOperatorState(ckpt::Writer& w, const Deriver& deriver,
                        const MatchEngine& engine) {
  w.Envelope(static_cast<uint64_t>(engine.num_events()));
  const size_t cookie = w.BeginSection(ckpt::Tag::kOperator);
  deriver.Checkpoint(w);
  engine.Checkpoint(w);
  w.EndSection(cookie);
}

Status ReadOperatorState(ckpt::Reader& r, Deriver* deriver,
                         MatchEngine* engine, uint64_t* offset = nullptr) {
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

void WriteKey(ckpt::Writer& w, int64_t key) { w.I64(key); }
void WriteKey(ckpt::Writer& w, const std::string& key) { w.Str(key); }
void ReadKey(ckpt::Reader& r, int64_t* key) { *key = r.I64(); }
void ReadKey(ckpt::Reader& r, std::string* key) { *key = r.Str(); }

}  // namespace

TPStreamOperator::TPStreamOperator(QuerySpec spec, Options options,
                                   OutputCallback output,
                                   const TPStreamOperator* plan_source)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      output_(std::move(output)),
      initial_plan_(
          plan_source != nullptr
              ? plan_source->initial_plan_
              : std::make_shared<MatchEngine::Program::InitialPlan>()) {
  if (spec_.partition_field < 0) {
    BuildPrograms();
    single_ = std::make_unique<Partition>(derive_program_, match_program_);
    return;
  }
  if (options_.metrics != nullptr) {
    events_ctr_ = options_.metrics->GetCounter("partitioned.events");
    partitions_gauge_ = options_.metrics->GetGauge("partitioned.partitions");
  }
}

void TPStreamOperator::BuildPrograms() {
  derive_program_ = std::make_shared<Deriver::Program>(
      spec_.definitions, /*announce_starts=*/options_.low_latency,
      options_.metrics,
      DeriveOptions{options_.compiled_predicates, options_.simd});
  // The one partition of an unpartitioned query counts its own matches;
  // with PARTITION BY the operator keeps the running sum.
  MatchEngine::OutputCallback sink = output_;
  if (spec_.partition_field >= 0) {
    sink = [this](const Event& e) {
      ++num_matches_;
      if (output_) output_(e);
    };
  }
  std::vector<int> slots(spec_.definitions.size());
  std::iota(slots.begin(), slots.end(), 0);
  match_program_ = std::make_shared<MatchEngine::Program>(
      &spec_, std::move(slots), EngineOptions(options_), std::move(sink),
      initial_plan_);
}

template <typename Map, typename Key>
typename Map::value_type& TPStreamOperator::Find(Map& map, const Key& key) {
  auto it = map.find(key);
  if (it == map.end()) {
    if (match_program_ == nullptr) BuildPrograms();
    it = map.try_emplace(typename Map::key_type(key), derive_program_,
                         match_program_)
             .first;
    if (partitions_gauge_ != nullptr) {
      partitions_gauge_->Set(static_cast<double>(num_partitions()));
    }
  }
  return *it;
}

template <typename Map, typename Key>
TPStreamOperator::Partition& TPStreamOperator::Touch(
    Map& map, std::vector<typename Map::value_type*>& dirty, const Key& key) {
  typename Map::value_type& entry = Find(map, key);
  if (!entry.second.dirty) {
    entry.second.dirty = true;
    dirty.push_back(&entry);
  }
  return entry.second;
}

TPStreamOperator::Partition& TPStreamOperator::Route(const Event& event) {
  const Value& key = event.payload[spec_.partition_field];
  switch (key.type()) {
    case ValueType::kInt:
      return Touch(int_partitions_, dirty_int_, key.AsInt());
    case ValueType::kString:
      return Touch(string_partitions_, dirty_string_,
                   std::string_view(key.AsString()));
    default:
      return Touch(string_partitions_, dirty_string_, key.ToString());
  }
}

void TPStreamOperator::Step(Partition& partition, const Event& event) {
  partition.engine.NoteEvents(1);
  Deriver::Update& update = partition.deriver.Process(event);
  if (update.empty()) return;
  partition.engine.Consume(update, event.t);
}

void TPStreamOperator::Push(const Event& event) {
  if (single_ != nullptr) {
    Step(*single_, event);
    return;
  }
  ++num_events_;
  if (events_ctr_ != nullptr) events_ctr_->Inc();
  Step(Route(event), event);
}

void TPStreamOperator::PushBatch(std::span<const Event> events) {
  if (events.empty()) return;
  if (single_ != nullptr) {
    derive_program_->PrepareBatch(events);
    for (const Event& event : events) Step(*single_, event);
    return;
  }
  num_events_ += static_cast<int64_t>(events.size());
  if (events_ctr_ != nullptr) {
    events_ctr_->Inc(static_cast<int64_t>(events.size()));
  }
  // Route the whole batch first (creating new keys, and with the first
  // one the programs): the hash probes are independent of each other.
  routes_.clear();
  for (const Event& event : events) routes_.push_back(&Route(event));
  // φ is pure per tuple, so one columnar pass over the mixed-key batch
  // serves every key: each partition's Deriver::Process consumes its row,
  // walking the shared cursor in batch order.
  derive_program_->PrepareBatch(events);
  for (size_t i = 0; i < events.size(); ++i) Step(*routes_[i], events[i]);
}

void TPStreamOperator::Flush() {
  if (single_ != nullptr) single_->engine.Flush();
  for (auto& [k, p] : int_partitions_) p.engine.Flush();
  for (auto& [k, p] : string_partitions_) p.engine.Flush();
}

void TPStreamOperator::Reset() {
  if (single_ != nullptr) {
    single_->deriver.Reset();
    single_->engine.Reset();
    return;
  }
  // The dirty lists point into the maps: drop them first.
  dirty_int_.clear();
  dirty_string_.clear();
  int_partitions_.clear();
  string_partitions_.clear();
  num_events_ = 0;
  num_matches_ = 0;
  // A delta records only *touched* partitions; it cannot express "every
  // partition vanished", so Reset() invalidates the incremental
  // baseline until the next full checkpoint or restore.
  incremental_valid_ = false;
  if (partitions_gauge_ != nullptr) partitions_gauge_->Set(0.0);
}

void TPStreamOperator::Write(ckpt::Writer& w, ckpt::Tag tag,
                             std::vector<const IntEntry*> ints,
                             std::vector<const StringEntry*> strings) const {
  w.Envelope(static_cast<uint64_t>(num_events_));
  const size_t cookie = w.BeginSection(tag);
  w.I64(num_matches_);
  // Sorted keys make the bytes a pure function of logical state
  // (unordered_map iteration order is not).
  auto write = [&w](auto entries) {
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    w.U64(entries.size());
    for (const auto* e : entries) {
      WriteKey(w, e->first);
      WriteOperatorState(w, e->second.deriver, e->second.engine);
    }
  };
  write(std::move(ints));
  write(std::move(strings));
  w.EndSection(cookie);
}

void TPStreamOperator::Checkpoint(ckpt::Writer& w) const {
  if (single_ != nullptr) {
    WriteOperatorState(w, single_->deriver, single_->engine);
    return;
  }
  std::vector<const IntEntry*> ints;
  ints.reserve(int_partitions_.size());
  for (const IntEntry& e : int_partitions_) ints.push_back(&e);
  std::vector<const StringEntry*> strings;
  strings.reserve(string_partitions_.size());
  for (const StringEntry& e : string_partitions_) strings.push_back(&e);
  Write(w, ckpt::Tag::kPartitioned, std::move(ints), std::move(strings));
}

void TPStreamOperator::CheckpointIncremental(ckpt::Writer& w) const {
  assert(CanCheckpointIncremental());
  Write(w, ckpt::Tag::kPartitionedDelta,
        {dirty_int_.begin(), dirty_int_.end()},
        {dirty_string_.begin(), dirty_string_.end()});
}

Status TPStreamOperator::Restore(ckpt::Reader& r, uint64_t* offset) {
  if (single_ != nullptr) {
    return ReadOperatorState(r, &single_->deriver, &single_->engine, offset);
  }
  return Read(r, ckpt::Tag::kPartitioned, offset);
}

Status TPStreamOperator::RestoreIncremental(ckpt::Reader& r,
                                            uint64_t* offset) {
  if (single_ != nullptr) {
    return Status::InvalidArgument(
        "checkpoint: incremental restore needs a PARTITION BY query");
  }
  return Read(r, ckpt::Tag::kPartitionedDelta, offset);
}

Status TPStreamOperator::Read(ckpt::Reader& r, ckpt::Tag tag,
                              uint64_t* offset) {
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(tag);
  const int64_t num_matches = r.I64();
  if (tag == ckpt::Tag::kPartitioned) Reset();

  // Per key type: a count, then (key, partition) pairs in strictly
  // ascending key order. A partition in the blob replaces any current
  // state of its key.
  auto read = [&](auto& map) {
    const uint64_t n = r.U64();
    if (n > r.remaining()) {
      r.Fail(Status::ParseError("checkpoint: partition count exceeds input"));
      return r.status();
    }
    typename std::remove_reference_t<decltype(map)>::key_type key{}, prev{};
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      ReadKey(r, &key);
      if (i > 0 && key <= prev) {
        r.Fail(Status::ParseError(
            "checkpoint: partition keys not strictly ascending"));
        return r.status();
      }
      Partition& p = Find(map, key).second;
      p.deriver.Reset();
      p.engine.Reset();
      const Status s = ReadOperatorState(r, &p.deriver, &p.engine);
      if (!s.ok()) return s;
      std::swap(prev, key);
    }
    return Status::OK();
  };
  status = read(int_partitions_);
  if (!status.ok()) return status;
  status = read(string_partitions_);
  if (!status.ok()) return status;
  status = r.EndSection(end);
  if (!status.ok()) return status;
  num_events_ = static_cast<int64_t>(off);
  num_matches_ = num_matches;
  // The in-memory state now equals the restored snapshot, which makes
  // that snapshot the incremental baseline: replayed events re-mark
  // their partitions dirty, which is exactly the post-checkpoint delta.
  MarkCheckpointBaseline();
  if (partitions_gauge_ != nullptr) {
    partitions_gauge_->Set(static_cast<double>(num_partitions()));
  }
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

void TPStreamOperator::MarkCheckpointBaseline() {
  for (IntEntry* e : dirty_int_) e->second.dirty = false;
  for (StringEntry* e : dirty_string_) e->second.dirty = false;
  dirty_int_.clear();
  dirty_string_.clear();
  incremental_valid_ = single_ == nullptr;
}

void TPStreamOperator::SetMatchObserver(MatchCallback observer) {
  if (match_program_ == nullptr) BuildPrograms();
  match_program_->SetMatchObserver(std::move(observer));
}

}  // namespace tpstream
