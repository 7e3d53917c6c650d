#include "core/partitioned_operator.h"

#include <algorithm>

namespace tpstream {

PartitionedTPStream::PartitionedTPStream(
    QuerySpec spec, TPStreamOperator::Options options,
    TPStreamOperator::OutputCallback output)
    : PartitionedTPStream(std::move(spec), std::move(options),
                          std::move(output), nullptr) {}

PartitionedTPStream::PartitionedTPStream(
    QuerySpec spec, TPStreamOperator::Options options,
    TPStreamOperator::OutputCallback output,
    const PartitionedTPStream* plan_source)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      output_(std::move(output)),
      initial_plan_(
          plan_source != nullptr
              ? plan_source->initial_plan_
              : std::make_shared<MatchEngine::Program::InitialPlan>()) {
  if (options_.metrics != nullptr) {
    events_ctr_ = options_.metrics->GetCounter("partitioned.events");
    partitions_gauge_ = options_.metrics->GetGauge("partitioned.partitions");
  }
}

void PartitionedTPStream::BuildPrograms() {
  derive_program_ = MakeDeriveProgram(spec_, options_);
  match_program_ = MakeMatchProgram(
      &spec_, options_,
      [this](const Event& e) {
        ++num_matches_;
        if (output_) output_(e);
      },
      initial_plan_);
}

template <typename Map, typename Key>
typename Map::value_type& PartitionedTPStream::Find(Map& map, const Key& key) {
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
PartitionedTPStream::Partition& PartitionedTPStream::Touch(
    Map& map, std::vector<typename Map::value_type*>& dirty, const Key& key) {
  typename Map::value_type& entry = Find(map, key);
  if (!entry.second.dirty) {
    entry.second.dirty = true;
    dirty.push_back(&entry);
  }
  return entry.second;
}

PartitionedTPStream::Partition& PartitionedTPStream::Route(
    const Event& event) {
  if (spec_.partition_field < 0) {
    // Unpartitioned: a single implicit partition keyed by 0.
    return Touch(int_partitions_, dirty_int_, int64_t{0});
  }
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

void PartitionedTPStream::Push(const Event& event) {
  ++num_events_;
  if (events_ctr_ != nullptr) events_ctr_->Inc();
  Step(Route(event), event);
}

void PartitionedTPStream::PushBatch(std::span<const Event> events) {
  if (events.empty()) return;
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

void PartitionedTPStream::Step(Partition& partition, const Event& event) {
  // Exactly TPStreamOperator::Push, on this key's state.
  partition.engine.NoteEvents(1);
  Deriver::Update& update = partition.deriver.Process(event);
  if (update.empty()) return;
  partition.engine.Consume(update, event.t);
}

void PartitionedTPStream::Flush() {
  for (auto& [k, p] : int_partitions_) p.engine.Flush();
  for (auto& [k, p] : string_partitions_) p.engine.Flush();
}

void PartitionedTPStream::Reset() {
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

void PartitionedTPStream::Write(ckpt::Writer& w, ckpt::Tag tag,
                                std::vector<const IntEntry*> ints,
                                std::vector<const StringEntry*> strings) const {
  // Sorted keys make the bytes a pure function of logical state
  // (unordered_map iteration order is not).
  auto by_key = [](const auto* a, const auto* b) {
    return a->first < b->first;
  };
  std::sort(ints.begin(), ints.end(), by_key);
  std::sort(strings.begin(), strings.end(), by_key);

  w.Envelope(static_cast<uint64_t>(num_events_));
  const size_t cookie = w.BeginSection(tag);
  w.I64(num_matches_);
  w.U64(ints.size());
  for (const IntEntry* e : ints) {
    w.I64(e->first);
    CheckpointOperatorState(w, e->second.deriver, e->second.engine);
  }
  w.U64(strings.size());
  for (const StringEntry* e : strings) {
    w.Str(e->first);
    CheckpointOperatorState(w, e->second.deriver, e->second.engine);
  }
  w.EndSection(cookie);
}

void PartitionedTPStream::Checkpoint(ckpt::Writer& w) const {
  std::vector<const IntEntry*> ints;
  ints.reserve(int_partitions_.size());
  for (const IntEntry& e : int_partitions_) ints.push_back(&e);
  std::vector<const StringEntry*> strings;
  strings.reserve(string_partitions_.size());
  for (const StringEntry& e : string_partitions_) strings.push_back(&e);
  Write(w, ckpt::Tag::kPartitioned, std::move(ints), std::move(strings));
}

void PartitionedTPStream::CheckpointIncremental(ckpt::Writer& w) const {
  Write(w, ckpt::Tag::kPartitionedDelta,
        {dirty_int_.begin(), dirty_int_.end()},
        {dirty_string_.begin(), dirty_string_.end()});
}

Status PartitionedTPStream::Restore(ckpt::Reader& r, uint64_t* offset) {
  return Read(r, ckpt::Tag::kPartitioned, offset);
}

Status PartitionedTPStream::RestoreIncremental(ckpt::Reader& r,
                                               uint64_t* offset) {
  return Read(r, ckpt::Tag::kPartitionedDelta, offset);
}

Status PartitionedTPStream::Read(ckpt::Reader& r, ckpt::Tag tag,
                                 uint64_t* offset) {
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(tag);
  const int64_t num_matches = r.I64();
  if (tag == ckpt::Tag::kPartitioned) {
    dirty_int_.clear();
    dirty_string_.clear();
    int_partitions_.clear();
    string_partitions_.clear();
  }

  // A partition in the blob replaces any current state of its key.
  auto restore = [&](Partition& p) {
    p.deriver.Reset();
    p.engine.Reset();
    return RestoreOperatorState(r, &p.deriver, &p.engine);
  };
  auto unsorted = [&r] {
    r.Fail(Status::ParseError(
        "checkpoint: partition keys not strictly ascending"));
    return r.status();
  };
  const uint64_t num_int = r.U64();
  if (num_int > r.remaining()) {
    r.Fail(Status::ParseError("checkpoint: partition count exceeds input"));
    return r.status();
  }
  int64_t prev_int = 0;
  for (uint64_t i = 0; i < num_int && r.ok(); ++i) {
    const int64_t key = r.I64();
    if (i > 0 && key <= prev_int) return unsorted();
    prev_int = key;
    status = restore(Find(int_partitions_, key).second);
    if (!status.ok()) return status;
  }
  const uint64_t num_str = r.U64();
  if (num_str > r.remaining()) {
    r.Fail(Status::ParseError("checkpoint: partition count exceeds input"));
    return r.status();
  }
  std::string prev_str;
  for (uint64_t i = 0; i < num_str && r.ok(); ++i) {
    std::string key = r.Str();
    if (i > 0 && key <= prev_str) return unsorted();
    status = restore(Find(string_partitions_, key).second);
    if (!status.ok()) return status;
    prev_str = std::move(key);
  }
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

void PartitionedTPStream::MarkCheckpointBaseline() {
  for (IntEntry* e : dirty_int_) e->second.dirty = false;
  for (StringEntry* e : dirty_string_) e->second.dirty = false;
  dirty_int_.clear();
  dirty_string_.clear();
  incremental_valid_ = true;
}

size_t PartitionedTPStream::BufferedCount() const {
  size_t total = 0;
  for (const auto& [k, p] : int_partitions_) total += p.engine.BufferedCount();
  for (const auto& [k, p] : string_partitions_) {
    total += p.engine.BufferedCount();
  }
  return total;
}

}  // namespace tpstream
