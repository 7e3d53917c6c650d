#include "core/operator.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <type_traits>
#include <utility>

#include "derive/fingerprint.h"

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
  eo.overload = o.overload;
  return eo;
}

bool SameSchema(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (int i = 0; i < a.num_fields(); ++i) {
    if (a.field(i).name != b.field(i).name ||
        a.field(i).type != b.field(i).type) {
      return false;
    }
  }
  return true;
}

void WriteKey(ckpt::Writer& w, int64_t key) { w.I64(key); }
void WriteKey(ckpt::Writer& w, const std::string& key) { w.Str(key); }
void ReadKey(ckpt::Reader& r, int64_t* key) { *key = r.I64(); }
void ReadKey(ckpt::Reader& r, std::string* key) { *key = r.Str(); }

}  // namespace

TPStreamOperator::Partition::Partition(
    std::shared_ptr<Deriver::Program> derive,
    const std::vector<QueryState>& queries)
    : deriver(std::move(derive)), engine(queries[0].program, &deriver) {
  more.reserve(queries.size() - 1);
  for (size_t q = 1; q < queries.size(); ++q) {
    more.push_back(std::make_unique<MatchEngine>(queries[q].program, &deriver));
  }
}

void TPStreamOperator::Partition::Reset() {
  deriver.Reset();
  ForEachEngine([](MatchEngine& e) { e.Reset(); });
}

Result<std::unique_ptr<TPStreamOperator>> TPStreamOperator::Create(
    std::vector<Query> queries, Options options) {
  if (queries.empty()) {
    return Status::InvalidArgument("TPStreamOperator: no queries");
  }
  if (queries.size() > 1 && options.fixed_order.has_value()) {
    return Status::InvalidArgument(
        "TPStreamOperator: fixed_order needs a single query");
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (Status s = queries[i].spec.Validate(); !s.ok()) return s;
    if (!SameSchema(queries[0].spec.input_schema,
                    queries[i].spec.input_schema)) {
      return Status::InvalidArgument(
          "TPStreamOperator: all queries must share the input schema; "
          "query " + std::to_string(i) + " differs from query 0");
    }
    if (queries[i].spec.partition_field != queries[0].spec.partition_field) {
      return Status::InvalidArgument(
          "TPStreamOperator: all queries must share the PARTITION BY field, "
          "or have none; query " + std::to_string(i) +
          " differs from query 0");
    }
  }
  return std::unique_ptr<TPStreamOperator>(
      new TPStreamOperator(std::move(queries), std::move(options), nullptr));
}

TPStreamOperator::TPStreamOperator(QuerySpec spec, Options options,
                                   OutputCallback output,
                                   const TPStreamOperator* plan_source)
    : TPStreamOperator(
          [&] {
            std::vector<Query> queries(1);
            queries[0] = {std::move(spec), std::move(output), options.metrics};
            return queries;
          }(),
          std::move(options), plan_source) {}

TPStreamOperator::TPStreamOperator(std::vector<Query> queries,
                                   Options options,
                                   const TPStreamOperator* plan_source)
    : options_(std::move(options)),
      partition_field_(queries.front().spec.partition_field) {
  queries_.resize(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryState& state = queries_[q];
    state.spec = std::move(queries[q].spec);
    state.output = std::move(queries[q].output);
    state.metrics = queries[q].metrics;
    state.initial_plan =
        plan_source != nullptr
            ? plan_source->queries_[q].initial_plan
            : std::make_shared<MatchEngine::Program::InitialPlan>();
  }
  direct_ = queries_.size() == 1;
  if (direct_) {
    // A single query keeps its definitions as they are.
    std::vector<int>& slots = queries_[0].slots;
    slots.resize(queries_[0].spec.definitions.size());
    std::iota(slots.begin(), slots.end(), 0);
  } else {
    ShareDefinitions();
  }

  if (obs::MetricsRegistry* metrics = options_.metrics) {
    if (partition_field_ >= 0) {
      events_ctr_ = metrics->GetCounter("partitioned.events");
      partitions_gauge_ = metrics->GetGauge("partitioned.partitions");
    }
    if (queries_.size() > 1) {
      metrics->GetGauge("multi.queries")
          ->Set(static_cast<double>(num_queries()));
      metrics->GetGauge("multi.distinct_definitions")
          ->Set(static_cast<double>(num_distinct_definitions()));
      plan_hits_gauge_ = metrics->GetGauge("multi.plan_cache_hits");
      plan_misses_gauge_ = metrics->GetGauge("multi.plan_cache_misses");
    }
  }
  if (partition_field_ < 0) {
    BuildPrograms();
    single_ = std::make_unique<Partition>(derive_program_, queries_);
  }
}

void TPStreamOperator::ShareDefinitions() {
  std::unordered_map<std::string, int> index_of;
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryState& query = queries_[q];
    for (const SituationDefinition& def : query.spec.definitions) {
      const auto [it, inserted] =
          index_of.emplace(DefinitionFingerprint(def),
                           static_cast<int>(shared_definitions_.size()));
      if (inserted) {
        shared_definitions_.push_back(def);
        subscribers_.emplace_back();
      }
      query.slots.push_back(it->second);
      std::vector<int>& subscribers = subscribers_[it->second];
      if (subscribers.empty() || subscribers.back() != static_cast<int>(q)) {
        subscribers.push_back(static_cast<int>(q));
      }
    }
  }
  started_by_def_.assign(shared_definitions_.size(), nullptr);
  finished_by_def_.assign(shared_definitions_.size(), nullptr);
  touched_flag_.assign(queries_.size(), 0);
}

void TPStreamOperator::BuildPrograms() {
  derive_program_ = std::make_shared<Deriver::Program>(
      definitions(), /*announce_starts=*/options_.low_latency,
      options_.metrics,
      DeriveOptions{options_.compiled_predicates, options_.simd});
  for (QueryState& query : queries_) {
    MatchEngine::Options eo = EngineOptions(options_);
    eo.metrics = query.metrics;
    if (queries_.size() > 1) eo.plan_cache = &plan_cache_;
    // The partition of an unpartitioned query counts its own matches;
    // with PARTITION BY the operator keeps the running sum.
    MatchEngine::OutputCallback sink = query.output;
    if (partition_field_ >= 0) {
      sink = [this, output = &query.output](const Event& e) {
        ++num_matches_;
        if (*output) (*output)(e);
      };
    }
    query.program = std::make_shared<MatchEngine::Program>(
        &query.spec, query.slots, std::move(eo), std::move(sink),
        query.initial_plan);
  }
}

int TPStreamOperator::total_definitions() const {
  int total = 0;
  for (const QueryState& query : queries_) {
    total += static_cast<int>(query.slots.size());
  }
  return total;
}

int64_t TPStreamOperator::num_matches(int query) const {
  int64_t total = 0;
  ForEachPartition([&](const Partition& p) {
    total += p.engine_of(query).num_matches();
  });
  return total;
}

template <typename Map, typename Key>
typename Map::value_type& TPStreamOperator::Find(Map& map, const Key& key) {
  auto it = map.find(key);
  if (it == map.end()) {
    if (derive_program_ == nullptr) BuildPrograms();
    it = map.try_emplace(typename Map::key_type(key), derive_program_,
                         queries_)
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
  const Value& key = event.payload[partition_field_];
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
  // Quiet events cost the same whatever the query count: only the first
  // engine counts them, the others catch up when they next act (Sync).
  partition.engine.NoteEvents(1);
  Deriver::Update& update = partition.deriver.Process(event);
  if (update.empty()) return;
  if (direct_) {
    partition.engine.Consume(update, event.t);
  } else {
    FanOut(partition, update, event.t);
  }
}

void TPStreamOperator::FanOut(Partition& partition, Deriver::Update& update,
                              TimePoint t) {
  // Index the step by definition and collect the queries it touches.
  const auto note = [this](const SymbolSituation& s,
                           std::vector<const Situation*>& by_def) {
    if (started_by_def_[s.symbol] == nullptr &&
        finished_by_def_[s.symbol] == nullptr) {
      fired_defs_.push_back(s.symbol);
    }
    by_def[s.symbol] = &s.situation;
    for (const int q : subscribers_[s.symbol]) {
      if (!touched_flag_[q]) {
        touched_flag_[q] = 1;
        touched_.push_back(q);
      }
    }
  };
  for (const SymbolSituation& s : update.started) note(s, started_by_def_);
  for (const SymbolSituation& f : update.finished) note(f, finished_by_def_);

  // Assemble each touched query's update in ascending query-symbol order
  // — exactly the order its own deriver would produce — and feed its
  // engine. Situations are copied per subscriber (isolation); the engine
  // consumes the copies by move.
  for (const int q : touched_) {
    QueryState& query = queries_[q];
    MatchEngine& engine = partition.engine_of(q);
    Sync(partition, engine);
    Deriver::Update& scratch = query.scratch;
    scratch.started.clear();
    scratch.finished.clear();
    for (int sym = 0; sym < static_cast<int>(query.slots.size()); ++sym) {
      const int d = query.slots[sym];
      if (const Situation* s = started_by_def_[d]) {
        scratch.started.push_back(SymbolSituation{sym, *s});
      }
      if (const Situation* f = finished_by_def_[d]) {
        scratch.finished.push_back(SymbolSituation{sym, *f});
      }
    }
    engine.Consume(scratch, t);
    touched_flag_[q] = 0;
  }
  touched_.clear();
  for (const int d : fired_defs_) {
    started_by_def_[d] = nullptr;
    finished_by_def_[d] = nullptr;
  }
  fired_defs_.clear();
}

void TPStreamOperator::Sync(const Partition& partition, MatchEngine& engine) {
  const int64_t behind = partition.engine.num_events() - engine.num_events();
  if (behind > 0) engine.NoteEvents(behind);
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
  ForEachPartition([](Partition& p) {
    p.ForEachEngine([&](MatchEngine& e) {
      Sync(p, e);
      e.Flush();
    });
  });
  if (plan_hits_gauge_ != nullptr) {
    plan_hits_gauge_->Set(static_cast<double>(plan_cache_.hits()));
    plan_misses_gauge_->Set(static_cast<double>(plan_cache_.misses()));
  }
}

void TPStreamOperator::Reset() {
  if (single_ != nullptr) {
    single_->Reset();
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

void TPStreamOperator::WriteState(ckpt::Writer& w, const Partition& p) {
  w.Envelope(static_cast<uint64_t>(p.engine.num_events()));
  const size_t cookie = w.BeginSection(ckpt::Tag::kOperator);
  p.deriver.Checkpoint(w);
  p.ForEachEngine([&](MatchEngine& e) {
    Sync(p, e);
    e.Checkpoint(w);
  });
  w.EndSection(cookie);
}

Status TPStreamOperator::ReadState(ckpt::Reader& r, Partition& p,
                                   uint64_t* offset) {
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(ckpt::Tag::kOperator);
  status = p.deriver.Restore(r);
  p.ForEachEngine([&](MatchEngine& e) {
    if (status.ok()) status = e.Restore(r);
  });
  if (!status.ok()) return status;
  status = r.EndSection(end);
  if (!status.ok()) return status;
  if (offset != nullptr) *offset = off;
  return Status::OK();
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
      WriteState(w, e->second);
    }
  };
  write(std::move(ints));
  write(std::move(strings));
  w.EndSection(cookie);
}

void TPStreamOperator::Checkpoint(ckpt::Writer& w) const {
  if (single_ != nullptr) {
    WriteState(w, *single_);
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
  if (single_ != nullptr) return ReadState(r, *single_, offset);
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
      p.Reset();
      const Status s = ReadState(r, p, nullptr);
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
  if (derive_program_ == nullptr) BuildPrograms();
  for (QueryState& query : queries_) query.program->SetMatchObserver(observer);
}

}  // namespace tpstream
