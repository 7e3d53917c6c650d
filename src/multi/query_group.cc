#include "multi/query_group.h"

#include "derive/fingerprint.h"

namespace tpstream {
namespace multi {

namespace {

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

}  // namespace

QueryGroup::QueryGroup() : QueryGroup(Options()) {}

QueryGroup::QueryGroup(Options options) : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    events_ctr_ = options_.metrics->GetCounter("multi.events");
    queries_gauge_ = options_.metrics->GetGauge("multi.queries");
    distinct_defs_gauge_ =
        options_.metrics->GetGauge("multi.distinct_definitions");
    plan_hits_gauge_ = options_.metrics->GetGauge("multi.plan_cache_hits");
    plan_misses_gauge_ = options_.metrics->GetGauge("multi.plan_cache_misses");
  }
}

Result<int> QueryGroup::AddQuery(QuerySpec spec, OutputCallback output) {
  return AddQuery(std::move(spec), std::move(output), QueryOptions());
}

Result<int> QueryGroup::AddQuery(QuerySpec spec, OutputCallback output,
                                 QueryOptions query_options) {
  if (sealed_) {
    return Status::InvalidArgument(
        "QueryGroup: cannot add queries after the first Push()");
  }
  if (Status s = spec.Validate(); !s.ok()) return s;
  if (spec.partition_field >= 0) {
    return Status::InvalidArgument(
        "QueryGroup: PARTITION BY queries are not supported in a group; "
        "partition outside the group instead");
  }
  if (!queries_.empty() &&
      !SameSchema(queries_.front()->spec.input_schema, spec.input_schema)) {
    return Status::InvalidArgument(
        "QueryGroup: all queries must share the input schema; query " +
        std::to_string(queries_.size()) + " differs from query 0");
  }

  const int id = static_cast<int>(queries_.size());
  auto query = std::make_unique<Query>();
  query->spec = std::move(spec);
  query->output = std::move(output);

  MatchEngine::Options eo;
  eo.low_latency = options_.low_latency;
  eo.adaptive = options_.adaptive;
  eo.stats_alpha = options_.stats_alpha;
  eo.reopt_threshold = options_.reopt_threshold;
  eo.reopt_interval = options_.reopt_interval;
  eo.fixed_order = std::move(query_options.fixed_order);
  eo.metrics = query_options.metrics;
  eo.overload = query_options.overload.value_or(options_.overload);
  eo.plan_cache = &plan_cache_;
  query->engine_options = std::move(eo);

  // Deduplicate this query's definitions into the shared set and record
  // the fan-out subscriptions, keyed by the structural fingerprint.
  const auto& defs = query->spec.definitions;
  query->slots.reserve(defs.size());
  for (int sym = 0; sym < static_cast<int>(defs.size()); ++sym) {
    const std::string fp = DefinitionFingerprint(defs[sym]);
    auto [it, inserted] =
        def_index_.emplace(fp, static_cast<int>(shared_defs_.size()));
    if (inserted) {
      shared_defs_.push_back(defs[sym]);
      subscribers_.emplace_back();
    }
    query->slots.push_back(it->second);
    subscribers_[it->second].emplace_back(id, sym);
    ++total_definitions_;
  }

  queries_.push_back(std::move(query));
  return id;
}

void QueryGroup::Seal() {
  if (sealed_) return;
  sealed_ = true;

  deriver_ = std::make_unique<Deriver>(
      shared_defs_, /*announce_starts=*/options_.low_latency,
      options_.metrics,
      DeriveOptions{options_.compiled_predicates, options_.simd});
  for (auto& query : queries_) {
    query->engine = std::make_unique<MatchEngine>(
        &query->spec, deriver_.get(), query->slots, query->engine_options,
        std::move(query->output));
  }

  started_by_def_.assign(shared_defs_.size(), nullptr);
  finished_by_def_.assign(shared_defs_.size(), nullptr);
  dirty_flag_.assign(queries_.size(), 0);
  ckpt_dirty_.assign(queries_.size(), 0);
  dirty_.reserve(queries_.size());
  fired_defs_.reserve(shared_defs_.size());

  if (queries_gauge_ != nullptr) {
    queries_gauge_->Set(static_cast<double>(num_queries()));
    distinct_defs_gauge_->Set(
        static_cast<double>(num_distinct_definitions()));
  }
}

void QueryGroup::SyncEvents(int q) {
  Query& query = *queries_[q];
  const int64_t behind = num_events_ - query.engine->num_events();
  if (behind > 0) {
    query.engine->NoteEvents(behind);
    // Advancing the lazy event count changes the engine's serialized
    // state, so the query joins the next incremental checkpoint.
    ckpt_dirty_[q] = 1;
  }
}

void QueryGroup::Push(const Event& event) {
  if (!sealed_) Seal();
  ++num_events_;
  if (events_ctr_ != nullptr) events_ctr_->Inc();

  Deriver::Update& update = deriver_->Process(event);
  if (update.empty()) return;  // quiet event: no per-query work at all

  // Index this event's activity by shared definition and collect the
  // affected queries.
  for (const SymbolSituation& s : update.started) {
    if (started_by_def_[s.symbol] == nullptr &&
        finished_by_def_[s.symbol] == nullptr) {
      fired_defs_.push_back(s.symbol);
    }
    started_by_def_[s.symbol] = &s.situation;
    for (const auto& [q, sym] : subscribers_[s.symbol]) {
      (void)sym;
      if (!dirty_flag_[q]) {
        dirty_flag_[q] = 1;
        dirty_.push_back(q);
      }
    }
  }
  for (const SymbolSituation& f : update.finished) {
    if (started_by_def_[f.symbol] == nullptr &&
        finished_by_def_[f.symbol] == nullptr) {
      fired_defs_.push_back(f.symbol);
    }
    finished_by_def_[f.symbol] = &f.situation;
    for (const auto& [q, sym] : subscribers_[f.symbol]) {
      (void)sym;
      if (!dirty_flag_[q]) {
        dirty_flag_[q] = 1;
        dirty_.push_back(q);
      }
    }
  }

  // Fan out: assemble each dirty query's update in ascending query-symbol
  // order — exactly the order its own deriver would have produced — and
  // feed its engine. Situations are copied per subscriber (isolation);
  // the engine consumes the copies by move.
  for (const int q : dirty_) {
    Query& query = *queries_[q];
    SyncEvents(q);
    ckpt_dirty_[q] = 1;
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
    query.engine->Consume(scratch, event.t);
    dirty_flag_[q] = 0;
  }
  dirty_.clear();
  for (const int d : fired_defs_) {
    started_by_def_[d] = nullptr;
    finished_by_def_[d] = nullptr;
  }
  fired_defs_.clear();
}

void QueryGroup::PushBatch(std::span<const Event> events) {
  if (!sealed_) Seal();
  deriver_->PrepareBatch(events);
  for (const Event& event : events) Push(event);
}

void QueryGroup::Flush() {
  if (!sealed_) return;  // nothing streamed yet: well-defined no-op
  for (int q = 0; q < num_queries(); ++q) {
    SyncEvents(q);
    queries_[q]->engine->Flush();
  }
  if (plan_hits_gauge_ != nullptr) {
    plan_hits_gauge_->Set(static_cast<double>(plan_cache_.hits()));
    plan_misses_gauge_->Set(static_cast<double>(plan_cache_.misses()));
  }
}

void QueryGroup::Reset() {
  if (!sealed_) return;
  num_events_ = 0;
  deriver_->Reset();
  for (auto& query : queries_) query->engine->Reset();
  // A rewind touches every engine; invalidate the incremental baseline
  // until the next full checkpoint or restore (mirrors
  // TPStreamOperator::Reset).
  ckpt_dirty_.assign(queries_.size(), 0);
  incremental_valid_ = false;
}

void QueryGroup::Checkpoint(ckpt::Writer& w) {
  if (!sealed_) Seal();
  Write(w, ckpt::Tag::kQueryGroup);
}

void QueryGroup::CheckpointIncremental(ckpt::Writer& w) const {
  Write(w, ckpt::Tag::kQueryGroupDelta);
}

Status QueryGroup::Restore(ckpt::Reader& r, uint64_t* offset) {
  return Read(r, ckpt::Tag::kQueryGroup, offset);
}

Status QueryGroup::RestoreIncremental(ckpt::Reader& r, uint64_t* offset) {
  return Read(r, ckpt::Tag::kQueryGroupDelta, offset);
}

void QueryGroup::Write(ckpt::Writer& w, ckpt::Tag tag) const {
  const bool delta = tag == ckpt::Tag::kQueryGroupDelta;
  w.Envelope(static_cast<uint64_t>(num_events_));
  const size_t cookie = w.BeginSection(tag);
  w.U32(static_cast<uint32_t>(num_queries()));
  w.U32(static_cast<uint32_t>(num_distinct_definitions()));
  // The shared deriver advances on every event; it is always part of a
  // delta too.
  deriver_->Checkpoint(w);
  if (delta) {
    uint32_t dirty_count = 0;
    for (char d : ckpt_dirty_) dirty_count += (d != 0);
    w.U32(dirty_count);
  }
  for (int q = 0; q < num_queries(); ++q) {
    if (delta) {
      if (!ckpt_dirty_[q]) continue;
      w.U32(static_cast<uint32_t>(q));
    }
    queries_[q]->engine->Checkpoint(w);
  }
  w.EndSection(cookie);
}

Status QueryGroup::Read(ckpt::Reader& r, ckpt::Tag tag, uint64_t* offset) {
  if (!sealed_) Seal();
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(tag);
  const uint32_t num_queries_ck = r.U32();
  const uint32_t num_defs_ck = r.U32();
  if (r.ok() && num_queries_ck != static_cast<uint32_t>(num_queries())) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: query count mismatch (different queries registered?)"));
    return r.status();
  }
  if (r.ok() &&
      num_defs_ck != static_cast<uint32_t>(num_distinct_definitions())) {
    r.Fail(Status::InvalidArgument(
        "checkpoint: distinct definition count mismatch (different queries "
        "registered?)"));
    return r.status();
  }
  status = deriver_->Restore(r);
  if (!status.ok()) return status;
  if (tag == ckpt::Tag::kQueryGroup) {
    for (auto& query : queries_) {
      status = query->engine->Restore(r);
      if (!status.ok()) return status;
    }
  } else {
    const uint32_t dirty_count = r.U32();
    if (dirty_count > num_queries_ck) {
      r.Fail(
          Status::ParseError("checkpoint: delta query count exceeds group"));
      return r.status();
    }
    for (uint32_t i = 0; i < dirty_count && r.ok(); ++i) {
      const uint32_t q = r.U32();
      if (q >= static_cast<uint32_t>(num_queries())) {
        r.Fail(Status::ParseError("checkpoint: delta query id out of range"));
        return r.status();
      }
      status = queries_[q]->engine->Restore(r);
      if (!status.ok()) return status;
    }
  }
  status = r.EndSection(end);
  if (!status.ok()) return status;
  num_events_ = static_cast<int64_t>(off);
  // The in-memory state now equals the restored chain: it becomes the
  // incremental baseline (replay re-dirties exactly the queries that
  // change after it).
  MarkCheckpointBaseline();
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

void QueryGroup::MarkCheckpointBaseline() {
  ckpt_dirty_.assign(queries_.size(), 0);
  incremental_valid_ = true;
}

int64_t QueryGroup::num_matches(int query) const {
  const auto& q = *queries_[query];
  return q.engine ? q.engine->num_matches() : 0;
}

}  // namespace multi
}  // namespace tpstream
