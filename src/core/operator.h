#ifndef TPSTREAM_CORE_OPERATOR_H_
#define TPSTREAM_CORE_OPERATOR_H_

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "common/status.h"
#include "core/match_engine.h"
#include "core/query_spec.h"
#include "derive/deriver.h"
#include "obs/metrics.h"
#include "optimizer/shared_plan_cache.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The TPStream operator (Definition 13, Figure 2): consumes a point
/// event stream, derives situation streams, matches the temporal pattern,
/// and emits one output event per match (timestamp = detection time,
/// payload = the RETURN projections).
///
/// Composition: per partition, a Deriver feeding one MatchEngine per
/// query (the matcher / adaptive controller / projection half), all over
/// programs built once per operator, so a partition holds only its
/// stream state (see MatchEngine).
///
/// Multi-query sharing (Create): N > 1 standing queries over one stream
/// share one Deriver program over their definitions, deduplicated by
/// structural fingerprint (φ predicate, γ aggregate battery, τ duration
/// constraint — see derive/fingerprint.h). Each distinct definition is derived once
/// per event, and a non-empty step fans out, through each query's slot
/// map, to the engines of the queries it touched; a quiet event costs the
/// same whatever N is. Per query, matches, RETURN payloads and the
/// `matcher.*` / `operator.*` / `robust.*` / `optimizer.*` metrics are
/// those of a standalone operator (differentially tested): engines never
/// share matcher, statistics or projection state, and situations are
/// copied per subscriber.
///
/// PARTITION BY (Listing 1, `QuerySpec::partition_field`): every key is
/// evaluated independently, exactly as by its own unpartitioned operator.
/// A key's partition is created on its first event; int keys are routed
/// by value, string keys by their text without allocating, other types
/// by Value::ToString(). An unpartitioned query has exactly one
/// partition, built with the operator and reached without a lookup.
///
/// With `low_latency` enabled (default), matches are concluded at the
/// earliest possible point in time t_d(P); otherwise matching waits for
/// all end timestamps (the ISEQ-style baseline behaviour). With
/// `adaptive` enabled, the evaluation order is re-optimized whenever the
/// tracked statistics drift (Section 5.4.1).
class TPStreamOperator {
 public:
  struct Options {
    bool low_latency = true;
    bool adaptive = true;
    double stats_alpha = 0.01;
    double reopt_threshold = 0.2;
    int reopt_interval = 64;
    /// Compile DEFINE predicates to register bytecode and evaluate them
    /// columnarly over PushBatch() spans (expr/bytecode.h). Single
    /// events (Push) always use the expression interpreter, which
    /// remains the semantic oracle. On by default; false is the
    /// interpreter-only ablation. Outputs are identical either way
    /// (differentially tested).
    bool compiled_predicates = true;
    /// SIMD tier for columnar predicate evaluation ("off", "sse2",
    /// "avx2", "native"); empty defers to TPSTREAM_SIMD, then the
    /// machine default. See DeriveOptions::simd.
    std::string simd;
    /// When set, pins the evaluation order and disables adaptivity (used
    /// by the plan-quality experiments). Single-query operators only.
    std::optional<std::vector<int>> fixed_order;
    /// Optional observability sink. When set, the operator and all its
    /// components (deriver, matcher, optimizer) record their metrics into
    /// this registry — the partitions of a PARTITION BY query aggregate
    /// into one set; when null (default) instrumentation is disabled and
    /// the hot path is untouched. A multi-query operator records only what
    /// its queries share here (`deriver.*`, `partitioned.*`, `multi.*`);
    /// each query's own metrics go to Query::metrics. The registry must
    /// outlive the operator. See docs/architecture.md ("Observability")
    /// for the metric names.
    obs::MetricsRegistry* metrics = nullptr;
    /// Overload protection (Degradation contract): hard caps on the
    /// per-symbol situation buffers and, in low-latency mode, on the
    /// trigger-pool size. Defaults to unbounded (today's behaviour).
    /// Evictions are oldest-first and accounted via shed_situations() /
    /// lost_match_upper_bound() and the `robust.*` metrics.
    robust::OverloadPolicy overload;
  };

  using OutputCallback = std::function<void(const Event&)>;

  /// One query of a multi-query operator.
  struct Query {
    QuerySpec spec;
    OutputCallback output;
    /// The query's `matcher.*`, `operator.*`, `robust.*` and
    /// `optimizer.*` metrics; null disables them. Distinct registries per
    /// query avoid double counting. Must outlive the operator.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// An operator running `queries` (in this order: query ids are
  /// indices) over one input stream. They must be valid and share the
  /// input schema (field names and types) and the PARTITION BY field, or
  /// all have none; every query runs with `options`.
  static Result<std::unique_ptr<TPStreamOperator>> Create(
      std::vector<Query> queries, Options options);

  /// A single-query operator recording all its metrics into
  /// Options::metrics. `plan_source`, when set, is an operator over the
  /// same query and options (possibly driven by another thread) whose
  /// initial plan this one shares: the workers of a ParallelTPStream run
  /// the plan DP once in total.
  TPStreamOperator(QuerySpec spec, Options options, OutputCallback output,
                   const TPStreamOperator* plan_source = nullptr);
  // The programs point at the specs and the partitions at each other.
  TPStreamOperator(const TPStreamOperator&) = delete;
  TPStreamOperator& operator=(const TPStreamOperator&) = delete;

  /// Processes one input event; timestamps must be strictly increasing
  /// (per partition). The operator never retains the event (the deriver
  /// folds the payload into its aggregate state), so rvalues bind here
  /// too.
  void Push(const Event& event);

  /// Batched ingestion, equivalent to one Push() per event
  /// (differential-tested): routes the whole batch, then evaluates the
  /// DEFINE predicates once over the (mixed-key) span — columnarly with
  /// compiled predicates, see Deriver::PrepareBatch — and feeds each
  /// event to its partition in order. A std::span<Event> converts
  /// implicitly; the caller keeps the batch storage.
  void PushBatch(std::span<const Event> events);

  /// Synchronization point (lifecycle contract): brings all observable
  /// state — counters (a multi-query operator advances its engines' event
  /// counts lazily), published statistics gauges — up to date with every
  /// event pushed so far. The operator is single-threaded and never
  /// defers matching work, so Flush() emits nothing; it exists so all
  /// engine surfaces share one lifecycle. Idempotent: Flush(); Flush(); is
  /// equivalent to one Flush(). Flush on an empty stream is a no-op, and
  /// Push() may legally continue the stream after a Flush().
  void Flush();

  /// Returns the operator to its freshly-constructed state: the open
  /// situations and the matcher/optimizer state (including the
  /// exactly-once fingerprint table) are rewound — a PARTITION BY query
  /// discards every partition — and replaying the same stream re-emits
  /// the same matches. The query programs, configuration and
  /// observability counters survive (Durability contract,
  /// docs/architecture.md).
  void Reset();

  /// Serializes all live operator state, stamped with the event-log
  /// offset (= num_events()). Unpartitioned: the envelope and one
  /// kOperator section (the deriver's open situation slots, then each
  /// query's match engine: buffers, trigger pool, fingerprints,
  /// statistics, adaptive controller). PARTITION BY: one kPartitioned
  /// section holding every partition in that layout, sorted by key, so
  /// identical state always produces identical bytes. A checkpoint is
  /// only taken between Push() calls (quiescent point); like Flush(), it
  /// first brings the engines' event counts up to date.
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on an operator with the same queries and
  /// options. Partition keys must be strictly ascending, as the writer
  /// emits them; a repeated or out-of-order key is a ParseError. On
  /// success, `*offset` (when non-null) receives the event-log offset the
  /// checkpoint was taken at; resume by replaying the input stream from
  /// that offset. On error the operator must be Reset() or discarded
  /// before further use.
  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr);

  /// Incremental checkpoints (Durability contract), PARTITION BY only:
  /// between full snapshots, only the partitions touched since the last
  /// successful checkpoint are serialized (a kPartitionedDelta section;
  /// dirty tracking piggybacks on the routing path). Deltas only make
  /// sense relative to a base snapshot, so a delta is valid iff
  /// CanCheckpointIncremental() — always false for an unpartitioned
  /// query, and false on a fresh or Reset() operator until the next full
  /// checkpoint/restore re-establishes a baseline. The caller
  /// (log::RecoveryManager) owns the chain bookkeeping: after the bytes
  /// are durably persisted it calls MarkCheckpointBaseline() to clear the
  /// dirty set; on persist failure it simply does not, so the next delta
  /// re-covers the same partitions and nothing is lost.
  bool CanCheckpointIncremental() const { return incremental_valid_; }
  void CheckpointIncremental(ckpt::Writer& w) const;
  /// Applies a delta on top of the current state (a restored base full
  /// snapshot plus any earlier deltas of the same chain): partitions in
  /// the delta are replaced or created, all others keep their state. Key
  /// order is validated as in Restore(). InvalidArgument when
  /// unpartitioned.
  Status RestoreIncremental(ckpt::Reader& r, uint64_t* offset = nullptr);
  /// Declares the current state the persisted baseline: clears the
  /// dirty set and, for a PARTITION BY query, enables incremental
  /// checkpoints.
  void MarkCheckpointBaseline();

  /// Optional: observes raw matches (full temporal configurations, of
  /// every query and partition) in addition to the projected output
  /// events.
  void SetMatchObserver(MatchCallback observer);

  /// Installs an evaluation order immediately (migration is free, Section
  /// 5.4.1). Used by the oracle variant of the adaptivity experiment;
  /// adaptive re-optimization, if enabled, may override it later.
  /// Unpartitioned queries only (debug-asserted), like CurrentOrder(),
  /// stats(), num_compiled_programs() and program_cache_hits(); the
  /// first three act on the first query.
  void ForceEvaluationOrder(const std::vector<int>& order) {
    Single().engine.ForceEvaluationOrder(order);
  }
  std::vector<int> CurrentOrder() const {
    return Single().engine.CurrentOrder();
  }
  const MatcherStats& stats() const { return Single().engine.stats(); }
  /// Distinct bytecode programs backing the DEFINE predicates (0 unless
  /// Options::compiled_predicates; fingerprint-equal predicates share),
  /// and definitions that reused another definition's program.
  int num_compiled_programs() const {
    return Single().deriver.num_compiled_programs();
  }
  int64_t program_cache_hits() const {
    return Single().deriver.program_cache_hits();
  }

  int num_queries() const { return static_cast<int>(queries_.size()); }
  /// Definitions derived per event: those of all queries after
  /// fingerprint deduplication (a single query's as they are).
  int num_distinct_definitions() const {
    return static_cast<int>(definitions().size());
  }
  /// Definitions of all queries before deduplication.
  int total_definitions() const;
  /// Hits and misses of the plan memo shared by the queries' optimizers
  /// (both zero for a single-query operator, which has none).
  int64_t plan_cache_hits() const { return plan_cache_.hits(); }
  int64_t plan_cache_misses() const { return plan_cache_.misses(); }

  /// Keys seen since construction or Reset() (restored ones included);
  /// an unpartitioned query counts its one partition once it has seen an
  /// event.
  size_t num_partitions() const {
    if (single_ != nullptr) return single_->engine.num_events() > 0 ? 1 : 0;
    return int_partitions_.size() + string_partitions_.size();
  }

  // Counts summed over partitions (and, for matches, over queries).
  int64_t num_events() const {
    return single_ != nullptr ? single_->engine.num_events() : num_events_;
  }
  int64_t num_matches() const {
    return single_ != nullptr ? Sum(&MatchEngine::num_matches) : num_matches_;
  }
  /// The matches of query `query` (an index into Create's list).
  int64_t num_matches(int query) const;
  int64_t plan_migrations() const { return Sum(&MatchEngine::plan_migrations); }
  /// Buffered situations across all matcher buffers (memory accounting).
  size_t BufferedCount() const { return Sum(&MatchEngine::BufferedCount); }

  /// Overload-shedding accounting (Degradation contract); all zero when
  /// Options::overload leaves the caps unbounded.
  int64_t shed_situations() const { return Sum(&MatchEngine::shed_situations); }
  int64_t lost_match_upper_bound() const {
    return Sum(&MatchEngine::lost_match_upper_bound);
  }
  int64_t shed_trigger_candidates() const {
    return Sum(&MatchEngine::shed_trigger_candidates);
  }

 private:
  /// A query and what the operator builds for it once.
  struct QueryState {
    QuerySpec spec;
    OutputCallback output;
    obs::MetricsRegistry* metrics = nullptr;
    // Query symbol -> index of its definition in definitions().
    std::vector<int> slots;
    std::shared_ptr<MatchEngine::Program::InitialPlan> initial_plan;
    // Built with the operator when unpartitioned, with the first
    // partition otherwise (null before).
    std::shared_ptr<MatchEngine::Program> program;
    // Fan-out scratch: this query's share of one deriver step.
    Deriver::Update scratch;
  };

  /// One key's stream state: a deriver and one engine per query. The
  /// engines read ongoing aggregates from the deriver next to them, so a
  /// partition never moves (map nodes are stable).
  struct Partition {
    Partition(std::shared_ptr<Deriver::Program> derive,
              const std::vector<QueryState>& queries);
    Partition(const Partition&) = delete;
    Partition& operator=(const Partition&) = delete;

    MatchEngine& engine_of(size_t query) const {
      return query == 0 ? engine : *more[query - 1];
    }
    /// Calls `f(engine)` for every query's engine, in query order.
    template <typename F>
    void ForEachEngine(F f) const {
      f(engine);
      for (const auto& e : more) f(*e);
    }
    /// Rewinds the deriver and every engine to a fresh stream.
    void Reset();

    Deriver deriver;
    // The first query's engine lives inline, so that a single-query
    // partition is one allocation, and counts every event routed here;
    // the others follow in query order and catch up lazily (Sync).
    // Mutable, like them: Checkpoint() const syncs them first.
    mutable MatchEngine engine;
    bool dirty = false;  // touched since the last checkpoint baseline
    std::vector<std::unique_ptr<MatchEngine>> more;
  };

  // Heterogeneous lookup: a string key is found by its std::string_view.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using IntMap = std::unordered_map<int64_t, Partition>;
  using StringMap =
      std::unordered_map<std::string, Partition, StringHash, std::equal_to<>>;
  using IntEntry = IntMap::value_type;
  using StringEntry = StringMap::value_type;

  TPStreamOperator(std::vector<Query> queries, Options options,
                   const TPStreamOperator* plan_source);

  /// Several queries: deduplicates their definitions by fingerprint into
  /// shared_definitions_, fills each query's slot map and the subscriber
  /// lists, and sizes the fan-out scratch.
  void ShareDefinitions();
  /// The definitions the deriver program runs: a single query's own, or
  /// the deduplicated ones of several.
  const std::vector<SituationDefinition>& definitions() const {
    return direct_ ? queries_[0].spec.definitions : shared_definitions_;
  }
  void BuildPrograms();
  /// The entry of `key`, its partition created on first use.
  template <typename Map, typename Key>
  typename Map::value_type& Find(Map& map, const Key& key);
  /// Find(), marking the partition dirty for the next delta.
  template <typename Map, typename Key>
  Partition& Touch(Map& map, std::vector<typename Map::value_type*>& dirty,
                   const Key& key);
  /// The PARTITION BY key's partition of `event`.
  Partition& Route(const Event& event);
  /// Derives and matches one routed event on its partition's state.
  void Step(Partition& partition, const Event& event);
  /// Feeds one non-empty deriver step to the engines of the queries whose
  /// definitions it touched, each through its slot map.
  void FanOut(Partition& partition, Deriver::Update& update, TimePoint t);
  /// Advances `engine` (of `partition`) to the event count of the
  /// partition's first engine.
  static void Sync(const Partition& partition, MatchEngine& engine);
  /// The checkpoint layout of one partition: the envelope (offset = its
  /// event count), then a kOperator section holding the deriver's state
  /// and each query's engine state, synced first. An unpartitioned
  /// operator writes exactly this; a PARTITION BY one writes it per key.
  static void WriteState(ckpt::Writer& w, const Partition& partition);
  static Status ReadState(ckpt::Reader& r, Partition& partition,
                          uint64_t* offset);
  /// The partition of an unpartitioned query.
  Partition& Single() const {
    assert(single_ != nullptr);
    return *single_;
  }
  /// Calls `f(partition)` for every partition.
  template <typename F>
  void ForEachPartition(F f) {
    if (single_ != nullptr) f(*single_);
    for (auto& [k, p] : int_partitions_) f(p);
    for (auto& [k, p] : string_partitions_) f(p);
  }
  template <typename F>
  void ForEachPartition(F f) const {
    if (single_ != nullptr) f(std::as_const(*single_));
    for (const auto& [k, p] : int_partitions_) f(p);
    for (const auto& [k, p] : string_partitions_) f(p);
  }
  /// `(engine.*count)()` summed over the partitions and queries.
  template <typename T>
  T Sum(T (MatchEngine::*count)() const) const {
    T total = 0;
    ForEachPartition([&](const Partition& p) {
      p.ForEachEngine([&](const MatchEngine& e) { total += (e.*count)(); });
    });
    return total;
  }

  void Write(ckpt::Writer& w, ckpt::Tag tag,
             std::vector<const IntEntry*> ints,
             std::vector<const StringEntry*> strings) const;
  Status Read(ckpt::Reader& r, ckpt::Tag tag, uint64_t* offset);

  Options options_;
  std::vector<QueryState> queries_;
  int partition_field_;
  // Several queries' definitions, deduplicated by fingerprint, and for
  // each the queries subscribing to it (ascending).
  std::vector<SituationDefinition> shared_definitions_;
  std::vector<std::vector<int>> subscribers_;
  // A single query: its slot map is the identity, steps skip the fan-out.
  bool direct_ = false;
  // Shared by the queries' optimizers when there are several.
  SharedPlanCache plan_cache_;
  std::shared_ptr<Deriver::Program> derive_program_;

  // The one partition of an unpartitioned query (null with PARTITION BY).
  std::unique_ptr<Partition> single_;

  // PARTITION BY state. The counts are the sums over the partitions,
  // kept current for the per-batch readers (ParallelTPStream).
  int64_t num_matches_ = 0;
  int64_t num_events_ = 0;
  IntMap int_partitions_;
  StringMap string_partitions_;
  // PushBatch scratch: the partition of each batch event.
  std::vector<Partition*> routes_;
  // Partitions touched since the last MarkCheckpointBaseline() (those
  // with the dirty bit set); the payload of the next incremental
  // checkpoint.
  std::vector<IntEntry*> dirty_int_;
  std::vector<StringEntry*> dirty_string_;
  bool incremental_valid_ = false;

  // Fan-out scratch, indexed by definition and by query.
  std::vector<const Situation*> started_by_def_;
  std::vector<const Situation*> finished_by_def_;
  std::vector<int> fired_defs_;
  std::vector<int> touched_;        // queries of this step
  std::vector<char> touched_flag_;  // per query

  // `partitioned.*` handles (null when options.metrics is null or the
  // query is unpartitioned), and the `multi.*` plan memo gauges (null
  // unless metrics are on and there are several queries). The programs
  // record into the same registry, so the per-component counters
  // aggregate across partitions.
  obs::Counter* events_ctr_ = nullptr;
  obs::Gauge* partitions_gauge_ = nullptr;
  obs::Gauge* plan_hits_gauge_ = nullptr;
  obs::Gauge* plan_misses_gauge_ = nullptr;
};

}  // namespace tpstream

#endif  // TPSTREAM_CORE_OPERATOR_H_
