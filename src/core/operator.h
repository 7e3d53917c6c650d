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
#include <vector>

#include "ckpt/serde.h"
#include "common/status.h"
#include "core/match_engine.h"
#include "core/query_spec.h"
#include "derive/deriver.h"
#include "obs/metrics.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The TPStream operator (Definition 13, Figure 2): consumes a point
/// event stream, derives situation streams, matches the temporal pattern,
/// and emits one output event per match (timestamp = detection time,
/// payload = the RETURN projections).
///
/// Composition: per partition, a Deriver feeding a MatchEngine (the
/// matcher / adaptive controller / projection half, shared with
/// multi::QueryGroup), both over query programs built once per operator,
/// so a partition holds only its stream state (see MatchEngine).
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
    /// by the plan-quality experiments).
    std::optional<std::vector<int>> fixed_order;
    /// Optional observability sink. When set, the operator and all its
    /// components (deriver, matcher, optimizer) record their metrics into
    /// this registry — the partitions of a PARTITION BY query aggregate
    /// into one set; when null (default) instrumentation is disabled and
    /// the hot path is untouched. The registry must outlive the operator.
    /// See docs/architecture.md ("Observability") for the metric names.
    obs::MetricsRegistry* metrics = nullptr;
    /// Overload protection (Degradation contract): hard caps on the
    /// per-symbol situation buffers and, in low-latency mode, on the
    /// trigger-pool size. Defaults to unbounded (today's behaviour).
    /// Evictions are oldest-first and accounted via shed_situations() /
    /// lost_match_upper_bound() and the `robust.*` metrics.
    robust::OverloadPolicy overload;
  };

  using OutputCallback = std::function<void(const Event&)>;

  /// `plan_source`, when set, is an operator over the same query and
  /// options (possibly driven by another thread) whose initial plan this
  /// one shares: the workers of a ParallelTPStream run the plan DP once in
  /// total.
  TPStreamOperator(QuerySpec spec, Options options, OutputCallback output,
                   const TPStreamOperator* plan_source = nullptr);
  // The programs point at spec_ and the partitions at each other.
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
  /// state — counters, published statistics gauges — up to date with
  /// every event pushed so far. The operator is single-threaded and never
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
  /// kOperator section (the deriver's open situation slots, then the
  /// match engine: buffers, trigger pool, fingerprints, statistics,
  /// adaptive controller). PARTITION BY: one kPartitioned section holding
  /// every partition in that layout, sorted by key, so identical state
  /// always produces identical bytes. A checkpoint is only taken between
  /// Push() calls (quiescent point).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on an operator with the same query and
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
  /// every partition) in addition to the projected output events.
  void SetMatchObserver(MatchCallback observer);

  /// Installs an evaluation order immediately (migration is free, Section
  /// 5.4.1). Used by the oracle variant of the adaptivity experiment;
  /// adaptive re-optimization, if enabled, may override it later.
  /// Unpartitioned queries only (debug-asserted), like CurrentOrder(),
  /// stats() and num_compiled_programs().
  void ForceEvaluationOrder(const std::vector<int>& order) {
    Single().engine.ForceEvaluationOrder(order);
  }
  std::vector<int> CurrentOrder() const {
    return Single().engine.CurrentOrder();
  }
  const MatcherStats& stats() const { return Single().engine.stats(); }
  /// Distinct bytecode programs backing the DEFINE predicates (0 unless
  /// Options::compiled_predicates; fingerprint-equal predicates share).
  int num_compiled_programs() const {
    return Single().deriver.num_compiled_programs();
  }

  /// Keys seen since construction or Reset() (restored ones included);
  /// an unpartitioned query counts its one partition once it has seen an
  /// event.
  size_t num_partitions() const {
    if (single_ != nullptr) return single_->engine.num_events() > 0 ? 1 : 0;
    return int_partitions_.size() + string_partitions_.size();
  }

  // Counts summed over partitions.
  int64_t num_events() const {
    return single_ != nullptr ? single_->engine.num_events() : num_events_;
  }
  int64_t num_matches() const {
    return single_ != nullptr ? single_->engine.num_matches() : num_matches_;
  }
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
  /// One key's stream state. The engine reads ongoing aggregates from the
  /// deriver next to it, so a partition never moves (map nodes are
  /// stable).
  struct Partition {
    Partition(std::shared_ptr<Deriver::Program> derive,
              std::shared_ptr<MatchEngine::Program> match)
        : deriver(std::move(derive)), engine(std::move(match), &deriver) {}
    Partition(const Partition&) = delete;
    Partition& operator=(const Partition&) = delete;

    Deriver deriver;
    MatchEngine engine;
    bool dirty = false;  // touched since the last checkpoint baseline
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
  /// The partition of an unpartitioned query.
  Partition& Single() const {
    assert(single_ != nullptr);
    return *single_;
  }
  /// `(engine.*count)()` summed over the partitions.
  template <typename T>
  T Sum(T (MatchEngine::*count)() const) const {
    if (single_ != nullptr) return (single_->engine.*count)();
    T total = 0;
    for (const auto& [k, p] : int_partitions_) total += (p.engine.*count)();
    for (const auto& [k, p] : string_partitions_) total += (p.engine.*count)();
    return total;
  }

  void Write(ckpt::Writer& w, ckpt::Tag tag,
             std::vector<const IntEntry*> ints,
             std::vector<const StringEntry*> strings) const;
  Status Read(ckpt::Reader& r, ckpt::Tag tag, uint64_t* offset);

  QuerySpec spec_;
  Options options_;
  OutputCallback output_;
  std::shared_ptr<MatchEngine::Program::InitialPlan> initial_plan_;
  // Built with the operator when unpartitioned, with the first partition
  // otherwise (null before).
  std::shared_ptr<Deriver::Program> derive_program_;
  std::shared_ptr<MatchEngine::Program> match_program_;

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

  // `partitioned.*` handles (null when options.metrics is null or the
  // query is unpartitioned). The programs record into the same registry,
  // so the per-component counters aggregate across partitions.
  obs::Counter* events_ctr_ = nullptr;
  obs::Gauge* partitions_gauge_ = nullptr;
};

}  // namespace tpstream

#endif  // TPSTREAM_CORE_OPERATOR_H_
