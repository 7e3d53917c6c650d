#ifndef TPSTREAM_CORE_OPERATOR_H_
#define TPSTREAM_CORE_OPERATOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
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
/// Composition: a Deriver feeding a MatchEngine (the matcher / adaptive
/// controller / projection half, shared with multi::QueryGroup).
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
    /// this registry; when null (default) instrumentation is disabled and
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

  TPStreamOperator(QuerySpec spec, Options options, OutputCallback output);

  /// Processes one input event; timestamps must be strictly increasing.
  /// The operator never retains the event (the deriver folds the payload
  /// into its aggregate state), so rvalues bind here too.
  void Push(const Event& event);

  /// Batched ingestion: processes the events in order, equivalent to one
  /// Push() per event (differential-tested). A std::span<Event> converts
  /// implicitly; the caller keeps the batch storage.
  void PushBatch(std::span<const Event> events);

  /// Synchronization point (lifecycle contract): brings all observable
  /// state — counters, published statistics gauges — up to date with
  /// every event pushed so far. The operator is single-threaded and never
  /// defers matching work, so Flush() emits nothing; it exists so all
  /// operator surfaces (sequential, partitioned, parallel, grouped)
  /// share one lifecycle. Idempotent: Flush(); Flush(); is equivalent to
  /// one Flush(). Flush on an empty stream is a no-op, and Push() may
  /// legally continue the stream after a Flush().
  void Flush();

  /// Returns the operator to its freshly-constructed state: the deriver's
  /// open situations and the engine's matcher/optimizer state (including
  /// the exactly-once fingerprint table) are rewound; replaying the same
  /// stream re-emits the same matches. Configuration and observability
  /// counters survive (Durability contract, docs/architecture.md).
  void Reset();

  /// Serializes all live operator state, stamped with the event-log
  /// offset (= num_events()): the envelope, the deriver's open situation
  /// slots and the match engine (buffers, trigger pool, fingerprints,
  /// statistics, adaptive controller). A checkpoint is only taken between
  /// Push() calls (quiescent point).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on an operator with the same query and
  /// options. On success, `*offset` (when non-null) receives the event-
  /// log offset the checkpoint was taken at; resume by replaying the
  /// input stream from that offset. On error the operator must be
  /// Reset() or discarded before further use.
  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr);

  /// Optional: observes raw matches (full temporal configurations) in
  /// addition to the projected output events.
  void SetMatchObserver(MatchCallback observer) {
    engine_->SetMatchObserver(std::move(observer));
  }

  /// Installs an evaluation order immediately (migration is free, Section
  /// 5.4.1). Used by the oracle variant of the adaptivity experiment;
  /// adaptive re-optimization, if enabled, may override it later.
  void ForceEvaluationOrder(const std::vector<int>& order) {
    engine_->ForceEvaluationOrder(order);
  }

  const QuerySpec& spec() const { return spec_; }
  int64_t num_events() const { return engine_->num_events(); }
  int64_t num_matches() const { return engine_->num_matches(); }
  std::vector<int> CurrentOrder() const { return engine_->CurrentOrder(); }
  const MatcherStats& stats() const { return engine_->stats(); }
  int64_t plan_migrations() const { return engine_->plan_migrations(); }

  /// Buffered situations across all matcher buffers (memory accounting).
  size_t BufferedCount() const { return engine_->BufferedCount(); }

  /// Distinct bytecode programs backing the DEFINE predicates (0 unless
  /// Options::compiled_predicates; fingerprint-equal predicates share).
  int num_compiled_programs() const {
    return deriver_.num_compiled_programs();
  }

  /// Overload-shedding accounting (Degradation contract); all zero when
  /// Options::overload leaves the caps unbounded.
  int64_t shed_situations() const { return engine_->shed_situations(); }
  int64_t lost_match_upper_bound() const {
    return engine_->lost_match_upper_bound();
  }
  int64_t shed_trigger_candidates() const {
    return engine_->shed_trigger_candidates();
  }

 private:
  QuerySpec spec_;
  Deriver deriver_;
  // unique_ptr: the engine holds pointers into spec_ and deriver_, so the
  // operator must stay non-movable-by-default while keeping them stable.
  std::unique_ptr<MatchEngine> engine_;
};

/// The two query programs a TPStreamOperator runs on, built from its
/// options; a PartitionedTPStream builds them once and shares them across
/// its partitions. `spec` must outlive the match program. `initial_plan`
/// shares a sibling program's initial plan (see MatchEngine::Program).
std::shared_ptr<Deriver::Program> MakeDeriveProgram(
    const QuerySpec& spec, const TPStreamOperator::Options& options);
std::shared_ptr<MatchEngine::Program> MakeMatchProgram(
    const QuerySpec* spec, const TPStreamOperator::Options& options,
    MatchEngine::OutputCallback output,
    std::shared_ptr<MatchEngine::Program::InitialPlan> initial_plan =
        nullptr);

/// The operator checkpoint layout, for one deriver/engine pair: the
/// envelope (offset = the engine's event count), then a kOperator
/// section holding the deriver's and the engine's state.
/// TPStreamOperator::Checkpoint writes exactly this, and so does
/// PartitionedTPStream for each of its partitions.
void CheckpointOperatorState(ckpt::Writer& w, const Deriver& deriver,
                             const MatchEngine& engine);
/// Restores what CheckpointOperatorState wrote; `*offset` (when
/// non-null) receives the envelope's offset.
Status RestoreOperatorState(ckpt::Reader& r, Deriver* deriver,
                            MatchEngine* engine, uint64_t* offset = nullptr);

}  // namespace tpstream

#endif  // TPSTREAM_CORE_OPERATOR_H_
