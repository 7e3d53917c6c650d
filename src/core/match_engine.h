#ifndef TPSTREAM_CORE_MATCH_ENGINE_H_
#define TPSTREAM_CORE_MATCH_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "ckpt/serde.h"
#include "common/status.h"
#include "core/query_spec.h"
#include "derive/deriver.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/matcher.h"
#include "matcher/matcher_program.h"
#include "obs/metrics.h"
#include "optimizer/plan_optimizer.h"
#include "optimizer/shared_plan_cache.h"
#include "robust/overload_policy.h"

namespace tpstream {

/// The post-derivation half of one TPStream query: matchers, adaptive
/// controller, RETURN projection and the per-query observability handles.
///
/// Separate from the Deriver so that a multi-query TPStreamOperator can
/// run one shared Deriver and fan its situation updates out to one engine
/// per query, while every engine executes exactly the code a
/// single-query operator would — the differential tests pin the two
/// deployments to byte-identical matches and metrics.
///
/// The engine does not own the deriver: `deriver` and `spec` must outlive
/// it. `deriver_slots[s]` maps the query-local symbol `s` to the index of
/// its definition inside the (possibly shared, deduplicated) deriver;
/// a standalone operator passes the identity mapping. The mapping is only
/// used to snapshot the freshest aggregates of still-ongoing situations
/// at match time.
///
/// Everything that depends on the query but not on the stream — the
/// matcher program, the planner and the initial plan, the output
/// callback, the metric handles — is the engine's Program. The engines
/// of every PARTITION BY key share one, so a new key costs only its
/// stream state: matcher buffers and statistics, the adaptive state and
/// the counts.
class MatchEngine {
 public:
  struct Options {
    bool low_latency = true;
    bool adaptive = true;
    double stats_alpha = 0.01;
    double reopt_threshold = 0.2;
    int reopt_interval = 64;
    std::optional<std::vector<int>> fixed_order;
    /// Per-query observability namespace; null disables instrumentation.
    obs::MetricsRegistry* metrics = nullptr;
    robust::OverloadPolicy overload;
    /// Optional cross-query plan memo (see SharedPlanCache); plans are
    /// unchanged by sharing, only the subset-DP is skipped on a hit.
    SharedPlanCache* plan_cache = nullptr;
  };

  using OutputCallback = std::function<void(const Event&)>;

  class Program;

  /// An engine with a private program (the operator builds shared ones;
  /// the per-layer timing pass of e2ebench uses this).
  MatchEngine(const QuerySpec* spec, const Deriver* deriver,
              std::vector<int> deriver_slots, Options options,
              OutputCallback output);

  /// A fresh engine over a shared program, reading ongoing aggregates
  /// from `deriver` (this engine's key's deriver; must outlive it).
  MatchEngine(std::shared_ptr<Program> program, const Deriver* deriver);

  // The matcher's callback holds the engine's address.
  MatchEngine(const MatchEngine&) = delete;
  MatchEngine& operator=(const MatchEngine&) = delete;

  /// Advances the input-event count by `n` without matching work. A
  /// single-query operator calls NoteEvents(1) per event; a multi-query
  /// one advances lazily (just before a Consume, a Flush or a
  /// checkpoint), so per-query counts are exact at every point an engine
  /// acts and at quiescence.
  void NoteEvents(int64_t n);

  /// Processes one deriver step for this query: feeds the matchers (the
  /// update vectors are consumed by move), runs the adaptive controller
  /// and publishes statistics at its cadence. No-op on an empty update.
  void Consume(Deriver::Update& update, TimePoint t);

  /// Synchronization point: brings the published statistics gauges up to
  /// date. Idempotent; the stream may continue with further Consume()
  /// calls afterwards.
  void Flush();

  void ForceEvaluationOrder(const std::vector<int>& order);

  /// Returns the engine to its freshly-constructed state: event/match
  /// counts, matcher state (buffers, trigger pool, exactly-once
  /// fingerprints), statistics and the adaptive controller are all rewound
  /// and the initial cost-based plan is re-installed. Observability
  /// counters keep accumulating (process lifetime). The engine does not
  /// own the deriver — callers resetting an operator reset both halves.
  void Reset();

  /// Serializes all stream-derived engine state: logical event/match
  /// counts, the active matcher and the adaptive controller. Part of an
  /// enclosing checkpoint; the event-log offset lives in the surface
  /// envelope (TPStreamOperator).
  void Checkpoint(ckpt::Writer& w) const;

  /// Restores a checkpoint taken on an engine with the same configuration
  /// (same pattern, matcher mode and adaptivity). On error the engine
  /// must be Reset() or discarded before further use.
  Status Restore(ckpt::Reader& r);

  int64_t num_events() const { return num_events_; }
  int64_t num_matches() const { return num_matches_; }
  std::vector<int> CurrentOrder() const;
  const MatcherStats& stats() const;
  int64_t plan_migrations() const {
    return controller_ ? controller_->migrations() : 0;
  }
  size_t BufferedCount() const;
  int64_t shed_situations() const;
  int64_t lost_match_upper_bound() const;
  int64_t shed_trigger_candidates() const;

 private:
  void OnMatch(const Match& match);

  /// Installs the query's initial plan (and, when adaptive, a controller
  /// continuing from it); shared by the constructor and Reset().
  void InstallInitialPlan();

  std::shared_ptr<Program> program_;
  int64_t num_events_ = 0;
  int64_t num_matches_ = 0;
  const Deriver* deriver_;

  std::unique_ptr<Matcher> matcher_;               // baseline mode
  std::unique_ptr<LowLatencyMatcher> ll_matcher_;  // low-latency mode
  std::optional<AdaptiveController> controller_;
};

/// The per-query half of a MatchEngine. It runs the query's detection
/// analysis once, and its initial cost-based plan — the subset DP over
/// the Table 3 estimates, which every fresh stream shares — once, when
/// the first engine is created; engines copy the resulting order and
/// adaptive state. Single-threaded, like the engines, except for the
/// initial plan, which programs of one deployment may share across
/// threads.
class MatchEngine::Program {
 public:
  /// The query's initial plan, computed by whichever program sharing it
  /// first creates an engine, then read by all of them — possibly on
  /// other threads (the workers of a ParallelTPStream).
  struct InitialPlan {
    std::once_flag once;
    std::vector<int> order;
    // The adaptive state right after choosing `order`; its planner is the
    // computing program's and is never used through this copy.
    std::optional<AdaptiveController> state;
  };

  /// Programs for the same query and options may share one
  /// `initial_plan`: whichever needs it first computes it, the others
  /// copy it, so the engines of one deployment run the DP once in total.
  /// Null gives the program a plan of its own.
  Program(const QuerySpec* spec, std::vector<int> deriver_slots,
          Options options, OutputCallback output,
          std::shared_ptr<InitialPlan> initial_plan = nullptr);
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Observes the raw matches of every engine sharing this program.
  void SetMatchObserver(MatchCallback observer) {
    match_observer_ = std::move(observer);
  }

 private:
  friend class MatchEngine;

  /// Fills initial_order_ / initial_controller_ from the shared initial
  /// plan, computing it there if no sharing program has yet.
  void LoadInitialPlan();

  // Fields every event or update reads come first, so that the engines
  // of many keys, each on a private program (a key per operator), touch
  // few cache lines per event.
  // Observability handles (null when metrics are disabled).
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* matches_ctr_ = nullptr;
  obs::LatencyHistogram* detection_latency_hist_ = nullptr;
  MatcherStatsPublisher stats_publisher_;
  Options options_;
  const QuerySpec* spec_;
  std::vector<int> deriver_slots_;
  OutputCallback output_;
  MatchCallback match_observer_;
  std::shared_ptr<MatcherProgram> matcher_;

  // The initial plan: its order, and (unless the order is fixed) the
  // planner and the adaptive state right after choosing it. Loaded from
  // the shared initial_plan_ when the first engine is created.
  std::shared_ptr<InitialPlan> initial_plan_;  // null with fixed_order
  std::vector<int> initial_order_;
  std::shared_ptr<const AdaptiveController::Planner> planner_;
  std::optional<AdaptiveController> initial_controller_;
};

}  // namespace tpstream

#endif  // TPSTREAM_CORE_MATCH_ENGINE_H_
