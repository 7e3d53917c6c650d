#ifndef TPSTREAM_OPTIMIZER_PLAN_OPTIMIZER_H_
#define TPSTREAM_OPTIMIZER_PLAN_OPTIMIZER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/pattern.h"
#include "ckpt/serde.h"
#include "common/status.h"
#include "matcher/stats.h"
#include "obs/metrics.h"
#include "optimizer/shared_plan_cache.h"

namespace tpstream {

/// Cost-based selection of the matcher's evaluation order (Section 5.4).
///
/// Estimates follow Equations 2-4 of the paper: intermediate result sizes
/// grow with buffer sizes and constraint selectivities, and each step pays
/// a binary-search cost bounded by |P| * 13 * 4 * log2(|B_i|). Buffer
/// sizes and constraint selectivities come from MatcherStats (EMA-smoothed
/// at runtime; Table 3 estimates initially).
///
/// Orders joining a buffer without an applicable constraint (cross
/// products) are excluded, unless the pattern graph is disconnected and a
/// cross product is unavoidable.
/// Refinement over the paper's plan costing: Algorithm 2 always seeds the
/// working set with the newly arrived situation, so the effective cost of
/// an order depends on which symbol triggered the match attempt. Cost()
/// therefore averages Equation 2 over the seed's trigger variants (each
/// seed's step is intercepted and its constraints become applicable from
/// the start). With low-latency triggers, a start-trigger seed is still
/// *ongoing*: constraints that cannot be certain with that end unknown
/// filter their counterpart buffers to nothing, which the model captures
/// by scaling the constraint's selectivity with the (Table 3-weighted)
/// fraction of its relations decidable against an ongoing seed. With
/// empty buffers the paper's unseeded formula ties across many orders;
/// the seeded average separates them and reproduces the plan choices
/// reported in Section 6.4.1. PaperCost() retains the verbatim Equation 2
/// for reference.
class PlanOptimizer {
 public:
  /// `low_latency`: model the seed set of the low-latency matcher
  /// (trigger symbols, with ongoing start-trigger seeds) rather than the
  /// baseline matcher's (every symbol, finished).
  explicit PlanOptimizer(const TemporalPattern* pattern,
                         bool low_latency = true);

  /// Estimated cost of one evaluation order: Equation 2 averaged over the
  /// seed symbol (see class comment).
  double Cost(const std::vector<int>& permutation,
              const MatcherStats& stats) const;

  /// Equation 2 verbatim (no seeding), as printed in the paper.
  double PaperCost(const std::vector<int>& permutation,
                   const MatcherStats& stats) const;

  /// Cheapest order under Cost(), computed exactly with a Selinger-style
  /// subset DP (left-deep orders only, which is the full plan space
  /// here).
  std::vector<int> BestOrder(const MatcherStats& stats) const;

  /// All admissible orders (used by the plan-quality experiments and to
  /// cross-check the DP). Exponential; intended for small patterns.
  std::vector<std::vector<int>> EnumerateOrders() const;

 private:
  /// One seed variant of the cost average: which symbol triggered and
  /// whether it was still ongoing (start trigger) at that point.
  struct Seed {
    int symbol = 0;
    bool ongoing = false;
  };

  /// Effective selectivity of constraint `ci` when one endpoint is the
  /// (possibly ongoing) seed.
  double EffectiveSelectivity(int ci, const MatcherStats& stats,
                              const Seed& seed) const;

  /// Estimated size of the intermediate result after joining `subset`
  /// (bitmask of symbols, seed included); path-independent (Equation 3
  /// accumulated).
  double ResultSize(uint32_t subset, const MatcherStats& stats,
                    const Seed& seed) const;

  /// Cost of extending the bound set `subset` (which already includes the
  /// seed) with `symbol`'s buffer scan.
  double StepCost(int symbol, uint32_t subset, const MatcherStats& stats,
                  const Seed& seed) const;

  bool ConnectedToSubset(int symbol, uint32_t subset) const;

  const TemporalPattern* pattern_;
  std::vector<Seed> seeds_;
  /// ongoing_fraction_[ci]: Table 3-weighted share of constraint ci's
  /// relations that remain decidable when side A / side B is ongoing.
  std::vector<std::pair<double, double>> ongoing_fraction_;
};

/// Watches matcher statistics and re-optimizes the evaluation order when
/// they drift beyond a threshold (Section 5.4.1). Migration is free
/// because the matcher keeps no inter-update state.
class AdaptiveController {
 public:
  struct Options {
    /// Relative deviation of any tracked statistic that triggers
    /// re-optimization (the paper's threshold t).
    double threshold = 0.2;
    /// Updates between drift checks (statistics are EMAs; checking every
    /// update would be needlessly expensive).
    int check_interval = 64;
    /// Cost-model seed set: low-latency triggers vs baseline arrivals.
    bool low_latency = true;
    /// Optional observability sink: records `optimizer.reoptimizations`,
    /// `optimizer.plan_switches` and the `optimizer.buffer_drift` /
    /// `optimizer.selectivity_drift` gauges (max relative deviation of
    /// the live EMAs from the estimates the current plan was built on —
    /// i.e. estimated-vs-actual statistics).
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional cross-query plan memo (the queries of a multi-query
    /// TPStreamOperator). BestOrder is deterministic in (pattern, seed
    /// mode, stats), so a cache hit returns exactly the order the local
    /// optimizer would compute; the cache only skips the subset-DP, it
    /// never changes plans. Must outlive the controller; not
    /// synchronized (single-threaded use).
    SharedPlanCache* plan_cache = nullptr;
  };

  /// The per-query half of the controller: the cost model, the options
  /// and the metric handles. Immutable once built; the controllers of
  /// every PARTITION BY key of a query share one.
  class Planner {
   public:
    Planner(const TemporalPattern* pattern, Options options);

   private:
    friend class AdaptiveController;

    PlanOptimizer optimizer_;
    Options options_;
    std::string plan_key_prefix_;  // PatternPlanKey; set iff plan_cache

    // Observability handles (null when metrics are disabled).
    obs::Counter* reopt_ctr_ = nullptr;
    obs::Counter* switches_ctr_ = nullptr;
    obs::Gauge* buffer_drift_gauge_ = nullptr;
    obs::Gauge* selectivity_drift_gauge_ = nullptr;
  };

  /// A controller with a private planner.
  AdaptiveController(const TemporalPattern* pattern, Options options);
  /// A fresh controller over a shared planner.
  explicit AdaptiveController(std::shared_ptr<const Planner> planner);
  /// A controller over `planner` continuing from `state`'s adaptive
  /// state (counts, statistics snapshot, current order) — how a new key
  /// starts from its query's initial plan without re-running the DP.
  AdaptiveController(std::shared_ptr<const Planner> planner,
                     const AdaptiveController& state);

  /// Returns a new evaluation order if one should be installed now. The
  /// first call always suggests the initial plan.
  std::optional<std::vector<int>> MaybeReoptimize(const MatcherStats& stats);

  int64_t reoptimizations() const { return reoptimizations_; }
  int64_t migrations() const { return migrations_; }

  /// Serializes the adaptive state: call/reoptimization/migration counts,
  /// the statistics snapshot the current plan was costed on, and the
  /// current order. Restoring them keeps the drift-check cadence and
  /// re-optimization decisions of a replayed run identical to the
  /// uninterrupted one.
  void Checkpoint(ckpt::Writer& w) const;
  Status Restore(ckpt::Reader& r);

 private:
  bool Drifted(const MatcherStats& stats) const;

  std::shared_ptr<const Planner> planner_;
  // The planner's check_interval, kept here so the per-update cadence
  // check does not touch the (shared, often cold) planner.
  int check_interval_;
  int64_t calls_ = 0;
  int64_t reoptimizations_ = 0;
  int64_t migrations_ = 0;
  bool initialized_ = false;
  std::vector<double> snapshot_buffers_;
  std::vector<double> snapshot_selectivities_;
  std::vector<int> current_order_;
};

}  // namespace tpstream

#endif  // TPSTREAM_OPTIMIZER_PLAN_OPTIMIZER_H_
