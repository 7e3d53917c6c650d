#ifndef TPSTREAM_OPTIMIZER_SHARED_PLAN_CACHE_H_
#define TPSTREAM_OPTIMIZER_SHARED_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/pattern.h"
#include "matcher/stats.h"

namespace tpstream {

/// Cross-query memo of PlanOptimizer::BestOrder results, shared by the
/// engines of one multi-query TPStreamOperator (every query, every
/// PARTITION BY key). Thousands of standing queries with the same pattern
/// shape see the same statistics trajectories, so the subset-DP —
/// exponential in the symbol count — would otherwise run once per query
/// for identical inputs.
///
/// The cache is a pure memo: keys capture *everything* BestOrder depends
/// on (pattern structure incl. constraint relation masks, the seed mode,
/// and the bit-exact EMA values of the statistics), so a hit returns the
/// same order the optimizer would have computed. Engines using the cache
/// therefore behave identically to engines that do not — sharing the
/// memo can never change a plan, only skip recomputing it.
///
/// The memo is bounded: drifting statistics make most keys unique, so it
/// holds at most kMaxEntries orders and starts over when full. Clearing
/// only costs future hits, never a different plan.
///
/// Not synchronized: the operator drives all its engines from one thread.
class SharedPlanCache {
 public:
  static constexpr size_t kMaxEntries = 4096;

  /// Returns the order cached under `key`, invoking `compute` on a miss.
  /// The reference is valid until the next call.
  const std::vector<int>& GetOrCompute(
      const std::string& key,
      const std::function<std::vector<int>()>& compute);

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<std::string, std::vector<int>> cache_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

/// Canonical encoding of the plan-relevant pattern structure: symbol
/// count and every constraint's (a, b, relation mask), plus the cost
/// model's seed mode. Symbol names are excluded — the optimizer never
/// reads them.
std::string PatternPlanKey(const TemporalPattern& pattern, bool low_latency);

/// Bit-exact encoding of the statistics BestOrder reads (buffer and
/// selectivity EMAs). Doubles encode as IEEE-754 bit patterns so two
/// stats objects key equally iff BestOrder is guaranteed to return the
/// same order for both.
std::string StatsPlanKey(const MatcherStats& stats);

}  // namespace tpstream

#endif  // TPSTREAM_OPTIMIZER_SHARED_PLAN_CACHE_H_
