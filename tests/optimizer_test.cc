#include "optimizer/plan_optimizer.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "optimizer/shared_plan_cache.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::RandomPattern;

TEST(PlanOptimizerTest, EnumerateOrdersQ1Q2Q3HaveSixPlans) {
  // Q1-Q3 of Section 6.4.1 relate three streams pairwise (triangle), so
  // all 3! = 6 orders are valid (no cross products).
  TemporalPattern q1({"A", "B", "C"});
  ASSERT_TRUE(q1.AddRelation(0, Relation::kOverlaps, 1).ok());
  ASSERT_TRUE(q1.AddRelation(0, Relation::kOverlaps, 2).ok());
  ASSERT_TRUE(q1.AddRelation(1, Relation::kStarts, 2).ok());
  PlanOptimizer opt(&q1);
  EXPECT_EQ(opt.EnumerateOrders().size(), 6u);
}

TEST(PlanOptimizerTest, ChainPatternExcludesCrossProducts) {
  // A-B-C chain: orders starting with A must continue with B (C would be
  // a cross product). Valid: ABC, BAC, BCA, CBA, plus B-first variants...
  // exactly the orders where every prefix is connected.
  TemporalPattern chain({"A", "B", "C"});
  ASSERT_TRUE(chain.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(chain.AddRelation(1, Relation::kBefore, 2).ok());
  PlanOptimizer opt(&chain);
  const auto orders = opt.EnumerateOrders();
  EXPECT_EQ(orders.size(), 4u);  // ABC, BAC, BCA, CBA
  for (const auto& order : orders) {
    // Second element must be connected to the first.
    EXPECT_TRUE(chain.ConstraintIndex(order[0], order[1]) >= 0)
        << order[0] << order[1] << order[2];
  }
}

TEST(PlanOptimizerTest, DpMatchesExhaustiveSearch) {
  std::mt19937_64 rng(51);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng() % 3);  // 3..5
    const TemporalPattern pattern = RandomPattern(rng, n, 0.5);
    MatcherStats stats(pattern, 0.1);
    // Random buffer sizes to make the search non-trivial.
    for (int s = 0; s < n; ++s) {
      const double target = 1.0 + static_cast<double>(rng() % 1000);
      // Move the EMA decisively toward the target.
      for (int k = 0; k < 200; ++k) stats.UpdateBufferSize(s, target);
    }

    PlanOptimizer opt(&pattern);
    const std::vector<int> best_dp = opt.BestOrder(stats);
    double best_cost = std::numeric_limits<double>::infinity();
    for (const auto& order : opt.EnumerateOrders()) {
      best_cost = std::min(best_cost, opt.Cost(order, stats));
    }
    EXPECT_NEAR(opt.Cost(best_dp, stats), best_cost,
                1e-9 * std::max(1.0, best_cost))
        << pattern.ToString();
  }
}

TEST(PlanOptimizerTest, PrefersSmallSelectiveBuffersFirst) {
  // A before B, B before C; C's buffer is huge. The best plan joins the
  // small buffers first.
  TemporalPattern p({"A", "B", "C"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(p.AddRelation(1, Relation::kBefore, 2).ok());
  MatcherStats stats(p, 0.5);
  for (int k = 0; k < 64; ++k) {
    stats.UpdateBufferSize(0, 10.0);
    stats.UpdateBufferSize(1, 10.0);
    stats.UpdateBufferSize(2, 10000.0);
  }
  PlanOptimizer opt(&p);
  const std::vector<int> best = opt.BestOrder(stats);
  EXPECT_NE(best[0], 2);  // the huge buffer must not lead the join
}

TEST(PlanOptimizerTest, InitialCostUsesTableThreeSelectivities) {
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kEquals, 1).ok());
  MatcherStats stats(p, 0.01);
  EXPECT_DOUBLE_EQ(stats.selectivity_ema(0), 0.0006);

  TemporalPattern q({"A", "B"});
  ASSERT_TRUE(q.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(q.AddRelation(0, Relation::kAfter, 1).ok());
  MatcherStats qstats(q, 0.01);
  EXPECT_DOUBLE_EQ(qstats.selectivity_ema(0), 0.89);  // 0.445 + 0.445
}

TEST(AdaptiveControllerTest, FirstCallSuggestsInitialPlan) {
  TemporalPattern p({"A", "B", "C"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(p.AddRelation(1, Relation::kBefore, 2).ok());
  MatcherStats stats(p, 0.01);
  AdaptiveController controller(&p, {});
  const auto order = controller.MaybeReoptimize(stats);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 3u);
  EXPECT_EQ(controller.migrations(), 1);
}

TEST(AdaptiveControllerTest, ReoptimizesOnDriftOnly) {
  TemporalPattern p({"A", "B", "C"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(p.AddRelation(1, Relation::kBefore, 2).ok());
  MatcherStats stats(p, 0.5);
  AdaptiveController::Options options;
  options.threshold = 0.2;
  options.check_interval = 1;
  AdaptiveController controller(&p, options);
  ASSERT_TRUE(controller.MaybeReoptimize(stats).has_value());

  // Stable statistics: no re-optimization.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(controller.MaybeReoptimize(stats).has_value());
  }
  const int64_t before = controller.reoptimizations();

  // Massive drift in one buffer: re-optimization must trigger and the
  // new plan should avoid leading with the now-huge buffer.
  for (int k = 0; k < 32; ++k) stats.UpdateBufferSize(0, 50000.0);
  const auto order = controller.MaybeReoptimize(stats);
  EXPECT_GT(controller.reoptimizations(), before);
  if (order.has_value()) {
    EXPECT_NE((*order)[0], 0);
  }
}

// The plan memo is bounded: past kMaxEntries distinct keys it starts
// over instead of growing, and every answer is still what compute() says.
TEST(SharedPlanCacheTest, StaysBoundedAndPure) {
  SharedPlanCache cache;
  const size_t n = SharedPlanCache::kMaxEntries * 2 + 7;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<int> want = {static_cast<int>(i % 5),
                                   static_cast<int>(i)};
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(cache.GetOrCompute(key, [&] { return want; }), want);
    ASSERT_LE(cache.size(), SharedPlanCache::kMaxEntries);
    // A repeated key answers from the memo with the same order.
    EXPECT_EQ(cache.GetOrCompute(key, [] { return std::vector<int>{-1}; }),
              want);
  }
  EXPECT_EQ(cache.misses(), static_cast<int64_t>(n));
  EXPECT_EQ(cache.hits(), static_cast<int64_t>(n));
}

}  // namespace
}  // namespace tpstream
