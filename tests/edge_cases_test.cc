// Edge cases across modules: disconnected patterns (cross-product
// fallback), single-symbol queries, string partition keys, analytic
// detection-time corner cases, and operator bookkeeping.
#include <gtest/gtest.h>

#include "algebra/detection.h"
#include "core/operator.h"
#include "matcher/matcher.h"
#include "query/builder.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::BatchByEnd;
using testing::BruteForceMatches;
using testing::ConfigKey;
using testing::KeyOf;
using testing::Sit;

TEST(EdgeCaseTest, DisconnectedPatternFallsBackToCrossProduct) {
  // A before B, C unrelated: every in-window C joins every (A,B) pair.
  TemporalPattern p({"A", "B", "C"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  EXPECT_FALSE(p.IsConnected());

  std::vector<std::vector<Situation>> streams = {
      {Sit(1, 4), Sit(10, 12)},
      {Sit(6, 9), Sit(14, 18)},
      {Sit(2, 5), Sit(11, 13)},
  };
  std::map<ConfigKey, TimePoint> got;
  Matcher matcher(p, 100, [&](const Match& m) {
    got.emplace(KeyOf(m.config), m.detected_at);
  });
  for (const auto& [te, batch] : BatchByEnd(streams)) {
    matcher.Update(batch, te);
  }
  const auto expected = BruteForceMatches(p, 100, streams);
  EXPECT_EQ(got.size(), expected.size());
  // (A,B) pairs: (1,6),(1,14),(10,14); C free: 2 options each.
  EXPECT_EQ(expected.size(), 6u);
}

TEST(EdgeCaseTest, SingleSymbolQueryEmitsEverySituation) {
  Schema schema({Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("S", FieldRef(0, "flag"), AtLeast(2))
      .Within(100)
      .Return("n", "S", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });
  // Situations [2,5) (kept) and [7,8) (fails AT LEAST 2). Low-latency
  // semantics: the single-symbol match is concluded at the deferred
  // start (t=3, when the minimum duration is guaranteed), with the
  // aggregate snapshot of the events seen so far.
  for (TimePoint t = 1; t <= 10; ++t) {
    const bool flag = (t >= 2 && t < 5) || t == 7;
    op.Push(Event({Value(flag)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 3);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 2);

  // The baseline operator reports the same situation at its end, with
  // the complete aggregate.
  TPStreamOperator::Options baseline;
  baseline.low_latency = false;
  std::vector<Event> base_out;
  TPStreamOperator base_op(spec.value(), baseline, [&](const Event& e) {
    base_out.push_back(e);
  });
  for (TimePoint t = 1; t <= 10; ++t) {
    const bool flag = (t >= 2 && t < 5) || t == 7;
    base_op.Push(Event({Value(flag)}, t));
  }
  ASSERT_EQ(base_out.size(), 1u);
  EXPECT_EQ(base_out[0].t, 5);
  EXPECT_EQ(base_out[0].payload[0].AsInt(), 3);
}

TEST(EdgeCaseTest, PartitionByStringKeys) {
  Schema schema(
      {Field{"host", ValueType::kString}, Field{"up", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("UP", FieldRef(1, "up"))
      .Define("DOWN", Not(FieldRef(1, "up")))
      .Relate("UP", Relation::kMeets, "DOWN")
      .Within(100)
      .Return("host", "UP", AggKind::kFirst, "host")
      .PartitionBy("host");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  std::vector<std::string> hosts;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    hosts.push_back(e.payload[0].AsString());
  });
  for (TimePoint t = 1; t <= 10; ++t) {
    op.Push(Event({Value(std::string("alpha")), Value(t < 5)}, t));
    op.Push(Event({Value(std::string("beta")), Value(t < 8)}, t));
  }
  EXPECT_EQ(op.num_partitions(), 2u);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0], "alpha");
  EXPECT_EQ(hosts[1], "beta");
}

TEST(EdgeCaseTest, EarliestDetectionCornerCases) {
  // Non-matching configuration: never detectable.
  TemporalPattern before({"A", "B"});
  ASSERT_TRUE(before.AddRelation(0, Relation::kBefore, 1).ok());
  EXPECT_EQ(EarliestDetection(before, {Sit(5, 9), Sit(1, 3)}), kTimeMax);

  // before: certain the moment B starts.
  EXPECT_EQ(EarliestDetection(before, {Sit(1, 3), Sit(5, 9)}), 5);

  // equals: only certain when both have ended.
  TemporalPattern equals({"A", "B"});
  ASSERT_TRUE(equals.AddRelation(0, Relation::kEquals, 1).ok());
  EXPECT_EQ(EarliestDetection(equals, {Sit(2, 8), Sit(2, 8)}), 8);

  // Complete prefix group: certain at the later start.
  TemporalPattern group({"A", "B"});
  ASSERT_TRUE(group.AddRelation(0, Relation::kOverlaps, 1).ok());
  ASSERT_TRUE(group.AddRelation(0, Relation::kFinishes, 1).ok());
  ASSERT_TRUE(group.AddRelation(0, Relation::kContains, 1).ok());
  EXPECT_EQ(EarliestDetection(group, {Sit(2, 20), Sit(6, 9)}), 6);
}

TEST(EdgeCaseTest, MeetsAdjacencyAcrossStreams) {
  // A ends exactly where B starts (derived from complementary
  // predicates): meets must fire, before must not.
  std::vector<std::vector<Situation>> streams = {{Sit(1, 5)}, {Sit(5, 9)}};
  for (const auto& [relation, expected] :
       std::vector<std::pair<Relation, size_t>>{
           {Relation::kMeets, 1}, {Relation::kBefore, 0}}) {
    TemporalPattern p({"A", "B"});
    ASSERT_TRUE(p.AddRelation(0, relation, 1).ok());
    size_t count = 0;
    Matcher matcher(p, 100, [&](const Match&) { ++count; });
    for (const auto& [te, batch] : BatchByEnd(streams)) {
      matcher.Update(batch, te);
    }
    EXPECT_EQ(count, expected) << RelationName(relation);
  }
}

TEST(EdgeCaseTest, ZeroLengthWindowsAndTinySituations) {
  // Minimum-length situations (one tick) through the whole stack.
  TemporalPattern p({"A", "B"});
  ASSERT_TRUE(p.AddRelation(0, Relation::kBefore, 1).ok());
  std::map<ConfigKey, TimePoint> got;
  Matcher matcher(p, 3, [&](const Match& m) {
    got.emplace(KeyOf(m.config), m.detected_at);
  });
  matcher.Update({{0, Sit(1, 2)}}, 2);
  matcher.Update({{1, Sit(3, 4)}}, 4);  // span 3 == window: kept
  matcher.Update({{1, Sit(5, 6)}}, 6);  // span 5 > window for A@1
  EXPECT_EQ(got.size(), 1u);
}

TEST(EdgeCaseTest, OperatorBookkeeping) {
  Schema schema({Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0))
      .Define("B", Not(FieldRef(0)))
      .Relate("A", Relation::kMeets, "B")
      .Within(50)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  TPStreamOperator op(spec.value(), {}, nullptr);
  for (TimePoint t = 1; t <= 30; ++t) {
    op.Push(Event({Value(t % 10 < 5)}, t));
  }
  EXPECT_EQ(op.num_events(), 30);
  EXPECT_GT(op.num_matches(), 0);
  EXPECT_GT(op.BufferedCount(), 0u);
  EXPECT_EQ(op.CurrentOrder().size(), 2u);

  // Forcing an order mid-stream stays consistent.
  op.ForceEvaluationOrder({1, 0});
  EXPECT_EQ(op.CurrentOrder(), (std::vector<int>{1, 0}));
}

TEST(EdgeCaseTest, ValidationRejectsBrokenSpecs) {
  Schema schema({Field{"flag", ValueType::kBool}});
  {
    QueryBuilder qb(schema);  // no definitions
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(0));  // window missing
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(0)).Within(10).Relate("A", Relation::kBefore,
                                                  "Z");
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(0)).Within(10).PartitionBy("nope");
    EXPECT_FALSE(qb.Build().ok());
  }
  {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(0), Between(9, 2)).Within(10);  // min > max
    EXPECT_FALSE(qb.Build().ok());
  }
}

}  // namespace
}  // namespace tpstream
