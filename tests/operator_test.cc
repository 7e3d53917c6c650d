#include "core/operator.h"

#include <random>

#include <gtest/gtest.h>

#include "query/builder.h"
#include "query/parser.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

Schema TwoBoolSchema() {
  return Schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});
}

QuerySpec OverlapSpec() {
  QueryBuilder qb(TwoBoolSchema());
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", FieldRef(1, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n_a", "A", AggKind::kCount);
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

TEST(TPStreamOperatorTest, EndToEndLowLatencyDetection) {
  std::vector<Event> outputs;
  TPStreamOperator::Options options;
  options.low_latency = true;
  TPStreamOperator op(OverlapSpec(), options,
                      [&](const Event& e) { outputs.push_back(e); });

  // a: [2,6), b: [4,9). "A overlaps B" concludes at A.te = 6, not at 9.
  for (TimePoint t = 1; t <= 10; ++t) {
    op.Push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 6);
  // count(A) over events 2..5 = 4.
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 4);
  EXPECT_EQ(op.num_matches(), 1);
}

TEST(TPStreamOperatorTest, BaselineModeDetectsAtLastEnd) {
  std::vector<Event> outputs;
  TPStreamOperator::Options options;
  options.low_latency = false;
  TPStreamOperator op(OverlapSpec(), options,
                      [&](const Event& e) { outputs.push_back(e); });
  for (TimePoint t = 1; t <= 10; ++t) {
    op.Push(Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 9);
}

TEST(TPStreamOperatorTest, OngoingAggregateSnapshotAtDetection) {
  Schema schema(
      {Field{"a", ValueType::kBool}, Field{"v", ValueType::kDouble}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", Gt(FieldRef(1, "v"), Literal(10.0)))
      .Relate("A", Relation::kBefore, "B")
      .Within(100)
      .Return("avg_v", "B", AggKind::kAvg, "v");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });
  // A on [1,3); B starts at 5 with v = 20 (detection instant!), later 40.
  op.Push(Event({Value(true), Value(0.0)}, 1));
  op.Push(Event({Value(true), Value(0.0)}, 2));
  op.Push(Event({Value(false), Value(0.0)}, 3));
  op.Push(Event({Value(false), Value(20.0)}, 5));  // B starts: match here
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 5);
  // The aggregate snapshot of the *ongoing* B covers only the first event.
  EXPECT_DOUBLE_EQ(outputs[0].payload[0].ToDouble(), 20.0);
}

TEST(TPStreamOperatorTest, AdaptiveAndFixedOrderAgree) {
  std::mt19937_64 rng(71);
  // Random three-symbol query over three boolean attributes.
  Schema schema({Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool},
                 Field{"c", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0))
      .Define("B", FieldRef(1))
      .Define("C", FieldRef(2))
      .Relate("A", {Relation::kBefore, Relation::kOverlaps}, "B")
      .Relate("B", {Relation::kBefore, Relation::kDuring}, "C")
      .Within(80)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  auto run = [&](TPStreamOperator::Options options) {
    std::mt19937_64 local(123);
    int64_t matches = 0;
    TPStreamOperator op(spec.value(), options, [&](const Event&) {});
    std::bernoulli_distribution flip(0.08);
    bool va = false, vb = false, vc = false;
    for (TimePoint t = 1; t <= 4000; ++t) {
      if (flip(local)) va = !va;
      if (flip(local)) vb = !vb;
      if (flip(local)) vc = !vc;
      op.Push(Event({Value(va), Value(vb), Value(vc)}, t));
    }
    matches = op.num_matches();
    return matches;
  };

  TPStreamOperator::Options adaptive;
  adaptive.adaptive = true;
  adaptive.reopt_interval = 8;
  TPStreamOperator::Options fixed;
  fixed.fixed_order = std::vector<int>{2, 1, 0};
  TPStreamOperator::Options fixed2;
  fixed2.fixed_order = std::vector<int>{0, 1, 2};

  const int64_t m1 = run(adaptive);
  const int64_t m2 = run(fixed);
  const int64_t m3 = run(fixed2);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m2, m3);
  EXPECT_GT(m1, 0);
}

TEST(PartitionedOperatorTest, IndependentPerKeyEvaluation) {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", Relation::kMeets, "B")
      .Within(50)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });

  // Key 1: flag true on [1,4). Key 2: flag true on [2,6).
  // Each key gets its own A meets B match; cross-key interleaving must
  // not create spurious matches.
  for (TimePoint t = 1; t <= 8; ++t) {
    op.Push(Event({Value(int64_t{1}), Value(t < 4)}, t));
    op.Push(Event({Value(int64_t{2}), Value(t >= 2 && t < 6)}, t));
  }
  EXPECT_EQ(op.num_partitions(), 2u);
  EXPECT_EQ(op.num_matches(), 2);
}

TEST(TPStreamOperatorTest, ParsedQueryRunsEndToEnd) {
  Schema schema(
      {Field{"temp", ValueType::kDouble}, Field{"hr", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM Vitals DEFINE F AS temp > 38.0 AT LEAST 2s, "
      "T AS hr > 100 "
      "PATTERN F overlaps T; F contains T; F finishes T "
      "WITHIN 60s "
      "RETURN max(T.hr) AS peak_hr, count(F) AS fever_events",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });
  // Fever [2,9); tachycardia [5,8) (during fever -> F contains T).
  for (TimePoint t = 1; t <= 10; ++t) {
    const double temp = (t >= 2 && t < 9) ? 38.5 : 36.5;
    const double hr = (t >= 5 && t < 8) ? 120.0 + t : 80.0;
    op.Push(Event({Value(temp), Value(hr)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  // Full prefix group {overlaps, finishes, contains}: detected when T
  // starts while F is ongoing.
  EXPECT_EQ(outputs[0].t, 5);
  EXPECT_DOUBLE_EQ(outputs[0].payload[0].ToDouble(), 125.0);  // snapshot
}

}  // namespace
}  // namespace tpstream
