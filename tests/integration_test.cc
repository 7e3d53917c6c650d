// End-to-end scenario tests: the aggressive-driver query of Listing 1 on
// the Linear-Road-style generator, and cross-operator agreement between
// TPStream (both modes), ISEQ and the two-phase straw man on identical
// inputs, and a market-surveillance query on the market generator.
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "baselines/iseq.h"
#include "baselines/strawman.h"
#include "core/operator.h"
#include "query/builder.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "workload/linear_road.h"
#include "workload/market.h"
#include "workload/synthetic.h"

namespace tpstream {
namespace {

TEST(IntegrationTest, AggressiveDriverScenarioByHand) {
  // A hand-crafted trip reproducing Figure 1's first match: sharp
  // acceleration overlapping a speeding phase, braking during speeding.
  Schema schema({
      Field{"car_id", ValueType::kInt},
      Field{"speed", ValueType::kDouble},
      Field{"accel", ValueType::kDouble},
  });
  auto spec = query::ParseQuery(
      "FROM Cars C PARTITION BY C.car_id "
      "DEFINE A AS C.accel > 8, "
      "       B AS C.speed > 70, "
      "       D AS C.accel < -9 "
      "PATTERN A meets B; A overlaps B; A starts B; A during B "
      "   AND D during B; B finishes D; B overlaps D; B meets D "
      "   AND A before D "
      "WITHIN 5 minutes "
      "RETURN first(B.car_id) AS id, avg(B.speed) AS avg_speed",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });

  // Timeline for car 7:
  //   accel > 8   on [10, 14)  (A)
  //   speed > 70  on [12, 40)  (B)  -> A overlaps B
  //   accel < -9  on [30, 36)  (D)  -> D during B, A before D
  for (TimePoint t = 1; t <= 45; ++t) {
    const double accel = (t >= 10 && t < 14) ? 9.5
                         : (t >= 30 && t < 36) ? -10.5
                                               : 0.0;
    const double speed = (t >= 12 && t < 40) ? 80.0 : 50.0;
    op.Push(Event({Value(int64_t{7}), Value(speed), Value(accel)}, t));
  }

  ASSERT_EQ(outputs.size(), 1u);
  // Figure 1: the match concludes at the beginning of the deceleration
  // phase (t = 30), long before speeding ends at t = 40.
  EXPECT_EQ(outputs[0].t, 30);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 7);
  EXPECT_DOUBLE_EQ(outputs[0].payload[1].ToDouble(), 80.0);
}

TEST(IntegrationTest, OperatorsAgreeOnSyntheticStreams) {
  // TPStream baseline, TPStream low-latency, ISEQ and the two-phase straw
  // man must report the same match count on the same input.
  SyntheticGenerator::Options gopts;
  gopts.num_streams = 3;
  gopts.seed = 1234;

  const Duration window = 600;
  auto make_defs = [] {
    return std::vector<SituationDefinition>{
        SituationDefinition("A", FieldRef(0, "s0")),
        SituationDefinition("B", FieldRef(1, "s1")),
        SituationDefinition("C", FieldRef(2, "s2")),
    };
  };
  TemporalPattern pattern({"A", "B", "C"});
  ASSERT_TRUE(pattern.AddRelation(0, Relation::kBefore, 1).ok());
  ASSERT_TRUE(pattern.AddRelation(1, Relation::kOverlaps, 2).ok());

  QuerySpec spec;
  spec.definitions = make_defs();
  spec.pattern = pattern;
  spec.window = window;
  SyntheticGenerator g0(gopts);
  // First event of the synthetic generator may start mid-situation; skip
  // until all attributes are false so every operator sees full situations.
  std::vector<Event> events;
  bool primed = false;
  for (int i = 0; i < 40000; ++i) {
    Event e = g0.Next();
    if (!primed) {
      primed = !e.payload[0].AsBool() && !e.payload[1].AsBool() &&
               !e.payload[2].AsBool();
      if (!primed) continue;
    }
    events.push_back(std::move(e));
  }

  TPStreamOperator::Options base_opts;
  base_opts.low_latency = false;
  TPStreamOperator baseline(spec, base_opts, [](const Event&) {});

  TPStreamOperator::Options ll_opts;
  ll_opts.low_latency = true;
  TPStreamOperator low_latency(spec, ll_opts, [](const Event&) {});

  IseqOperator iseq(make_defs(), pattern, window, nullptr);
  TwoPhaseMatcher two_phase(make_defs(), pattern, window, nullptr);

  for (const Event& e : events) {
    baseline.Push(e);
    low_latency.Push(e);
    iseq.Push(e);
    two_phase.Push(e);
  }

  EXPECT_GT(baseline.num_matches(), 0);
  EXPECT_EQ(baseline.num_matches(), iseq.num_matches());
  EXPECT_EQ(baseline.num_matches(), two_phase.num_matches());
  // Low latency may additionally conclude matches whose final situations
  // are cut off by the end of the stream; it never misses one.
  EXPECT_GE(low_latency.num_matches(), baseline.num_matches());
}

TEST(IntegrationTest, LinearRoadEndToEndFindsAggressiveDrivers) {
  LinearRoadGenerator::Options lr_opts;
  lr_opts.num_cars = 40;
  lr_opts.aggressive_fraction = 0.4;
  LinearRoadGenerator gen(lr_opts);

  // Calibrate thresholds from a sample, as in Section 6.2.1.
  const double speed_thr = LinearRoadGenerator::SampleFieldPercentile(
      lr_opts, LinearRoadGenerator::kSpeed, 99.0, 40000);
  const double accel_thr = LinearRoadGenerator::SampleFieldPercentile(
      lr_opts, LinearRoadGenerator::kAccel, 90.0, 40000);
  const double decel_thr = LinearRoadGenerator::SampleFieldPercentile(
      lr_opts, LinearRoadGenerator::kAccel, 10.0, 40000);

  char query[1024];
  std::snprintf(query, sizeof(query),
                "FROM Cars PARTITION BY car_id "
                "DEFINE A AS accel > %f, B AS speed > %f, C AS accel < %f "
                "PATTERN A meets B; A overlaps B; A starts B; A during B "
                "  AND C during B; B finishes C; B overlaps C; B meets C "
                "  AND A before C "
                "WITHIN 5 minutes "
                "RETURN first(B.car_id) AS id, avg(B.speed) AS avg_speed",
                accel_thr, speed_thr, decel_thr);
  auto spec = query::ParseQuery(query, gen.schema());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  int64_t matches = 0;
  std::set<int64_t> drivers;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    ++matches;
    drivers.insert(e.payload[0].AsInt());
  });
  for (int i = 0; i < 400000; ++i) op.Push(gen.Next());

  EXPECT_GT(matches, 0);
  EXPECT_GT(drivers.size(), 1u);
  EXPECT_EQ(op.num_partitions(), 40u);
}

TEST(IntegrationTest, MarketSurveillanceEndToEnd) {
  // Pump-and-dump style pattern on the market generator: a sustained
  // rally overlapping a volume burst, followed by a selloff.
  MarketDataGenerator::Options options;
  options.num_symbols = 5;
  MarketDataGenerator gen(options);
  const Schema& schema = gen.schema();

  QueryBuilder qb(schema);
  qb.Define("RAMP", Gt(FieldRef(schema, "ret").value(), Literal(0.03)),
            AtLeast(5))
      .Define("BURST",
              Gt(FieldRef(schema, "volume").value(), Literal(int64_t{160})),
              AtLeast(5))
      .Define("DUMP", Lt(FieldRef(schema, "ret").value(), Literal(-0.05)),
              AtLeast(3))
      .Relate("RAMP",
              {Relation::kOverlaps, Relation::kDuring, Relation::kStarts,
               Relation::kFinishes, Relation::kEquals, Relation::kContains},
              "BURST")
      .Relate("RAMP", {Relation::kBefore, Relation::kMeets}, "DUMP")
      .Within(600)
      .Return("symbol", "RAMP", AggKind::kFirst, "symbol")
      .PartitionBy("symbol");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  int64_t alerts = 0;
  std::set<int64_t> symbols;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    ++alerts;
    symbols.insert(e.payload[0].AsInt());
  });
  for (int i = 0; i < 200000; ++i) op.Push(gen.Next());
  op.Flush();

  EXPECT_GT(alerts, 0);
  EXPECT_EQ(op.num_partitions(), 5u);
  for (const int64_t symbol : symbols) {
    EXPECT_GE(symbol, 0);
    EXPECT_LT(symbol, 5);
  }
}

}  // namespace
}  // namespace tpstream
