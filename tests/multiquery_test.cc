#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "derive/fingerprint.h"
#include "expr/expression.h"
#include "query/builder.h"
#include "query/parser.h"

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

/// `n` copies of OverlapSpec in one operator, without outputs.
std::unique_ptr<TPStreamOperator> Copies(int n) {
  std::vector<TPStreamOperator::Query> queries(n);
  for (auto& query : queries) query.spec = OverlapSpec();
  auto op = TPStreamOperator::Create(std::move(queries), {});
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  return std::move(op).value();
}

// --- Expression fingerprints ---------------------------------------------

TEST(ExprFingerprintTest, StructurallyIdenticalTreesEncodeEqually) {
  const ExprPtr a = Gt(FieldRef(0, "speed"), Literal(70.0));
  const ExprPtr b = Gt(FieldRef(0, "velocity"), Literal(70.0));
  // Field names are diagnostics; position decides semantics.
  EXPECT_EQ(ExprFingerprint(*a), ExprFingerprint(*b));
}

TEST(ExprFingerprintTest, DistinguishesPositionLiteralsAndOperators) {
  const std::string base = ExprFingerprint(*Gt(FieldRef(0), Literal(70.0)));
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(1), Literal(70.0))));
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(0), Literal(71.0))));
  EXPECT_NE(base, ExprFingerprint(*Ge(FieldRef(0), Literal(70.0))));
  // Type-tagged literals: int 70 and double 70.0 evaluate differently
  // under division, so they must not alias.
  EXPECT_NE(base, ExprFingerprint(*Gt(FieldRef(0), Literal(int64_t{70}))));
}

TEST(ExprFingerprintTest, CommutedOperandsEncodeDifferently) {
  // Semantically equal but structurally different: only costs sharing.
  const ExprPtr ab = And(FieldRef(0), FieldRef(1));
  const ExprPtr ba = And(FieldRef(1), FieldRef(0));
  EXPECT_NE(ExprFingerprint(*ab), ExprFingerprint(*ba));
}

TEST(ExprFingerprintTest, StringLiteralsAreLengthPrefixed) {
  // Without length prefixes, "ab" and "a"+"b"-shaped encodings could
  // collide across tree shapes.
  const ExprPtr a = Eq(FieldRef(0), Literal(Value(std::string("x)y"))));
  const ExprPtr b = Eq(FieldRef(0), Literal(Value(std::string("x)z"))));
  EXPECT_NE(ExprFingerprint(*a), ExprFingerprint(*b));
}

// --- Definition fingerprints ---------------------------------------------

TEST(DefinitionFingerprintTest, SymbolAndAggregateNamesExcluded) {
  SituationDefinition a("A", Gt(FieldRef(0), Literal(1.0)),
                        {AggregateSpec{AggKind::kAvg, 0, "avg_x"}},
                        DurationConstraint{});
  SituationDefinition b("B", Gt(FieldRef(0), Literal(1.0)),
                        {AggregateSpec{AggKind::kAvg, 0, "other_name"}},
                        DurationConstraint{});
  EXPECT_EQ(DefinitionFingerprint(a), DefinitionFingerprint(b));
}

TEST(DefinitionFingerprintTest, DistinguishesSemantics) {
  const SituationDefinition base("A", Gt(FieldRef(0), Literal(1.0)),
                                 {AggregateSpec{AggKind::kAvg, 0, "v"}},
                                 DurationConstraint{});
  SituationDefinition other_kind = base;
  other_kind.aggregates[0].kind = AggKind::kMax;
  SituationDefinition other_field = base;
  other_field.aggregates[0].field = 1;
  SituationDefinition other_duration = base;
  other_duration.duration.min = 5;
  SituationDefinition extra_agg = base;
  extra_agg.aggregates.push_back(AggregateSpec{AggKind::kCount, -1, "n"});

  const std::string fp = DefinitionFingerprint(base);
  EXPECT_NE(fp, DefinitionFingerprint(other_kind));
  EXPECT_NE(fp, DefinitionFingerprint(other_field));
  EXPECT_NE(fp, DefinitionFingerprint(other_duration));
  EXPECT_NE(fp, DefinitionFingerprint(extra_agg));
}

// --- Multi-query operator ------------------------------------------------

TEST(QueryGroupTest, DeduplicatesIdenticalDefinitions) {
  auto op = Copies(5);
  EXPECT_EQ(op->num_queries(), 5);
  // Five copies of a two-definition query share two distinct definitions.
  EXPECT_EQ(op->num_distinct_definitions(), 2);
  EXPECT_EQ(op->total_definitions(), 10);
}

TEST(QueryGroupTest, MatchesEqualStandaloneOperator) {
  std::vector<Event> standalone;
  TPStreamOperator op(OverlapSpec(), {},
                      [&](const Event& e) { standalone.push_back(e); });

  std::vector<Event> grouped;
  std::vector<TPStreamOperator::Query> queries(1);
  queries[0] = {OverlapSpec(), [&](const Event& e) { grouped.push_back(e); }};
  auto group = TPStreamOperator::Create(std::move(queries), {});
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  for (TimePoint t = 1; t <= 10; ++t) {
    const Event e({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t);
    op.Push(e);
    group.value()->Push(e);
  }
  ASSERT_EQ(standalone.size(), 1u);
  ASSERT_EQ(grouped.size(), 1u);
  EXPECT_EQ(grouped[0].t, standalone[0].t);
  EXPECT_EQ(grouped[0].payload[0].AsInt(), standalone[0].payload[0].AsInt());
  EXPECT_EQ(group.value()->num_matches(0), op.num_matches());
  EXPECT_EQ(group.value()->num_events(), op.num_events());
}

TEST(QueryGroupTest, RejectsSchemaMismatch) {
  Schema other({Field{"a", ValueType::kBool}, Field{"b", ValueType::kInt}});
  QueryBuilder qb(other);
  qb.Define("A", FieldRef(0, "a"))
      .Define("B", Gt(FieldRef(1, "b"), Literal(int64_t{0})))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());
  std::vector<TPStreamOperator::Query> queries(2);
  queries[0].spec = OverlapSpec();
  queries[1].spec = spec.value();
  auto bad = TPStreamOperator::Create(std::move(queries), {});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryGroupTest, SharedPlanCacheHitsForIdenticalQueries) {
  auto group = Copies(8);
  // Every engine installs an initial plan at construction; queries 1..7
  // reuse query 0's subset-DP result.
  EXPECT_EQ(group->plan_cache_misses(), 1);
  EXPECT_EQ(group->plan_cache_hits(), 7);
}

TEST(QueryGroupTest, GroupMetricsAndSharedDeriverNamespace) {
  obs::MetricsRegistry group_metrics;
  obs::MetricsRegistry q0_metrics;
  obs::MetricsRegistry q1_metrics;

  TPStreamOperator::Options options;
  options.metrics = &group_metrics;
  std::vector<TPStreamOperator::Query> queries(2);
  queries[0] = {OverlapSpec(), nullptr, &q0_metrics};
  queries[1] = {OverlapSpec(), nullptr, &q1_metrics};
  auto group = TPStreamOperator::Create(std::move(queries), options);
  ASSERT_TRUE(group.ok()) << group.status().ToString();

  for (TimePoint t = 1; t <= 10; ++t) {
    group.value()->Push(
        Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  group.value()->Flush();

  const auto group_snap = group_metrics.Snapshot();
  // Shared derivation is recorded once, in the operator registry.
  EXPECT_EQ(group_snap.counters.at("deriver.events"), 10);
  EXPECT_EQ(group_snap.gauges.at("multi.queries"), 2.0);
  EXPECT_EQ(group_snap.gauges.at("multi.distinct_definitions"), 2.0);

  // Per-query namespaces carry the matcher/operator counters and no
  // deriver counters (those would double count under sharing).
  for (const auto* reg : {&q0_metrics, &q1_metrics}) {
    const auto snap = reg->Snapshot();
    EXPECT_EQ(snap.counters.at("operator.events"), 10);
    EXPECT_EQ(snap.counters.at("operator.matches"), 1);
    EXPECT_EQ(snap.counters.count("deriver.events"), 0u);
  }
}

TEST(MultiQueryOperatorTest, RejectsPartitionByMismatch) {
  Schema schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool},
                 Field{"key", ValueType::kInt},
                 Field{"zone", ValueType::kInt}});
  auto spec = [&](const char* partition_by) {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(0, "a"))
        .Define("B", FieldRef(1, "b"))
        .Relate("A", Relation::kOverlaps, "B")
        .Within(100)
        .Return("n", "A", AggKind::kCount);
    if (partition_by != nullptr) qb.PartitionBy(partition_by);
    auto built = qb.Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.value();
  };
  for (const char* other : {"zone", static_cast<const char*>(nullptr)}) {
    std::vector<TPStreamOperator::Query> queries(2);
    queries[0].spec = spec("key");
    queries[1].spec = spec(other);
    auto bad = TPStreamOperator::Create(std::move(queries), {});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
  std::vector<TPStreamOperator::Query> same(2);
  same[0].spec = spec("key");
  same[1].spec = spec("key");
  EXPECT_TRUE(TPStreamOperator::Create(std::move(same), {}).ok());
}

TEST(MultiQueryOperatorTest, ParsesAndRunsTextQueries) {
  Schema schema({Field{"a", ValueType::kBool}, Field{"b", ValueType::kBool}});
  EXPECT_FALSE(query::ParseQuery("DEFINE nonsense", schema).ok());
  auto spec = query::ParseQuery(
      "FROM Stream S DEFINE A AS S.a, B AS S.b "
      "PATTERN A overlaps B WITHIN 100 RETURN count(A.a) AS n_a",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  std::vector<Event> outputs;
  std::vector<TPStreamOperator::Query> queries(1);
  queries[0] = {spec.value(), [&](const Event& e) { outputs.push_back(e); }};
  auto group = TPStreamOperator::Create(std::move(queries), {});
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  for (TimePoint t = 1; t <= 10; ++t) {
    group.value()->Push(
        Event({Value(t >= 2 && t < 6), Value(t >= 4 && t < 9)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 6);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 4);
}

}  // namespace
}  // namespace tpstream
