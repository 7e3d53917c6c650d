// Soak/robustness tests: long randomized runs checking global invariants
// (bounded state, strictly ordered output, graceful handling of
// adversarial parser input).
#include <random>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "query/builder.h"
#include "query/parser.h"

namespace tpstream {
namespace {

TEST(StressTest, LongRunKeepsStateBoundedAndOutputOrdered) {
  Schema schema({Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool},
                 Field{"c", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0), AtLeast(2))
      .Define("B", FieldRef(1))
      .Define("C", FieldRef(2), AtMost(40))
      .Relate("A", {Relation::kBefore, Relation::kOverlaps,
                    Relation::kMeets},
              "B")
      .Relate("B", {Relation::kContains, Relation::kOverlaps,
                    Relation::kFinishes, Relation::kEquals},
              "C")
      .Within(120)
      .Return("n", "A", AggKind::kCount)
      .Return("b_start", "B", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();

  TimePoint last_output = kTimeMin;
  int64_t outputs = 0;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    // Detection times never go backwards.
    EXPECT_GE(e.t, last_output);
    last_output = e.t;
    ++outputs;
  });

  std::mt19937_64 rng(20260704);
  bool va = false, vb = false, vc = false;
  std::bernoulli_distribution flip(0.12);
  size_t max_buffered = 0;
  for (TimePoint t = 1; t <= 200000; ++t) {
    if (flip(rng)) va = !va;
    if (flip(rng)) vb = !vb;
    if (flip(rng)) vc = !vc;
    op.Push(Event({Value(va), Value(vb), Value(vc)}, t));
    if (t % 1024 == 0) max_buffered = std::max(max_buffered,
                                               op.BufferedCount());
  }
  EXPECT_GT(outputs, 0);
  // Window purging keeps buffers bounded: with a 120-tick window and
  // phases of ~8 ticks, a few hundred situations at most.
  EXPECT_LT(max_buffered, 500u);
}

TEST(StressTest, ParserSurvivesAdversarialInput) {
  const Schema schema({Field{"x", ValueType::kInt}});
  // Mutations of a valid query: truncations and random charset noise.
  const std::string base =
      "FROM S DEFINE A AS x > 1, B AS x < 0 "
      "PATTERN A before B WITHIN 10 RETURN count(A) AS n";
  for (size_t cut = 0; cut < base.size(); cut += 3) {
    // Must never crash. (Truncations that end after WITHIN are complete
    // queries — RETURN is optional — so only short prefixes must fail.)
    const auto result = query::ParseQuery(base.substr(0, cut), schema);
    if (cut < base.find("WITHIN")) EXPECT_FALSE(result.ok()) << cut;
  }

  std::mt19937_64 rng(99);
  const std::string charset =
      "ABCdef0123 ()<>=.;,+-*/'\"_" "\n\t";
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    const int len = 1 + static_cast<int>(rng() % 120);
    for (int i = 0; i < len; ++i) {
      junk.push_back(charset[rng() % charset.size()]);
    }
    // Must return a Status, never crash or hang.
    (void)query::ParseQuery(junk, schema);
  }

  // Valid clauses in the wrong order fail cleanly too.
  EXPECT_FALSE(query::ParseQuery(
                   "DEFINE A AS x > 1 FROM S PATTERN A before A WITHIN 5",
                   schema)
                   .ok());
}

TEST(StressTest, ManyPartitionsStayIndependent) {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1))
      .Define("B", Not(FieldRef(1)))
      .Relate("A", Relation::kMeets, "B")
      .Within(64)
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  TPStreamOperator op(spec.value(), {}, nullptr);
  std::mt19937_64 rng(5);
  constexpr int kKeys = 500;
  std::vector<bool> value(kKeys, false);
  std::bernoulli_distribution flip(0.2);
  for (TimePoint t = 1; t <= 400; ++t) {
    for (int k = 0; k < kKeys; ++k) {
      if (flip(rng)) value[k] = !value[k];
      op.Push(Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  EXPECT_EQ(op.num_partitions(), static_cast<size_t>(kKeys));
  EXPECT_GT(op.num_matches(), kKeys);  // every key produces matches
}

}  // namespace
}  // namespace tpstream
