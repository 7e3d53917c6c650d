#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "derive/deriver.h"
#include "expr/expression.h"
#include "expr/simd.h"
#include "obs/metrics.h"
#include "query/parser.h"

// Program-cache coherence: compiled predicate programs are keyed by the
// same structural fingerprint (ExprFingerprint) that the multi-query
// engine uses to deduplicate definitions. These tests pin both directions
// of the contract — fingerprint-equal predicates share ONE program,
// fingerprint-distinct predicates NEVER do — via the deriver/operator
// counters and the `deriver.compiled_programs` /
// `deriver.program_cache_hits` metrics.

namespace tpstream {
namespace {

/// One operator over `texts` (parsed against `schema`), without outputs.
std::unique_ptr<TPStreamOperator> Group(const Schema& schema,
                                        const std::vector<const char*>& texts,
                                        TPStreamOperator::Options options) {
  std::vector<TPStreamOperator::Query> queries;
  for (const char* text : texts) {
    auto spec = query::ParseQuery(text, schema);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    queries.push_back({spec.value(), [](const Event&) {}});
  }
  auto op = TPStreamOperator::Create(std::move(queries), std::move(options));
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  return std::move(op).value();
}

Schema TestSchema() {
  return Schema({Field{"x", ValueType::kDouble},
                 Field{"y", ValueType::kDouble},
                 Field{"lane", ValueType::kInt}});
}

SituationDefinition Def(const std::string& sym, ExprPtr pred,
                        Duration min_dur = 0) {
  SituationDefinition def(sym, std::move(pred));
  def.duration.min = min_dur;
  return def;
}

TEST(BytecodeSharingTest, FingerprintEqualPredicatesShareOneProgram) {
  // Four definitions, two distinct predicate structures. A and C differ
  // in symbol name and duration constraint — irrelevant to the predicate
  // fingerprint — so they must share; B's structure is distinct.
  const ExprPtr p1 = Gt(FieldRef(0), Literal(10.0));
  const ExprPtr p1_clone = Gt(FieldRef(0), Literal(10.0));  // fresh tree
  const ExprPtr p2 = Lt(FieldRef(1), Literal(10.0));

  Deriver deriver({Def("A", p1), Def("B", p2), Def("C", p1_clone, 5),
                   Def("D", p2)},
                  /*announce_starts=*/true, /*metrics=*/nullptr,
                  DeriveOptions{/*compiled_predicates=*/true});
  EXPECT_TRUE(deriver.compiled());
  EXPECT_EQ(deriver.num_compiled_programs(), 2);
  EXPECT_EQ(deriver.program_cache_hits(), 2);  // C reused p1, D reused p2
}

TEST(BytecodeSharingTest, DistinctPredicatesNeverShare) {
  // Structurally different predicates — even semantically equivalent ones
  // like commuted operands — compile separately. Sharing is keyed on the
  // fingerprint only; a false positive here would be a correctness bug,
  // a false negative merely costs memory.
  Deriver deriver(
      {Def("A", Gt(FieldRef(0), Literal(10.0))),
       Def("B", Lt(Literal(10.0), FieldRef(0))),  // commuted: distinct
       Def("C", Gt(FieldRef(0), Literal(int64_t{10}))),  // int literal
       Def("D", Gt(FieldRef(1), Literal(10.0)))},        // other field
      /*announce_starts=*/true, /*metrics=*/nullptr,
      DeriveOptions{/*compiled_predicates=*/true});
  EXPECT_EQ(deriver.num_compiled_programs(), 4);
  EXPECT_EQ(deriver.program_cache_hits(), 0);
}

TEST(BytecodeSharingTest, InterpreterModeCompilesNothing) {
  Deriver deriver({Def("A", Gt(FieldRef(0), Literal(10.0)))},
                  /*announce_starts=*/true, /*metrics=*/nullptr,
                  DeriveOptions{/*compiled_predicates=*/false});
  EXPECT_FALSE(deriver.compiled());
  EXPECT_EQ(deriver.num_compiled_programs(), 0);
  EXPECT_EQ(deriver.program_cache_hits(), 0);
}

TEST(BytecodeSharingTest, QueryGroupCompilesEachDistinctPredicateOnce) {
  const Schema schema = TestSchema();
  const char* kQueryA =
      "FROM S DEFINE A AS x > 10.0, B AS y < 5.0 "
      "PATTERN A overlaps B WITHIN 100";
  const char* kQueryB =
      "FROM S DEFINE A AS x > 10.0, B AS lane == 2 "
      "PATTERN A before B WITHIN 100";

  obs::MetricsRegistry metrics;
  TPStreamOperator::Options options;
  options.compiled_predicates = true;
  options.metrics = &metrics;
  // 3 copies of query A and 2 of query B: 10 definitions total, 3
  // distinct predicates (x > 10.0 appears in both query texts).
  auto op =
      Group(schema, {kQueryA, kQueryA, kQueryA, kQueryB, kQueryB}, options);
  TPStreamOperator& group = *op;

  EXPECT_EQ(group.total_definitions(), 10);
  EXPECT_EQ(group.num_distinct_definitions(), 3);
  EXPECT_EQ(group.num_compiled_programs(), 3);
  // Definition-level dedup happens first, so the program cache only sees
  // the 3 distinct definitions — their predicates are all distinct here.
  EXPECT_EQ(group.program_cache_hits(), 0);
  EXPECT_EQ(metrics.GetGauge("deriver.compiled_programs")->value(), 3.0);
  EXPECT_EQ(metrics.GetCounter("deriver.program_cache_hits")->value(), 0);
}

TEST(BytecodeSharingTest, QueryGroupSharesAcrossDurationVariants) {
  // Same predicate under different duration constraints: distinct
  // definitions (the definition fingerprint includes tau) but ONE
  // compiled program (the program key is the predicate fingerprint only).
  const Schema schema = TestSchema();
  obs::MetricsRegistry metrics;
  TPStreamOperator::Options options;
  options.compiled_predicates = true;
  options.metrics = &metrics;
  auto op = Group(schema,
                  {"FROM S DEFINE A AS x > 10.0, B AS y < 5.0 "
                   "PATTERN A overlaps B WITHIN 100",
                   "FROM S DEFINE A AS x > 10.0 AT LEAST 5s, "
                   "B AS y < 5.0 AT LEAST 3s "
                   "PATTERN A overlaps B WITHIN 100"},
                  options);
  TPStreamOperator& group = *op;

  EXPECT_EQ(group.num_distinct_definitions(), 4);  // tau differs
  EXPECT_EQ(group.num_compiled_programs(), 2);     // phi does not
  EXPECT_EQ(group.program_cache_hits(), 2);
  EXPECT_EQ(metrics.GetGauge("deriver.compiled_programs")->value(), 2.0);
  EXPECT_EQ(metrics.GetCounter("deriver.program_cache_hits")->value(), 2);
}

TEST(BytecodeSharingTest, SharedProgramsProduceIsolatedIdenticalMatches) {
  // End-to-end coherence: a compiled group and an interpreted group over
  // the same stream agree per query, and fingerprint-shared programs
  // don't leak state across subscribing queries.
  const Schema schema = TestSchema();
  const char* kQuery =
      "FROM S DEFINE A AS x > 50.0, B AS y > 50.0 "
      "PATTERN A overlaps B WITHIN 200";

  auto run = [&](bool compiled) {
    TPStreamOperator::Options options;
    options.compiled_predicates = compiled;
    auto op = Group(schema, {kQuery, kQuery, kQuery}, options);
    TPStreamOperator& group = *op;
    std::vector<Event> batch;
    uint64_t s = 7;
    for (TimePoint t = 1; t <= 400; ++t) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      batch.emplace_back(
          Tuple{Value(static_cast<double>((s >> 33) % 100)),
                Value(static_cast<double>((s >> 13) % 100)),
                Value(static_cast<int64_t>(s % 4))},
          t);
      if (batch.size() == 64) {
        group.PushBatch(std::span<const Event>(batch));
        batch.clear();
      }
    }
    group.PushBatch(std::span<const Event>(batch));
    group.Flush();
    std::vector<int64_t> matches;
    for (int q = 0; q < group.num_queries(); ++q) {
      matches.push_back(group.num_matches(q));
    }
    EXPECT_EQ(group.num_compiled_programs(), compiled ? 2 : 0);
    return matches;
  };

  const auto interpreted = run(false);
  const auto compiled = run(true);
  ASSERT_EQ(interpreted.size(), compiled.size());
  EXPECT_EQ(interpreted, compiled);
  EXPECT_GT(interpreted[0], 0);  // the stream actually matched something
  EXPECT_EQ(interpreted[0], interpreted[1]);
  EXPECT_EQ(interpreted[1], interpreted[2]);
}

TEST(BytecodeSharingTest, SimdOptionPlumbsThroughAndLevelsAgree) {
  // The `simd` option string reaches the executor (simd_level() reports
  // the clamped tier), and a batch-driven compiled deriver derives the
  // interpreter's situation stream at every tier — over batch sizes that
  // straddle the vector widths and the bitmap word, for 3 definitions
  // (per-event program masks) and for 70 definitions with 70 distinct
  // programs (past one mask word: the dense loop over the precomputed
  // bits).
  auto narrow = [] {
    std::vector<SituationDefinition> out;
    out.push_back(Def("A", Gt(FieldRef(0), Literal(50.0))));
    out.push_back(Def("B", Lt(FieldRef(1), Literal(30.0)), 3));
    out.push_back(
        Def("C", And(Ge(FieldRef(2), Literal(int64_t{1})),
                     Lt(FieldRef(0), Literal(90.0)))));
    return out;
  };
  auto wide = [] {
    std::vector<SituationDefinition> out;
    for (int i = 0; i < 70; ++i) {
      const ExprPtr threshold = Literal(1.4 * i);
      out.push_back(Def("W" + std::to_string(i),
                        i % 2 == 0 ? Gt(FieldRef(0), threshold)
                                   : Lt(FieldRef(1), threshold),
                        i % 5));
    }
    return out;
  };

  using Log = std::vector<std::tuple<int, TimePoint, TimePoint>>;
  auto run = [](std::vector<SituationDefinition> defs, bool compiled,
                const std::string& simd) {
    DeriveOptions options;
    options.compiled_predicates = compiled;
    options.simd = simd;
    Deriver deriver(std::move(defs), /*announce_starts=*/true,
                    /*metrics=*/nullptr, options);
    EXPECT_EQ(deriver.num_compiled_programs() > 64,
              compiled && deriver.num_definitions() > 64);
    EXPECT_STREQ(deriver.simd_level(), compiled ? simd.c_str() : "off");
    Log log;
    std::vector<Event> batch;
    uint64_t s = 11;
    TimePoint t = 1;
    for (size_t size : {1u, 7u, 16u, 33u, 64u, 65u, 100u}) {
      batch.clear();
      for (size_t i = 0; i < size; ++i, ++t) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        batch.emplace_back(
            Tuple{Value(static_cast<double>((s >> 33) % 100)),
                  Value(static_cast<double>((s >> 13) % 100)),
                  Value(static_cast<int64_t>(s % 4))},
            t);
      }
      deriver.PrepareBatch(std::span<const Event>(batch));
      for (const Event& e : batch) {
        auto& update = deriver.Process(e);
        for (const auto& started : update.started) {
          log.emplace_back(started.symbol, started.situation.ts,
                           TimePoint{-1});
        }
        for (const auto& finished : update.finished) {
          log.emplace_back(finished.symbol, finished.situation.ts,
                           finished.situation.te);
        }
      }
    }
    return log;
  };

  for (const auto& defs : {narrow(), wide()}) {
    const Log oracle = run(defs, /*compiled=*/false, "");
    EXPECT_FALSE(oracle.empty());
    for (int l = 0; l <= static_cast<int>(simd::BestSimdLevel()); ++l) {
      const std::string level =
          simd::SimdLevelName(static_cast<simd::SimdLevel>(l));
      EXPECT_EQ(run(defs, /*compiled=*/true, level), oracle)
          << defs.size() << " definitions at simd=" << level;
    }
  }
}

}  // namespace
}  // namespace tpstream
