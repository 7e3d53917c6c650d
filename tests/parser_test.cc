#include "query/parser.h"

#include <gtest/gtest.h>

#include "core/operator.h"
#include "query/lexer.h"

namespace tpstream {
namespace {

Schema CarSchema() {
  return Schema({
      Field{"car_id", ValueType::kInt},
      Field{"speed", ValueType::kDouble},
      Field{"accel", ValueType::kDouble},
      Field{"position", ValueType::kDouble},
      Field{"lane", ValueType::kInt},
  });
}

TEST(LexerTest, NumbersWithUnits) {
  auto tokens = query::Tokenize("8m/s^2 70mph 5s 4.5 x_1").value();
  ASSERT_GE(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].type, query::TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 8);
  EXPECT_EQ(tokens[0].unit, "m/s^2");
  EXPECT_EQ(tokens[1].unit, "mph");
  EXPECT_EQ(tokens[2].unit, "s");
  EXPECT_DOUBLE_EQ(tokens[3].number, 4.5);
  EXPECT_TRUE(tokens[3].unit.empty());
  EXPECT_EQ(tokens[4].type, query::TokenType::kIdent);
  EXPECT_EQ(tokens[4].text, "x_1");
}

TEST(LexerTest, OperatorsAndComments) {
  auto tokens =
      query::Tokenize("a <= b -- trailing comment\n >= == != < >").value();
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[3].text, ">=");
  EXPECT_EQ(tokens[4].text, "==");
  EXPECT_EQ(tokens[5].text, "!=");
}

TEST(LexerTest, RejectsBadInput) {
  EXPECT_FALSE(query::Tokenize("a ? b").ok());
  EXPECT_FALSE(query::Tokenize("'unterminated").ok());
}

TEST(LexerTest, RejectsOutOfRangeNumericLiterals) {
  // A literal too large for double used to escape as an uncaught
  // std::out_of_range from std::stod; it must surface as a Status.
  const std::string huge(400, '9');
  const auto result = query::Tokenize(huge);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("out of range"),
            std::string::npos)
      << result.status().message();
  // The same literal inside surrounding tokens.
  EXPECT_FALSE(query::Tokenize("speed > " + huge).ok());
  // Huge-but-representable stays fine.
  EXPECT_TRUE(query::Tokenize("1e3").ok());
}

TEST(ParserTest, MalformedNumericLiteralSurfacesAsStatus) {
  // End-to-end: the oversized literal flows through ParseQuery as a
  // parse error instead of a crash.
  const std::string huge(400, '9');
  const auto spec = query::ParseQuery(
      "FROM CarSensors CS DEFINE A AS CS.speed > " + huge +
          " PATTERN A WITHIN 10s RETURN first(A.car_id) AS id",
      CarSchema());
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

constexpr char kAggressiveQuery[] = R"(
  FROM CarSensors CS PARTITION BY CS.car_id
  DEFINE A AS CS.accel > 8m/s^2 AT LEAST 5s,
         B AS CS.speed > 70mph BETWEEN 4s AND 30s,
         C AS CS.accel < -9m/s^2 AT LEAST 3s
  PATTERN A meets B; A overlaps B; A starts B; A during B
      AND C during B; B finishes C; B overlaps C; B meets C
      AND A before C
  WITHIN 5 MINUTES
  RETURN first(B.car_id) AS id,
         avg(B.speed) AS avg_speed
)";

TEST(ParserTest, ParsesTheListingOneQuery) {
  auto result = query::ParseQuery(kAggressiveQuery, CarSchema());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QuerySpec& spec = result.value();

  EXPECT_EQ(spec.partition_field, 0);
  ASSERT_EQ(spec.definitions.size(), 3u);
  EXPECT_EQ(spec.definitions[0].symbol, "A");
  EXPECT_EQ(spec.definitions[0].duration.min, 5);
  EXPECT_FALSE(spec.definitions[0].duration.has_max());
  EXPECT_EQ(spec.definitions[1].duration.min, 4);
  EXPECT_EQ(spec.definitions[1].duration.max, 30);
  EXPECT_EQ(spec.definitions[2].duration.min, 3);

  EXPECT_EQ(spec.window, 300);
  ASSERT_EQ(spec.pattern.constraints().size(), 3u);
  // Constraint (A, B): 4 alternatives.
  const int ab = spec.pattern.ConstraintIndex(0, 1);
  ASSERT_GE(ab, 0);
  EXPECT_EQ(spec.pattern.constraints()[ab].relations.size(), 4);
  // Constraint (B, C): "C during B" plus three B-oriented relations.
  const int bc = spec.pattern.ConstraintIndex(1, 2);
  ASSERT_GE(bc, 0);
  EXPECT_EQ(spec.pattern.constraints()[bc].relations.size(), 4);
  const int ac = spec.pattern.ConstraintIndex(0, 2);
  ASSERT_GE(ac, 0);
  EXPECT_TRUE(
      spec.pattern.constraints()[ac].relations.Contains(Relation::kBefore));

  ASSERT_EQ(spec.returns.size(), 2u);
  EXPECT_EQ(spec.returns[0].name, "id");
  EXPECT_EQ(spec.returns[0].symbol, 1);
  EXPECT_EQ(spec.returns[1].name, "avg_speed");
  ASSERT_EQ(spec.definitions[1].aggregates.size(), 2u);
  EXPECT_EQ(spec.definitions[1].aggregates[0].kind, AggKind::kFirst);
  EXPECT_EQ(spec.definitions[1].aggregates[1].kind, AggKind::kAvg);

  // Predicates compile to evaluable expressions.
  Tuple fast = {Value(int64_t{1}), Value(90.0), Value(0.0), Value(0.0),
                Value(int64_t{0})};
  EXPECT_TRUE(EvalPredicate(*spec.definitions[1].predicate, fast));
  Tuple braking = {Value(int64_t{1}), Value(50.0), Value(-11.0), Value(0.0),
                   Value(int64_t{0})};
  EXPECT_TRUE(EvalPredicate(*spec.definitions[2].predicate, braking));
  EXPECT_FALSE(EvalPredicate(*spec.definitions[0].predicate, braking));
}

TEST(ParserTest, HyphenatedAndInverseRelations) {
  const Schema schema({Field{"x", ValueType::kInt}});
  auto result = query::ParseQuery(
      "FROM S DEFINE A AS x > 1, B AS x < 0 "
      "PATTERN B started-by A; A met-by B WITHIN 10s",
      schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int ab = result.value().pattern.ConstraintIndex(0, 1);
  ASSERT_GE(ab, 0);
  // B started-by A == A starts B; A met-by B == B meets A.
  EXPECT_TRUE(result.value().pattern.constraints()[ab].relations.Contains(
      Relation::kStarts));
  EXPECT_TRUE(result.value().pattern.constraints()[ab].relations.Contains(
      Relation::kMetBy));
}

TEST(ParserTest, BooleanConnectivesInDefine) {
  const Schema schema(
      {Field{"x", ValueType::kInt}, Field{"y", ValueType::kInt}});
  auto result = query::ParseQuery(
      "FROM S DEFINE A AS x > 1 AND NOT y > 5 OR y == 2, B AS x < 0 "
      "PATTERN A before B WITHIN 100",
      schema);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& pred = *result.value().definitions[0].predicate;
  EXPECT_TRUE(EvalPredicate(pred, {Value(int64_t{2}), Value(int64_t{3})}));
  EXPECT_FALSE(EvalPredicate(pred, {Value(int64_t{2}), Value(int64_t{7})}));
  EXPECT_TRUE(EvalPredicate(pred, {Value(int64_t{0}), Value(int64_t{2})}));
}

TEST(ParserTest, ReportsErrors) {
  const Schema schema({Field{"x", ValueType::kInt}});
  // Unknown field.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS speed > 1, B AS x < 0 "
                   "PATTERN A before B WITHIN 10",
                   schema)
                   .ok());
  // Unknown relation.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS x > 1, B AS x < 0 "
                   "PATTERN A sideways B WITHIN 10",
                   schema)
                   .ok());
  // Undefined pattern symbol.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS x > 1, B AS x < 0 "
                   "PATTERN A before Z WITHIN 10",
                   schema)
                   .ok());
  // Mixed pairs within one alternative group.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS x > 1, B AS x < 0, C AS x == 0 "
                   "PATTERN A before B; A before C WITHIN 10",
                   schema)
                   .ok());
  // Missing WITHIN.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS x > 1, B AS x < 0 PATTERN A before B",
                   schema)
                   .ok());
  // Zero-length window.
  EXPECT_FALSE(query::ParseQuery(
                   "FROM S DEFINE A AS x > 1, B AS x < 0 "
                   "PATTERN A before B WITHIN 0",
                   schema)
                   .ok());
}

// Found by parser_fuzz_test: a query the grammar admits but the pattern
// or Validate rejects used to leak kInvalidArgument out of ParseQuery,
// and a duration beyond int64 ticks was cast with undefined behaviour.
// Every rejection is a kParseError.
TEST(ParserTest, SemanticRejectionsAreParseErrors) {
  const Schema schema({Field{"x", ValueType::kInt}});
  for (const char* text : {
           // A symbol related to itself.
           "FROM S DEFINE A AS x > 1, B AS x < 0 "
           "PATTERN A before A AND A meets B WITHIN 10",
           // Zero window.
           "FROM S DEFINE A AS x > 1, B AS x < 0 PATTERN A before B WITHIN 0",
           // Inverted and empty duration ranges.
           "FROM S DEFINE A AS x > 1 BETWEEN 461s AND 8, B AS x < 0 "
           "PATTERN A before B WITHIN 10",
           "FROM S DEFINE A AS x > 1 AT LEAST 0s, B AS x < 0 "
           "PATTERN A before B WITHIN 10",
           // Windows and durations beyond int64 ticks.
           "FROM S DEFINE A AS x > 1, B AS x < 0 "
           "PATTERN A before B WITHIN 99999999999999999999 h",
           "FROM S DEFINE A AS x > 1 AT MOST 9223372036854775807 hours, "
           "B AS x < 0 PATTERN A before B WITHIN 10",
       }) {
    const auto spec = query::ParseQuery(text, schema);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kParseError)
        << text << ": " << spec.status().ToString();
  }
}

TEST(ParserTest, IntervalAccessorsInReturn) {
  const Schema schema({Field{"x", ValueType::kInt}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS x > 1, B AS x < 0 "
      "PATTERN A before B WITHIN 100 "
      "RETURN start(A) AS a_start, end(A) AS a_end, duration(A), "
      "       count(B) AS n",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto& returns = spec.value().returns;
  ASSERT_EQ(returns.size(), 4u);
  EXPECT_EQ(returns[0].source, ReturnItem::Source::kStartTime);
  EXPECT_EQ(returns[0].name, "a_start");
  EXPECT_EQ(returns[1].source, ReturnItem::Source::kEndTime);
  EXPECT_EQ(returns[2].source, ReturnItem::Source::kDuration);
  EXPECT_EQ(returns[2].name, "duration_A");
  EXPECT_EQ(returns[3].source, ReturnItem::Source::kAggregate);

  // End-to-end: A = [2,5), B = [7,9); detection at B.ts = 7 (before),
  // A's interval fully known by then.
  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });
  for (TimePoint t = 1; t <= 10; ++t) {
    const int64_t x = (t >= 2 && t < 5) ? 7 : ((t >= 7 && t < 9) ? -3 : 0);
    op.Push(Event({Value(x)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].t, 7);
  EXPECT_EQ(outputs[0].payload[0].AsInt(), 2);  // start(A)
  EXPECT_EQ(outputs[0].payload[1].AsInt(), 5);  // end(A)
  EXPECT_EQ(outputs[0].payload[2].AsInt(), 3);  // duration(A)
  // B is still ongoing at detection: end(B)/duration(B) would be null.
}

TEST(ParserTest, IntervalAccessorOfOngoingSituationIsNull) {
  const Schema schema({Field{"x", ValueType::kInt}});
  auto spec = query::ParseQuery(
      "FROM S DEFINE A AS x > 1, B AS x < 0 "
      "PATTERN A before B WITHIN 100 "
      "RETURN end(B) AS b_end, duration(B) AS b_dur, start(B) AS b_start",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::vector<Event> outputs;
  TPStreamOperator op(spec.value(), {}, [&](const Event& e) {
    outputs.push_back(e);
  });
  for (TimePoint t = 1; t <= 10; ++t) {
    const int64_t x = (t >= 2 && t < 5) ? 7 : ((t >= 7 && t < 9) ? -3 : 0);
    op.Push(Event({Value(x)}, t));
  }
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].payload[0].is_null());   // end(B) unknown
  EXPECT_TRUE(outputs[0].payload[1].is_null());   // duration(B) unknown
  EXPECT_EQ(outputs[0].payload[2].AsInt(), 7);    // start(B)
}

TEST(ParserTest, DurationUnits) {
  const Schema schema({Field{"x", ValueType::kInt}});
  auto q = [&](const std::string& within) {
    return query::ParseQuery("FROM S DEFINE A AS x > 1, B AS x < 0 "
                             "PATTERN A before B WITHIN " +
                                 within,
                             schema);
  };
  EXPECT_EQ(q("90").value().window, 90);
  EXPECT_EQ(q("90s").value().window, 90);
  EXPECT_EQ(q("2 minutes").value().window, 120);
  EXPECT_EQ(q("1 hour").value().window, 3600);
  EXPECT_FALSE(q("10 parsecs").ok());
}

}  // namespace
}  // namespace tpstream
