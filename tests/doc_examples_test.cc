// Guards the documentation against drift: the complete queries shown in
// docs/query_language.md and README.md must parse and run.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "query/parser.h"
#include "workload/linear_road.h"

namespace tpstream {
namespace {

TEST(DocExamplesTest, QueryLanguageReferenceExample) {
  LinearRoadGenerator gen({});
  constexpr char kQuery[] = R"(
    FROM CarSensors CS PARTITION BY CS.car_id
    DEFINE A AS CS.accel > 8m/s^2 AT LEAST 5s,
           B AS CS.speed > 70mph BETWEEN 4s AND 30s,
           C AS CS.accel < -9m/s^2 AT LEAST 3s
    PATTERN A meets B; A overlaps B; A starts B; A during B
        AND C during B; B finishes C; B overlaps C; B meets C
        AND A before C
    WITHIN 5 MINUTES
    RETURN first(B.car_id) AS id,
           avg(B.speed) AS avg_speed,
           start(A) AS accel_started,
           duration(C) AS braking_s
  )";
  auto spec = query::ParseQuery(kQuery, gen.schema());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().window, 300);
  EXPECT_EQ(spec.value().returns.size(), 4u);

  // It must also deploy and process events without issue.
  TPStreamOperator op(spec.value(), {}, nullptr);
  LinearRoadGenerator source({});
  for (int i = 0; i < 20000; ++i) op.Push(source.Next());
  EXPECT_EQ(op.num_events(), 20000);
}

TEST(DocExamplesTest, CommentsAndCaseInsensitivity) {
  const Schema schema({Field{"x", ValueType::kInt}});
  auto spec = query::ParseQuery(
      "from S  -- the input stream\n"
      "define A as x > 1,  -- first situation\n"
      "       B as x < 0\n"
      "pattern A Before B; A MEETS B\n"
      "within 2 MINUTES\n"
      "return COUNT(A) as n",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().window, 120);
  const int ab = spec.value().pattern.ConstraintIndex(0, 1);
  ASSERT_GE(ab, 0);
  EXPECT_EQ(spec.value().pattern.constraints()[ab].relations.size(), 2);
}

// README.md, standing queries: the snippet, with a sink that counts.
TEST(DocExamplesTest, ReadmeStandingQueries) {
  const Schema schema({Field{"x", ValueType::kInt}});
  const std::vector<std::string> standing_queries = {
      "FROM S DEFINE A AS x > 1, B AS x < 0 PATTERN A before B "
      "WITHIN 100 RETURN count(A) AS n",
      "FROM S DEFINE A AS x > 1, C AS x = 0 PATTERN A meets C "
      "WITHIN 100 RETURN count(A) AS n",
      "DEFINE nonsense"};
  std::vector<Event> stream;
  for (TimePoint t = 1; t <= 40; ++t) {
    const int64_t x = t % 10 < 4 ? 5 : (t % 10 < 6 ? 0 : -3);
    stream.push_back(Event({Value(x)}, t));
  }
  int64_t matches = 0;
  int rejected = 0;

  std::vector<TPStreamOperator::Query> queries;
  for (const std::string& text : standing_queries) {
    auto spec = query::ParseQuery(text, schema);
    if (!spec.ok()) { ++rejected; continue; }
    queries.push_back({std::move(spec).value(),
                       [&](const Event&) { ++matches; }});
  }
  auto op = TPStreamOperator::Create(std::move(queries), {});
  ASSERT_TRUE(op.ok()) << op.status().ToString();
  for (const Event& e : stream) op.value()->Push(e);  // once, for all queries
  op.value()->Flush();

  EXPECT_EQ(rejected, 1);
  EXPECT_EQ(op.value()->num_queries(), 2);
  EXPECT_EQ(op.value()->num_distinct_definitions(), 3);  // A is shared
  EXPECT_GT(matches, 0);
  EXPECT_EQ(op.value()->num_matches(0) + op.value()->num_matches(1), matches);
}

}  // namespace
}  // namespace tpstream
