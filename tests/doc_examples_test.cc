// Guards the documentation against drift: the complete queries shown in
// docs/query_language.md and README.md must parse and run.
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

}  // namespace
}  // namespace tpstream
