#include "parallel/parallel_operator.h"

#include <algorithm>
#include <mutex>
#include <random>

#include <gtest/gtest.h>

#include "query/builder.h"

namespace tpstream {
namespace {

QuerySpec KeyedSpec() {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(200)
      .Return("key", "A", AggKind::kFirst, "key")
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

std::vector<Event> KeyedWorkload(int keys, TimePoint horizon,
                                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bool> value(keys, false);
  std::vector<Event> events;
  std::bernoulli_distribution flip(0.07);
  for (TimePoint t = 1; t <= horizon; ++t) {
    for (int k = 0; k < keys; ++k) {
      if (flip(rng)) value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

// Output signature: (timestamp, key) pairs, sorted.
using Signature = std::vector<std::pair<TimePoint, int64_t>>;

TEST(ParallelTPStreamTest, MatchesSequentialResults) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedWorkload(17, 1500, 9);

  Signature sequential;
  {
    TPStreamOperator op(spec, {}, [&](const Event& e) {
      sequential.emplace_back(e.t, e.payload[0].AsInt());
    });
    for (const Event& e : events) op.Push(e);
  }
  ASSERT_FALSE(sequential.empty());

  for (int workers : {1, 2, 4}) {
    Signature parallel_out;
    std::mutex mutex;
    parallel::ParallelTPStream::Options options;
    options.num_workers = workers;
    options.batch_size = 64;
    {
      parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
        std::lock_guard<std::mutex> lock(mutex);
        parallel_out.emplace_back(e.t, e.payload[0].AsInt());
      });
      for (const Event& e : events) op.Push(e);
      op.Flush();
      EXPECT_EQ(op.num_matches(),
                static_cast<int64_t>(sequential.size()));
      EXPECT_EQ(op.num_partitions(), 17u);
    }
    std::sort(parallel_out.begin(), parallel_out.end());
    Signature expected = sequential;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(parallel_out, expected) << "workers=" << workers;
  }
}

TEST(ParallelTPStreamTest, FlushIsIdempotentAndDestructorSafe) {
  const QuerySpec spec = KeyedSpec();
  parallel::ParallelTPStream::Options options;
  options.num_workers = 3;
  options.batch_size = 8;
  parallel::ParallelTPStream op(spec, options, nullptr);
  const std::vector<Event> events = KeyedWorkload(5, 100, 3);
  for (const Event& e : events) op.Push(e);
  op.Flush();
  op.Flush();
  EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
  // Destructor runs another flush + joins the workers.
}

TEST(ParallelTPStreamTest, UnpartitionedFallsBackToOneWorkerStream) {
  // Without PARTITION BY all events go to worker 0; results must still
  // be correct.
  Schema schema({Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(0, "flag"))
      .Define("B", Not(FieldRef(0, "flag")))
      .Relate("A", Relation::kMeets, "B")
      .Within(100)
      .Return("n", "A", AggKind::kCount);
  auto spec = qb.Build();
  ASSERT_TRUE(spec.ok());

  parallel::ParallelTPStream::Options options;
  options.num_workers = 4;
  parallel::ParallelTPStream op(spec.value(), options, nullptr);
  for (TimePoint t = 1; t <= 20; ++t) {
    op.Push(Event({Value(t <= 10)}, t));
  }
  op.Flush();
  EXPECT_EQ(op.num_matches(), 1);
}

}  // namespace
}  // namespace tpstream
