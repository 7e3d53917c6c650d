// Differential pinning of the multi-query sharing guarantee: a QueryGroup
// of N queries emits, per query, byte-identical matches and equal obs
// metrics to N independent TPStreamOperators fed the same stream. This is
// the isolation contract of src/multi — sharing is an execution strategy,
// never a semantics change.

#include <algorithm>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "multi/query_group.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"

namespace tpstream {
namespace {

Schema SensorSchema() {
  return Schema({Field{"flag_a", ValueType::kBool},
                 Field{"flag_b", ValueType::kBool},
                 Field{"v", ValueType::kDouble}});
}

/// A three-symbol query over SensorSchema; `threshold` varies the B
/// predicate so distinct-query mixes exercise partial sharing (A and C
/// dedup across all variants, B does not).
QuerySpec SensorSpec(double threshold) {
  QueryBuilder qb(SensorSchema());
  qb.Define("A", FieldRef(0, "flag_a"))
      .Define("B", Gt(FieldRef(2, "v"), Literal(threshold)))
      .Define("C", FieldRef(1, "flag_b"))
      .Relate("A", {Relation::kOverlaps, Relation::kMeets}, "B")
      .Relate("B", {Relation::kOverlaps, Relation::kBefore}, "C")
      .Within(64)
      .Return("n_a", "A", AggKind::kCount)
      .Return("avg_v", "B", AggKind::kAvg, "v");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

std::vector<Event> RandomStream(TimePoint horizon, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution flip(0.12);
  std::uniform_real_distribution<double> level(0.0, 10.0);
  bool a = false;
  bool b = false;
  std::vector<Event> events;
  events.reserve(horizon);
  for (TimePoint t = 1; t <= horizon; ++t) {
    if (flip(rng)) a = !a;
    if (flip(rng)) b = !b;
    events.push_back(Event({Value(a), Value(b), Value(level(rng))}, t));
  }
  return events;
}

bool SameEvent(const Event& x, const Event& y) {
  if (x.t != y.t || x.payload.size() != y.payload.size()) return false;
  for (size_t i = 0; i < x.payload.size(); ++i) {
    if (!(x.payload[i] == y.payload[i])) return false;
  }
  return true;
}

bool IsDeriverMetric(const std::string& name) {
  return name.rfind("deriver.", 0) == 0;
}

/// Removes the shared-derivation namespace from an independent operator's
/// snapshot: under sharing those counters and gauges live once in the
/// group registry, not per query.
obs::MetricsSnapshot StripDeriver(obs::MetricsSnapshot snap) {
  std::erase_if(snap.counters,
                [](const auto& kv) { return IsDeriverMetric(kv.first); });
  std::erase_if(snap.gauges,
                [](const auto& kv) { return IsDeriverMetric(kv.first); });
  return snap;
}

obs::MetricsSnapshot DeriverOnly(obs::MetricsSnapshot snap) {
  std::erase_if(snap.counters,
                [](const auto& kv) { return !IsDeriverMetric(kv.first); });
  std::erase_if(snap.gauges,
                [](const auto& kv) { return !IsDeriverMetric(kv.first); });
  snap.histograms.clear();
  return snap;
}

struct DifferentialCase {
  std::vector<double> thresholds;  // one query per entry
  bool low_latency = true;
};

void RunDifferential(const DifferentialCase& c) {
  const std::vector<Event> events = RandomStream(4000, 17);
  const int n = static_cast<int>(c.thresholds.size());

  // Reference: N independent operators, each with its own registry.
  std::vector<std::vector<Event>> ref_outputs(n);
  std::vector<std::unique_ptr<obs::MetricsRegistry>> ref_metrics;
  {
    std::vector<std::unique_ptr<TPStreamOperator>> ops;
    for (int i = 0; i < n; ++i) {
      ref_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      TPStreamOperator::Options options;
      options.low_latency = c.low_latency;
      options.metrics = ref_metrics.back().get();
      ops.push_back(std::make_unique<TPStreamOperator>(
          SensorSpec(c.thresholds[i]), options,
          [&ref_outputs, i](const Event& e) {
            ref_outputs[i].push_back(e);
          }));
    }
    for (const Event& e : events) {
      for (auto& op : ops) op->Push(e);
    }
    for (auto& op : ops) op->Flush();
  }

  // Subject: one QueryGroup over the same queries and stream.
  std::vector<std::vector<Event>> group_outputs(n);
  std::vector<std::unique_ptr<obs::MetricsRegistry>> group_query_metrics;
  obs::MetricsRegistry group_metrics;
  multi::QueryGroup::Options options;
  options.low_latency = c.low_latency;
  options.metrics = &group_metrics;
  multi::QueryGroup group(options);
  for (int i = 0; i < n; ++i) {
    group_query_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    multi::QueryGroup::QueryOptions qo;
    qo.metrics = group_query_metrics.back().get();
    ASSERT_TRUE(group
                    .AddQuery(SensorSpec(c.thresholds[i]),
                              [&group_outputs, i](const Event& e) {
                                group_outputs[i].push_back(e);
                              },
                              qo)
                    .ok());
  }
  for (const Event& e : events) group.Push(e);
  group.Flush();

  // Byte-identical match streams, per query and in order.
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(group_outputs[i].size(), ref_outputs[i].size())
        << "query " << i;
    for (size_t m = 0; m < ref_outputs[i].size(); ++m) {
      EXPECT_TRUE(SameEvent(group_outputs[i][m], ref_outputs[i][m]))
          << "query " << i << " match " << m;
    }
  }

  // Equal per-query metrics (matcher.*, operator.*, robust.*,
  // optimizer.*); the independent operator additionally owns deriver.*
  // counters, which under sharing live once in the group registry.
  for (int i = 0; i < n; ++i) {
    const obs::MetricsSnapshot ref = ref_metrics[i]->Snapshot();
    const obs::MetricsSnapshot got = group_query_metrics[i]->Snapshot();
    EXPECT_EQ(StripDeriver(ref).counters, got.counters) << "query " << i;
    EXPECT_EQ(StripDeriver(ref).gauges, got.gauges) << "query " << i;
    EXPECT_EQ(ref.histograms, got.histograms) << "query " << i;
    EXPECT_EQ(got.counters.count("deriver.events"), 0u);
  }

  // When every query is identical, the shared deriver does exactly one
  // independent operator's derivation work.
  const bool all_identical = std::all_of(
      c.thresholds.begin(), c.thresholds.end(),
      [&](double t) { return t == c.thresholds.front(); });
  if (all_identical) {
    const obs::MetricsSnapshot group_deriver =
        DeriverOnly(group_metrics.Snapshot());
    const obs::MetricsSnapshot ref_deriver =
        DeriverOnly(ref_metrics[0]->Snapshot());
    EXPECT_EQ(group_deriver.counters, ref_deriver.counters);
    EXPECT_EQ(group_deriver.gauges, ref_deriver.gauges);
  }
}

TEST(MultiQueryDifferentialTest, IdenticalQueriesN1) {
  RunDifferential({{5.0}});
}

TEST(MultiQueryDifferentialTest, IdenticalQueriesN2) {
  RunDifferential({{5.0, 5.0}});
}

TEST(MultiQueryDifferentialTest, IdenticalQueriesN16) {
  RunDifferential({std::vector<double>(16, 5.0)});
}

TEST(MultiQueryDifferentialTest, DistinctMixN16) {
  std::vector<double> thresholds;
  for (int i = 0; i < 16; ++i) thresholds.push_back(1.0 + (i % 4) * 2.0);
  RunDifferential({thresholds});
}

TEST(MultiQueryDifferentialTest, BaselineMatcherMode) {
  DifferentialCase c;
  c.thresholds = {5.0, 5.0, 7.0};
  c.low_latency = false;
  RunDifferential(c);
}

// Cross-engine leg: on a single-partition stream, a QueryGroup over the
// unpartitioned query and a ParallelTPStream over its PARTITION BY
// variant must agree (with one key, partitioned semantics coincide with
// unpartitioned).
TEST(MultiQueryDifferentialTest, AgreesWithParallelEngineOnOnePartition) {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  auto make_spec = [&](bool partitioned) {
    QueryBuilder qb(schema);
    qb.Define("A", FieldRef(1, "flag"))
        .Define("B", Not(FieldRef(1, "flag")))
        .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
        .Within(200)
        .Return("t_n", "A", AggKind::kCount);
    if (partitioned) qb.PartitionBy("key");
    auto spec = qb.Build();
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    return spec.value();
  };

  std::mt19937_64 rng(23);
  std::bernoulli_distribution flip(0.1);
  bool flag = false;
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 3000; ++t) {
    if (flip(rng)) flag = !flag;
    events.push_back(Event({Value(int64_t{7}), Value(flag)}, t));
  }

  using Signature = std::vector<std::pair<TimePoint, int64_t>>;
  Signature grouped;
  multi::QueryGroup group;
  ASSERT_TRUE(group
                  .AddQuery(make_spec(false),
                            [&](const Event& e) {
                              grouped.emplace_back(e.t, e.payload[0].AsInt());
                            })
                  .ok());
  for (const Event& e : events) group.Push(e);
  group.Flush();
  ASSERT_FALSE(grouped.empty());

  Signature parallel_out;
  std::mutex mutex;
  parallel::ParallelTPStream::Options options;
  options.num_workers = 2;
  options.batch_size = 64;
  {
    parallel::ParallelTPStream op(make_spec(true), options,
                                  [&](const Event& e) {
                                    std::lock_guard<std::mutex> lock(mutex);
                                    parallel_out.emplace_back(
                                        e.t, e.payload[0].AsInt());
                                  });
    for (const Event& e : events) op.Push(e);
    op.Flush();
  }

  std::sort(grouped.begin(), grouped.end());
  std::sort(parallel_out.begin(), parallel_out.end());
  EXPECT_EQ(grouped, parallel_out);
}

}  // namespace
}  // namespace tpstream
