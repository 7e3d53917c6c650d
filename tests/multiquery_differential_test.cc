// Differential pinning of the multi-query sharing guarantee: one
// TPStreamOperator over N queries emits, per query, byte-identical
// matches and equal obs metrics to N independent TPStreamOperators fed
// the same stream — and under PARTITION BY, per query and key, to one
// unpartitioned operator per query and key. Sharing is an execution
// strategy, never a semantics change.

#include <algorithm>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"

namespace tpstream {
namespace {

Schema SensorSchema() {
  return Schema({Field{"flag_a", ValueType::kBool},
                 Field{"flag_b", ValueType::kBool},
                 Field{"v", ValueType::kDouble},
                 Field{"key", ValueType::kInt}});
}

/// A three-symbol query over SensorSchema; `threshold` varies the B
/// predicate so distinct-query mixes exercise partial sharing (A and C
/// dedup across all variants, B does not). The PARTITION BY variant also
/// returns its key.
QuerySpec SensorSpec(double threshold, bool partitioned = false) {
  QueryBuilder qb(SensorSchema());
  qb.Define("A", FieldRef(0, "flag_a"))
      .Define("B", Gt(FieldRef(2, "v"), Literal(threshold)))
      .Define("C", FieldRef(1, "flag_b"))
      .Relate("A", {Relation::kOverlaps, Relation::kMeets}, "B")
      .Relate("B", {Relation::kOverlaps, Relation::kBefore}, "C")
      .Within(64)
      .Return("n_a", "A", AggKind::kCount)
      .Return("avg_v", "B", AggKind::kAvg, "v");
  if (partitioned) {
    qb.Return("key", "A", AggKind::kFirst, "key").PartitionBy("key");
  }
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// Events at t = 1 .. horizon over `keys` keys (a random key per event),
/// each key's flags flipping independently.
std::vector<Event> RandomStream(TimePoint horizon, uint64_t seed,
                                int keys = 1) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution flip(0.12);
  std::uniform_real_distribution<double> level(0.0, 10.0);
  std::uniform_int_distribution<int> key_of(0, keys - 1);
  std::vector<bool> a(keys, false);
  std::vector<bool> b(keys, false);
  std::vector<Event> events;
  events.reserve(horizon);
  for (TimePoint t = 1; t <= horizon; ++t) {
    const int k = keys == 1 ? 0 : key_of(rng);
    if (flip(rng)) a[k] = !a[k];
    if (flip(rng)) b[k] = !b[k];
    events.push_back(Event({Value(a[k]), Value(b[k]), Value(level(rng)),
                            Value(static_cast<int64_t>(k))},
                           t));
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

bool IsSharedMetric(const std::string& name) {
  return IsDeriverMetric(name) || name.rfind("partitioned.", 0) == 0;
}

/// Removes the shared namespaces from an independent operator's snapshot:
/// under sharing those counters and gauges (derivation, and PARTITION BY
/// routing) live once in the operator registry, not per query.
obs::MetricsSnapshot StripShared(obs::MetricsSnapshot snap) {
  std::erase_if(snap.counters,
                [](const auto& kv) { return IsSharedMetric(kv.first); });
  std::erase_if(snap.gauges,
                [](const auto& kv) { return IsSharedMetric(kv.first); });
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

  // Subject: one operator over the same queries and stream.
  std::vector<std::vector<Event>> group_outputs(n);
  std::vector<std::unique_ptr<obs::MetricsRegistry>> group_query_metrics;
  obs::MetricsRegistry group_metrics;
  TPStreamOperator::Options options;
  options.low_latency = c.low_latency;
  options.metrics = &group_metrics;
  std::vector<TPStreamOperator::Query> queries;
  for (int i = 0; i < n; ++i) {
    group_query_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
    queries.push_back({SensorSpec(c.thresholds[i]),
                       [&group_outputs, i](const Event& e) {
                         group_outputs[i].push_back(e);
                       },
                       group_query_metrics.back().get()});
  }
  auto group = TPStreamOperator::Create(std::move(queries), options);
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  for (const Event& e : events) group.value()->Push(e);
  group.value()->Flush();

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
    EXPECT_EQ(StripShared(ref).counters, got.counters) << "query " << i;
    EXPECT_EQ(StripShared(ref).gauges, got.gauges) << "query " << i;
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

// N queries x K keys: one PARTITION BY operator over N queries against
// one unpartitioned operator per query and key (matches and RETURN
// payloads, per query and key, in order), and against N standalone
// PARTITION BY operators (per-query metrics). The subject runs twice,
// per-event and batched.
void RunPartitionedDifferential(const DifferentialCase& c) {
  constexpr int kKeys = 5;
  const std::vector<Event> events = RandomStream(6000, 29, kKeys);
  const int n = static_cast<int>(c.thresholds.size());
  TPStreamOperator::Options options;
  options.low_latency = c.low_latency;

  // Oracle: an unpartitioned operator per (query, key), fed that key's
  // events; outputs[q][k] in emission order.
  using Outputs = std::vector<std::vector<std::vector<Event>>>;
  Outputs want(n, std::vector<std::vector<Event>>(kKeys));
  {
    std::vector<std::unique_ptr<TPStreamOperator>> ops;
    for (int q = 0; q < n; ++q) {
      QuerySpec spec = SensorSpec(c.thresholds[q], /*partitioned=*/true);
      spec.partition_field = -1;
      for (int k = 0; k < kKeys; ++k) {
        ops.push_back(std::make_unique<TPStreamOperator>(
            spec, options,
            [&want, q, k](const Event& e) { want[q][k].push_back(e); }));
      }
    }
    for (const Event& e : events) {
      const int k = static_cast<int>(e.payload[3].AsInt());
      for (int q = 0; q < n; ++q) ops[q * kKeys + k]->Push(e);
    }
  }

  // Metrics oracle: N standalone PARTITION BY operators.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> ref_metrics;
  {
    std::vector<std::unique_ptr<TPStreamOperator>> ops;
    for (int q = 0; q < n; ++q) {
      ref_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      TPStreamOperator::Options o = options;
      o.metrics = ref_metrics.back().get();
      ops.push_back(std::make_unique<TPStreamOperator>(
          SensorSpec(c.thresholds[q], /*partitioned=*/true), o, nullptr));
    }
    for (const Event& e : events) {
      for (auto& op : ops) op->Push(e);
    }
    for (auto& op : ops) op->Flush();
  }

  for (const size_t batch : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    Outputs got(n, std::vector<std::vector<Event>>(kKeys));
    std::vector<std::unique_ptr<obs::MetricsRegistry>> query_metrics;
    obs::MetricsRegistry shared_metrics;
    TPStreamOperator::Options o = options;
    o.metrics = &shared_metrics;
    std::vector<TPStreamOperator::Query> queries;
    for (int q = 0; q < n; ++q) {
      query_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      queries.push_back(
          {SensorSpec(c.thresholds[q], /*partitioned=*/true),
           [&got, q](const Event& e) {
             got[q][e.payload[2].AsInt()].push_back(e);
           },
           query_metrics.back().get()});
    }
    auto op = TPStreamOperator::Create(std::move(queries), o);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    for (size_t i = 0; i < events.size(); i += batch) {
      op.value()->PushBatch(std::span<const Event>(
          events.data() + i, std::min(batch, events.size() - i)));
    }
    op.value()->Flush();
    EXPECT_EQ(op.value()->num_partitions(), static_cast<size_t>(kKeys));

    int64_t matches = 0;
    for (int q = 0; q < n; ++q) {
      for (int k = 0; k < kKeys; ++k) {
        ASSERT_EQ(got[q][k].size(), want[q][k].size())
            << "query " << q << " key " << k;
        for (size_t m = 0; m < want[q][k].size(); ++m) {
          EXPECT_TRUE(SameEvent(got[q][k][m], want[q][k][m]))
              << "query " << q << " key " << k << " match " << m;
        }
        matches += static_cast<int64_t>(want[q][k].size());
      }
      const obs::MetricsSnapshot ref = ref_metrics[q]->Snapshot();
      const obs::MetricsSnapshot mine = query_metrics[q]->Snapshot();
      EXPECT_EQ(StripShared(ref).counters, mine.counters) << "query " << q;
      EXPECT_EQ(StripShared(ref).gauges, mine.gauges) << "query " << q;
      EXPECT_EQ(ref.histograms, mine.histograms) << "query " << q;
    }
    EXPECT_GT(matches, 0) << "workload produced no matches";
    EXPECT_EQ(op.value()->num_matches(), matches);
  }
}

TEST(MultiQueryDifferentialTest, PartitionedIdenticalMix) {
  RunPartitionedDifferential({{5.0, 5.0, 5.0}});
}

TEST(MultiQueryDifferentialTest, PartitionedDistinctMix) {
  RunPartitionedDifferential({{1.0, 3.0, 5.0, 7.0}});
}

TEST(MultiQueryDifferentialTest, PartitionedBaselineIdenticalMix) {
  RunPartitionedDifferential({{5.0, 5.0, 5.0}, /*low_latency=*/false});
}

TEST(MultiQueryDifferentialTest, PartitionedBaselineDistinctMix) {
  RunPartitionedDifferential({{1.0, 3.0, 5.0, 7.0}, /*low_latency=*/false});
}

// Cross-engine leg: on a single-partition stream, a multi-query operator
// over the unpartitioned query and a ParallelTPStream over its PARTITION
// BY variant must agree (with one key, partitioned semantics coincide with
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
  std::vector<TPStreamOperator::Query> queries(1);
  queries[0] = {make_spec(false), [&](const Event& e) {
                  grouped.emplace_back(e.t, e.payload[0].AsInt());
                }};
  auto group = TPStreamOperator::Create(std::move(queries), {});
  ASSERT_TRUE(group.ok()) << group.status().ToString();
  for (const Event& e : events) group.value()->Push(e);
  group.value()->Flush();
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
