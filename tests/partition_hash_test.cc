// ValueHash sits on the per-event partition-routing path of
// ParallelTPStream. This suite pins down its two contractual properties:
// it never allocates (the old path materialized Value::ToString() for
// every non-int key), and it is deterministic, so a given key always
// lands on the same worker. A differential run with a double partition
// key checks end-to-end routing against the sequential reference.
//
// The same counting allocator pins TPStreamOperator's own routing:
// pushing to an existing key allocates nothing, and a new key costs its
// stream state only (the query program and its initial plan are built
// once per engine), over Push and over PushBatch with compiled predicates.
// It also pins the alert path: with metrics on, recording each match's
// detection latency adds no allocation.

#include "common/value.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/detection.h"
#include "core/operator.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "query/parser.h"

// Counting global allocator: every operator new in this binary bumps the
// counters, so a test can assert a region of code performs none, or
// measure the bytes it requests.
namespace {
std::atomic<size_t> g_allocation_count{0};
std::atomic<size_t> g_allocated_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpstream {
namespace {

TEST(ValueHashTest, HashingIsAllocationFreeForEveryType) {
  const Value values[] = {
      Value(),
      Value(static_cast<int64_t>(1234567)),
      Value(3.14159),
      Value(true),
      Value(std::string(64, 'x')),  // longer than any SSO buffer
  };
  size_t sink = 0;
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    for (const Value& v : values) sink ^= ValueHash{}(v);
  }
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "ValueHash allocated on the hot path";
  // Defeat dead-code elimination of the hash loop.
  EXPECT_NE(sink, static_cast<size_t>(0x5eed));
}

TEST(ValueHashTest, EqualValuesHashEqually) {
  EXPECT_EQ(ValueHash{}(Value(2.5)), ValueHash{}(Value(2.5)));
  EXPECT_EQ(ValueHash{}(Value(0.0)), ValueHash{}(Value(-0.0)));
  EXPECT_EQ(ValueHash{}(Value(static_cast<int64_t>(-7))),
            ValueHash{}(Value(static_cast<int64_t>(-7))));
  EXPECT_EQ(ValueHash{}(Value(std::string("sensor-17"))),
            ValueHash{}(Value(std::string("sensor-17"))));
  EXPECT_EQ(ValueHash{}(Value(true)), ValueHash{}(Value(true)));
  EXPECT_EQ(ValueHash{}(Value()), ValueHash{}(Value()));
}

QuerySpec DoubleKeyedSpec() {
  Schema schema(
      {Field{"key", ValueType::kDouble}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(150)
      .Return("key", "A", AggKind::kFirst, "key")
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

using Signature = std::vector<std::pair<TimePoint, double>>;

TEST(ValueHashTest, DoubleKeyedPartitioningIsStableAndMatchesSequential) {
  const QuerySpec spec = DoubleKeyedSpec();

  // 11 distinct double keys including negatives and fractions.
  std::vector<double> keys;
  for (int k = 0; k < 11; ++k) keys.push_back(0.5 * k - 2.25);
  std::mt19937_64 rng(7);
  std::vector<bool> value(keys.size(), false);
  std::bernoulli_distribution flip(0.08);
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 600; ++t) {
    for (size_t k = 0; k < keys.size(); ++k) {
      if (flip(rng)) value[k] = !value[k];
      events.push_back(Event({Value(keys[k]), Value(value[k])}, t));
    }
  }

  Signature sequential;
  {
    TPStreamOperator op(spec, {}, [&](const Event& e) {
      sequential.emplace_back(e.t, e.payload[0].AsDouble());
    });
    for (const Event& e : events) op.Push(e);
  }
  ASSERT_FALSE(sequential.empty());
  std::sort(sequential.begin(), sequential.end());

  // Two independent parallel runs: identical results (routing is a pure
  // function of the key) and both equal to the sequential reference.
  Signature runs[2];
  for (Signature& out : runs) {
    std::mutex mutex;
    parallel::ParallelTPStream::Options options;
    options.num_workers = 3;
    options.batch_size = 16;
    parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
      std::lock_guard<std::mutex> lock(mutex);
      out.emplace_back(e.t, e.payload[0].AsDouble());
    });
    for (const Event& e : events) op.Push(e);
    op.Flush();
    EXPECT_EQ(op.num_partitions(), keys.size());
    std::sort(out.begin(), out.end());
  }
  EXPECT_EQ(runs[0], sequential);
  EXPECT_EQ(runs[1], sequential);
}


// Predicates that stay false on the pushed events: no situation opens,
// so after routing, derive and match do no work that could allocate.
QuerySpec QuietSpec(ValueType key_type) {
  const Schema schema(
      {Field{"key", key_type}, Field{"x", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM S s PARTITION BY s.key DEFINE A AS s.x > 10, B AS s.x < -10 "
      "PATTERN A before B WITHIN 50 RETURN count(A) AS n",
      schema);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

TEST(PartitionRoutingTest, PushToExistingKeysIsAllocationFree) {
  for (ValueType type : {ValueType::kInt, ValueType::kString}) {
    SCOPED_TRACE(type == ValueType::kInt ? "int keys" : "string keys");
    constexpr int kKeys = 32;
    constexpr int kRounds = 100;
    std::vector<Event> events;
    for (int round = 0; round < kRounds + 2; ++round) {
      for (int k = 0; k < kKeys; ++k) {
        Value key = type == ValueType::kInt
                        ? Value(static_cast<int64_t>(k * 1000003))
                        : Value(std::to_string(k) + std::string(62, 'h'));
        events.push_back(Event({std::move(key), Value(0.0)}, round + 1));
      }
    }
    for (bool batched : {false, true}) {
      SCOPED_TRACE(batched ? "PushBatch" : "Push");
      TPStreamOperator::Options options;
      ASSERT_TRUE(options.compiled_predicates);
      TPStreamOperator op(QuietSpec(type), options, nullptr);
      // Every batch mixes all keys, two rounds of them. The first one
      // creates the keys and sizes the routing scratch and the columnar
      // batch.
      const size_t batch = 2 * kKeys;
      auto push = [&](size_t begin) {
        if (batched) {
          op.PushBatch(std::span<const Event>(events.data() + begin, batch));
        } else {
          for (size_t i = begin; i < begin + batch; ++i) op.Push(events[i]);
        }
      };
      push(0);
      ASSERT_EQ(op.num_partitions(), static_cast<size_t>(kKeys));

      const size_t before = g_allocation_count.load(std::memory_order_relaxed);
      for (size_t i = batch; i < events.size(); i += batch) push(i);
      const size_t after = g_allocation_count.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0u) << "routing to existing keys allocated";
      EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
    }
  }
}

// A 5-definition query shaped like the host telemetry rules: every key
// carries five derive slots (four with aggregates) and a 5-symbol
// low-latency matcher with an adaptive controller.
QuerySpec FiveRuleSpec() {
  const Schema schema({Field{"host", ValueType::kInt},
                       Field{"cpu", ValueType::kDouble},
                       Field{"mem", ValueType::kDouble},
                       Field{"temp", ValueType::kDouble},
                       Field{"lat", ValueType::kDouble},
                       Field{"err", ValueType::kInt}});
  auto spec = query::ParseQuery(
      "FROM H h PARTITION BY h.host "
      "DEFINE BUSY AS h.cpu > 60 AND h.mem > 50, HOT AS h.temp > 40, "
      "SLOW AS h.lat > 30, LOSSY AS h.err > 100, PRESSURE AS h.mem > 88 "
      "PATTERN BUSY overlaps HOT; BUSY meets HOT; BUSY starts HOT "
      "AND HOT overlaps SLOW; HOT meets SLOW; HOT before SLOW "
      "AND SLOW overlaps LOSSY; SLOW meets LOSSY; SLOW before LOSSY "
      "AND BUSY overlaps PRESSURE; BUSY starts PRESSURE; "
      "BUSY during PRESSURE "
      "WITHIN 30 "
      "RETURN first(BUSY.host) AS host, max(HOT.temp) AS peak, "
      "avg(SLOW.lat) AS lat, count(LOSSY) AS lossy",
      schema);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

Event QuietHostEvent(int64_t host, TimePoint t) {
  return Event({Value(host), Value(10.0), Value(20.0), Value(20.0),
                Value(1.0), Value(static_cast<int64_t>(0))},
               t);
}

// Heap bytes requested per new key when every key was a whole
// TPStreamOperator (its own QuerySpec copy, DetectionAnalysis, plan DP,
// scratch and metric handles), measured by this test on that code.
constexpr size_t kOperatorPerKeyBytes = 11289;

TEST(PartitionRoutingTest, NewKeyCostsStreamStateOnly) {
  constexpr int kKeys = 1000;
  std::vector<Event> events;
  for (int k = 0; k <= kKeys; ++k) events.push_back(QuietHostEvent(k, 1 + k));
  {
    TPStreamOperator op(FiveRuleSpec(), {}, nullptr);
    op.Push(events[0]);
    const size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
    for (int k = 1; k <= kKeys; ++k) op.Push(events[k]);
    const size_t per_key =
        (g_allocated_bytes.load(std::memory_order_relaxed) - before) / kKeys;
    ASSERT_EQ(op.num_partitions(), static_cast<size_t>(kKeys + 1));
    RecordProperty("bytes_per_new_key", static_cast<int>(per_key));
    EXPECT_LE(per_key, kOperatorPerKeyBytes / 2) << per_key << " B per key";
  }
  // The initial cost-based plan is chosen once per engine, not per key.
  obs::MetricsRegistry registry;
  TPStreamOperator::Options options;
  options.metrics = &registry;
  TPStreamOperator op(FiveRuleSpec(), options, nullptr);
  for (int k = 1; k <= kKeys; ++k) op.Push(events[k]);
  EXPECT_EQ(registry.GetCounter("optimizer.reoptimizations")->value(), 1);
}

// With metrics on, every match also records its detection latency, which
// needs the analytic t_d of the match's configuration. That costs no
// allocation: payload-carrying configurations are read in place.
TEST(AlertPathTest, EarliestDetectionIsAllocationFree) {
  TemporalPattern pattern({"A", "B", "C"});
  ASSERT_TRUE(pattern.AddRelation(0, Relation::kOverlaps, 1).ok());
  ASSERT_TRUE(pattern.AddRelation(1, Relation::kBefore, 2).ok());
  const Tuple payload = {Value(std::string(64, 'p')), Value(1.5)};
  const std::vector<Situation> config = {Situation(payload, 1, 10),
                                         Situation(payload, 5, 20),
                                         Situation(payload, 25, 30)};
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  const TimePoint td = EarliestDetection(pattern, config);
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(td, 25);
  EXPECT_EQ(after - before, 0u);
}

// Many alerts per event: 16 keys each flip a flag, and A meets/before B.
TEST(AlertPathTest, MetricsOnAddsNoAllocationPerAlert) {
  const Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  auto spec = query::ParseQuery(
      "FROM S s PARTITION BY s.key DEFINE A AS s.flag, B AS NOT s.flag "
      "PATTERN A meets B; A before B WITHIN 64 "
      "RETURN first(A.key) AS k, count(B) AS n",
      schema);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 2000; ++t) {
    for (int64_t k = 0; k < 16; ++k) {
      events.push_back(Event({Value(k), Value((t / (2 + k % 3)) % 2 == 0)}, t));
    }
  }
  struct Run {
    size_t allocations = 0;
    int64_t alerts = 0;
  };
  auto run = [&](obs::MetricsRegistry* metrics) {
    TPStreamOperator::Options options;
    options.metrics = metrics;
    Run r;
    TPStreamOperator op(spec.value(), options,
                           [&r](const Event&) { ++r.alerts; });
    const size_t warm = events.size() / 2;
    for (size_t i = 0; i < warm; ++i) op.Push(events[i]);
    r.alerts = 0;
    const size_t before = g_allocation_count.load(std::memory_order_relaxed);
    for (size_t i = warm; i < events.size(); ++i) op.Push(events[i]);
    r.allocations = g_allocation_count.load(std::memory_order_relaxed) - before;
    return r;
  };
  const Run off = run(nullptr);
  obs::MetricsRegistry registry;
  const Run on = run(&registry);
  ASSERT_GT(off.alerts, 1000);
  EXPECT_EQ(on.alerts, off.alerts);
  EXPECT_GE(registry.GetHistogram("matcher.detection_latency")->count(),
            on.alerts);
  EXPECT_EQ(on.allocations, off.allocations)
      << "metrics on: "
      << static_cast<double>(on.allocations) / static_cast<double>(on.alerts)
      << " allocations per alert, off: "
      << static_cast<double>(off.allocations) /
             static_cast<double>(off.alerts);
}

}  // namespace
}  // namespace tpstream
