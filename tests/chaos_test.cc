// Chaos suite for the degradation subsystem (`chaos` ctest label; also
// under the `concurrency` label so the TSan job exercises it). Driven by
// the deterministic fault-injection harness (tests/fault_injection.h),
// it proves the Degradation contract of docs/architecture.md:
//
//  * hard caps keep matcher state (and so memory) bounded under
//    open-situation floods, with every eviction accounted;
//  * the parallel operator's drop policies bound producer push latency
//    under overload, quarantine every shed batch exactly once, and leave
//    partitions untouched by shedding byte-identical to the sequential
//    engine — including after the burst subsides (recovery);
//  * malformed CSV rows route to the dead-letter sink with full context
//    instead of killing the stream;
//  * allocation failure inside the quarantine path is contained.
//
// The bounded-memory proofs use the counting allocator of
// tests/chaos_alloc.h (single-TU include; this is that TU).

#include "tests/chaos_alloc.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "io/csv.h"
#include "matcher/low_latency_matcher.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "robust/dead_letter.h"
#include "tests/fault_injection.h"
#include "tests/test_util.h"

namespace tpstream {
namespace {

using testing::FloodWorkload;
using testing::HighWaterBytes;
using testing::MalformedCsv;
using testing::ResetHighWater;
using testing::ScopedAllocFailure;
using testing::StallingSink;

constexpr Duration kHugeWindow = Duration{1} << 30;

/// The keyed two-symbol query of the concurrency suite, but with a window
/// far wider than any test horizon: nothing ever purges, so only the
/// overload caps bound matcher state.
QuerySpec FloodSpec() {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(kHugeWindow)
      .Return("key", "A", AggKind::kFirst, "key")
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

// ---------------------------------------------------------------------------
// Situation-buffer caps: bounded memory under an open-situation flood
// ---------------------------------------------------------------------------

// With an unbounded window every finished situation stays buffered
// forever; the flood finishes one situation per event. The cap must (a)
// hold BufferedCount at the cap, (b) keep the post-warmup allocation
// high-water near zero (steady state reuses ring slots), and (c) account
// every eviction.
TEST(ChaosTest, SituationFloodIsMemoryBoundedUnderCap) {
  QuerySpec spec = FloodSpec();
  obs::MetricsRegistry registry;
  TPStreamOperator::Options options;
  options.low_latency = false;  // baseline matcher: pure buffer state
  options.metrics = &registry;
  options.overload.max_situations_per_buffer = 32;

  int64_t matches = 0;
  TPStreamOperator op(spec, options, [&](const Event&) { ++matches; });

  const std::vector<Event> events = FloodWorkload(1, 14000, 0xC0FFEE);
  // Warmup: buffers hit the cap, every scratch vector reaches steady
  // state.
  size_t i = 0;
  for (; i < 2000; ++i) op.Push(events[i]);
  ASSERT_GT(op.shed_situations(), 0) << "flood did not reach the cap";

  ResetHighWater();
  const int64_t base_bytes = tpstream::testing::LiveBytes();
  const int64_t shed_before = op.shed_situations();
  for (; i < events.size(); ++i) op.Push(events[i]);

  // (a) state bound: both symbol buffers at/below the cap.
  EXPECT_LE(op.BufferedCount(), 2 * 32u);
  // (b) memory bound: the post-warmup high-water delta stays tiny (the
  // per-match output event is the only transient allocation). Without
  // the cap this flood buffers ~28k situations and grows without bound.
  EXPECT_LT(HighWaterBytes() - base_bytes, int64_t{1} << 20)
      << "high water " << HighWaterBytes() << " base " << base_bytes;
  // (c) accounting: one eviction per appended situation beyond the cap,
  // mirrored exactly into the metrics registry.
  EXPECT_GT(op.shed_situations(), shed_before);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("robust.shed_situations"),
            op.shed_situations());
  EXPECT_EQ(snap.counters.at("robust.lost_match_upper_bound"),
            op.lost_match_upper_bound());
  EXPECT_GE(op.lost_match_upper_bound(), op.shed_situations());
  EXPECT_GT(matches, 0);
}

// The cap must degrade, not corrupt: the capped output is a sub-multiset
// of the uncapped output (matches only disappear, never appear or
// change), and a cap that is never hit changes nothing.
TEST(ChaosTest, CapDropsMatchesMonotonically) {
  QuerySpec spec = FloodSpec();
  using Sig = std::map<std::tuple<TimePoint, int64_t, int64_t>, int64_t>;
  auto run = [&](size_t cap) {
    Sig out;
    TPStreamOperator::Options options;
    options.low_latency = false;
    options.overload.max_situations_per_buffer = cap;
    TPStreamOperator op(spec, options, [&](const Event& e) {
      ++out[{e.t, e.payload[0].AsInt(), e.payload[1].AsInt()}];
    });
    for (const Event& e : FloodWorkload(1, 300, 99)) op.Push(e);
    return out;
  };
  auto total = [](const Sig& sig) {
    int64_t n = 0;
    for (const auto& [key, count] : sig) n += count;
    return n;
  };
  const Sig uncapped = run(0);
  const Sig roomy = run(1000);  // never hit: 300 events total
  const Sig tight = run(8);
  EXPECT_EQ(roomy, uncapped);
  EXPECT_LT(total(tight), total(uncapped));
  for (const auto& [m, count] : tight) {
    const auto it = uncapped.find(m);
    ASSERT_TRUE(it != uncapped.end())
        << "capped run invented a match at t=" << std::get<0>(m);
    EXPECT_LE(count, it->second);
  }
}

// ---------------------------------------------------------------------------
// Trigger-pool cap (low-latency matcher)
// ---------------------------------------------------------------------------

// A before-chain of six symbols, all ongoing simultaneously: symbol k's
// start trigger pools every started symbol it is not directly
// constrained against (k-1 is excluded: `before` cannot be certain while
// k-1 is ongoing). Pool sizes are k-1 for k = 2..5, so a cap of 2 sheds
// exactly (3-2) + (4-2) = 3 candidates — deterministically.
TEST(ChaosTest, TriggerPoolCapShedsOldestCandidates) {
  std::vector<std::string> names = {"A", "B", "C", "D", "E", "F"};
  TemporalPattern pattern(names);
  for (int i = 0; i + 1 < 6; ++i) {
    ASSERT_TRUE(pattern.AddRelation(i, Relation::kBefore, i + 1).ok());
  }
  DetectionAnalysis analysis(
      pattern, std::vector<DurationConstraint>(pattern.num_symbols()));

  auto run = [&](size_t pool_cap) {
    obs::MetricsRegistry registry;
    int64_t matches = 0;
    LowLatencyMatcher matcher(pattern, analysis, kHugeWindow,
                              [&](const Match&) { ++matches; });
    matcher.EnableMetrics(&registry);
    robust::OverloadPolicy policy;
    policy.max_trigger_pool = pool_cap;
    matcher.SetOverload(policy);

    // Symbol i starts at t=10+i and never finishes inside the run: all
    // six are ongoing together from t=15.
    std::vector<SymbolSituation> none;
    for (int i = 0; i < 6; ++i) {
      Situation s({}, /*ts=*/10 + i, kTimeUnknown);
      std::vector<SymbolSituation> started = {SymbolSituation{i, s}};
      matcher.Update(started, none, 10 + i);
    }
    return std::pair<int64_t, int64_t>(matcher.shed_trigger_candidates(),
                                       matches);
  };

  EXPECT_EQ(run(0).first, 0);  // unbounded: nothing shed
  const auto capped = run(2);
  EXPECT_EQ(capped.first, 3);
  EXPECT_EQ(capped.second, 0);  // the chain never completes a match

  // The metric mirrors the accessor.
  obs::MetricsRegistry registry;
  LowLatencyMatcher matcher(pattern, analysis, kHugeWindow,
                            [](const Match&) {});
  matcher.EnableMetrics(&registry);
  robust::OverloadPolicy policy;
  policy.max_trigger_pool = 1;
  matcher.SetOverload(policy);
  std::vector<SymbolSituation> none;
  for (int i = 0; i < 6; ++i) {
    Situation s({}, 10 + i, kTimeUnknown);
    std::vector<SymbolSituation> started = {SymbolSituation{i, s}};
    matcher.Update(started, none, 10 + i);
  }
  EXPECT_EQ(registry.Snapshot().counters.at("robust.shed_trigger_candidates"),
            matcher.shed_trigger_candidates());
  EXPECT_GT(matcher.shed_trigger_candidates(), 0);
}

// ---------------------------------------------------------------------------
// Parallel backpressure policies
// ---------------------------------------------------------------------------

using Sig = std::vector<std::tuple<TimePoint, int64_t, int64_t>>;

/// Skewed open-situation flood: key 0 flips its flag every tick (the hot
/// partition whose matcher state floods), the other keys emit rarely.
/// At most one event per key per tick, so (key, t) identifies an event.
std::vector<Event> SkewedFlood(int keys, TimePoint horizon,
                               double emit_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution emit(emit_prob);
  std::vector<bool> value(keys, false);
  std::vector<Event> events;
  for (TimePoint t = 1; t <= horizon; ++t) {
    for (int k = 0; k < keys; ++k) {
      if (k != 0 && !emit(rng)) continue;
      value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

Sig SequentialReference(const QuerySpec& spec,
                        const TPStreamOperator::Options& op_options,
                        const std::vector<Event>& events) {
  Sig out;
  TPStreamOperator op(spec, op_options, [&](const Event& e) {
    out.emplace_back(e.t, e.payload[0].AsInt(), e.payload[1].AsInt());
  });
  for (const Event& e : events) op.Push(e);
  std::sort(out.begin(), out.end());
  return out;
}

/// All (key, t) pairs held by the sink's kShedBatch items. Every input
/// event is unique under (key, t) by construction, so multiset ==
/// multiplicity checks give the exactly-once property.
std::vector<std::pair<int64_t, TimePoint>> ShedPairs(
    const std::vector<robust::DeadLetterItem>& items) {
  std::vector<std::pair<int64_t, TimePoint>> pairs;
  for (const robust::DeadLetterItem& item : items) {
    EXPECT_EQ(item.kind, robust::DeadLetterKind::kShedBatch);
    EXPECT_FALSE(item.events.empty());
    for (const Event& e : item.events) {
      pairs.emplace_back(e.payload[0].AsInt(), e.t);
    }
  }
  return pairs;
}

// The flagship scenario of the Degradation contract: situation caps plus
// kDropOldest rings under an open-situation flood with a stalled
// consumer. Proves, in one run:
//  * bounded allocator high-water despite flood + burst,
//  * every shed event reaches the dead-letter sink exactly once,
//  * partitions untouched by shedding match the sequential engine
//    byte-identically — including the post-burst (recovery) phase,
//  * shed/processed accounting adds up exactly.
TEST(ChaosTest, DropOldestFloodBurstQuarantinesExactlyOnceAndRecovers) {
  const QuerySpec spec = FloodSpec();
  const int kKeys = 8;
  const TimePoint kBurstEnd = 300;
  const TimePoint kHorizon = 600;
  const std::vector<Event> events =
      SkewedFlood(kKeys, kHorizon, /*emit_prob=*/0.05, 4242);

  TPStreamOperator::Options op_options;
  op_options.overload.max_situations_per_buffer = 64;

  robust::CollectingDeadLetterSink sink(/*capacity=*/1 << 20);
  obs::MetricsRegistry enable_flag;  // non-null => per-worker registries

  parallel::ParallelTPStream::Options options;
  options.num_workers = 3;
  options.batch_size = 8;
  options.ring_capacity = 2;
  options.backpressure = robust::BackpressurePolicy::kDropOldest;
  options.dead_letter = &sink;
  options.operator_options = op_options;
  options.operator_options.metrics = &enable_flag;

  Sig parallel_out;
  std::mutex mutex;
  // Stalled consumer: every 32nd match of the hot key (key 0 floods its
  // partition) sleeps, so the hot worker falls far behind and its ring
  // sheds. The stall holds the operator's output lock, but the cold
  // workers' rings (4 batches x 8 events against a trickle of cold
  // events) ride out each hold, so their keys stay clean. Disarmed for
  // the recovery phase.
  std::atomic<int64_t> hot_matches{0};
  StallingSink stalling(
      [&](const Event& e) {
        std::lock_guard<std::mutex> lock(mutex);
        parallel_out.emplace_back(e.t, e.payload[0].AsInt(),
                                  e.payload[1].AsInt());
      },
      [&](const Event& e) {
        return e.payload[0].AsInt() == 0 && ++hot_matches % 32 == 0;
      },
      std::chrono::microseconds(100));

  obs::MetricsSnapshot metrics;
  int64_t shed_events = 0;
  {
    parallel::ParallelTPStream op(
        spec, options, [&](const Event& e) { stalling(e); });
    ResetHighWater();
    // Producer paced per tick: far above the stalled hot worker's drain
    // rate (sustained overload, so its ring sheds) yet slow enough that
    // the cold workers absorb the stall periods in their rings.
    TimePoint last_t = 0;
    for (const Event& e : events) {
      if (e.t != last_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (last_t == kBurstEnd) stalling.Disarm();  // burst over: recovery
        last_t = e.t;
      }
      op.Push(e);
    }
    op.Flush();

    // Bounded memory: with a 64-situation cap per buffer and the flood
    // never purging (unbounded window), the high-water mark stays under
    // a fixed bound. Uncapped, the buffers alone would keep growing with
    // the horizon.
    EXPECT_LT(HighWaterBytes(), int64_t{64} << 20);

    shed_events = op.shed_events();
    EXPECT_GT(shed_events, 0) << "burst never overloaded the ring";
    EXPECT_GT(op.shed_batches(), 0);
    EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
    metrics = op.Metrics();
  }

  // Accounting adds up: every pushed event was either processed by a
  // worker engine or shed (and counted) — none lost, none duplicated.
  EXPECT_EQ(metrics.counters.at("operator.events") + shed_events,
            static_cast<int64_t>(events.size()));
  EXPECT_EQ(metrics.counters.at("parallel.shed_events"), shed_events);
  // The open-situation flood hit the 64-situation cap on the hot
  // partition (unbounded window: only the cap bounds the buffers).
  EXPECT_GT(metrics.counters.at("robust.shed_situations"), 0);

  // Exactly-once quarantine: the dead-letter sink holds each shed event
  // once — counts match and no (key, t) pair repeats.
  EXPECT_EQ(sink.dropped(), 0);
  const auto pairs = ShedPairs(sink.Items());
  EXPECT_EQ(static_cast<int64_t>(pairs.size()), shed_events);
  std::set<std::pair<int64_t, TimePoint>> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), pairs.size()) << "an event was quarantined twice";

  // Differential: partitions that never lost an event must be
  // byte-identical to the sequential engine (same overload caps), across
  // burst and recovery phases.
  std::set<int64_t> shed_keys;
  for (const auto& [key, t] : pairs) shed_keys.insert(key);
  EXPECT_LT(shed_keys.size(), static_cast<size_t>(kKeys))
      << "every key shed an event; differential check is vacuous";

  const Sig reference = SequentialReference(spec, op_options, events);
  auto clean = [&](const Sig& sig) {
    Sig out;
    for (const auto& m : sig) {
      if (shed_keys.count(std::get<1>(m)) == 0) out.push_back(m);
    }
    return out;
  };
  std::sort(parallel_out.begin(), parallel_out.end());
  EXPECT_EQ(clean(parallel_out), clean(reference));
}

// kDropNewest bounds the producer's push latency under a hard consumer
// stall: no Push may take longer than the shed-spin budget allows, shed
// events are quarantined exactly once, and kBlock (the default) on the
// same workload sheds nothing.
TEST(ChaosTest, DropNewestBoundsPushLatencyAndBlockIsLossless) {
  const QuerySpec spec = FloodSpec();
  const std::vector<Event> events = FloodWorkload(4, 200, 777);

  auto run = [&](robust::BackpressurePolicy policy,
                 robust::DeadLetterSink* sink, int64_t* max_push_ns) {
    parallel::ParallelTPStream::Options options;
    options.num_workers = 2;
    options.batch_size = 4;
    options.ring_capacity = 1;
    options.backpressure = policy;
    options.dead_letter = sink;
    options.operator_options.metrics = nullptr;
    options.operator_options.overload.max_situations_per_buffer = 32;

    // Unconditionally slow consumer: every match sleeps.
    StallingSink stalling([](const Event&) {},
                          [](const Event&) { return true; },
                          std::chrono::microseconds(20));
    parallel::ParallelTPStream op(spec, options,
                                  [&](const Event& e) { stalling(e); });
    int64_t worst = 0;
    for (const Event& e : events) {
      const auto t0 = std::chrono::steady_clock::now();
      op.Push(e);
      const auto t1 = std::chrono::steady_clock::now();
      worst = std::max<int64_t>(
          worst, std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                     .count());
    }
    op.Flush();
    *max_push_ns = worst;
    return std::pair<int64_t, int64_t>(op.shed_events(), op.shed_batches());
  };

  robust::CollectingDeadLetterSink sink(1 << 20);
  int64_t drop_worst = 0;
  const auto [shed_events, shed_batches] =
      run(robust::BackpressurePolicy::kDropNewest, &sink, &drop_worst);
  EXPECT_GT(shed_events, 0);
  EXPECT_GT(shed_batches, 0);

  // Exactly-once into the sink.
  const auto pairs = ShedPairs(sink.Items());
  EXPECT_EQ(static_cast<int64_t>(pairs.size()), shed_events);
  std::set<std::pair<int64_t, TimePoint>> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), pairs.size());

  // Bounded push: the shed-spin budget is a few hundred relax/yield
  // iterations; even under sanitizers a single Push must finish in far
  // less than the consumer's aggregate stall. The generous ceiling keeps
  // the assertion meaningful (kBlock would park for the full drain,
  // easily seconds here) without flaking on slow machines.
  EXPECT_LT(drop_worst, int64_t{250} * 1000 * 1000) << "push latency unbounded?";

  // kBlock on the same overload: zero shed, everything delivered. (Not
  // measuring latency — blocking is the point.)
  int64_t block_worst = 0;
  const auto [block_shed, block_batches] =
      run(robust::BackpressurePolicy::kBlock, nullptr, &block_worst);
  EXPECT_EQ(block_shed, 0);
  EXPECT_EQ(block_batches, 0);
}

// ---------------------------------------------------------------------------
// Malformed CSV bursts
// ---------------------------------------------------------------------------

TEST(ChaosTest, MalformedCsvRowsQuarantineWithRowContext) {
  const auto input = MalformedCsv(/*seed=*/31337, /*rows=*/500,
                                  /*bad_fraction=*/0.2);
  ASSERT_FALSE(input.bad_rows.empty());

  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  robust::CollectingDeadLetterSink sink(1 << 16);
  obs::MetricsRegistry registry;
  std::istringstream in(input.text);
  io::CsvEventReader::Options options;
  options.on_error = io::CsvEventReader::OnError::kSkipAndQuarantine;
  options.dead_letter = &sink;
  options.metrics = &registry;
  io::CsvEventReader reader(in, schema, options);

  std::vector<TimePoint> delivered;
  Event event;
  for (;;) {
    const Status s = reader.Next(&event);
    if (s.code() == StatusCode::kNotFound) break;
    ASSERT_TRUE(s.ok()) << s.message();
    delivered.push_back(event.t);
  }

  // Every good row delivered in order; every bad row skipped + counted.
  EXPECT_EQ(delivered, input.good_timestamps);
  EXPECT_EQ(reader.quarantined(),
            static_cast<int64_t>(input.bad_rows.size()));
  EXPECT_EQ(registry.Snapshot().counters.at("csv.quarantined"),
            reader.quarantined());

  // Dead-letter items carry the exact row numbers (exactly once) plus
  // the raw line and a non-empty parse error.
  const auto items = sink.Items();
  ASSERT_EQ(items.size(), input.bad_rows.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].kind, robust::DeadLetterKind::kCsvRow);
    EXPECT_EQ(items[i].row, input.bad_rows[i]);
    EXPECT_FALSE(items[i].detail.empty());
  }
}

TEST(ChaosTest, CsvQuarantineBudgetTripsResourceExhausted) {
  Schema schema({Field{"key", ValueType::kInt}});
  std::istringstream in(
      "timestamp,key\n1,1\nbad,1\nbad,2\nbad,3\n5,2\n");
  io::CsvEventReader::Options options;
  options.on_error = io::CsvEventReader::OnError::kSkipAndQuarantine;
  options.max_quarantined = 2;
  io::CsvEventReader reader(in, schema, options);

  Event event;
  ASSERT_TRUE(reader.Next(&event).ok());
  EXPECT_EQ(event.t, 1);
  // Rows 2 and 3 are quarantined silently; row 4 exceeds the budget.
  const Status s = reader.Next(&event);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(reader.quarantined(), 3);
}

// Header errors stay fatal in every mode: without a header nothing can
// be parsed, so skipping would spin over the whole file.
TEST(ChaosTest, CsvHeaderErrorsAreFatalEvenWhenSkipping) {
  Schema schema({Field{"key", ValueType::kInt}});
  std::istringstream in("no_timestamp_here,key\n1,2\n");
  io::CsvEventReader::Options options;
  options.on_error = io::CsvEventReader::OnError::kSkipAndQuarantine;
  io::CsvEventReader reader(in, schema, options);
  Event event;
  EXPECT_EQ(reader.Next(&event).code(), StatusCode::kParseError);
  EXPECT_EQ(reader.quarantined(), 0);
}

// ---------------------------------------------------------------------------
// Allocation failure containment
// ---------------------------------------------------------------------------

// An allocation failure inside the quarantine path must not corrupt the
// sink: the failed Consume propagates bad_alloc (strong guarantee of the
// underlying vector), the sink stays usable, and its accounting reflects
// only successful operations.
TEST(ChaosTest, AllocationFailureInQuarantinePathIsContained) {
  robust::CollectingDeadLetterSink sink(16);
  robust::DeadLetterItem item;
  item.kind = robust::DeadLetterKind::kShedBatch;

  EXPECT_THROW(
      {
        ScopedAllocFailure fail(/*after=*/1);
        (void)sink.Consume(robust::DeadLetterItem(item));
      },
      std::bad_alloc);

  // The sink survived: consistent counts, still accepting.
  EXPECT_EQ(sink.accepted(), 0);
  EXPECT_EQ(sink.dropped(), 0);
  ASSERT_TRUE(sink.Consume(robust::DeadLetterItem(item)).ok());
  EXPECT_EQ(sink.accepted(), 1);
  EXPECT_EQ(sink.Items().size(), 1u);
}

// A full sink reports kResourceExhausted and counts the drop — the
// dead-letter channel itself is bounded by design.
TEST(ChaosTest, DeadLetterSinkCapacityIsEnforced) {
  robust::CollectingDeadLetterSink sink(/*capacity=*/2);
  robust::DeadLetterItem item;
  EXPECT_TRUE(sink.Consume(robust::DeadLetterItem(item)).ok());
  EXPECT_TRUE(sink.Consume(robust::DeadLetterItem(item)).ok());
  const Status s = sink.Consume(robust::DeadLetterItem(item));
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sink.accepted(), 2);
  EXPECT_EQ(sink.dropped(), 1);
  // Take() drains but keeps totals; capacity frees up again.
  EXPECT_EQ(sink.Take().size(), 2u);
  EXPECT_TRUE(sink.Consume(robust::DeadLetterItem(item)).ok());
  EXPECT_EQ(sink.accepted(), 3);
}

}  // namespace
}  // namespace tpstream
