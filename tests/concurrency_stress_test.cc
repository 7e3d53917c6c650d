// Randomized concurrency stress suite for the partition-parallel
// operator (carried by the `concurrency` ctest label, so the TSan CI job
// runs exactly these binaries). Three properties are exercised:
//
//  1. Differential correctness: across randomized worker counts, batch
//     sizes, key counts, partition skews, and interleaved Flush() calls,
//     the parallel match multiset must equal the single-threaded
//     TPStreamOperator reference exactly.
//  2. Stats safety: num_matches()/num_partitions()/num_events() must be
//     callable from a second thread while ingestion is running (TSan
//     verifies freedom from data races) and must be monotone snapshots.
//  3. Shutdown: destruction from any state — pending batches, never
//     flushed, zero events — must deliver every match and join cleanly.
//  4. Checkpoints under load: the workers serialize their engines while
//     a second thread reads the stats and metrics; every checkpoint
//     restores byte for byte, under both a lossless and a shedding
//     backpressure policy.

#include "parallel/parallel_operator.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "robust/dead_letter.h"

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

// Per-key boolean phases with tunable skew: key 0 emits every tick (the
// hot key), every other key emits with probability `emit_prob`. Small
// probabilities concentrate nearly all traffic on one partition (and so
// one worker); 1.0 is uniform. At most one event per key per tick keeps
// timestamps strictly increasing per partition.
std::vector<Event> SkewedWorkload(int keys, TimePoint horizon,
                                  double emit_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bool> value(keys, false);
  std::bernoulli_distribution flip(0.07);
  std::bernoulli_distribution emit(emit_prob);
  std::vector<Event> events;
  for (TimePoint t = 1; t <= horizon; ++t) {
    for (int k = 0; k < keys; ++k) {
      if (k != 0 && !emit(rng)) continue;
      if (flip(rng)) value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

// Match multiset signature: (timestamp, key) pairs, sorted.
using Signature = std::vector<std::pair<TimePoint, int64_t>>;

Signature SequentialReference(const QuerySpec& spec,
                              const std::vector<Event>& events) {
  Signature out;
  TPStreamOperator op(spec, {}, [&](const Event& e) {
    out.emplace_back(e.t, e.payload[0].AsInt());
  });
  for (const Event& e : events) op.Push(e);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ConcurrencyStressTest, ParallelMatchesSequentialAcrossRandomConfigs) {
  const QuerySpec spec = KeyedSpec();
  std::mt19937_64 rng(20260806);

  const int kKeys[] = {1, 2, 3, 17, 33};
  const size_t kBatches[] = {1, 2, 7, 33, 256};
  const double kEmitProbs[] = {1.0, 0.5, 0.1};
  // 0 = never flush mid-stream; otherwise flush every N pushed events.
  const size_t kFlushEvery[] = {0, 97, 389, 1021};

  int configs = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const int keys = kKeys[rng() % std::size(kKeys)];
    const size_t batch = kBatches[rng() % std::size(kBatches)];
    const double emit_prob = kEmitProbs[rng() % std::size(kEmitProbs)];
    const size_t flush_every = kFlushEvery[rng() % std::size(kFlushEvery)];
    const int workers = 1 + static_cast<int>(rng() % 6);
    const TimePoint horizon = 150 + static_cast<TimePoint>(rng() % 300);
    const uint64_t seed = rng();
    SCOPED_TRACE(testing::Message()
                 << "config " << iter << ": keys=" << keys
                 << " workers=" << workers << " batch=" << batch
                 << " emit_prob=" << emit_prob
                 << " flush_every=" << flush_every
                 << " horizon=" << horizon << " seed=" << seed);

    const std::vector<Event> events =
        SkewedWorkload(keys, horizon, emit_prob, seed);
    const Signature expected = SequentialReference(spec, events);

    Signature parallel_out;
    std::mutex mutex;
    parallel::ParallelTPStream::Options options;
    options.num_workers = workers;
    options.batch_size = batch;
    {
      parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
        std::lock_guard<std::mutex> lock(mutex);
        parallel_out.emplace_back(e.t, e.payload[0].AsInt());
      });
      size_t pushed = 0;
      for (const Event& e : events) {
        op.Push(e);
        if (flush_every != 0 && ++pushed % flush_every == 0) op.Flush();
      }
      op.Flush();
      EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
      EXPECT_EQ(op.num_matches(), static_cast<int64_t>(expected.size()));
      EXPECT_EQ(op.num_partitions(), static_cast<size_t>(keys));
    }
    std::sort(parallel_out.begin(), parallel_out.end());
    EXPECT_EQ(parallel_out, expected);
    ++configs;
  }
  EXPECT_GE(configs, 20);
}

TEST(ConcurrencyStressTest, StatsGettersAreSafeDuringIngestion) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = SkewedWorkload(8, 2500, 1.0, 42);
  const Signature expected = SequentialReference(spec, events);

  parallel::ParallelTPStream::Options options;
  options.num_workers = 4;
  options.batch_size = 32;
  std::atomic<int64_t> delivered{0};
  parallel::ParallelTPStream op(spec, options,
                                [&](const Event&) { ++delivered; });

  // Hammer the getters from a second thread for the whole ingestion run;
  // each must be race-free (TSan) and monotone.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t last_matches = 0;
    int64_t last_events = 0;
    size_t last_partitions = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const int64_t m = op.num_matches();
      const int64_t e = op.num_events();
      const size_t p = op.num_partitions();
      EXPECT_GE(m, last_matches);
      EXPECT_GE(e, last_events);
      EXPECT_GE(p, last_partitions);
      last_matches = m;
      last_events = e;
      last_partitions = p;
      std::this_thread::yield();
    }
  });

  size_t pushed = 0;
  for (const Event& e : events) {
    op.Push(e);
    if (++pushed % 1000 == 0) op.Flush();  // interleaved quiesce points
  }
  op.Flush();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
  EXPECT_EQ(op.num_matches(), static_cast<int64_t>(expected.size()));
  EXPECT_EQ(op.num_matches(), delivered.load());
  EXPECT_EQ(op.num_partitions(), 8u);
}

// Heavy skew (key 0 emits every tick, other keys rarely) funnels ~90% of
// the traffic through one worker while tiny rings force the producer
// into its backpressure path (ring_full -> spin -> park) and drive the
// ring indices around the 2^k wrap many times. Results must still match
// the sequential reference exactly, and the ring metrics must be
// coherent: `parallel.ring_full` counts each stalled submit at most
// once, free-ring misses stay rare, and the occupancy gauges read zero
// once Flush() has drained everything.
TEST(ConcurrencyStressTest, SkewedBackpressureWithTinyRings) {
  const QuerySpec spec = KeyedSpec();
  for (const size_t ring_capacity : {size_t{1}, size_t{2}}) {
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      SCOPED_TRACE(testing::Message() << "ring_capacity=" << ring_capacity
                                      << " batch=" << batch);
      // emit_prob 0.012 with 10 keys: key 0 carries ~90% of all events.
      const std::vector<Event> events =
          SkewedWorkload(10, 3000, 0.012, 7000 + ring_capacity * 10 + batch);
      const Signature expected = SequentialReference(spec, events);

      Signature parallel_out;
      std::mutex mutex;
      parallel::ParallelTPStream::Options options;
      options.num_workers = 4;
      options.batch_size = batch;
      options.ring_capacity = ring_capacity;
      obs::MetricsSnapshot metrics;
      {
        parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
          std::lock_guard<std::mutex> lock(mutex);
          parallel_out.emplace_back(e.t, e.payload[0].AsInt());
        });
        for (const Event& e : events) op.Push(e);
        op.Flush();
        EXPECT_EQ(op.num_events(), static_cast<int64_t>(events.size()));
        EXPECT_EQ(op.num_matches(), static_cast<int64_t>(expected.size()));
        metrics = op.Metrics();
      }
      std::sort(parallel_out.begin(), parallel_out.end());
      EXPECT_EQ(parallel_out, expected);

      EXPECT_LE(metrics.counters.at("parallel.ring_full"),
                metrics.counters.at("parallel.batches"));
      // Recycling keeps the steady state allocation-free: the free ring
      // only misses in pathological visibility races, never sustainably.
      EXPECT_LE(metrics.counters.at("parallel.free_ring_allocs"),
                metrics.counters.at("parallel.batches") / 10 + 2);
      // After Flush() the rings are empty and the gauges say so.
      for (const auto& [name, value] : metrics.gauges) {
        if (name.rfind("parallel.queue_depth.", 0) == 0) {
          EXPECT_EQ(value, 0.0) << name;
        }
      }
    }
  }
}

// A checkpoint every few batches while a second thread polls
// num_matches() and Metrics(): the workers serialize concurrently with
// those reads. Each checkpoint is restored into a fresh stream, whose own
// checkpoint must be the same bytes. Under kDropOldest with one-slot
// rings the workers shed batches, but never the checkpoint request (it
// is not a batch); the alerts must equal the sequential operator's over
// the events that were not shed (under kBlock: all of them).
TEST(ConcurrencyStressTest, CheckpointsUnderLoadRestoreByteForByte) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = SkewedWorkload(12, 800, 1.0, 99);
  constexpr size_t kPushBatch = 64;
  constexpr size_t kCheckpointEvery = 5;  // push batches

  for (const robust::BackpressurePolicy policy :
       {robust::BackpressurePolicy::kBlock,
        robust::BackpressurePolicy::kDropOldest}) {
    SCOPED_TRACE(policy == robust::BackpressurePolicy::kBlock
                     ? "kBlock"
                     : "kDropOldest");
    robust::CollectingDeadLetterSink dead_letter(/*capacity=*/1 << 20);
    obs::MetricsRegistry enable;
    parallel::ParallelTPStream::Options options;
    options.num_workers = 4;
    options.batch_size = 8;
    options.ring_capacity = 1;
    options.backpressure = policy;
    options.dead_letter = &dead_letter;
    options.operator_options.metrics = &enable;

    Signature parallel_out;
    std::mutex mutex;
    int checkpoints = 0;
    int64_t shed_events = 0;
    {
      parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
        std::lock_guard<std::mutex> lock(mutex);
        parallel_out.emplace_back(e.t, e.payload[0].AsInt());
      });
      std::atomic<bool> done{false};
      std::thread poller([&] {
        int64_t last_matches = 0;
        int64_t last_serialized = 0;
        while (!done.load(std::memory_order_relaxed)) {
          const int64_t m = op.num_matches();
          EXPECT_GE(m, last_matches);
          last_matches = m;
          const int64_t serialized =
              op.Metrics().histograms.at("parallel.ckpt_serialize_us").count;
          EXPECT_GE(serialized, last_serialized);
          last_serialized = serialized;
          std::this_thread::yield();
        }
      });

      parallel::ParallelTPStream::Options restored_options = options;
      restored_options.dead_letter = nullptr;
      size_t batches = 0;
      for (size_t i = 0; i < events.size(); i += kPushBatch) {
        const size_t end = std::min(events.size(), i + kPushBatch);
        op.PushBatch(std::span<const Event>(events.data() + i, end - i));
        if (++batches % kCheckpointEvery != 0) continue;
        ckpt::Writer w;
        op.Checkpoint(w);
        ++checkpoints;
        parallel::ParallelTPStream restored(spec, restored_options, nullptr);
        ckpt::Reader r(w.buffer());
        uint64_t offset = 0;
        ASSERT_TRUE(restored.Restore(r, &offset).ok())
            << r.status().ToString();
        EXPECT_EQ(offset, end);
        ckpt::Writer again;
        restored.Checkpoint(again);
        EXPECT_EQ(again.buffer(), w.buffer()) << "checkpoint " << checkpoints;
      }
      op.Flush();
      done.store(true, std::memory_order_relaxed);
      poller.join();
      shed_events = op.shed_events();
      EXPECT_EQ(op.Metrics()
                    .histograms.at("parallel.ckpt_serialize_us")
                    .count,
                int64_t{4} * checkpoints);
    }
    EXPECT_GE(checkpoints, 20);
    if (policy == robust::BackpressurePolicy::kBlock) {
      EXPECT_EQ(shed_events, 0);
    }

    // The sequential reference runs over the events that were not shed
    // (an event is identified by its tick and key).
    std::set<std::pair<TimePoint, int64_t>> shed;
    for (const robust::DeadLetterItem& item : dead_letter.Items()) {
      for (const Event& e : item.events) {
        shed.emplace(e.t, e.payload[0].AsInt());
      }
    }
    EXPECT_EQ(static_cast<int64_t>(shed.size()), shed_events);
    std::vector<Event> kept;
    for (const Event& e : events) {
      if (shed.count({e.t, e.payload[0].AsInt()}) == 0) kept.push_back(e);
    }
    std::sort(parallel_out.begin(), parallel_out.end());
    EXPECT_EQ(parallel_out, SequentialReference(spec, kept));
  }
}

// Regression: destroying the operator from a thread other than the
// producer is legitimate once pushing has stopped (ownership hand-off);
// the destructor must release the producer claim before its final flush
// instead of tripping the debug single-producer assert — and still
// deliver every match.
TEST(ConcurrencyStressTest, DestructionFromSecondThreadAfterProducerStops) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = SkewedWorkload(9, 600, 0.7, 77);
  const Signature expected = SequentialReference(spec, events);
  ASSERT_FALSE(expected.empty());

  parallel::ParallelTPStream::Options options;
  options.num_workers = 3;
  options.batch_size = 1 << 20;  // everything still pending at destruction
  std::atomic<int64_t> delivered{0};
  auto op = std::make_unique<parallel::ParallelTPStream>(
      spec, options, [&](const Event&) { ++delivered; });

  // The pushing thread becomes the producer; this test's main thread is
  // a different thread by construction.
  std::thread producer([&] {
    for (const Event& e : events) op->Push(e);
  });
  producer.join();

  op.reset();  // destruction from a non-producer thread
  EXPECT_EQ(delivered.load(), static_cast<int64_t>(expected.size()));
}

TEST(ConcurrencyStressTest, DestructionFromAnyStateIsCleanAndLossless) {
  const QuerySpec spec = KeyedSpec();
  // Large batch size => everything still pending producer-side when the
  // destructor runs; it must flush and deliver every match.
  for (int workers = 1; workers <= 5; ++workers) {
    const std::vector<Event> events =
        SkewedWorkload(7, 400, 0.8, 100 + workers);
    const Signature expected = SequentialReference(spec, events);
    std::atomic<int64_t> delivered{0};
    {
      parallel::ParallelTPStream::Options options;
      options.num_workers = workers;
      options.batch_size = 1 << 20;
      parallel::ParallelTPStream op(spec, options,
                                    [&](const Event&) { ++delivered; });
      for (const Event& e : events) op.Push(e);
      // No Flush(): the destructor owns delivery.
    }
    EXPECT_EQ(delivered.load(), static_cast<int64_t>(expected.size()))
        << "workers=" << workers;
  }
  // Idle construct/destruct: workers park on their condition variables
  // and must still shut down promptly.
  for (int i = 0; i < 8; ++i) {
    parallel::ParallelTPStream::Options options;
    options.num_workers = 1 + i % 4;
    parallel::ParallelTPStream op(spec, options, nullptr);
  }
}

}  // namespace
}  // namespace tpstream
