// Differential test for the observability subsystem: the same keyed
// workload runs through the sequential TPStreamOperator (one shared
// registry) and through ParallelTPStream (per-worker registries merged on
// read). Every per-component counter and the detection-latency histogram
// must agree exactly — partitions are evaluated independently, so the
// split across workers must not change what is measured. The test also
// snapshots the parallel metrics concurrently with ingestion (the
// merge-on-read path the TSan job exercises), and checks the checkpoint
// pause split: per-worker serialization and the RecoveryManager phases.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
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

/// Counters attributable to the engine itself (identical no matter how
/// partitions are spread over threads). The parallel.* routing-layer
/// counters are excluded by construction.
const char* const kEngineCounterPrefixes[] = {
    "deriver.", "matcher.", "operator.", "optimizer.", "partitioned."};

std::map<std::string, int64_t> EngineCounters(
    const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : snapshot.counters) {
    for (const char* prefix : kEngineCounterPrefixes) {
      if (name.rfind(prefix, 0) == 0) {
        out.emplace(name, value);
        break;
      }
    }
  }
  return out;
}

TEST(MetricsDifferentialTest, SequentialAndParallelCountersAgree) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedWorkload(17, 1500, 9);

  obs::MetricsRegistry sequential_registry;
  int64_t sequential_matches = 0;
  {
    TPStreamOperator::Options options;
    options.metrics = &sequential_registry;
    TPStreamOperator op(spec, options,
                           [&](const Event&) { ++sequential_matches; });
    for (const Event& e : events) op.Push(e);
  }
  const obs::MetricsSnapshot sequential = sequential_registry.Snapshot();
  const auto sequential_counters = EngineCounters(sequential);
  ASSERT_FALSE(sequential_counters.empty());
  ASSERT_GT(sequential_matches, 0);

  // Sanity anchors: the counters measure what their names promise.
  EXPECT_EQ(sequential_counters.at("operator.matches"), sequential_matches);
  EXPECT_EQ(sequential_counters.at("partitioned.events"),
            static_cast<int64_t>(events.size()));
  EXPECT_EQ(sequential_counters.at("operator.events"),
            static_cast<int64_t>(events.size()));
  EXPECT_GT(sequential_counters.at("deriver.situations_finished"), 0);

  const auto sequential_latency =
      sequential.histograms.at("matcher.detection_latency");
  EXPECT_EQ(sequential_latency.count, sequential_matches);

  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    obs::MetricsRegistry enable;  // sentinel: turns worker metrics on
    parallel::ParallelTPStream::Options options;
    options.num_workers = workers;
    options.batch_size = 64;
    options.operator_options.metrics = &enable;

    obs::MetricsSnapshot merged;
    std::atomic<int64_t> parallel_matches{0};
    {
      parallel::ParallelTPStream op(spec, options, [&](const Event&) {
        parallel_matches.fetch_add(1, std::memory_order_relaxed);
      });

      // Concurrent reader: merge-on-read must be safe (and monotone)
      // while the workers are ingesting.
      std::atomic<bool> done{false};
      std::thread reader([&] {
        int64_t last_events = 0;
        while (!done.load(std::memory_order_acquire)) {
          const obs::MetricsSnapshot live = op.Metrics();
          const auto it = live.counters.find("operator.events");
          const int64_t now =
              it == live.counters.end() ? 0 : it->second;
          EXPECT_GE(now, last_events);  // counters only grow
          last_events = now;
          std::this_thread::yield();
        }
      });

      for (const Event& e : events) op.Push(e);
      op.Flush();
      done.store(true, std::memory_order_release);
      reader.join();

      merged = op.Metrics();
      EXPECT_EQ(op.num_matches(), sequential_matches);
    }

    EXPECT_EQ(EngineCounters(merged), sequential_counters);
    EXPECT_EQ(parallel_matches.load(), sequential_matches);

    // The detection-latency histogram records the same per-match values
    // regardless of which worker concluded them: full equality, not just
    // count/sum.
    const auto parallel_latency =
        merged.histograms.at("matcher.detection_latency");
    EXPECT_EQ(parallel_latency, sequential_latency);
    EXPECT_EQ(parallel_latency.count, sequential_latency.count);
    EXPECT_EQ(parallel_latency.sum, sequential_latency.sum);

    // Routing-layer counters exist only on the parallel side.
    EXPECT_EQ(merged.counters.at("parallel.events"),
              static_cast<int64_t>(events.size()));
    EXPECT_EQ(merged.counters.at("parallel.matches"), sequential_matches);
    // The sentinel registry must stay untouched: workers record into
    // their own registries, never through the caller's pointer.
    EXPECT_TRUE(enable.Snapshot().counters.empty());
  }
}

// Sharded output path: every worker buffers its matches locally and
// drains them at batch boundaries under the output mutex. Because a
// partition lives on exactly one worker and drains preserve the engine's
// emission order, the *sequence* of matches within each partition must
// equal the sequential TPStreamOperator's — not just the multiset.
// Match-heavy on purpose: many matches per batch exercise the buffered
// drain, several workers interleave their drains.
TEST(MetricsDifferentialTest, ShardedOutputPreservesPerPartitionOrder) {
  const QuerySpec spec = KeyedSpec();
  // High flip probability => frequent phase changes => match-heavy.
  std::vector<Event> events;
  {
    std::mt19937_64 rng(123);
    const int keys = 13;
    std::vector<bool> value(keys, false);
    std::bernoulli_distribution flip(0.35);
    for (TimePoint t = 1; t <= 2000; ++t) {
      for (int k = 0; k < keys; ++k) {
        if (flip(rng)) value[k] = !value[k];
        events.push_back(
            Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
      }
    }
  }

  // Per-key emission sequences, in callback arrival order. The match
  // payload is (key, n): include both fields plus the timestamp so
  // reordering within a key cannot cancel out.
  using KeyedSequences =
      std::map<int64_t, std::vector<std::pair<TimePoint, int64_t>>>;
  KeyedSequences sequential;
  {
    TPStreamOperator op(spec, {}, [&](const Event& e) {
      sequential[e.payload[0].AsInt()].emplace_back(e.t,
                                                    e.payload[1].AsInt());
    });
    for (const Event& e : events) op.Push(e);
  }
  ASSERT_FALSE(sequential.empty());
  size_t total_matches = 0;
  for (const auto& [key, seq] : sequential) total_matches += seq.size();
  ASSERT_GT(total_matches, 500u) << "workload is not match-heavy enough";

  for (int workers : {1, 2, 4}) {
    for (const size_t ring_capacity : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers
                                      << " ring_capacity=" << ring_capacity);
      parallel::ParallelTPStream::Options options;
      options.num_workers = workers;
      options.batch_size = 32;
      options.ring_capacity = ring_capacity;
      KeyedSequences parallel_seqs;
      {
        // The callback fires serialized under the operator's output
        // mutex, so the map needs no extra locking; Flush() orders the
        // writes before the read below.
        parallel::ParallelTPStream op(spec, options, [&](const Event& e) {
          parallel_seqs[e.payload[0].AsInt()].emplace_back(
              e.t, e.payload[1].AsInt());
        });
        for (const Event& e : events) op.Push(e);
        op.Flush();
      }
      EXPECT_EQ(parallel_seqs, sequential);
    }
  }
}

TEST(MetricsDifferentialTest, ParallelPartitionCountersMatchSequential) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedWorkload(11, 400, 21);

  obs::MetricsRegistry sequential_registry;
  TPStreamOperator::Options seq_options;
  seq_options.metrics = &sequential_registry;
  TPStreamOperator sequential(spec, seq_options, nullptr);
  for (const Event& e : events) sequential.Push(e);
  EXPECT_EQ(sequential_registry.Snapshot().gauges.at(
                "partitioned.partitions"),
            11.0);

  obs::MetricsRegistry enable;
  parallel::ParallelTPStream::Options options;
  options.num_workers = 3;
  options.operator_options.metrics = &enable;
  parallel::ParallelTPStream op(spec, options, nullptr);
  for (const Event& e : events) op.Push(e);
  op.Flush();
  EXPECT_EQ(op.num_partitions(), 11u);
  // Per-worker partition gauges sum to the sequential total (gauges
  // merge additively across registries).
  EXPECT_EQ(op.Metrics().gauges.at("partitioned.partitions"), 11.0);
  EXPECT_EQ(op.num_matches(), sequential.num_matches());
}

// The checkpoint pause, split by phase: every worker records the time it
// serialized its engine into its own registry (merged on read), and the
// RecoveryManager records serialize, log barrier and persist into its
// registry, one sample per checkpoint each.
TEST(MetricsDifferentialTest, CheckpointPauseIsSplitByPhase) {
  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> events = KeyedWorkload(9, 300, 23);
  constexpr int kWorkers = 3;
  constexpr int kCheckpoints = 3;

  obs::MetricsRegistry enable;
  parallel::ParallelTPStream::Options options;
  options.num_workers = kWorkers;
  options.operator_options.metrics = &enable;
  parallel::ParallelTPStream op(spec, options, nullptr);

  log::MemFileSystem fs;
  std::unique_ptr<log::EventLog> wal;
  ASSERT_TRUE(log::EventLog::Open(&fs, "/wal", {}, &wal).ok());
  obs::MetricsRegistry recovery_registry;
  log::RecoveryManager::Options recovery_options;
  recovery_options.metrics = &recovery_registry;
  std::unique_ptr<log::RecoveryManager> mgr;
  ASSERT_TRUE(log::RecoveryManager::Open(&fs, "/wal/ckpt", wal.get(),
                                         recovery_options, &mgr)
                  .ok());

  const size_t step = events.size() / kCheckpoints;
  for (size_t i = 0; i < events.size(); i += step) {
    const std::span<const Event> batch(
        events.data() + i, std::min(step, events.size() - i));
    ASSERT_TRUE(wal->Append(batch).ok());
    op.PushBatch(batch);
    ASSERT_TRUE(mgr->Checkpoint(op).ok());
  }

  const obs::MetricsSnapshot merged = op.Metrics();
  const obs::HistogramSnapshot& serialize =
      merged.histograms.at("parallel.ckpt_serialize_us");
  EXPECT_EQ(serialize.count, int64_t{kWorkers} * kCheckpoints);
  EXPECT_EQ(serialize.underflow, 0u);

  const obs::MetricsSnapshot recovery = recovery_registry.Snapshot();
  for (const char* phase :
       {"recovery.checkpoint_serialize_us", "recovery.checkpoint_barrier_us",
        "recovery.checkpoint_persist_us"}) {
    SCOPED_TRACE(phase);
    const obs::HistogramSnapshot& h = recovery.histograms.at(phase);
    EXPECT_EQ(h.count, kCheckpoints);
    EXPECT_EQ(h.underflow, 0u);
  }
  // Every worker serializes inside the manager's serialize phase.
  EXPECT_GE(
      kWorkers * recovery.histograms.at("recovery.checkpoint_serialize_us").sum,
      serialize.sum);

  // Metrics off: no histogram is registered, and checkpoints still work.
  parallel::ParallelTPStream quiet(spec, {}, nullptr);
  for (const Event& e : events) quiet.Push(e);
  ckpt::Writer w;
  quiet.Checkpoint(w);
  EXPECT_EQ(quiet.Metrics().histograms.count("parallel.ckpt_serialize_us"),
            0u);
}

}  // namespace
}  // namespace tpstream
