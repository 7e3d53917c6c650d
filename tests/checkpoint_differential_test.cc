// Replay-from-offset recovery differential (Durability contract): kill
// the engine at an arbitrary event-log offset, restore the checkpoint
// into a fresh instance, replay the input from the recorded offset — the
// combined match stream, the logical counters/statistics and the final
// re-checkpoint bytes must all be identical to an uninterrupted run.
// Exercised across in-order, out-of-order (a reorder buffer in front of
// the operator, tests/reorder_pipeline.h) and
// overloaded (eviction under hard caps) workloads, and across the
// operator, partitioned, query-group and parallel surfaces.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "tests/reorder_pipeline.h"

namespace tpstream {
namespace {

Schema SensorSchema(ValueType key_type = ValueType::kInt) {
  return Schema({Field{"speed", ValueType::kDouble},
                 Field{"temp", ValueType::kDouble},
                 Field{"key", key_type}});
}

/// Two-symbol overlap query with an average aggregate, so checkpoints
/// carry live aggregate state (sum/count) alongside the matcher state.
QuerySpec SensorSpec(bool partitioned = false,
                     ValueType key_type = ValueType::kInt) {
  QueryBuilder qb(SensorSchema(key_type));
  qb.Define("A", Gt(FieldRef(0, "speed"), Literal(0.55)))
      .Define("B", Gt(FieldRef(1, "temp"), Literal(0.45)))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(60)
      .Return("n_a", "A", AggKind::kCount)
      .Return("avg_temp", "B", AggKind::kAvg, "temp");
  if (partitioned) qb.PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// Deterministic sensor stream: strictly increasing timestamps, values
/// random-walked so situations open and close at staggered instants.
std::vector<Event> MakeStream(int n, uint64_t seed, int num_keys = 1,
                              ValueType key_type = ValueType::kInt) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Event> events;
  events.reserve(n);
  double speed = 0.5, temp = 0.5;
  for (int i = 0; i < n; ++i) {
    speed = std::clamp(speed + (uni(rng) - 0.5) * 0.4, 0.0, 1.0);
    temp = std::clamp(temp + (uni(rng) - 0.5) * 0.4, 0.0, 1.0);
    const int64_t key = static_cast<int64_t>(i % num_keys);
    // String keys are long enough to defeat any small-string buffer.
    Value key_value = key_type == ValueType::kString
                          ? Value("host-" + std::to_string(key) +
                                  std::string(40, 'x'))
                          : Value(key);
    events.push_back(
        Event({Value(speed), Value(temp), std::move(key_value)}, i + 1));
  }
  return events;
}

/// Bounded disorder: reverses each group of `k` consecutive events, so
/// lateness is at most k-1 ticks (must stay within the reorder slack).
std::vector<Event> Disorder(std::vector<Event> events, int k) {
  for (size_t i = 0; i + k <= events.size(); i += k) {
    std::reverse(events.begin() + i, events.begin() + i + k);
  }
  return events;
}

void ExpectSameOutputs(const std::vector<Event>& a,
                       const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << "output " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << "output " << i;
  }
}

constexpr int kStreamLen = 400;
const std::vector<size_t> kKillOffsets = {1, 133, 257, 399};

/// The operator-level differential: run `events` uninterrupted, then for
/// every kill offset checkpoint/kill/restore/replay and compare the
/// match stream, the counters and the final checkpoint bytes.
void RunOperatorDifferential(const QuerySpec& spec,
                             const TPStreamOperator::Options& options,
                             const std::vector<Event>& events) {
  std::vector<Event> ref_outputs;
  TPStreamOperator ref(spec, options,
                       [&](const Event& e) { ref_outputs.push_back(e); });
  for (const Event& e : events) ref.Push(e);
  ckpt::Writer ref_final;
  ref.Checkpoint(ref_final);

  for (const size_t kill : kKillOffsets) {
    ASSERT_LT(kill, events.size());
    std::vector<Event> outputs;
    ckpt::Writer w;
    {
      // First incarnation: dies (scope exit) right after the checkpoint.
      TPStreamOperator first(spec, options,
                             [&](const Event& e) { outputs.push_back(e); });
      for (size_t i = 0; i < kill; ++i) first.Push(events[i]);
      first.Checkpoint(w);
    }
    TPStreamOperator second(spec, options,
                            [&](const Event& e) { outputs.push_back(e); });
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(second.Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second.Push(events[i]);

    ExpectSameOutputs(outputs, ref_outputs);
    EXPECT_EQ(second.num_events(), ref.num_events());
    EXPECT_EQ(second.num_matches(), ref.num_matches());
    EXPECT_EQ(second.shed_situations(), ref.shed_situations());
    EXPECT_EQ(second.lost_match_upper_bound(), ref.lost_match_upper_bound());
    EXPECT_EQ(second.stats().buffer_emas(), ref.stats().buffer_emas());
    EXPECT_EQ(second.stats().selectivity_emas(),
              ref.stats().selectivity_emas());
    EXPECT_EQ(second.CurrentOrder(), ref.CurrentOrder());

    ckpt::Writer final_ckpt;
    second.Checkpoint(final_ckpt);
    EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer())
        << "kill@" << kill << ": recovered state diverged";
  }
}

TEST(CheckpointDifferential, OperatorInOrder) {
  RunOperatorDifferential(SensorSpec(), {}, MakeStream(kStreamLen, 11));
}

TEST(CheckpointDifferential, OperatorInOrderBaselineMatcher) {
  TPStreamOperator::Options options;
  options.low_latency = false;
  RunOperatorDifferential(SensorSpec(), options, MakeStream(kStreamLen, 12));
}

TEST(CheckpointDifferential, OperatorInOrderFixedOrder) {
  TPStreamOperator::Options options;
  options.fixed_order = std::vector<int>{1, 0};
  RunOperatorDifferential(SensorSpec(), options, MakeStream(kStreamLen, 13));
}

TEST(CheckpointDifferential, OperatorOverloaded) {
  // Hard caps small enough that eviction fires constantly: shed
  // accounting and the capped buffers must survive kill/recover too.
  TPStreamOperator::Options options;
  options.overload.max_situations_per_buffer = 3;
  options.overload.max_trigger_pool = 2;
  RunOperatorDifferential(SensorSpec(), options, MakeStream(kStreamLen, 14));
}

TEST(CheckpointDifferential, PipelineOutOfOrder) {
  const std::vector<Event> events =
      Disorder(MakeStream(kStreamLen, 15), /*k=*/4);
  const Duration slack = 8;  // covers the max lateness of 3

  const auto build = [&](std::vector<Event>* sink) {
    return ReorderPipeline(SensorSpec(), {.slack = slack},
                           [sink](const Event& e) { sink->push_back(e); });
  };

  std::vector<Event> ref_outputs;
  ReorderPipeline ref = build(&ref_outputs);
  for (const Event& e : events) ref.Push(e);
  ref.Flush();
  ckpt::Writer ref_final;
  ref.Checkpoint(ref_final);

  for (const size_t kill : kKillOffsets) {
    std::vector<Event> outputs;
    ckpt::Writer w;
    {
      ReorderPipeline first = build(&outputs);
      for (size_t i = 0; i < kill; ++i) first.Push(events[i]);
      // No Flush() before the checkpoint: the kill happens with events
      // still held by the reorder buffer.
      first.Checkpoint(w);
    }
    ReorderPipeline second = build(&outputs);
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(second.Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second.Push(events[i]);
    second.Flush();

    ExpectSameOutputs(outputs, ref_outputs);
    ckpt::Writer final_ckpt;
    second.Checkpoint(final_ckpt);
    EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer())
        << "kill@" << kill << ": recovered pipeline state diverged";
  }
}

TEST(CheckpointDifferential, PartitionedStream) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(kStreamLen, 16, /*keys=*/5);

  std::vector<Event> ref_outputs;
  TPStreamOperator ref(spec, {},
                          [&](const Event& e) { ref_outputs.push_back(e); });
  for (const Event& e : events) ref.Push(e);
  ckpt::Writer ref_final;
  ref.Checkpoint(ref_final);

  for (const size_t kill : kKillOffsets) {
    std::vector<Event> outputs;
    ckpt::Writer w;
    {
      TPStreamOperator first(
          spec, {}, [&](const Event& e) { outputs.push_back(e); });
      for (size_t i = 0; i < kill; ++i) first.Push(events[i]);
      first.Checkpoint(w);
    }
    TPStreamOperator second(
        spec, {}, [&](const Event& e) { outputs.push_back(e); });
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(second.Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second.Push(events[i]);

    ExpectSameOutputs(outputs, ref_outputs);
    EXPECT_EQ(second.num_events(), ref.num_events());
    EXPECT_EQ(second.num_matches(), ref.num_matches());
    EXPECT_EQ(second.num_partitions(), ref.num_partitions());
    ckpt::Writer final_ckpt;
    second.Checkpoint(final_ckpt);
    EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer());
  }
}

TEST(CheckpointDifferential, QueryGroup) {
  const std::vector<Event> events = MakeStream(kStreamLen, 17);

  // Two queries sharing one definition (B) so the shared deriver's
  // dedup + fan-out state is exercised, not just a trivial group.
  const auto make_specs = [] {
    std::vector<QuerySpec> specs;
    specs.push_back(SensorSpec());
    QueryBuilder qb(SensorSchema());
    qb.Define("B", Gt(FieldRef(1, "temp"), Literal(0.45)))
        .Within(40)
        .Return("avg_b", "B", AggKind::kAvg, "temp");
    auto spec = qb.Build();
    EXPECT_TRUE(spec.ok());
    specs.push_back(spec.value());
    return specs;
  };

  const auto make = [&](std::vector<std::vector<Event>>* sinks) {
    sinks->resize(2);
    std::vector<TPStreamOperator::Query> queries;
    int qid = 0;
    for (QuerySpec& spec : make_specs()) {
      auto* sink = &(*sinks)[qid++];
      queries.push_back(
          {std::move(spec), [sink](const Event& e) { sink->push_back(e); }});
    }
    auto group = TPStreamOperator::Create(std::move(queries), {});
    EXPECT_TRUE(group.ok()) << group.status().ToString();
    EXPECT_EQ(group.value()->num_distinct_definitions(), 2);  // B is shared
    return std::move(group).value();
  };

  std::vector<std::vector<Event>> ref_outputs;
  auto ref = make(&ref_outputs);
  for (const Event& e : events) ref->Push(e);
  ckpt::Writer ref_final;
  ref->Checkpoint(ref_final);

  for (const size_t kill : kKillOffsets) {
    std::vector<std::vector<Event>> outputs;
    ckpt::Writer w;
    {
      auto first = make(&outputs);
      for (size_t i = 0; i < kill; ++i) first->Push(events[i]);
      first->Checkpoint(w);
    }
    std::vector<std::vector<Event>> tail_outputs;
    auto second = make(&tail_outputs);
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(second->Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second->Push(events[i]);

    for (int q = 0; q < 2; ++q) {
      std::vector<Event> combined = outputs[q];
      combined.insert(combined.end(), tail_outputs[q].begin(),
                      tail_outputs[q].end());
      ExpectSameOutputs(combined, ref_outputs[q]);
      EXPECT_EQ(second->num_matches(q), ref->num_matches(q));
    }
    EXPECT_EQ(second->num_events(), ref->num_events());
    ckpt::Writer final_ckpt;
    second->Checkpoint(final_ckpt);
    EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer());
  }
}

TEST(CheckpointDifferential, ParallelQuiescent) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(kStreamLen, 18, /*keys=*/7);

  parallel::ParallelTPStream::Options options;
  options.num_workers = 2;
  options.batch_size = 16;

  // Worker interleaving makes the global output order nondeterministic;
  // per-partition order is deterministic, so compare sorted streams.
  const auto sorted = [](std::vector<Event> events_in) {
    std::sort(events_in.begin(), events_in.end(),
              [](const Event& a, const Event& b) {
                if (a.t != b.t) return a.t < b.t;
                return a.payload[0].AsInt() < b.payload[0].AsInt();
              });
    return events_in;
  };

  std::vector<Event> ref_outputs;
  std::mutex ref_mutex;
  ckpt::Writer ref_final;
  int64_t ref_matches = 0;
  size_t ref_partitions = 0;
  {
    parallel::ParallelTPStream ref(spec, options, [&](const Event& e) {
      std::lock_guard<std::mutex> lock(ref_mutex);
      ref_outputs.push_back(e);
    });
    for (const Event& e : events) ref.Push(e);
    ref.Checkpoint(ref_final);  // quiescent: flushes first
    ref_matches = ref.num_matches();
    ref_partitions = ref.num_partitions();
  }

  for (const size_t kill : kKillOffsets) {
    std::vector<Event> outputs;
    std::mutex mutex;
    const auto sink = [&](const Event& e) {
      std::lock_guard<std::mutex> lock(mutex);
      outputs.push_back(e);
    };
    ckpt::Writer w;
    {
      parallel::ParallelTPStream first(spec, options, sink);
      for (size_t i = 0; i < kill; ++i) first.Push(events[i]);
      first.Checkpoint(w);
    }
    parallel::ParallelTPStream second(spec, options, sink);
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(second.Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second.Push(events[i]);
    second.Flush();

    ExpectSameOutputs(sorted(outputs), sorted(ref_outputs));
    EXPECT_EQ(second.num_events(), static_cast<int64_t>(events.size()));
    EXPECT_EQ(second.num_matches(), ref_matches);
    EXPECT_EQ(second.num_partitions(), ref_partitions);
    ckpt::Writer final_ckpt;
    second.Checkpoint(final_ckpt);
    EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer());
  }
}

TEST(CheckpointDifferential, WorkerCountMismatchIsRejected) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  parallel::ParallelTPStream::Options two;
  two.num_workers = 2;
  parallel::ParallelTPStream source(spec, two, nullptr);
  for (const Event& e : MakeStream(50, 19, 3)) source.Push(e);
  ckpt::Writer w;
  source.Checkpoint(w);

  parallel::ParallelTPStream::Options three;
  three.num_workers = 3;
  parallel::ParallelTPStream target(spec, three, nullptr);
  ckpt::Reader r(w.buffer());
  EXPECT_FALSE(target.Restore(r).ok());
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct ParallelPin {
  int num_workers;
  bool partitioned;
  ValueType key_type;
  // FNV-1a over the three checkpoints the run takes.
  uint64_t pinned_hash;
};

class ParallelCheckpointPin : public ::testing::TestWithParam<ParallelPin> {};

// The whole ParallelTPStream checkpoint (envelope, kParallel section and
// every worker's engine bytes) is pinned, so a change to how or where
// the workers' state is serialized cannot change the format unnoticed.
TEST_P(ParallelCheckpointPin, BytesArePinned) {
  const ParallelPin c = GetParam();
  const QuerySpec spec = SensorSpec(c.partitioned, c.key_type);
  const std::vector<Event> events =
      MakeStream(kStreamLen, 20, c.partitioned ? 7 : 1, c.key_type);
  parallel::ParallelTPStream::Options options;
  options.num_workers = c.num_workers;
  options.batch_size = 16;

  parallel::ParallelTPStream stream(spec, options, nullptr);
  uint64_t hash = 1469598103934665603ull;
  size_t i = 0;
  for (const size_t cut : {133u, 267u, 400u}) {
    for (; i < cut; ++i) stream.Push(events[i]);
    ckpt::Writer w;
    stream.Checkpoint(w);
    hash = Fnv1a(w.buffer(), hash);

    // A restored stream checkpoints to the same bytes.
    parallel::ParallelTPStream restored(spec, options, nullptr);
    ckpt::Reader r(w.buffer());
    uint64_t offset = 0;
    ASSERT_TRUE(restored.Restore(r, &offset).ok()) << r.status().ToString();
    EXPECT_EQ(offset, cut);
    ckpt::Writer again;
    restored.Checkpoint(again);
    EXPECT_EQ(again.buffer(), w.buffer()) << "checkpoint at " << cut;
  }
  EXPECT_GT(stream.num_matches(), 0);
  EXPECT_EQ(hash, c.pinned_hash) << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ParallelCheckpointPin,
    ::testing::Values(
        ParallelPin{3, true, ValueType::kInt, 0x84d779c654bff842ull},
        ParallelPin{2, true, ValueType::kString, 0x2c731d83f17e5f95ull},
        ParallelPin{2, false, ValueType::kInt, 0xa012ef8a01eb7780ull}),
    [](const ::testing::TestParamInfo<ParallelPin>& info) {
      const ParallelPin& p = info.param;
      std::string name = "W" + std::to_string(p.num_workers);
      if (!p.partitioned) return name + "Unpartitioned";
      return name + (p.key_type == ValueType::kString ? "StringKey"
                                                      : "IntKey");
    });

}  // namespace
}  // namespace tpstream
