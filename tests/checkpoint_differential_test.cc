// ParallelTPStream checkpoint format pins. The kill-at-offset
// differentials of every engine surface live in the typed conformance
// suite (engine_conformance_test.cc); this file keeps what is particular
// to the parallel layout: a checkpoint only restores into the same worker
// count, and the full checkpoint bytes of three layouts are pinned with
// an FNV-1a hash.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"

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

constexpr int kStreamLen = 400;

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
