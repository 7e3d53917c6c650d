// Checkpoint chaos suite (`chaos` ctest label; CI re-runs it under
// ASan+UBSan): randomized kill-and-recover cycles must never lose or
// duplicate matches, and hostile checkpoint bytes — truncated at every
// boundary, bit-flipped at random positions — must surface as Status
// errors, never as crashes, hangs, OOB access or silent mis-restores.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "query/builder.h"

namespace tpstream {
namespace {

Schema SensorSchema() {
  return Schema({Field{"speed", ValueType::kDouble},
                 Field{"temp", ValueType::kDouble},
                 Field{"key", ValueType::kInt}});
}

QuerySpec SensorSpec(bool partitioned = false) {
  QueryBuilder qb(SensorSchema());
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

std::vector<Event> MakeStream(int n, uint64_t seed, int num_keys = 1) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Event> events;
  events.reserve(n);
  double speed = 0.5, temp = 0.5;
  for (int i = 0; i < n; ++i) {
    speed = std::clamp(speed + (uni(rng) - 0.5) * 0.4, 0.0, 1.0);
    temp = std::clamp(temp + (uni(rng) - 0.5) * 0.4, 0.0, 1.0);
    events.push_back(Event({Value(speed), Value(temp),
                            Value(static_cast<int64_t>(i % num_keys))},
                           i + 1));
  }
  return events;
}

// Kill the operator at random offsets, over and over, chaining recovery
// on recovery (each incarnation is itself killed later). The survivors'
// concatenated output must equal the uninterrupted run exactly.
TEST(CheckpointChaos, RepeatedKillAndRecoverPreservesMatchStream) {
  const QuerySpec spec = SensorSpec();
  TPStreamOperator::Options options;
  options.overload.max_situations_per_buffer = 4;  // eviction in the mix
  const std::vector<Event> events = MakeStream(600, 21);

  std::vector<Event> ref_outputs;
  TPStreamOperator ref(spec, options,
                       [&](const Event& e) { ref_outputs.push_back(e); });
  for (const Event& e : events) ref.Push(e);

  std::mt19937_64 rng(22);
  for (int round = 0; round < 5; ++round) {
    std::vector<Event> outputs;
    const auto sink = [&](const Event& e) { outputs.push_back(e); };
    std::string blob;  // checkpoint of the previous incarnation
    size_t cursor = 0;
    while (cursor < events.size()) {
      TPStreamOperator incarnation(spec, options, sink);
      if (!blob.empty()) {
        ckpt::Reader r(blob);
        uint64_t offset = 0;
        ASSERT_TRUE(incarnation.Restore(r, &offset).ok())
            << r.status().ToString();
        ASSERT_EQ(offset, cursor);
      }
      // Survive a random number of events, then die post-checkpoint.
      const size_t survive = 1 + rng() % (events.size() - cursor);
      for (size_t i = 0; i < survive; ++i) {
        incarnation.Push(events[cursor + i]);
      }
      cursor += survive;
      ckpt::Writer w;
      incarnation.Checkpoint(w);
      blob = w.Take();
    }
    ASSERT_EQ(outputs.size(), ref_outputs.size()) << "round " << round;
    for (size_t i = 0; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[i].t, ref_outputs[i].t);
      EXPECT_EQ(outputs[i].payload, ref_outputs[i].payload);
    }
  }
}

// Every proper prefix of a real checkpoint must restore with an error —
// never a crash, never a false success.
TEST(CheckpointChaos, TruncationAtEveryBoundaryFailsCleanly) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  TPStreamOperator source(spec, {}, nullptr);
  for (const Event& e : MakeStream(200, 23, /*keys=*/3)) source.Push(e);
  ckpt::Writer w;
  source.Checkpoint(w);
  const std::string& blob = w.buffer();
  ASSERT_GT(blob.size(), 0u);

  for (size_t len = 0; len < blob.size(); ++len) {
    TPStreamOperator target(spec, {}, nullptr);
    ckpt::Reader r(std::string_view(blob).substr(0, len));
    const Status status = target.Restore(r);
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes restored";
  }

  // The untruncated blob still restores (the loop above didn't prove the
  // blob was simply unreadable).
  TPStreamOperator target(spec, {}, nullptr);
  ckpt::Reader r(blob);
  EXPECT_TRUE(target.Restore(r).ok());
}

// Random single-byte corruptions: restore may fail (typical) or succeed
// (the flip hit a value with no structural meaning), but must never
// crash; and after a failed restore, Reset() must return the instance to
// a usable state.
TEST(CheckpointChaos, BitFlipFuzzNeverCrashes) {
  const QuerySpec spec = SensorSpec();
  TPStreamOperator source(spec, {}, nullptr);
  const std::vector<Event> events = MakeStream(200, 24);
  for (const Event& e : events) source.Push(e);
  ckpt::Writer w;
  source.Checkpoint(w);
  const std::string blob = w.buffer();

  std::mt19937_64 rng(25);
  int failures = 0;
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string corrupted = blob;
    const size_t pos = rng() % corrupted.size();
    corrupted[pos] = static_cast<char>(
        static_cast<uint8_t>(corrupted[pos]) ^ (1u << (rng() % 8)));

    TPStreamOperator target(spec, {}, nullptr);
    ckpt::Reader r(corrupted);
    const Status status = target.Restore(r);
    if (!status.ok()) {
      ++failures;
      // The documented recovery path after a failed restore: Reset()
      // returns the instance to a usable (fresh) state.
      target.Reset();
      for (size_t i = 0; i < 20; ++i) target.Push(events[i]);
    }
    // A *successful* restore of flipped bytes may hold semantically
    // corrupt (yet well-formed) state; the durability contract only
    // covers blobs produced by Checkpoint, so such instances are
    // discarded here, not driven further.
  }
  // Most flips hit structure (magic, lengths, tags, counts) and must
  // have been rejected; a fuzzer that "passes" everything tests nothing.
  EXPECT_GT(failures, kTrials / 4);
}

// Garbage that is not a checkpoint at all.
TEST(CheckpointChaos, ArbitraryBytesAreRejected) {
  const QuerySpec spec = SensorSpec();
  std::mt19937_64 rng(26);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage(rng() % 256, '\0');
    for (char& c : garbage) c = static_cast<char>(rng() & 0xff);
    TPStreamOperator target(spec, {}, nullptr);
    ckpt::Reader r(garbage);
    EXPECT_FALSE(target.Restore(r).ok());
  }
}


// The writer emits partition keys strictly ascending. A blob that
// repeats a key (or breaks the order) did not come from Checkpoint; a
// legacy unchecksummed one is not caught by the CRC footer, and
// restoring it would silently keep one of the duplicates' states. Both
// restore paths must reject it.
TEST(CheckpointChaos, DuplicateOrUnsortedPartitionKeysAreRejected) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(120, 27);
  // Two key states in the per-key (unpartitioned operator) layout.
  QuerySpec key_spec = spec;
  key_spec.partition_field = -1;
  TPStreamOperator first(key_spec, {}, nullptr);
  TPStreamOperator second(key_spec, {}, nullptr);
  for (size_t i = 0; i < events.size(); ++i) {
    (i % 2 == 0 ? first : second).Push(events[i]);
  }
  // Hand-assembled partitioned blobs: `keys` become int partitions when
  // `ints`, string partitions otherwise, alternating the two states.
  auto blob = [&](ckpt::Tag tag, bool ints, std::vector<int> keys) {
    ckpt::Writer w;
    w.Envelope(events.size());
    const size_t cookie = w.BeginSection(tag);
    w.I64(0);
    w.U64(ints ? keys.size() : 0);
    for (size_t i = 0; ints && i < keys.size(); ++i) {
      w.I64(keys[i]);
      (i % 2 == 0 ? first : second).Checkpoint(w);
    }
    w.U64(ints ? 0 : keys.size());
    for (size_t i = 0; !ints && i < keys.size(); ++i) {
      w.Str(std::to_string(1000 + keys[i]));
      (i % 2 == 0 ? first : second).Checkpoint(w);
    }
    w.EndSection(cookie);
    return w.Take();
  };
  for (bool ints : {true, false}) {
    for (bool delta : {false, true}) {
      SCOPED_TRACE(std::string(ints ? "int" : "string") +
                   (delta ? " delta" : " full"));
      const ckpt::Tag tag =
          delta ? ckpt::Tag::kPartitionedDelta : ckpt::Tag::kPartitioned;
      auto restore = [&](const std::string& bytes) {
        TPStreamOperator target(spec, {}, nullptr);
        ckpt::Reader r(bytes);
        return delta ? target.RestoreIncremental(r) : target.Restore(r);
      };
      EXPECT_TRUE(restore(blob(tag, ints, {3, 7})).ok());
      for (const std::vector<int>& bad :
           {std::vector<int>{7, 7}, std::vector<int>{7, 3}}) {
        const Status status = restore(blob(tag, ints, bad));
        EXPECT_EQ(status.code(), StatusCode::kParseError)
            << bad[0] << "," << bad[1] << ": " << status.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace tpstream
