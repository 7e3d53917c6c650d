// PARTITION BY differential: TPStreamOperator, given a PARTITION BY
// query, keeps per-key stream state over one shared query program, and
// must behave exactly like the obvious implementation — one standalone
// unpartitioned TPStreamOperator per key, created on the key's first
// event. Randomized key churn (int
// and string keys, both matcher modes) with a re-optimization threshold
// low enough that keys migrate plans independently; Reset(), a full
// checkpoint + restore and a delta checkpoint + restore happen
// mid-stream. Alerts must be identical, event for event, and every full
// and delta checkpoint must be byte-identical to the one assembled from
// the oracle operators (same envelope, kPartitioned / kPartitionedDelta
// section, keys sorted, one kOperator section per key). The hash of all
// checkpoint bytes is pinned, so the wire format cannot drift either.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "query/parser.h"

namespace tpstream {
namespace {

QuerySpec ChurnSpec(ValueType key_type) {
  const Schema schema({Field{"key", key_type}, Field{"x", ValueType::kDouble},
                       Field{"y", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM S s PARTITION BY s.key "
      "DEFINE A AS s.x > 0.6, B AS s.y > 0.5, "
      "C AS s.x < 0.35 AND s.y > 0.3 "
      "PATTERN A overlaps B; A meets B; A before B "
      "AND B overlaps C; B before C; B meets C "
      "WITHIN 40 "
      "RETURN first(A.key) AS k, max(B.y) AS peak, count(C) AS n, "
      "start(C) AS c_start",
      schema);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

Value KeyValue(ValueType type, int id) {
  if (type == ValueType::kInt) return Value(static_cast<int64_t>(id * 7 - 40));
  // Long enough to defeat any small-string buffer.
  return Value("host-" + std::to_string(id) + std::string(40, 'x'));
}

/// Ticks 1..horizon; at each tick a random subset of the live keys
/// reports. The live window slides, so keys retire and fresh ones appear.
std::vector<Event> ChurnStream(ValueType key_type, TimePoint horizon,
                               uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::map<int, std::pair<double, double>> walk;
  std::vector<Event> events;
  for (TimePoint t = 1; t <= horizon; ++t) {
    const int base = static_cast<int>(t / 25);
    for (int id = base; id < base + 12; ++id) {
      if (uni(rng) < 0.35) continue;
      auto& [x, y] = walk[id];
      x = std::clamp(x + (uni(rng) - 0.5) * 0.5, 0.0, 1.0);
      y = std::clamp(y + (uni(rng) - 0.5) * 0.5, 0.0, 1.0);
      events.push_back(Event({KeyValue(key_type, id), Value(x), Value(y)}, t));
    }
  }
  return events;
}

/// The oracle: one unpartitioned TPStreamOperator per key, keyed like
/// the engine (int keys by value, every other type by Value::ToString()).
class OperatorPerKey {
 public:
  OperatorPerKey(const QuerySpec& spec, TPStreamOperator::Options options,
                 std::vector<Event>* out)
      : partition_field_(spec.partition_field),
        key_spec_(spec),
        options_(options),
        out_(out) {
    key_spec_.partition_field = -1;
  }

  void Push(const Event& e) {
    ++num_events_;
    const Value& key = e.payload[partition_field_];
    if (key.type() == ValueType::kInt) {
      Slot(&ints_, key.AsInt()).Push(e);
      dirty_ints_.insert(key.AsInt());
    } else {
      Slot(&strings_, key.ToString()).Push(e);
      dirty_strings_.insert(key.ToString());
    }
  }

  void Reset() {
    ints_.clear();
    strings_.clear();
    num_events_ = 0;
    num_matches_ = 0;
    MarkBaseline();
  }

  void MarkBaseline() {
    dirty_ints_.clear();
    dirty_strings_.clear();
  }

  std::string Full() const {
    std::set<int64_t> ik;
    std::set<std::string> sk;
    for (const auto& [k, op] : ints_) ik.insert(k);
    for (const auto& [k, op] : strings_) sk.insert(k);
    return Write(ckpt::Tag::kPartitioned, ik, sk);
  }

  std::string Delta() const {
    return Write(ckpt::Tag::kPartitionedDelta, dirty_ints_, dirty_strings_);
  }

  size_t size() const { return ints_.size() + strings_.size(); }

 private:
  template <typename K>
  TPStreamOperator& Slot(std::map<K, std::unique_ptr<TPStreamOperator>>* m,
                         const K& key) {
    auto& op = (*m)[key];
    if (op == nullptr) {
      op = std::make_unique<TPStreamOperator>(
          key_spec_, options_, [this](const Event& e) {
            ++num_matches_;
            out_->push_back(e);
          });
    }
    return *op;
  }

  std::string Write(ckpt::Tag tag, const std::set<int64_t>& ik,
                    const std::set<std::string>& sk) const {
    ckpt::Writer w;
    w.Envelope(static_cast<uint64_t>(num_events_));
    const size_t cookie = w.BeginSection(tag);
    w.I64(num_matches_);
    w.U64(ik.size());
    for (int64_t k : ik) {
      w.I64(k);
      ints_.at(k)->Checkpoint(w);
    }
    w.U64(sk.size());
    for (const std::string& k : sk) {
      w.Str(k);
      strings_.at(k)->Checkpoint(w);
    }
    w.EndSection(cookie);
    return w.Take();
  }

  const int partition_field_;
  QuerySpec key_spec_;  // the query without PARTITION BY
  TPStreamOperator::Options options_;
  std::vector<Event>* out_;
  std::map<int64_t, std::unique_ptr<TPStreamOperator>> ints_;
  std::map<std::string, std::unique_ptr<TPStreamOperator>> strings_;
  std::set<int64_t> dirty_ints_;
  std::set<std::string> dirty_strings_;
  int64_t num_events_ = 0;
  int64_t num_matches_ = 0;
};

std::string FullCheckpoint(const TPStreamOperator& op) {
  ckpt::Writer w;
  op.Checkpoint(w);
  return w.Take();
}

std::string DeltaCheckpoint(const TPStreamOperator& op) {
  ckpt::Writer w;
  op.CheckpointIncremental(w);
  return w.Take();
}

bool SameEvent(const Event& a, const Event& b) {
  if (a.t != b.t || a.payload.size() != b.payload.size()) return false;
  for (size_t i = 0; i < a.payload.size(); ++i) {
    if (a.payload[i].type() != b.payload[i].type() ||
        a.payload[i].ToString() != b.payload[i].ToString()) {
      return false;
    }
  }
  return true;
}

uint64_t Fnv1a(const std::string& bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Case {
  ValueType key_type;
  bool low_latency;
  // FNV-1a over every checkpoint the run takes, recorded when each key
  // was a whole TPStreamOperator.
  uint64_t pinned_hash;
};

class PartitionedDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(PartitionedDifferential, MatchesOperatorPerKeyOracle) {
  const Case c = GetParam();
  const QuerySpec spec = ChurnSpec(c.key_type);
  TPStreamOperator::Options options;
  options.low_latency = c.low_latency;
  options.reopt_threshold = 0.01;
  options.reopt_interval = 3;
  const std::vector<Event> events = ChurnStream(c.key_type, 600, 11);

  std::vector<Event> want, got;
  OperatorPerKey oracle(spec, options, &want);
  auto make = [&] {
    return std::make_unique<TPStreamOperator>(
        spec, options, [&got](const Event& e) { got.push_back(e); });
  };
  std::unique_ptr<TPStreamOperator> engine = make();
  uint64_t hash = 1469598103934665603ull;
  auto check = [&](const std::string& mine, const std::string& theirs,
                   const char* what) {
    EXPECT_EQ(mine, theirs) << what;
    hash = Fnv1a(mine, hash);
  };

  size_t i = 0;
  auto run_until = [&](TimePoint t_end) {
    for (; i < events.size() && events[i].t <= t_end; ++i) {
      oracle.Push(events[i]);
      engine->Push(events[i]);
    }
  };

  // Full checkpoint, restored into a fresh engine that takes over.
  run_until(150);
  const std::string base = FullCheckpoint(*engine);
  check(base, oracle.Full(), "full checkpoint at t=150");
  engine = make();
  {
    ckpt::Reader r(base);
    uint64_t offset = 0;
    ASSERT_TRUE(engine->Restore(r, &offset).ok());
    EXPECT_EQ(offset, static_cast<uint64_t>(i));
  }
  check(FullCheckpoint(*engine), base, "checkpoint of the restore");
  engine->MarkCheckpointBaseline();
  oracle.MarkBaseline();

  // Delta on top of that base, restored (base + delta) into a fresh
  // engine that takes over.
  run_until(300);
  ASSERT_TRUE(engine->CanCheckpointIncremental());
  const std::string delta = DeltaCheckpoint(*engine);
  check(delta, oracle.Delta(), "delta checkpoint at t=300");
  const std::string before = FullCheckpoint(*engine);
  check(before, oracle.Full(), "full checkpoint at t=300");
  engine = make();
  {
    ckpt::Reader rb(base);
    ASSERT_TRUE(engine->Restore(rb).ok());
    ckpt::Reader rd(delta);
    ASSERT_TRUE(engine->RestoreIncremental(rd).ok());
  }
  check(FullCheckpoint(*engine), before, "checkpoint of base + delta");
  oracle.MarkBaseline();

  // A second delta in the same chain, then Reset mid-stream.
  run_until(400);
  check(DeltaCheckpoint(*engine), oracle.Delta(), "delta checkpoint at t=400");
  engine->Reset();
  oracle.Reset();
  EXPECT_FALSE(engine->CanCheckpointIncremental());
  EXPECT_EQ(engine->num_partitions(), 0u);

  run_until(600);
  check(FullCheckpoint(*engine), oracle.Full(), "full checkpoint at t=600");
  EXPECT_EQ(engine->num_partitions(), oracle.size());

  ASSERT_GT(want.size(), 20u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t m = 0; m < want.size(); ++m) {
    ASSERT_TRUE(SameEvent(got[m], want[m])) << "alert " << m;
  }
  EXPECT_EQ(hash, c.pinned_hash) << std::hex << hash;
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndModes, PartitionedDifferential,
    ::testing::Values(Case{ValueType::kInt, true, 12751780679766380679ull},
                      Case{ValueType::kInt, false, 6834810494099629899ull},
                      Case{ValueType::kString, true, 1395818645667124000ull},
                      Case{ValueType::kString, false,
                           13550179028919761663ull}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.key_type == ValueType::kInt ? "Int"
                                                                : "String") +
             (info.param.low_latency ? "LowLatency" : "Baseline");
    });

}  // namespace
}  // namespace tpstream
