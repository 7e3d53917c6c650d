// Batch-at-a-time PARTITION BY against the interpreter oracle.
//
// TPStreamOperator::PushBatch evaluates the DEFINE predicates once per
// mixed-key batch, with the compiled columnar executor by default, and
// then walks the batch key by key. The oracle is the same engine on the
// tree interpreter (`compiled_predicates = false`), fed one Push() per
// event. Compound arithmetic predicates read a column holding ints,
// doubles and nulls, and a double column with nulls; int and string keys
// churn, so keys first appear in the middle of batches. Between batches a
// full checkpoint + restore, a delta checkpoint + restore and a Reset()
// happen on both sides. Alerts must be identical, event for event, and so
// must every checkpoint's bytes and the deriver's counters.

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
#include "obs/metrics.h"
#include "query/parser.h"

namespace tpstream {
namespace {

QuerySpec ArithmeticSpec(ValueType key_type) {
  const Schema schema({Field{"key", key_type}, Field{"x", ValueType::kDouble},
                       Field{"y", ValueType::kDouble},
                       Field{"z", ValueType::kDouble}});
  auto spec = query::ParseQuery(
      "FROM S s PARTITION BY s.key "
      "DEFINE A AS s.x * 2 - s.y > 0.5 AND s.z / 4 < 20, "
      "B AS (s.y + s.z / 100) / 2 > 0.45 OR s.x = s.z, "
      "C AS NOT s.z > 60 AND s.x - s.y < -0.1, "
      "D AS s.y > 0.7 "
      "PATTERN A overlaps B; A meets B; A before B "
      "AND B overlaps C; B before C; B meets C "
      "AND A before D; A overlaps D "
      "WITHIN 40 "
      "RETURN first(A.key) AS k, max(B.y) AS peak, count(C) AS n, "
      "sum(A.z) AS zs, start(C) AS c_start",
      schema);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

Value KeyValue(ValueType type, int id) {
  if (type == ValueType::kInt) return Value(static_cast<int64_t>(id * 7 - 40));
  // Long enough to defeat any small-string buffer.
  return Value("host-" + std::to_string(id) + std::string(40, 'x'));
}

/// Ticks 1..horizon; at each tick a random subset of a sliding window of
/// keys reports, so keys retire and fresh ones appear throughout. `z` is
/// an int, a double or null; `x` is occasionally null.
std::vector<Event> Stream(ValueType key_type, TimePoint horizon,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  struct Walk {
    double x = 0.5, y = 0.5, z = 50;
  };
  std::map<int, Walk> walks;
  std::vector<Event> events;
  for (TimePoint t = 1; t <= horizon; ++t) {
    const int base = static_cast<int>(t / 20);
    for (int id = base; id < base + 14; ++id) {
      if (uni(rng) < 0.3) continue;
      Walk& w = walks[id];
      w.x = std::clamp(w.x + (uni(rng) - 0.5) * 0.5, 0.0, 1.0);
      w.y = std::clamp(w.y + (uni(rng) - 0.5) * 0.5, 0.0, 1.0);
      w.z = std::clamp(w.z + (uni(rng) - 0.5) * 40, 0.0, 100.0);
      const double kind = uni(rng);
      Value z = kind < 0.1    ? Value()
                : kind < 0.55 ? Value(static_cast<int64_t>(w.z))
                              : Value(w.z);
      Value x = uni(rng) < 0.05 ? Value() : Value(w.x);
      events.push_back(Event(
          {KeyValue(key_type, id), std::move(x), Value(w.y), std::move(z)},
          t));
    }
  }
  return events;
}

std::string Full(const TPStreamOperator& op) {
  ckpt::Writer w;
  op.Checkpoint(w);
  return w.Take();
}

std::string Delta(const TPStreamOperator& op) {
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

/// One side of the differential: an engine that can be replaced by a
/// fresh one restored from its own checkpoints.
struct Side {
  Side(const QuerySpec& spec, TPStreamOperator::Options options)
      : spec(spec), options(options) {
    this->options.metrics = &metrics;
    engine = Make();
  }

  std::unique_ptr<TPStreamOperator> Make() {
    return std::make_unique<TPStreamOperator>(
        spec, options, [this](const Event& e) { alerts.push_back(e); });
  }

  // Full checkpoint, restored into a fresh engine that takes over.
  std::string RestoreFull() {
    const std::string bytes = Full(*engine);
    engine = Make();
    ckpt::Reader r(bytes);
    EXPECT_TRUE(engine->Restore(r).ok());
    EXPECT_EQ(Full(*engine), bytes) << "checkpoint of the restore";
    base = bytes;
    return bytes;
  }

  // Delta on top of the last full checkpoint, restored (base + delta)
  // into a fresh engine that takes over.
  std::string RestoreDelta() {
    EXPECT_TRUE(engine->CanCheckpointIncremental());
    const std::string delta = Delta(*engine);
    const std::string before = Full(*engine);
    engine = Make();
    ckpt::Reader rb(base);
    EXPECT_TRUE(engine->Restore(rb).ok());
    ckpt::Reader rd(delta);
    EXPECT_TRUE(engine->RestoreIncremental(rd).ok());
    EXPECT_EQ(Full(*engine), before) << "checkpoint of base + delta";
    return delta;
  }

  int64_t Counter(const char* name) {
    return metrics.GetCounter(name)->value();
  }

  const QuerySpec& spec;
  TPStreamOperator::Options options;
  obs::MetricsRegistry metrics;
  std::vector<Event> alerts;
  std::unique_ptr<TPStreamOperator> engine;
  std::string base;
};

struct Case {
  ValueType key_type;
  size_t batch;
};

class PartitionedBatchDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(PartitionedBatchDifferential, CompiledBatchesMatchInterpreterPushes) {
  const Case c = GetParam();
  const QuerySpec spec = ArithmeticSpec(c.key_type);
  const std::vector<Event> events = Stream(c.key_type, 800, 23);

  TPStreamOperator::Options interpreted;
  interpreted.compiled_predicates = false;
  Side oracle(spec, interpreted);
  Side subject(spec, TPStreamOperator::Options{});
  ASSERT_TRUE(subject.options.compiled_predicates);

  // Between-batch operations, each at the first batch boundary at or
  // after its event index.
  enum class Op { kFull, kDelta, kReset };
  const std::vector<std::pair<size_t, Op>> plan = {
      {events.size() / 5, Op::kFull},
      {2 * events.size() / 5, Op::kDelta},
      {3 * events.size() / 5, Op::kReset},
      {4 * events.size() / 5, Op::kFull}};
  size_t next_op = 0;
  std::set<std::string> seen;
  int keys_first_seen_mid_batch = 0;

  for (size_t i = 0; i < events.size(); i += c.batch) {
    while (next_op < plan.size() && plan[next_op].first <= i) {
      SCOPED_TRACE("before event " + std::to_string(i));
      switch (plan[next_op].second) {
        case Op::kFull:
          EXPECT_EQ(subject.RestoreFull(), oracle.RestoreFull());
          break;
        case Op::kDelta:
          EXPECT_EQ(subject.RestoreDelta(), oracle.RestoreDelta());
          break;
        case Op::kReset:
          subject.engine->Reset();
          oracle.engine->Reset();
          break;
      }
      ++next_op;
    }
    const size_t end = std::min(events.size(), i + c.batch);
    for (size_t j = i; j < end; ++j) {
      oracle.engine->Push(events[j]);
      const std::string key = events[j].payload[0].ToString();
      if (seen.insert(key).second && j > i) ++keys_first_seen_mid_batch;
    }
    subject.engine->PushBatch(
        std::span<const Event>(events.data() + i, end - i));
  }
  EXPECT_EQ(Full(*subject.engine), Full(*oracle.engine));
  EXPECT_EQ(subject.engine->num_partitions(),
            oracle.engine->num_partitions());
  EXPECT_EQ(next_op, plan.size());
  if (c.batch > 1) EXPECT_GT(keys_first_seen_mid_batch, 0);
  // Every predicate compiled: the batches ran the columnar executor.
  EXPECT_EQ(subject.metrics.GetGauge("deriver.compiled_programs")->value(),
            4.0);

  ASSERT_GT(oracle.alerts.size(), 20u);
  ASSERT_EQ(subject.alerts.size(), oracle.alerts.size());
  for (size_t m = 0; m < oracle.alerts.size(); ++m) {
    ASSERT_TRUE(SameEvent(subject.alerts[m], oracle.alerts[m]))
        << "alert " << m;
  }
  for (const char* name :
       {"partitioned.events", "deriver.events", "deriver.predicate_evals",
        "deriver.situations_opened", "deriver.situations_announced",
        "deriver.situations_finished", "deriver.situations_discarded"}) {
    EXPECT_EQ(subject.Counter(name), oracle.Counter(name)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndBatches, PartitionedBatchDifferential,
    ::testing::Values(Case{ValueType::kInt, 1}, Case{ValueType::kInt, 7},
                      Case{ValueType::kInt, 256}, Case{ValueType::kInt, 1000},
                      Case{ValueType::kString, 1},
                      Case{ValueType::kString, 7},
                      Case{ValueType::kString, 256},
                      Case{ValueType::kString, 1000}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.key_type == ValueType::kInt ? "Int"
                                                                : "String") +
             "Batch" + std::to_string(info.param.batch);
    });

// The interpreter ablation is one flag, and both option structs that
// carry it default to the compiled path.
TEST(CompiledPredicatesDefault, AgreesAcrossOptionStructs) {
  EXPECT_TRUE(DeriveOptions{}.compiled_predicates);
  EXPECT_EQ(TPStreamOperator::Options{}.compiled_predicates,
            DeriveOptions{}.compiled_predicates);
}

}  // namespace
}  // namespace tpstream
