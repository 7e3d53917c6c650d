// One-call recovery differential across every engine surface (operator,
// partitioned, parallel, query group) and the reorder-in-front-of-
// operator composite (tests/reorder_pipeline.h): run with a durable log
// and a RecoveryManager, kill at arbitrary offsets — including with a
// torn (unsynced) log tail and with the newest checkpoint corrupted —
// recover with one call, and require the final re-checkpoint bytes to be
// identical to an uninterrupted run. Also pins the ReorderBuffer replay
// interaction: late-event quarantines are exactly-once across a crash.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "robust/dead_letter.h"
#include "tests/reorder_pipeline.h"

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
    const int64_t key = static_cast<int64_t>(i % num_keys);
    events.push_back(Event({Value(speed), Value(temp), Value(key)}, i + 1));
  }
  return events;
}

std::vector<Event> Disorder(std::vector<Event> events, int k) {
  for (size_t i = 0; i + k <= events.size(); i += k) {
    std::reverse(events.begin() + i, events.begin() + i + k);
  }
  return events;
}

constexpr char kLogDir[] = "/wal";
constexpr char kCkptDir[] = "/wal/ckpt";
constexpr int kStreamLen = 400;
const std::vector<size_t> kKillOffsets = {1, 133, 257, 399};

std::unique_ptr<log::EventLog> MustOpenLog(
    log::FileSystem* fs, const log::EventLogOptions& options = {}) {
  std::unique_ptr<log::EventLog> log;
  Status s = log::EventLog::Open(fs, kLogDir, options, &log);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return log;
}

std::unique_ptr<log::RecoveryManager> MustOpenManager(
    log::FileSystem* fs, log::EventLog* log,
    const log::RecoveryManager::Options& options = {}) {
  std::unique_ptr<log::RecoveryManager> mgr;
  Status s = log::RecoveryManager::Open(fs, kCkptDir, log, options, &mgr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return mgr;
}

template <typename Engine>
void Feed(log::EventLog& log, Engine& engine, const Event& event) {
  auto r = log.Append(std::span<const Event>(&event, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  engine.Push(event);
}

enum class CrashMode {
  kClean,          // log synced per record: nothing lost
  kTornTail,       // unsynced log tail wiped by the crash
  kCorruptNewest,  // newest checkpoint file bit-flipped post-crash
};

/// The generic per-surface differential. `make` returns a fresh engine
/// (same construction every incarnation); `finish` quiesces an engine
/// before its state is compared (parallel Flush).
template <typename Engine, typename MakeFn, typename FinishFn>
void RunRecoveryDifferential(MakeFn make, FinishFn finish,
                             const std::vector<Event>& events,
                             CrashMode mode,
                             log::RecoveryManager::Options mgr_options = {}) {
  std::string ref_final;
  {
    auto ref = make();
    for (const Event& e : events) ref->Push(e);
    finish(*ref);
    ckpt::Writer w;
    ref->Checkpoint(w);
    ref_final = w.Take();
  }

  log::EventLogOptions log_options;
  if (mode == CrashMode::kTornTail) {
    log_options.sync.mode = log::SyncMode::kEveryBytes;
    log_options.sync.sync_bytes = 1 << 20;  // crash loses the tail
  }

  for (const size_t kill : kKillOffsets) {
    log::MemFileSystem fs;
    {
      auto log = MustOpenLog(&fs, log_options);
      auto mgr = MustOpenManager(&fs, log.get(), mgr_options);
      auto first = make();
      for (size_t i = 0; i < kill; ++i) {
        Feed(*log, *first, events[i]);
        // Two checkpoints before the kill (when it is far enough in):
        // recovery exercises restore + replay, and kCorruptNewest has a
        // previous generation to fall back to.
        if (kill >= 4 && (i + 1 == kill / 2 || i + 1 == kill / 4)) {
          auto info = mgr->Checkpoint(*first);
          ASSERT_TRUE(info.ok()) << info.status().ToString();
        }
      }
    }
    if (mode == CrashMode::kTornTail) fs.SimulateCrash();
    if (mode == CrashMode::kCorruptNewest) {
      std::vector<std::string> names;
      ASSERT_TRUE(fs.ListDir(kCkptDir, &names).ok());
      std::sort(names.begin(), names.end());
      if (!names.empty()) {
        const std::string path = std::string(kCkptDir) + "/" + names.back();
        fs.CorruptByte(path, fs.FileSize(path) / 2, 0x10);
      }
    }

    auto log = MustOpenLog(&fs, log_options);
    auto mgr = MustOpenManager(&fs, log.get(), mgr_options);
    auto second = make();
    auto report = mgr->Recover(*second);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (mode == CrashMode::kClean) {
      // Per-record fsync: the log holds every fed event.
      ASSERT_EQ(log->end_offset(), kill);
    }
    // The source re-sends from the log's end (at-least-once upstream).
    for (size_t i = log->end_offset(); i < events.size(); ++i) {
      Feed(*log, *second, events[i]);
    }
    finish(*second);
    ckpt::Writer final_ckpt;
    second->Checkpoint(final_ckpt);
    ASSERT_EQ(final_ckpt.buffer(), ref_final)
        << "kill@" << kill << " mode=" << static_cast<int>(mode);
  }
}

// --- operator surface ------------------------------------------------------

class RecoveryDifferential : public ::testing::TestWithParam<CrashMode> {};

INSTANTIATE_TEST_SUITE_P(AllCrashModes, RecoveryDifferential,
                         ::testing::Values(CrashMode::kClean,
                                           CrashMode::kTornTail,
                                           CrashMode::kCorruptNewest),
                         [](const auto& info) {
                           switch (info.param) {
                             case CrashMode::kClean: return "Clean";
                             case CrashMode::kTornTail: return "TornTail";
                             default: return "CorruptNewest";
                           }
                         });

TEST_P(RecoveryDifferential, Operator) {
  const QuerySpec spec = SensorSpec();
  RunRecoveryDifferential<TPStreamOperator>(
      [&] { return std::make_unique<TPStreamOperator>(spec, TPStreamOperator::Options{}, nullptr); },
      [](TPStreamOperator&) {}, MakeStream(kStreamLen, 51), GetParam());
}

TEST_P(RecoveryDifferential, Partitioned) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  log::RecoveryManager::Options mopts;
  mopts.full_snapshot_interval = 2;  // every other checkpoint is a delta
  RunRecoveryDifferential<TPStreamOperator>(
      [&] {
        return std::make_unique<TPStreamOperator>(
            spec, TPStreamOperator::Options{}, nullptr);
      },
      [](TPStreamOperator&) {}, MakeStream(kStreamLen, 52, /*keys=*/7),
      GetParam(), mopts);
}

TEST_P(RecoveryDifferential, Parallel) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  parallel::ParallelTPStream::Options popts;
  popts.num_workers = 2;
  popts.batch_size = 16;
  RunRecoveryDifferential<parallel::ParallelTPStream>(
      [&] {
        return std::make_unique<parallel::ParallelTPStream>(spec, popts,
                                                            nullptr);
      },
      [](parallel::ParallelTPStream& p) { p.Flush(); },
      MakeStream(kStreamLen, 53, /*keys=*/5), GetParam());
}

TEST_P(RecoveryDifferential, Pipeline) {
  const QuerySpec spec = SensorSpec();
  const auto make = [&] {
    return std::make_unique<ReorderPipeline>(
        spec, ooo::ReorderBuffer::Options{.slack = 8}, nullptr);
  };
  RunRecoveryDifferential<ReorderPipeline>(
      make, [](ReorderPipeline&) {},
      Disorder(MakeStream(kStreamLen, 54), /*k=*/4), GetParam());
}

/// SensorSpec plus a second query sharing its definition B, in one
/// operator.
std::unique_ptr<TPStreamOperator> TwoQueries(bool partitioned) {
  std::vector<TPStreamOperator::Query> queries(2);
  queries[0] = {SensorSpec(partitioned), [](const Event&) {}};
  QueryBuilder qb(SensorSchema());
  qb.Define("B", Gt(FieldRef(1, "temp"), Literal(0.45)))
      .Within(40)
      .Return("avg_b", "B", AggKind::kAvg, "temp");
  if (partitioned) qb.PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok());
  queries[1] = {spec.value(), [](const Event&) {}};
  auto op = TPStreamOperator::Create(std::move(queries), {});
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  EXPECT_EQ(op.value()->num_distinct_definitions(), 2);
  return std::move(op).value();
}

TEST_P(RecoveryDifferential, QueryGroup) {
  RunRecoveryDifferential<TPStreamOperator>(
      [] { return TwoQueries(/*partitioned=*/false); },
      [](TPStreamOperator&) {}, MakeStream(kStreamLen, 55), GetParam());
}

// Several engines per partition under delta chains: every other
// checkpoint is a kPartitionedDelta of the keys touched since.
TEST_P(RecoveryDifferential, PartitionedMultiQuery) {
  log::RecoveryManager::Options mopts;
  mopts.full_snapshot_interval = 2;
  RunRecoveryDifferential<TPStreamOperator>(
      [] { return TwoQueries(/*partitioned=*/true); },
      [](TPStreamOperator&) {}, MakeStream(kStreamLen, 57, /*keys=*/7),
      GetParam(), mopts);
}

// --- reorder-buffer replay interaction (regression) ------------------------

TEST(RecoveryReplay, LateEventQuarantineIsExactlyOnceAcrossCrash) {
  const QuerySpec spec = SensorSpec();
  // Disorder groups of 6 against slack 2: some events are genuinely too
  // late and get dropped + quarantined.
  const std::vector<Event> events =
      Disorder(MakeStream(kStreamLen, 56), /*k=*/6);
  const Duration slack = 2;

  const auto make = [&](robust::DeadLetterSink* dead) {
    ooo::ReorderBuffer::Options ropts;
    ropts.slack = slack;
    ropts.dead_letter = dead;
    return std::make_unique<ReorderPipeline>(spec, ropts, nullptr);
  };

  // Uninterrupted reference: every late drop quarantines exactly once.
  robust::CollectingDeadLetterSink ref_dead;
  std::string ref_final;
  {
    auto ref = make(&ref_dead);
    for (const Event& e : events) ref->Push(e);
    ckpt::Writer w;
    ref->Checkpoint(w);
    ref_final = w.Take();
  }
  ASSERT_GT(ref_dead.accepted(), 0) << "stream produced no late drops; the "
                                       "regression scenario is vacuous";

  // Crashed run: the dead-letter sink survives the crash (it models a
  // durable quarantine channel), the engine does not.
  robust::CollectingDeadLetterSink dead;
  log::MemFileSystem fs;
  constexpr size_t kKill = 257;
  {
    auto log = MustOpenLog(&fs);
    auto mgr = MustOpenManager(&fs, log.get());
    auto first = make(&dead);
    for (size_t i = 0; i < kKill; ++i) {
      Feed(*log, *first, events[i]);
      if (i + 1 == 150) ASSERT_TRUE(mgr->Checkpoint(*first).ok());
    }
  }
  // Sanity: late drops happened in the to-be-replayed window (150, 257],
  // otherwise replay suppression is not actually exercised.
  const int64_t before_recovery = dead.accepted();
  ASSERT_GT(before_recovery, 0);

  auto log = MustOpenLog(&fs);
  auto mgr = MustOpenManager(&fs, log.get());
  auto second = make(&dead);
  auto report = mgr->Recover(*second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().offset, 150u);
  EXPECT_EQ(report.value().replayed_events, kKill - 150);
  // Replay re-dropped the same late events but must NOT have delivered
  // them to the sink again.
  EXPECT_EQ(dead.accepted(), before_recovery)
      << "recovery replay double-delivered late-event quarantines";

  for (size_t i = kKill; i < events.size(); ++i) Feed(*log, *second, events[i]);

  // Exactly-once overall: same quarantine count as the uninterrupted
  // run, and the same items (compare by detail + payload timestamp).
  EXPECT_EQ(dead.accepted(), ref_dead.accepted());
  const auto got = dead.Items();
  const auto want = ref_dead.Items();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detail, want[i].detail) << "item " << i;
    ASSERT_EQ(got[i].events.size(), want[i].events.size());
    for (size_t j = 0; j < got[i].events.size(); ++j) {
      EXPECT_EQ(got[i].events[j].t, want[i].events[j].t);
    }
  }

  // And the engine state converged: counters (num_dropped included, via
  // the serialized reorder buffer) are byte-identical to the reference.
  ckpt::Writer final_ckpt;
  second->Checkpoint(final_ckpt);
  EXPECT_EQ(final_ckpt.buffer(), ref_final);
}

}  // namespace
}  // namespace tpstream
