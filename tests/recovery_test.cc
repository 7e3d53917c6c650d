// RecoveryManager mechanics: checkpoint generation files, the full/delta
// cadence, chain validation and degradation, corrupt-newest fallback,
// disk-full behaviour, and the checkpoint checksum footer (including the
// legacy unchecksummed path).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
#include "query/builder.h"
#include "robust/dead_letter.h"

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

std::unique_ptr<log::EventLog> MustOpenLog(
    log::FileSystem* fs, const std::string& dir,
    const log::EventLogOptions& options = {}) {
  std::unique_ptr<log::EventLog> log;
  Status s = log::EventLog::Open(fs, dir, options, &log);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return log;
}

std::unique_ptr<log::RecoveryManager> MustOpenManager(
    log::FileSystem* fs, const std::string& dir, log::EventLog* log,
    const log::RecoveryManager::Options& options = {}) {
  std::unique_ptr<log::RecoveryManager> mgr;
  Status s = log::RecoveryManager::Open(fs, dir, log, options, &mgr);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return mgr;
}

/// Appends one event to the log and pushes it into the engine — the
/// write path every durable deployment runs.
template <typename Engine>
void Feed(log::EventLog& log, Engine& engine, const Event& event) {
  auto r = log.Append(std::span<const Event>(&event, 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  engine.Push(event);
}

constexpr char kLogDir[] = "/wal";
constexpr char kCkptDir[] = "/wal/ckpt";

// --- operator surface ------------------------------------------------------

TEST(RecoveryManager, OperatorCheckpointRecoverReplay) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(400, 21);

  // Expected tail outputs: a reference that pushes the prefix silently,
  // then collects from event 200 on (replay re-emits those matches).
  std::vector<Event> want_tail;
  {
    bool collect = false;
    TPStreamOperator ref(spec, {}, [&](const Event& e) {
      if (collect) want_tail.push_back(e);
    });
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == 200) collect = true;
      ref.Push(events[i]);
    }
  }
  ckpt::Writer ref_final;
  {
    TPStreamOperator ref(spec, {}, nullptr);
    for (const Event& e : events) ref.Push(e);
    ref.Checkpoint(ref_final);
  }

  log::MemFileSystem fs;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
    TPStreamOperator first(spec, {}, nullptr);
    for (size_t i = 0; i < 300; ++i) {
      Feed(*log, first, events[i]);
      if (i + 1 == 100 || i + 1 == 200) {
        auto info = mgr->Checkpoint(first);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        EXPECT_EQ(info.value().offset, i + 1);
        EXPECT_FALSE(info.value().incremental);  // no incremental surface
      }
    }
  }  // crash: engine and manager die; the log was synced per record

  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
  std::vector<Event> outputs;
  TPStreamOperator second(spec, {},
                          [&](const Event& e) { outputs.push_back(e); });
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().restored);
  EXPECT_EQ(report.value().generation, 2u);
  EXPECT_EQ(report.value().offset, 200u);
  EXPECT_EQ(report.value().replayed_events, 100u);
  EXPECT_EQ(report.value().corrupt_skipped, 0);

  for (size_t i = 300; i < events.size(); ++i) Feed(*log, second, events[i]);

  ASSERT_EQ(outputs.size(), want_tail.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].t, want_tail[i].t);
    EXPECT_EQ(outputs[i].payload, want_tail[i].payload);
  }
  ckpt::Writer final_ckpt;
  second.Checkpoint(final_ckpt);
  EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer());
}

TEST(RecoveryManager, ColdStartReplaysWholeLog) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(150, 22);

  log::MemFileSystem fs;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    TPStreamOperator first(spec, {}, nullptr);
    for (const Event& e : events) Feed(*log, first, e);
  }  // crash before any checkpoint

  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().restored);
  EXPECT_EQ(report.value().offset, 0u);
  EXPECT_EQ(report.value().replayed_events, events.size());

  TPStreamOperator ref(spec, {}, nullptr);
  for (const Event& e : events) ref.Push(e);
  ckpt::Writer a, b;
  second.Checkpoint(a);
  ref.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(RecoveryManager, CorruptNewestCheckpointFallsBackToPrevious) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(300, 23);

  log::MemFileSystem fs;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
    TPStreamOperator first(spec, {}, nullptr);
    for (size_t i = 0; i < events.size(); ++i) {
      Feed(*log, first, events[i]);
      if (i + 1 == 100 || i + 1 == 200) {
        ASSERT_TRUE(mgr->Checkpoint(first).ok());
      }
    }
  }

  // Flip one byte inside the newest (generation 2) checkpoint file: its
  // checksum footer must catch it and recovery must fall back to gen 1.
  fs.CorruptByte("/wal/ckpt/ckpt-00000000000000000002-full.tpc", 60, 0x40);

  robust::CollectingDeadLetterSink dead;
  log::RecoveryManager::Options options;
  options.dead_letter = &dead;
  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().restored);
  EXPECT_EQ(report.value().generation, 1u);
  EXPECT_EQ(report.value().offset, 100u);
  EXPECT_EQ(report.value().replayed_events, 200u);
  EXPECT_EQ(report.value().corrupt_skipped, 1);
  ASSERT_EQ(dead.accepted(), 1);
  EXPECT_EQ(dead.Items()[0].kind, robust::DeadLetterKind::kCorruptCheckpoint);

  TPStreamOperator ref(spec, {}, nullptr);
  for (const Event& e : events) ref.Push(e);
  ckpt::Writer a, b;
  second.Checkpoint(a);
  ref.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());

  // New checkpoints must not clobber the (still on disk) corrupt file's
  // generation number.
  auto info = mgr->Checkpoint(second);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().generation, 3u);
}

// --- incremental cadence (partitioned surface) -----------------------------

TEST(RecoveryManager, IncrementalCadenceAndByteIdenticalRestore) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(400, 24, /*keys=*/40);

  ckpt::Writer ref_final;
  {
    TPStreamOperator ref(spec, {}, nullptr);
    for (const Event& e : events) ref.Push(e);
    ref.Checkpoint(ref_final);
  }

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 4;
  std::vector<bool> kinds;
  uint64_t full_bytes = 0, delta_bytes = 0;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
    TPStreamOperator first(spec, {}, nullptr);
    for (size_t i = 0; i < 350; ++i) {
      Feed(*log, first, events[i]);
      if ((i + 1) % 25 == 0) {
        auto info = mgr->Checkpoint(first);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        kinds.push_back(info.value().incremental);
        (info.value().incremental ? delta_bytes : full_bytes) =
            std::max(info.value().incremental ? delta_bytes : full_bytes,
                     info.value().bytes);
      }
    }
  }
  // K=4 cadence: every 4th generation is full (1, 5, 9, 13), the three
  // between are deltas.
  ASSERT_EQ(kinds.size(), 14u);
  for (size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_EQ(kinds[i], i % 4 != 0) << "checkpoint " << i;
  }
  // Deltas cover <= 25 of 40 partitions, so they must be smaller.
  EXPECT_LT(delta_bytes, full_bytes);

  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().restored);
  EXPECT_EQ(report.value().generation, 14u);
  EXPECT_EQ(report.value().offset, 350u);
  EXPECT_EQ(report.value().deltas_applied, 1);  // gen 14 on full 13
  for (size_t i = 350; i < events.size(); ++i) Feed(*log, second, events[i]);

  ckpt::Writer final_ckpt;
  second.Checkpoint(final_ckpt);
  EXPECT_EQ(final_ckpt.buffer(), ref_final.buffer())
      << "incremental restore diverged from the uninterrupted run";
}

TEST(RecoveryManager, MissingDeltaDegradesToValidPrefix) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(300, 25, /*keys=*/20);

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 8;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
    TPStreamOperator first(spec, {}, nullptr);
    for (size_t i = 0; i < events.size(); ++i) {
      Feed(*log, first, events[i]);
      if ((i + 1) % 50 == 0) ASSERT_TRUE(mgr->Checkpoint(first).ok());
    }
  }
  // Generations: 1 full @50, 2..6 delta @100..300. Remove the delta at
  // generation 3: generations 4..6 can no longer attach to the chain.
  ASSERT_TRUE(
      fs.DeleteFile("/wal/ckpt/ckpt-00000000000000000003-delta.tpc").ok());

  robust::CollectingDeadLetterSink dead;
  options.dead_letter = &dead;
  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().restored);
  EXPECT_EQ(report.value().generation, 2u);  // full@1 + delta@2 only
  EXPECT_EQ(report.value().offset, 100u);
  EXPECT_EQ(report.value().deltas_applied, 1);
  EXPECT_EQ(report.value().replayed_events, 200u);
  EXPECT_GE(dead.accepted(), 1);  // the chain break is quarantined

  ckpt::Writer a, b;
  second.Checkpoint(a);
  TPStreamOperator ref(spec, {}, nullptr);
  for (const Event& e : events) ref.Push(e);
  ref.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(RecoveryManager, PruningKeepsPreviousFullAsFallback) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(400, 26, /*keys=*/10);

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 3;
  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator engine(spec, {}, nullptr);
  for (size_t i = 0; i < events.size(); ++i) {
    Feed(*log, engine, events[i]);
    if ((i + 1) % 40 == 0) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
  }
  // 10 checkpoints at K=3: fulls at 1,4,7,10. Pruning after the full at
  // 10 keeps generations >= 7 (previous full + its chain) only.
  EXPECT_FALSE(
      fs.HasFile("/wal/ckpt/ckpt-00000000000000000001-full.tpc"));
  EXPECT_FALSE(
      fs.HasFile("/wal/ckpt/ckpt-00000000000000000004-full.tpc"));
  EXPECT_TRUE(fs.HasFile("/wal/ckpt/ckpt-00000000000000000007-full.tpc"));
  EXPECT_TRUE(fs.HasFile("/wal/ckpt/ckpt-00000000000000000008-delta.tpc"));
  EXPECT_TRUE(fs.HasFile("/wal/ckpt/ckpt-00000000000000000009-delta.tpc"));
  EXPECT_TRUE(fs.HasFile("/wal/ckpt/ckpt-00000000000000000010-full.tpc"));
  EXPECT_EQ(mgr->num_checkpoint_files(), 4);

  // The fallback actually works: corrupt the newest full, recover onto
  // the previous full + its deltas + replay.
  fs.CorruptByte("/wal/ckpt/ckpt-00000000000000000010-full.tpc", 80, 0x08);
  auto log2 = MustOpenLog(&fs, kLogDir);
  auto mgr2 = MustOpenManager(&fs, kCkptDir, log2.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr2->Recover(second);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().restored);
  EXPECT_EQ(report.value().generation, 9u);

  ckpt::Writer a, b;
  second.Checkpoint(a);
  engine.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(RecoveryManager, FallbackRecoveryForcesFullNextCheckpoint) {
  // After a recovery that fell back past a corrupt newest generation,
  // the chain the manager holds ends below last_generation_. A delta
  // taken then would declare a base no future recovery can re-attach to
  // (the corrupt file still sits in the chain walk), so the first
  // post-fallback checkpoint must be a full snapshot.
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(300, 31, /*keys=*/10);

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 8;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
    TPStreamOperator first(spec, {}, nullptr);
    for (size_t i = 0; i < 150; ++i) {
      Feed(*log, first, events[i]);
      if ((i + 1) % 50 == 0) ASSERT_TRUE(mgr->Checkpoint(first).ok());
    }
  }
  // Generations: 1 full @50, 2..3 delta @100/@150. Corrupt the newest.
  fs.CorruptByte("/wal/ckpt/ckpt-00000000000000000003-delta.tpc", 60, 0x20);

  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr->Recover(second);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().generation, 2u);  // fell back past gen 3
  EXPECT_EQ(report.value().corrupt_skipped, 1);

  for (size_t i = 150; i < 200; ++i) Feed(*log, second, events[i]);
  auto info = mgr->Checkpoint(second);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().generation, 4u);
  EXPECT_FALSE(info.value().incremental);  // forced full after fallback

  // The forced full re-anchors the chain: deltas on top of it attach
  // cleanly at the next recovery instead of being quarantined.
  for (size_t i = 200; i < 250; ++i) Feed(*log, second, events[i]);
  auto delta_info = mgr->Checkpoint(second);
  ASSERT_TRUE(delta_info.ok());
  EXPECT_TRUE(delta_info.value().incremental);  // gen 5, delta on gen 4

  robust::CollectingDeadLetterSink dead;
  options.dead_letter = &dead;
  auto log2 = MustOpenLog(&fs, kLogDir);
  auto mgr2 = MustOpenManager(&fs, kCkptDir, log2.get(), options);
  TPStreamOperator third(spec, {}, nullptr);
  auto report2 = mgr2->Recover(third);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2.value().generation, 5u);
  EXPECT_EQ(report2.value().offset, 250u);
  EXPECT_EQ(report2.value().deltas_applied, 1);
  EXPECT_EQ(dead.accepted(), 0);  // nothing stranded, nothing quarantined

  for (size_t i = 250; i < events.size(); ++i) Feed(*log2, third, events[i]);
  ckpt::Writer a, b;
  third.Checkpoint(a);
  TPStreamOperator ref(spec, {}, nullptr);
  for (const Event& e : events) ref.Push(e);
  ref.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(RecoveryManager, DiskFullCheckpointFailsCleanAndForcesFullNext) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(200, 27, /*keys=*/10);

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 8;
  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator engine(spec, {}, nullptr);
  for (size_t i = 0; i < 100; ++i) Feed(*log, engine, events[i]);
  ASSERT_TRUE(mgr->Checkpoint(engine).ok());  // gen 1, full
  for (size_t i = 100; i < 150; ++i) Feed(*log, engine, events[i]);
  auto info = mgr->Checkpoint(engine);  // gen 2, delta
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().incremental);

  for (size_t i = 150; i < 180; ++i) Feed(*log, engine, events[i]);
  fs.set_enospc_after_bytes(fs.total_appended() + 16);
  auto failed = mgr->Checkpoint(engine);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(failed.status().message().find("byte"), std::string::npos);
  // No half-written generation file, temp or final, may remain.
  EXPECT_FALSE(fs.HasFile("/wal/ckpt/ckpt-00000000000000000003-delta.tpc"));
  EXPECT_FALSE(
      fs.HasFile("/wal/ckpt/ckpt-00000000000000000003-delta.tpc.tmp"));

  fs.clear_enospc();
  for (size_t i = 180; i < 200; ++i) Feed(*log, engine, events[i]);
  auto after = mgr->Checkpoint(engine);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().incremental);  // forced full after failure
  EXPECT_EQ(after.value().generation, 3u);

  // And nothing was lost: recovery lands on the new full.
  auto log2 = MustOpenLog(&fs, kLogDir);
  auto mgr2 = MustOpenManager(&fs, kCkptDir, log2.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  auto report = mgr2->Recover(second);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().generation, 3u);
  EXPECT_EQ(report.value().offset, 200u);
  ckpt::Writer a, b;
  second.Checkpoint(a);
  engine.Checkpoint(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(RecoveryManager, ChainSurvivesManagerRestartBetweenCheckpoints) {
  // A manager reopened mid-chain (process restart without a crash, or a
  // crash right after a checkpoint) must not emit deltas against a chain
  // hash it no longer knows: the first post-restart checkpoint is full.
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(150, 28, /*keys=*/8);

  log::MemFileSystem fs;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 8;
  auto log = MustOpenLog(&fs, kLogDir);
  TPStreamOperator engine(spec, {}, nullptr);
  {
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
    for (size_t i = 0; i < 100; ++i) Feed(*log, engine, events[i]);
    ASSERT_TRUE(mgr->Checkpoint(engine).ok());
  }
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  for (size_t i = 100; i < 150; ++i) Feed(*log, engine, events[i]);
  auto info = mgr->Checkpoint(engine);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().incremental);
  EXPECT_EQ(info.value().generation, 2u);
}

TEST(RecoveryManager, GroupCommitKillReDerivesEveryDurableAlertOnce) {
  // Output contract under kEveryBytes: alerts may run ahead of the
  // durable watermark, and a power cut loses the unsynced tail. Every
  // alert whose input was durable at the crash is re-derived exactly
  // once: the checkpoint holds what precedes its offset, replay re-emits
  // what follows up to the surviving end of the log.
  QueryBuilder qb(SensorSchema());
  qb.Define("A", Gt(FieldRef(0, "speed"), Literal(0.55)))
      .Define("B", Gt(FieldRef(1, "temp"), Literal(0.45)))
      .Relate("A", Relation::kBefore, "B")
      .Within(60)
      .Return("n_a", "A", AggKind::kCount)
      .PartitionBy("key");
  auto built = qb.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const QuerySpec spec = built.value();
  const std::vector<Event> events = MakeStream(600, 31, /*num_keys=*/4);

  // Reference alerts, each tagged with the index of its trigger event.
  std::vector<std::pair<size_t, Event>> ref;
  {
    size_t trigger = 0;
    TPStreamOperator op(spec, {},
                        [&](const Event& e) { ref.emplace_back(trigger, e); });
    for (; trigger < events.size(); ++trigger) op.Push(events[trigger]);
  }
  ASSERT_GT(ref.size(), 30u);

  log::EventLogOptions log_options;
  log_options.sync.mode = log::SyncMode::kEveryBytes;
  log_options.sync.sync_bytes = 512;
  for (const size_t kill : {150u, 333u, 599u}) {
    log::MemFileSystem fs;
    uint64_t durable = 0;
    {
      auto log = MustOpenLog(&fs, kLogDir, log_options);
      auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
      TPStreamOperator first(spec, {}, nullptr);
      for (size_t i = 0; i < kill; ++i) {
        Feed(*log, first, events[i]);
        if ((i + 1) % 100 == 0) ASSERT_TRUE(mgr->Checkpoint(first).ok());
      }
      durable = log->durable_offset();
      fs.SimulateCrash();  // power cut; the log thread may still be syncing
    }

    auto log = MustOpenLog(&fs, kLogDir, log_options);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get());
    std::vector<Event> replayed;
    TPStreamOperator second(spec, {},
                            [&](const Event& e) { replayed.push_back(e); });
    auto report = mgr->Recover(second);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const uint64_t survived = log->end_offset();
    EXPECT_GE(survived, durable) << "kill@" << kill;
    EXPECT_LE(survived, kill) << "kill@" << kill;
    EXPECT_EQ(report.value().restored, kill >= 100) << "kill@" << kill;
    EXPECT_LE(report.value().offset, durable) << "kill@" << kill;

    std::vector<Event> want;
    for (const auto& [trigger, alert] : ref) {
      if (trigger >= report.value().offset && trigger < survived) {
        want.push_back(alert);
      }
    }
    ASSERT_EQ(replayed.size(), want.size()) << "kill@" << kill;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(replayed[i].t, want[i].t) << "kill@" << kill << " alert " << i;
      EXPECT_EQ(replayed[i].payload, want[i].payload)
          << "kill@" << kill << " alert " << i;
    }
  }
}

// --- checkpoint checksum footer (satellite) --------------------------------

TEST(CheckpointChecksum, SealedBlobRoundtripsAndDetectsFlips) {
  ckpt::Writer w;
  w.Envelope(7);
  w.Str("payload bytes");
  w.SealChecksum();
  const std::string blob = w.Take();

  std::string_view payload;
  ASSERT_TRUE(ckpt::VerifyAndStripChecksum(blob, &payload).ok());
  EXPECT_EQ(payload.size(), blob.size() - 8);

  // Any flip, footer magic included, fails: a damaged magic reads as a
  // missing footer, a flip anywhere else as a checksum mismatch.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string bad = blob;
    bad[i] ^= 0x04;
    Status s = ckpt::VerifyAndStripChecksum(bad, &payload);
    const bool in_footer_magic =
        i >= blob.size() - 8 && i < blob.size() - 4;
    EXPECT_FALSE(s.ok()) << "flip at byte " << i;
    EXPECT_EQ(s.code(), StatusCode::kParseError);
    EXPECT_NE(s.message().find(in_footer_magic ? "missing checksum footer"
                                               : "checksum mismatch"),
              std::string::npos)
        << "flip at byte " << i << ": " << s.message();
  }

  // An unsealed blob has no footer and is rejected.
  const std::string unsealed = blob.substr(0, blob.size() - 8);
  Status s = ckpt::VerifyAndStripChecksum(unsealed, &payload);
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("missing checksum footer"), std::string::npos);
}

// --- directory fsync ------------------------------------------------------

TEST(RecoveryManager, CheckpointSyncsItsDirectoryBeforeReturning) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(120, 31, /*keys=*/4);
  log::MemFileSystem fs;
  auto log = MustOpenLog(&fs, kLogDir);
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 2;  // full and delta generations
  // Open syncs no directory. The checkpoint directory lives in the log
  // directory, which no event append syncs once segment 0 exists (the
  // segments here never rotate), so kLogDir counts only parent syncs.
  const uint64_t parent_syncs = fs.dir_syncs(kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  EXPECT_EQ(fs.dir_syncs(kLogDir), parent_syncs);
  TPStreamOperator engine(spec, {}, nullptr);
  for (size_t i = 0; i < events.size(); ++i) {
    Feed(*log, engine, events[i]);
    if ((i + 1) % 40 != 0) continue;
    const uint64_t before = fs.dir_syncs(kCkptDir);
    auto info = mgr->Checkpoint(engine);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    // The renamed generation file's name is durable on return, and the
    // first generation made the directory's own name durable too.
    EXPECT_EQ(fs.dir_syncs(kCkptDir), before + 1);
    EXPECT_EQ(fs.dir_syncs(kLogDir), parent_syncs + 1);
  }
  EXPECT_EQ(mgr->last_generation(), 3u);

  // A reopened manager syncs the parent once more, with its first
  // generation.
  mgr.reset();
  mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  EXPECT_EQ(fs.dir_syncs(kLogDir), parent_syncs + 1);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(mgr->Checkpoint(engine).ok());
    EXPECT_EQ(fs.dir_syncs(kLogDir), parent_syncs + 2);
  }
}

// --- metrics ---------------------------------------------------------------

TEST(RecoveryManager, PublishesRecoveryMetrics) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(200, 30, /*keys=*/6);

  log::MemFileSystem fs;
  obs::MetricsRegistry metrics;
  log::RecoveryManager::Options options;
  options.full_snapshot_interval = 4;
  options.metrics = &metrics;
  {
    auto log = MustOpenLog(&fs, kLogDir);
    auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
    TPStreamOperator engine(spec, {}, nullptr);
    for (size_t i = 0; i < events.size(); ++i) {
      Feed(*log, engine, events[i]);
      if ((i + 1) % 50 == 0) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
    }
  }
  EXPECT_EQ(metrics.GetCounter("recovery.checkpoints")->value(), 4);
  EXPECT_EQ(metrics.GetCounter("recovery.full_checkpoints")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("recovery.delta_checkpoints")->value(), 3);
  EXPECT_GT(metrics.GetCounter("recovery.checkpoint_bytes")->value(), 0);

  auto log = MustOpenLog(&fs, kLogDir);
  auto mgr = MustOpenManager(&fs, kCkptDir, log.get(), options);
  TPStreamOperator second(spec, {}, nullptr);
  ASSERT_TRUE(mgr->Recover(second).ok());
  EXPECT_EQ(metrics.GetCounter("recovery.recoveries")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("recovery.replayed_events")->value(), 0);
}

}  // namespace
}  // namespace tpstream
