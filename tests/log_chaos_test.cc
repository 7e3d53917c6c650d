// Durability chaos suite (ctest label: chaos): kill-at-every-byte sweeps
// over the segment tail and the checkpoint chain, bit-flip fuzzing of
// segment files, and a chained kill/recover/append loop — the recovered
// state must always be byte-identical to an uninterrupted run, and a
// corrupt artifact must never crash, hang, or silently mis-restore.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
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
      .Return("n_a", "A", AggKind::kCount);
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

constexpr char kLogDir[] = "/wal";
constexpr char kCkptDir[] = "/wal/ckpt";

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

std::string FinalCheckpointBytes(const QuerySpec& spec,
                                 const std::vector<Event>& events) {
  TPStreamOperator ref(spec, {}, nullptr);
  for (const Event& e : events) ref.Push(e);
  ckpt::Writer w;
  ref.Checkpoint(w);
  return w.Take();
}

// --- segment-tail kill sweep -----------------------------------------------

TEST(LogChaos, KillAtEverySegmentByteRecoversAndCatchesUp) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(80, 41);
  const std::string ref_final = FinalCheckpointBytes(spec, events);

  // Reference image of the written log (single segment).
  log::MemFileSystem image;
  {
    auto log = MustOpenLog(&image);
    TPStreamOperator engine(spec, {}, nullptr);
    for (const Event& e : events) Feed(*log, engine, e);
  }
  const std::string seg_path =
      std::string(kLogDir) + "/" + log::EventLog::SegmentFileName(0);
  const uint64_t seg_size = image.FileSize(seg_path);
  ASSERT_GT(seg_size, 16u);

  // Kill at every byte boundary of the segment: open must repair the
  // tail, recovery must replay the surviving prefix, and re-sending the
  // lost suffix must converge on the uninterrupted final state.
  for (uint64_t cut = 16; cut <= seg_size; ++cut) {
    log::MemFileSystem fs;
    {
      auto log = MustOpenLog(&fs);
      TPStreamOperator engine(spec, {}, nullptr);
      for (const Event& e : events) Feed(*log, engine, e);
    }
    fs.TruncateTo(seg_path, cut);

    auto log = MustOpenLog(&fs);
    auto mgr = MustOpenManager(&fs, log.get());
    TPStreamOperator engine(spec, {}, nullptr);
    auto report = mgr->Recover(engine);
    ASSERT_TRUE(report.ok()) << "cut@" << cut;
    const uint64_t survived = log->end_offset();
    ASSERT_LE(survived, events.size()) << "cut@" << cut;
    ASSERT_EQ(report.value().replayed_events, survived) << "cut@" << cut;

    // The source re-sends everything the log lost.
    for (size_t i = survived; i < events.size(); ++i) {
      Feed(*log, engine, events[i]);
    }
    ckpt::Writer final_ckpt;
    engine.Checkpoint(final_ckpt);
    ASSERT_EQ(final_ckpt.buffer(), ref_final) << "cut@" << cut;
  }
}

// --- checkpoint-file kill sweep --------------------------------------------

TEST(LogChaos, KillAtEveryCheckpointByteFallsBackCleanly) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(120, 42);
  const std::string ref_final = FinalCheckpointBytes(spec, events);

  // Scripted run: checkpoint at offsets 60 (gen 1) and 120 (gen 2).
  log::MemFileSystem image;
  {
    auto log = MustOpenLog(&image);
    auto mgr = MustOpenManager(&image, log.get());
    TPStreamOperator engine(spec, {}, nullptr);
    for (size_t i = 0; i < events.size(); ++i) {
      Feed(*log, engine, events[i]);
      if (i + 1 == 60 || i + 1 == 120) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
    }
  }
  const std::string gen2 =
      std::string(kCkptDir) + "/ckpt-00000000000000000002-full.tpc";
  const std::string gen2_bytes = image.Contents(gen2);
  ASSERT_FALSE(gen2_bytes.empty());

  // A crash at byte `cut` of the gen-2 persist leaves either a partial
  // .tmp (rename never happened) or — modelling a torn rename target —
  // a truncated final file. Both must fall back to gen 1 + replay; only
  // the complete file recovers at gen 2.
  for (const bool as_tmp : {true, false}) {
    for (size_t cut = 0; cut <= gen2_bytes.size(); ++cut) {
      log::MemFileSystem fs;
      {
        auto log = MustOpenLog(&fs);
        auto mgr = MustOpenManager(&fs, log.get());
        TPStreamOperator engine(spec, {}, nullptr);
        for (size_t i = 0; i < events.size(); ++i) {
          Feed(*log, engine, events[i]);
          if (i + 1 == 60) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
        }
      }
      // Materialize the interrupted gen-2 write.
      const std::string partial = gen2_bytes.substr(0, cut);
      const std::string target = as_tmp ? gen2 + ".tmp" : gen2;
      {
        std::unique_ptr<log::WritableFile> f;
        ASSERT_TRUE(fs.OpenAppend(target, &f).ok());
        ASSERT_TRUE(f->Append(partial).ok());
        ASSERT_TRUE(f->Sync().ok());
      }

      auto log = MustOpenLog(&fs);
      auto mgr = MustOpenManager(&fs, log.get());
      TPStreamOperator engine(spec, {}, nullptr);
      auto report = mgr->Recover(engine);
      ASSERT_TRUE(report.ok()) << (as_tmp ? "tmp" : "final") << " cut@" << cut;
      if (!as_tmp && cut == gen2_bytes.size()) {
        ASSERT_EQ(report.value().generation, 2u);
      } else {
        ASSERT_EQ(report.value().generation, 1u)
            << (as_tmp ? "tmp" : "final") << " cut@" << cut;
        ASSERT_EQ(report.value().offset, 60u);
      }
      ckpt::Writer final_ckpt;
      engine.Checkpoint(final_ckpt);
      ASSERT_EQ(final_ckpt.buffer(), ref_final)
          << (as_tmp ? "tmp" : "final") << " cut@" << cut;
    }
  }
}

// --- delta-chain kill sweep ------------------------------------------------

TEST(LogChaos, KillAtEveryDeltaByteDegradesToChainPrefix) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(120, 43, /*keys=*/12);

  ckpt::Writer ref_w;
  {
    TPStreamOperator ref(spec, {}, nullptr);
    for (const Event& e : events) ref.Push(e);
    ref.Checkpoint(ref_w);
  }
  const std::string ref_final = ref_w.Take();

  log::RecoveryManager::Options mopts;
  mopts.full_snapshot_interval = 8;

  // Scripted run: full @40 (gen 1), delta @80 (gen 2), delta @120 (gen 3).
  log::MemFileSystem image;
  {
    auto log = MustOpenLog(&image);
    auto mgr = MustOpenManager(&image, log.get(), mopts);
    TPStreamOperator engine(spec, {}, nullptr);
    for (size_t i = 0; i < events.size(); ++i) {
      Feed(*log, engine, events[i]);
      if ((i + 1) % 40 == 0) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
    }
  }
  const std::string gen3 =
      std::string(kCkptDir) + "/ckpt-00000000000000000003-delta.tpc";
  const std::string gen3_bytes = image.Contents(gen3);
  ASSERT_FALSE(gen3_bytes.empty());

  // Torn tail of the newest delta at every byte: recovery must apply the
  // intact chain prefix (gen 1 + gen 2) and replay the rest of the log.
  for (size_t cut = 0; cut < gen3_bytes.size(); cut += 1) {
    log::MemFileSystem fs;
    {
      auto log = MustOpenLog(&fs);
      auto mgr = MustOpenManager(&fs, log.get(), mopts);
      TPStreamOperator engine(spec, {}, nullptr);
      for (size_t i = 0; i < events.size(); ++i) {
        Feed(*log, engine, events[i]);
        if ((i + 1) % 40 == 0) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
      }
    }
    fs.TruncateTo(gen3, cut);

    auto log = MustOpenLog(&fs);
    auto mgr = MustOpenManager(&fs, log.get(), mopts);
    TPStreamOperator engine(spec, {}, nullptr);
    auto report = mgr->Recover(engine);
    ASSERT_TRUE(report.ok()) << "cut@" << cut;
    ASSERT_EQ(report.value().generation, 2u) << "cut@" << cut;
    ASSERT_EQ(report.value().offset, 80u) << "cut@" << cut;
    ASSERT_EQ(report.value().replayed_events, 40u) << "cut@" << cut;

    ckpt::Writer final_ckpt;
    engine.Checkpoint(final_ckpt);
    ASSERT_EQ(final_ckpt.buffer(), ref_final) << "cut@" << cut;
  }
}

// --- bit-flip fuzz ---------------------------------------------------------

TEST(LogChaos, SegmentBitFlipFuzzNeverMisrestores) {
  const QuerySpec spec = SensorSpec();
  const std::vector<Event> events = MakeStream(60, 44);
  std::vector<std::string> prefix_ckpts;  // ref state after k events
  {
    TPStreamOperator ref(spec, {}, nullptr);
    ckpt::Writer w0;
    ref.Checkpoint(w0);
    prefix_ckpts.push_back(w0.Take());
    for (const Event& e : events) {
      ref.Push(e);
      ckpt::Writer w;
      ref.Checkpoint(w);
      prefix_ckpts.push_back(w.Take());
    }
  }

  // Written image to draw flip positions from.
  log::MemFileSystem image;
  {
    auto log = MustOpenLog(&image);
    TPStreamOperator engine(spec, {}, nullptr);
    for (const Event& e : events) Feed(*log, engine, e);
  }
  const std::string seg_path =
      std::string(kLogDir) + "/" + log::EventLog::SegmentFileName(0);
  const uint64_t seg_size = image.FileSize(seg_path);

  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<uint64_t> pos_dist(0, seg_size - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);

  int opened = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    log::MemFileSystem fs;
    {
      auto log = MustOpenLog(&fs);
      TPStreamOperator engine(spec, {}, nullptr);
      for (const Event& e : events) Feed(*log, engine, e);
    }
    const uint64_t pos = pos_dist(rng);
    fs.CorruptByte(seg_path, pos, static_cast<uint8_t>(1u << bit_dist(rng)));

    std::unique_ptr<log::EventLog> log;
    Status s = log::EventLog::Open(&fs, kLogDir, {}, &log);
    if (!s.ok()) {
      // Header corruption is the only legal hard failure in a
      // single-segment log; everything else is tail-repaired.
      ASSERT_EQ(s.code(), StatusCode::kParseError) << "trial " << trial;
      ASSERT_LT(pos, 16u) << "trial " << trial << " pos " << pos;
      ++rejected;
      continue;
    }
    ++opened;
    // Whatever survived must be an exact event prefix: replaying into a
    // fresh engine reproduces the reference prefix state bit-for-bit.
    const uint64_t survived = log->end_offset();
    ASSERT_LE(survived, events.size()) << "trial " << trial;
    TPStreamOperator engine(spec, {}, nullptr);
    uint64_t replayed = 0;
    ASSERT_TRUE(log->ReplayFrom(0, [&](const Event& e) { engine.Push(e); },
                                &replayed)
                    .ok())
        << "trial " << trial;
    ASSERT_EQ(replayed, survived);
    ckpt::Writer w;
    engine.Checkpoint(w);
    ASSERT_EQ(w.buffer(), prefix_ckpts[survived])
        << "trial " << trial << " flip@" << pos;
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(opened, 0);
  EXPECT_GT(opened + rejected, 299);
}

// --- chained kill/recover/append rounds ------------------------------------

TEST(LogChaos, FiveRoundKillRecoverAppendLoopStaysByteIdentical) {
  const QuerySpec spec = SensorSpec(/*partitioned=*/true);
  const std::vector<Event> events = MakeStream(500, 45, /*keys=*/10);

  std::vector<Event> ref_outputs;
  ckpt::Writer ref_w;
  {
    TPStreamOperator ref(spec, {},
                            [&](const Event& e) { ref_outputs.push_back(e); });
    for (const Event& e : events) ref.Push(e);
    ref.Checkpoint(ref_w);
  }
  const std::string ref_final = ref_w.Take();

  // Lossy sync policy: a crash loses the unsynced tail, which the
  // source must re-send after recovery (at-least-once upstream).
  log::EventLogOptions lopts;
  lopts.sync.mode = log::SyncMode::kEveryBytes;
  lopts.sync.sync_bytes = 1 << 20;
  log::RecoveryManager::Options mopts;
  mopts.full_snapshot_interval = 3;

  log::MemFileSystem fs;
  std::vector<Event> outputs;  // across all incarnations, replay included
  size_t next_event = 0;       // source cursor
  constexpr size_t kPerRound = 100;

  for (int round = 0; round < 5; ++round) {
    auto log = MustOpenLog(&fs, lopts);
    auto mgr = MustOpenManager(&fs, log.get(), mopts);
    TPStreamOperator engine(spec, {},
                               [&](const Event& e) { outputs.push_back(e); });
    auto report = mgr->Recover(engine);
    ASSERT_TRUE(report.ok()) << "round " << round;
    // Re-send what the crash wiped from the log.
    next_event = log->end_offset();
    const size_t target = std::min(events.size(),
                                   (round + 1) * kPerRound);
    for (; next_event < target; ++next_event) {
      Feed(*log, engine, events[next_event]);
      if (next_event % 70 == 69) ASSERT_TRUE(mgr->Checkpoint(engine).ok());
    }
    fs.SimulateCrash();  // power cut; checkpoints were tmp+fsync+rename
  }

  // Final incarnation: recover and verify the end state.
  auto log = MustOpenLog(&fs, lopts);
  auto mgr = MustOpenManager(&fs, log.get(), mopts);
  TPStreamOperator engine(spec, {},
                             [&](const Event& e) { outputs.push_back(e); });
  auto report = mgr->Recover(engine);
  ASSERT_TRUE(report.ok());
  for (size_t i = log->end_offset(); i < events.size(); ++i) {
    Feed(*log, engine, events[i]);
  }

  ckpt::Writer final_ckpt;
  engine.Checkpoint(final_ckpt);
  EXPECT_EQ(final_ckpt.buffer(), ref_final)
      << "chained recovery diverged after 5 kill/recover/append rounds";

  // Match-output differential: the at-least-once union of all
  // incarnations must contain the exact uninterrupted match stream
  // (dedup by identity), and the last incarnation's tail must be pure.
  auto key = [](const Event& e) {
    std::string k = std::to_string(e.t);
    for (const Value& v : e.payload) k += "|" + v.ToString();
    return k;
  };
  std::multiset<std::string> got, want;
  for (const Event& e : outputs) got.insert(key(e));
  for (const Event& e : ref_outputs) want.insert(key(e));
  for (const std::string& k : want) {
    ASSERT_GT(got.count(k), 0u) << "missing match " << k;
  }
}

}  // namespace
}  // namespace tpstream
