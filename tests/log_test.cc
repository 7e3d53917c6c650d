// Durable event log unit suite: CRC-32C vectors (hardware and table
// paths), the segment format, rotation, replay-from-offset, fsync
// policies and group commit, torn-tail repair and the fault-injecting
// File seam (disk full, failing fsync).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "log/crc32c.h"
#include "log/event_log.h"
#include "log/file.h"
#include "log/memfs.h"
#include "robust/dead_letter.h"

namespace tpstream {
namespace log {
namespace {

// --- CRC-32C ---------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / iSCSI).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32c, ExtensionMatchesConcatenation) {
  const std::string a = "temporal pattern ";
  const std::string b = "matching on event streams";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b), Crc32c(a + b));
  EXPECT_EQ(Crc32cExtend(Crc32c(""), a), Crc32c(a));
}

/// Bit-at-a-time CRC-32C, the definition both fast paths must match.
uint32_t BitwiseCrc32c(std::string_view data) {
  uint32_t c = 0xffffffffu;
  for (const char ch : data) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0x82f63b78u : 0u);
  }
  return c ^ 0xffffffffu;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng() & 0xff);
  return out;
}

TEST(Crc32c, BothPathsMatchBitwiseReference) {
  // One extra leading byte so the checked ranges also start unaligned.
  const std::string buf = RandomBytes(302, 11);
  for (size_t len = 0; len <= 300; ++len) {
    for (size_t start = 0; start <= 1; ++start) {
      const std::string_view data = std::string_view(buf).substr(start, len);
      const uint32_t want = BitwiseCrc32c(data);
      EXPECT_EQ(Crc32cExtendTable(0, data), want) << "len " << len;
      EXPECT_EQ(Crc32c(data), want) << "len " << len;
    }
  }
  EXPECT_EQ(Crc32cExtendTable(0, "123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32cExtend(0, "123456789"), 0xE3069283u);
}

TEST(Crc32c, ExtendMatchesAtEverySplitPoint) {
  const std::string data = RandomBytes(300, 12);
  const uint32_t whole = BitwiseCrc32c(data);
  const std::string_view view(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view head = view.substr(0, split);
    const std::string_view tail = view.substr(split);
    EXPECT_EQ(Crc32cExtend(Crc32c(head), tail), whole) << "split " << split;
    EXPECT_EQ(Crc32cExtendTable(Crc32cExtendTable(0, head), tail), whole)
        << "split " << split;
  }
}

TEST(Crc32c, CombineMatchesAtEverySplitPoint) {
  const std::string data = RandomBytes(300, 13);
  const uint32_t whole = BitwiseCrc32c(data);
  const std::string_view view(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view head = view.substr(0, split);
    const std::string_view tail = view.substr(split);
    EXPECT_EQ(Crc32cCombine(Crc32c(head), Crc32c(tail), tail.size()), whole)
        << "split " << split;
  }
  // Extending an arbitrary running hash (a checkpoint chain) agrees too.
  const uint32_t chain = 0xdeadbeefu;
  EXPECT_EQ(Crc32cCombine(chain, Crc32c(view), view.size()),
            Crc32cExtend(chain, view));
}

TEST(Crc32c, SensitiveToEveryByte) {
  std::string data = "0123456789abcdef";
  const uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32c(mutated), base) << "byte " << i;
  }
}

// --- shared helpers --------------------------------------------------------

std::vector<Event> MakeEvents(int n, int64_t t0 = 1) {
  std::vector<Event> events;
  events.reserve(n);
  for (int i = 0; i < n; ++i) {
    events.push_back(Event(
        {Value(static_cast<double>(i) * 0.25), Value(static_cast<int64_t>(i))},
        t0 + i));
  }
  return events;
}

void ExpectSameEvents(const std::vector<Event>& got,
                      const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].t, want[i].t) << "event " << i;
    EXPECT_EQ(got[i].payload, want[i].payload) << "event " << i;
  }
}

std::vector<Event> Replay(const EventLog& log, uint64_t offset) {
  std::vector<Event> out;
  EXPECT_TRUE(
      log.ReplayFrom(offset, [&](const Event& e) { out.push_back(e); }).ok());
  return out;
}

std::unique_ptr<EventLog> MustOpen(FileSystem* fs, const std::string& dir,
                                   const EventLogOptions& options = {},
                                   OpenReport* report = nullptr) {
  std::unique_ptr<EventLog> log;
  Status s = EventLog::Open(fs, dir, options, &log, report);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return log;
}

/// Waits (bounded) for the log thread's watermark to reach `offset`.
bool WaitDurable(const EventLog& log, uint64_t offset) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (log.durable_offset() < offset) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// --- append / replay -------------------------------------------------------

TEST(EventLog, AppendAndReplayRoundtrip) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  const std::vector<Event> events = MakeEvents(20);

  auto r1 = log->Append(std::span<const Event>(events.data(), 7));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value(), 7u);
  auto r2 = log->Append(std::span<const Event>(events.data() + 7, 13));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 20u);
  EXPECT_EQ(log->end_offset(), 20u);

  ExpectSameEvents(Replay(*log, 0), events);
}

TEST(EventLog, EmptyBatchIsNoOp) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  auto r = log->Append(std::span<const Event>());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0u);
  EXPECT_EQ(log->end_offset(), 0u);
  EXPECT_TRUE(Replay(*log, 0).empty());
}

TEST(EventLog, ReplayFromMidBatchOffset) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  const std::vector<Event> events = MakeEvents(10);
  // One batch of 10; replay must still honor any event-level offset.
  ASSERT_TRUE(log->Append(events).ok());
  for (uint64_t offset = 0; offset <= 10; ++offset) {
    const std::vector<Event> got = Replay(*log, offset);
    ExpectSameEvents(
        got, std::vector<Event>(events.begin() + offset, events.end()));
  }
}

TEST(EventLog, ReplayBeyondEndIsEmpty) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  ASSERT_TRUE(log->Append(MakeEvents(5)).ok());
  EXPECT_TRUE(Replay(*log, 5).empty());
  EXPECT_TRUE(Replay(*log, 100).empty());
}

TEST(EventLog, SurvivesReopen) {
  MemFileSystem fs;
  const std::vector<Event> events = MakeEvents(30);
  {
    auto log = MustOpen(&fs, "/log");
    ASSERT_TRUE(log->Append(events).ok());
    ASSERT_TRUE(log->Sync().ok());
  }
  OpenReport report;
  auto log = MustOpen(&fs, "/log", {}, &report);
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), 30u);
  ExpectSameEvents(Replay(*log, 0), events);
}

TEST(EventLog, BitExactDoublePayloadsRoundtrip) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  std::vector<Event> events;
  events.push_back(Event({Value(-0.0), Value(static_cast<int64_t>(1))}, 1));
  events.push_back(
      Event({Value(1e-308), Value(static_cast<int64_t>(2))}, 2));
  ASSERT_TRUE(log->Append(events).ok());
  const std::vector<Event> got = Replay(*log, 0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(std::signbit(got[0].payload[0].AsDouble()));
  EXPECT_EQ(got[1].payload[0].AsDouble(), 1e-308);
}

// --- rotation --------------------------------------------------------------

TEST(EventLog, RotatesSegmentsAndReplaysAcrossThem) {
  MemFileSystem fs;
  EventLogOptions options;
  options.segment_bytes = 512;  // force frequent rotation
  const std::vector<Event> events = MakeEvents(200);
  auto log = MustOpen(&fs, "/log", options);
  for (size_t i = 0; i < events.size(); i += 10) {
    ASSERT_TRUE(
        log->Append(std::span<const Event>(events.data() + i, 10)).ok());
  }
  EXPECT_GT(log->num_segments(), 3);
  ExpectSameEvents(Replay(*log, 0), events);
  // Mid-stream offsets must land in the right segment.
  ExpectSameEvents(Replay(*log, 150),
                   std::vector<Event>(events.begin() + 150, events.end()));

  // Reopen sees the same multi-segment log.
  log.reset();
  log = MustOpen(&fs, "/log", options);
  EXPECT_EQ(log->end_offset(), 200u);
  ExpectSameEvents(Replay(*log, 0), events);
}

TEST(EventLog, NewSegmentsSyncTheirDirectory) {
  MemFileSystem fs;
  EventLogOptions options;
  options.segment_bytes = 512;  // force frequent rotation
  auto log = MustOpen(&fs, "/log", options);
  // Open created segment 0 and made its name durable before returning.
  // The directory's own name waits for the first record fsync.
  EXPECT_EQ(fs.dir_syncs("/log"), 1u);
  EXPECT_EQ(fs.dir_syncs("/"), 0u);
  const std::vector<Event> events = MakeEvents(200);
  for (size_t i = 0; i < events.size(); i += 10) {
    ASSERT_TRUE(
        log->Append(std::span<const Event>(events.data() + i, 10)).ok());
    // Every rotation syncs the directory before Append returns.
    EXPECT_EQ(fs.dir_syncs("/log"),
              static_cast<uint64_t>(log->num_segments()));
    // The first record fsync synced the parent, and no later one did.
    EXPECT_EQ(fs.dir_syncs("/"), 1u);
  }
  EXPECT_GT(log->num_segments(), 3);

  // Reopening creates no segment, so it syncs no directory. Under group
  // commit the log thread syncs the parent with its first fsync, before
  // any record is reported durable.
  const uint64_t before = fs.dir_syncs("/log");
  log.reset();
  options.sync.mode = SyncMode::kEveryBytes;
  log = MustOpen(&fs, "/log", options);
  EXPECT_EQ(fs.dir_syncs("/log"), before);
  EXPECT_EQ(fs.dir_syncs("/"), 1u);
  const uint64_t durable = log->durable_offset();
  ASSERT_TRUE(log->Append(std::span<const Event>(events.data(), 1)).ok());
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_GT(log->durable_offset(), durable);
  EXPECT_EQ(fs.dir_syncs("/"), 2u);
  ASSERT_TRUE(log->Append(std::span<const Event>(events.data(), 1)).ok());
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(fs.dir_syncs("/"), 2u);
}

TEST(FileSystem, ParentDirDropsTheLastComponent) {
  EXPECT_EQ(ParentDir("/log/wal"), "/log");
  EXPECT_EQ(ParentDir("/log/wal/"), "/log");
  EXPECT_EQ(ParentDir("/wal"), "/");
  EXPECT_EQ(ParentDir("wal"), ".");
  EXPECT_EQ(ParentDir("a/b"), "a");
  EXPECT_EQ(ParentDir("/"), "/");
  EXPECT_EQ(ParentDir(""), ".");
}

TEST(EventLog, SegmentFileNamesCarryBaseOffset) {
  EXPECT_EQ(EventLog::SegmentFileName(0), "segment-00000000000000000000.tpl");
  EXPECT_EQ(EventLog::SegmentFileName(42), "segment-00000000000000000042.tpl");
}

// --- checkpoint markers ----------------------------------------------------

TEST(EventLog, CheckpointMarkersDoNotAdvanceOffsets) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  const std::vector<Event> events = MakeEvents(10);
  ASSERT_TRUE(log->Append(events).ok());
  ASSERT_TRUE(log->AppendCheckpointMarker(1, 10).ok());
  EXPECT_EQ(log->end_offset(), 10u);
  ExpectSameEvents(Replay(*log, 0), events);  // markers are skipped

  uint64_t generation = 0, offset = 0;
  ASSERT_TRUE(log->LatestCheckpointMarker(&generation, &offset));
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(offset, 10u);
}

TEST(EventLog, LatestCheckpointMarkerSurvivesReopen) {
  MemFileSystem fs;
  {
    auto log = MustOpen(&fs, "/log");
    ASSERT_TRUE(log->Append(MakeEvents(5)).ok());
    ASSERT_TRUE(log->AppendCheckpointMarker(3, 2).ok());
    ASSERT_TRUE(log->AppendCheckpointMarker(4, 5).ok());
  }
  auto log = MustOpen(&fs, "/log");
  uint64_t generation = 0, offset = 0;
  ASSERT_TRUE(log->LatestCheckpointMarker(&generation, &offset));
  EXPECT_EQ(generation, 4u);
  EXPECT_EQ(offset, 5u);

  MemFileSystem empty_fs;
  auto fresh = MustOpen(&empty_fs, "/log");
  EXPECT_FALSE(fresh->LatestCheckpointMarker(&generation, &offset));
}

// --- fsync policies --------------------------------------------------------

TEST(EventLog, EveryRecordSyncsPerAppend) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");  // default: kEveryRecord
  const uint64_t baseline = fs.num_syncs();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Append(MakeEvents(1, 100 + i)).ok());
  }
  EXPECT_EQ(fs.num_syncs(), baseline + 5);
}

TEST(EventLog, EveryBytesBatchesSyncs) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 4096;
  auto log = MustOpen(&fs, "/log", options);
  const uint64_t baseline = fs.num_syncs();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(log->Append(MakeEvents(1, 100 + i)).ok());
  }
  // Far fewer barriers than appends (records are tens of bytes each).
  EXPECT_LT(fs.num_syncs() - baseline, 3u);
  // An explicit Sync() still forces the barrier.
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_GE(fs.num_syncs(), baseline + 1);
}

TEST(EventLog, IntervalSyncsOnInjectedClock) {
  MemFileSystem fs;
  int64_t now_ns = 0;
  EventLogOptions options;
  options.sync.mode = SyncMode::kInterval;
  options.sync.sync_interval_ns = 1'000'000;
  options.sync.clock = [&now_ns] { return now_ns; };
  auto log = MustOpen(&fs, "/log", options);
  const uint64_t baseline = fs.num_syncs();

  ASSERT_TRUE(log->Append(MakeEvents(1, 1)).ok());
  ASSERT_TRUE(log->Append(MakeEvents(1, 2)).ok());
  EXPECT_EQ(fs.num_syncs(), baseline);  // clock has not advanced

  now_ns += 2'000'000;
  ASSERT_TRUE(log->Append(MakeEvents(1, 3)).ok());
  // Period elapsed -> barrier, run by the log thread.
  ASSERT_TRUE(WaitDurable(*log, 3));
  EXPECT_EQ(fs.num_syncs(), baseline + 1);

  ASSERT_TRUE(log->Append(MakeEvents(1, 4)).ok());
  EXPECT_EQ(fs.num_syncs(), baseline + 1);
}

// --- group commit (log thread, durable watermark) ---------------------------

TEST(EventLog, GroupCommitFailedFsyncIsStickyAndCrashKeepsDurablePrefix) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 1;  // every append requests a barrier
  auto log = MustOpen(&fs, "/log", options);
  const std::vector<Event> events = MakeEvents(40);
  fs.set_fail_fsync_after(fs.num_syncs() + 5);

  // Sync() after each append waits for the fsync that append requested
  // and issues none of its own, so fsync k covers exactly event k.
  Status failure;
  uint64_t durable = 0;
  size_t appended = 0;
  while (appended < events.size() && failure.ok()) {
    ASSERT_TRUE(log->Append(std::span<const Event>(&events[appended], 1)).ok());
    ++appended;
    failure = log->Sync();
    EXPECT_GE(log->durable_offset(), durable);
    EXPECT_LE(log->durable_offset(), log->end_offset());
    durable = log->durable_offset();
  }
  ASSERT_FALSE(failure.ok());
  EXPECT_EQ(failure.code(), StatusCode::kInternal);
  EXPECT_EQ(durable, 5u);
  EXPECT_EQ(appended, 6u);

  // Sticky: every later call returns the failure and writes nothing,
  // even once fsync works again (the dirty pages may be gone).
  fs.clear_fsync_fault();
  auto r = log->Append(std::span<const Event>(&events[appended], 1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), failure.ToString());
  EXPECT_EQ(log->AppendCheckpointMarker(1, 5).ToString(), failure.ToString());
  EXPECT_EQ(log->Sync().ToString(), failure.ToString());
  EXPECT_EQ(log->end_offset(), appended);
  EXPECT_EQ(log->durable_offset(), durable);

  log.reset();
  fs.SimulateCrash();
  auto reopened = MustOpen(&fs, "/log", options);
  EXPECT_EQ(reopened->end_offset(), durable);
  ExpectSameEvents(Replay(*reopened, 0),
                   std::vector<Event>(events.begin(), events.begin() + durable));
  // Reopening clears the failure.
  ASSERT_TRUE(reopened->Append(MakeEvents(2, 100)).ok());
  ASSERT_TRUE(reopened->Sync().ok());
  EXPECT_EQ(reopened->durable_offset(), durable + 2);
}

TEST(EventLog, GroupCommitFailureSurfacesOnNextAppend) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 1;
  auto log = MustOpen(&fs, "/log", options);
  fs.set_fail_fsync_after(fs.num_syncs() + 2);
  Status failure;
  for (int i = 0; i < 100000 && failure.ok(); ++i) {
    failure = log->Append(MakeEvents(1, i)).status();
    if (failure.ok()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  ASSERT_FALSE(failure.ok()) << "the failed background fsync never surfaced";
  EXPECT_EQ(failure.code(), StatusCode::kInternal);
  // Two good fsyncs, then the failed one: that one covered at least one
  // event past the watermark.
  const uint64_t durable = log->durable_offset();
  const uint64_t end = log->end_offset();
  EXPECT_GE(durable, 2u);
  EXPECT_LT(durable, end);

  log.reset();
  fs.SimulateCrash();
  auto reopened = MustOpen(&fs, "/log", options);
  // The last good fsync may also have covered records written while it
  // ran, so the survivors lie between the watermark and the end.
  EXPECT_GE(reopened->end_offset(), durable);
  EXPECT_LE(reopened->end_offset(), end);
}

TEST(EventLog, DurableOffsetIsMonotoneAndBoundedByEnd) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 512;
  options.segment_bytes = 16 * 1024;
  auto log = MustOpen(&fs, "/log", options);

  // A second thread watches the watermark while the producer appends.
  std::atomic<bool> done{false};
  std::atomic<bool> went_back{false};
  std::thread watcher([&] {
    uint64_t last = 0;
    while (!done.load()) {
      const uint64_t now = log->durable_offset();
      if (now < last) went_back.store(true);
      last = now;
    }
  });
  const uint64_t baseline = fs.num_syncs();
  uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(log->Append(MakeEvents(3, 3 * i)).ok());
    const uint64_t durable = log->durable_offset();
    EXPECT_GE(durable, last);
    EXPECT_LE(durable, log->end_offset());
    last = durable;
  }
  ASSERT_TRUE(log->Sync().ok());
  done.store(true);
  watcher.join();
  EXPECT_FALSE(went_back.load());
  EXPECT_EQ(log->durable_offset(), log->end_offset());
  EXPECT_GT(log->num_segments(), 1);
  // Requests coalesce: never more barriers than appends.
  EXPECT_LT(fs.num_syncs() - baseline, 2000u);
}

TEST(EventLog, SyncIsFreeWhenWatermarkCoversTheLog) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 1 << 30;  // never auto-sync
  auto log = MustOpen(&fs, "/log", options);
  EXPECT_EQ(log->durable_offset(), 0u);
  ASSERT_TRUE(log->Append(MakeEvents(4)).ok());
  EXPECT_EQ(log->durable_offset(), 0u);
  const uint64_t baseline = fs.num_syncs();
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(log->durable_offset(), 4u);
  EXPECT_EQ(fs.num_syncs(), baseline + 1);
  ASSERT_TRUE(log->Sync().ok());  // covered: no second fsync
  EXPECT_EQ(fs.num_syncs(), baseline + 1);
  // A marker moves no offset but is still a record to cover.
  ASSERT_TRUE(log->AppendCheckpointMarker(1, 4).ok());
  EXPECT_EQ(fs.num_syncs(), baseline + 1);  // rides the group commit
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(fs.num_syncs(), baseline + 2);
}

TEST(EventLog, RotationSealsTheOldSegmentUnderGroupCommit) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 1 << 30;  // only rotation forces barriers
  options.segment_bytes = 512;
  const std::vector<Event> events = MakeEvents(100);
  {
    auto log = MustOpen(&fs, "/log", options);
    for (const Event& e : events) {
      ASSERT_TRUE(log->Append(std::span<const Event>(&e, 1)).ok());
    }
    ASSERT_GT(log->num_segments(), 2);
  }
  std::vector<std::string> names;
  ASSERT_TRUE(fs.ListDir("/log", &names).ok());
  std::sort(names.begin(), names.end());
  unsigned long long last_base = 0;
  ASSERT_EQ(std::sscanf(names.back().c_str(), "segment-%20llu.tpl", &last_base),
            1);
  ASSERT_GT(last_base, 0u);

  fs.SimulateCrash();
  OpenReport report;
  auto log = MustOpen(&fs, "/log", options, &report);
  // Every sealed segment survived whole; only the unsynced tail is gone.
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), last_base);
  EXPECT_EQ(log->durable_offset(), last_base);
  ExpectSameEvents(Replay(*log, 0),
                   std::vector<Event>(events.begin(), events.begin() + last_base));
}

// --- torn-tail repair ------------------------------------------------------

TEST(EventLog, CrashLosesOnlyUnsyncedTail) {
  MemFileSystem fs;
  EventLogOptions options;
  options.sync.mode = SyncMode::kEveryBytes;
  options.sync.sync_bytes = 1 << 30;  // never auto-sync
  const std::vector<Event> events = MakeEvents(12);
  {
    auto log = MustOpen(&fs, "/log", options);
    ASSERT_TRUE(log->Append(std::span<const Event>(events.data(), 8)).ok());
    ASSERT_TRUE(log->Sync().ok());
    ASSERT_TRUE(log->Append(std::span<const Event>(events.data() + 8, 4)).ok());
    // No sync: the last batch is in the page cache only.
  }
  fs.SimulateCrash();

  OpenReport report;
  robust::CollectingDeadLetterSink dead;
  options.dead_letter = &dead;
  auto log = MustOpen(&fs, "/log", options, &report);
  // The crash cut at a record boundary (synced prefix), so nothing is
  // torn — the unsynced records are simply gone.
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), 8u);
  ExpectSameEvents(Replay(*log, 0),
                   std::vector<Event>(events.begin(), events.begin() + 8));
  EXPECT_EQ(dead.accepted(), 0);
}

TEST(EventLog, TornMidRecordTailIsTruncatedAndQuarantined) {
  MemFileSystem fs;
  const std::vector<Event> events = MakeEvents(10);
  {
    auto log = MustOpen(&fs, "/log");
    ASSERT_TRUE(log->Append(std::span<const Event>(events.data(), 6)).ok());
    ASSERT_TRUE(log->Append(std::span<const Event>(events.data() + 6, 4)).ok());
  }
  const std::string path = "/log/" + EventLog::SegmentFileName(0);
  const uint64_t full_size = fs.FileSize(path);
  // Carve a torn tail: cut into the middle of the final record.
  fs.TruncateTo(path, full_size - 3);

  OpenReport report;
  robust::CollectingDeadLetterSink dead;
  EventLogOptions options;
  options.dead_letter = &dead;
  auto log = MustOpen(&fs, "/log", options, &report);
  EXPECT_EQ(report.truncated_tail_records, 1);
  EXPECT_GT(report.truncated_tail_bytes, 0u);
  EXPECT_EQ(log->end_offset(), 6u);
  ExpectSameEvents(Replay(*log, 0),
                   std::vector<Event>(events.begin(), events.begin() + 6));
  // The torn bytes were quarantined once, with the right kind.
  ASSERT_EQ(dead.accepted(), 1);
  const auto items = dead.Items();
  EXPECT_EQ(items[0].kind, robust::DeadLetterKind::kTornLogRecord);
  EXPECT_NE(items[0].detail.find(EventLog::SegmentFileName(0)),
            std::string::npos);
  EXPECT_FALSE(items[0].raw.empty());

  // The repaired log accepts appends and stays consistent.
  ASSERT_TRUE(log->Append(std::span<const Event>(events.data() + 6, 4)).ok());
  ExpectSameEvents(Replay(*log, 0), events);
}

TEST(EventLog, TornTailAtEveryByteBoundaryRecoversPrefix) {
  // Build a reference log, then for every possible cut position verify
  // open either keeps whole records or truncates the torn one — never
  // fails, never invents events.
  MemFileSystem ref_fs;
  const std::vector<Event> events = MakeEvents(6);
  {
    auto log = MustOpen(&ref_fs, "/log");
    for (const Event& e : events) {
      ASSERT_TRUE(log->Append(std::span<const Event>(&e, 1)).ok());
    }
  }
  const std::string path = "/log/" + EventLog::SegmentFileName(0);
  const std::string bytes = ref_fs.Contents(path);

  for (uint64_t cut = 16; cut <= bytes.size(); ++cut) {
    MemFileSystem fs;
    {
      auto log = MustOpen(&fs, "/log");
      for (const Event& e : events) {
        ASSERT_TRUE(log->Append(std::span<const Event>(&e, 1)).ok());
      }
    }
    fs.TruncateTo(path, cut);
    auto log = MustOpen(&fs, "/log");
    const std::vector<Event> got = Replay(*log, 0);
    ASSERT_LE(got.size(), events.size()) << "cut@" << cut;
    ExpectSameEvents(
        got, std::vector<Event>(events.begin(), events.begin() + got.size()));
  }
}

TEST(EventLog, CorruptionInNonFinalSegmentFailsOpen) {
  MemFileSystem fs;
  EventLogOptions options;
  options.segment_bytes = 256;
  {
    auto log = MustOpen(&fs, "/log", options);
    const std::vector<Event> events = MakeEvents(100);
    for (size_t i = 0; i < events.size(); i += 5) {
      ASSERT_TRUE(
          log->Append(std::span<const Event>(events.data() + i, 5)).ok());
    }
    ASSERT_GT(log->num_segments(), 2);
  }
  // Flip a byte in the FIRST segment: that is corruption, not a torn
  // write, and must fail loudly instead of being silently truncated.
  fs.CorruptByte("/log/" + EventLog::SegmentFileName(0), 40, 0x10);
  std::unique_ptr<EventLog> log;
  Status s = EventLog::Open(&fs, "/log", options, &log);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

// --- disk full / fsync faults ----------------------------------------------

TEST(EventLog, DiskFullSurfacesResourceExhaustedWithPathAndBytes) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");
  ASSERT_TRUE(log->Append(MakeEvents(4)).ok());

  fs.set_enospc_after_bytes(fs.total_appended() + 10);
  auto r = log->Append(MakeEvents(4, 100));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find(EventLog::SegmentFileName(0)),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("byte"), std::string::npos);
  EXPECT_EQ(log->end_offset(), 4u);

  // Space comes back: the same log keeps working, and the rolled-back
  // partial record never surfaces.
  fs.clear_enospc();
  const std::vector<Event> more = MakeEvents(4, 100);
  ASSERT_TRUE(log->Append(more).ok());
  EXPECT_EQ(log->end_offset(), 8u);
  EXPECT_EQ(Replay(*log, 0).size(), 8u);

  // And the segment on disk is re-openable (no partial frame left).
  log.reset();
  OpenReport report;
  log = MustOpen(&fs, "/log", {}, &report);
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), 8u);
}

TEST(EventLog, FsyncFailureSurfacesAndLogRemainsUsable) {
  MemFileSystem fs;
  auto log = MustOpen(&fs, "/log");  // kEveryRecord: every append syncs
  ASSERT_TRUE(log->Append(MakeEvents(2)).ok());

  const uint64_t syncs_so_far = fs.num_syncs();
  fs.set_fail_fsync_after(syncs_so_far);
  auto r = log->Append(MakeEvents(2, 50));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(log->end_offset(), 2u);

  // The failed batch was rolled back with the failed sync: a later sync
  // must not resurrect events that were reported as not appended.
  fs.clear_fsync_fault();
  ASSERT_TRUE(log->Sync().ok());
  EXPECT_EQ(Replay(*log, 0).size(), 2u);

  // A retried append lands at the same first-offset without colliding
  // with a leftover frame, and the log stays openable.
  ASSERT_TRUE(log->Append(MakeEvents(2, 50)).ok());
  EXPECT_EQ(log->end_offset(), 4u);
  EXPECT_EQ(Replay(*log, 0).size(), 4u);

  log.reset();
  OpenReport report;
  log = MustOpen(&fs, "/log", {}, &report);
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), 4u);
  EXPECT_EQ(Replay(*log, 0).size(), 4u);
}

TEST(EventLog, MarkerOnlySegmentDoesNotRotateOntoItself) {
  MemFileSystem fs;
  EventLogOptions options;
  options.segment_bytes = 64;  // tiny: a few markers overflow it
  auto log = MustOpen(&fs, "/log", options);
  // Markers never advance end_offset_, so a rotation here would name the
  // new segment after the current tail and corrupt it mid-file.
  for (uint64_t g = 1; g <= 20; ++g) {
    ASSERT_TRUE(log->AppendCheckpointMarker(g, 0).ok());
  }
  EXPECT_EQ(log->num_segments(), 1);

  // Once events move end_offset_ past the tail's base, rotation resumes.
  ASSERT_TRUE(log->Append(MakeEvents(3)).ok());
  ASSERT_TRUE(log->AppendCheckpointMarker(21, 3).ok());
  EXPECT_GT(log->num_segments(), 1);

  log.reset();
  OpenReport report;
  log = MustOpen(&fs, "/log", options, &report);
  EXPECT_EQ(report.truncated_tail_records, 0);
  EXPECT_EQ(log->end_offset(), 3u);
  uint64_t generation = 0, offset = 0;
  ASSERT_TRUE(log->LatestCheckpointMarker(&generation, &offset));
  EXPECT_EQ(generation, 21u);
  EXPECT_EQ(offset, 3u);
}

// --- metrics ---------------------------------------------------------------

TEST(EventLog, PublishesLogMetrics) {
  MemFileSystem fs;
  obs::MetricsRegistry metrics;
  EventLogOptions options;
  options.metrics = &metrics;
  auto log = MustOpen(&fs, "/log", options);
  ASSERT_TRUE(log->Append(MakeEvents(10)).ok());
  ASSERT_TRUE(log->ReplayFrom(0, [](const Event&) {}).ok());

  EXPECT_EQ(metrics.GetCounter("log.appended_records")->value(), 1);
  EXPECT_GT(metrics.GetCounter("log.appended_bytes")->value(), 0);
  EXPECT_GT(metrics.GetCounter("log.fsyncs")->value(), 0);
  EXPECT_EQ(metrics.GetCounter("log.replays")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("log.replayed_events")->value(), 10);
  EXPECT_EQ(metrics.GetGauge("log.segments")->value(), 1.0);
}

// --- posix seam ------------------------------------------------------------

TEST(PosixFileSystem, EndToEndRoundtripInTempDir) {
  char tmpl[] = "/tmp/tpstream_log_test_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string log_dir = JoinPath(dir, "wal");

  PosixFileSystem fs;
  const std::vector<Event> events = MakeEvents(50);
  {
    EventLogOptions options;
    options.segment_bytes = 1024;
    auto log = MustOpen(&fs, log_dir, options);
    for (size_t i = 0; i < events.size(); i += 5) {
      ASSERT_TRUE(
          log->Append(std::span<const Event>(events.data() + i, 5)).ok());
    }
    ASSERT_TRUE(log->AppendCheckpointMarker(7, 25).ok());
  }
  {
    auto log = MustOpen(&fs, log_dir);
    EXPECT_EQ(log->end_offset(), 50u);
    ExpectSameEvents(Replay(*log, 0), events);
    uint64_t generation = 0, offset = 0;
    ASSERT_TRUE(log->LatestCheckpointMarker(&generation, &offset));
    EXPECT_EQ(generation, 7u);
    EXPECT_EQ(offset, 25u);
  }

  // Torn tail on the real filesystem: chop 3 bytes off the last segment.
  std::vector<std::string> names;
  ASSERT_TRUE(fs.ListDir(log_dir, &names).ok());
  std::sort(names.begin(), names.end());
  const std::string last = JoinPath(log_dir, names.back());
  std::string contents;
  ASSERT_TRUE(fs.ReadFile(last, &contents).ok());
  ASSERT_TRUE(fs.Truncate(last, contents.size() - 3).ok());

  OpenReport report;
  auto log = MustOpen(&fs, log_dir, {}, &report);
  EXPECT_EQ(report.truncated_tail_records, 1);
  // The torn record may have been the checkpoint marker, so the event
  // count is only guaranteed not to grow.
  EXPECT_LE(log->end_offset(), 50u);
  const std::vector<Event> got = Replay(*log, 0);
  ExpectSameEvents(
      got, std::vector<Event>(events.begin(), events.begin() + got.size()));

  // Best-effort cleanup (the tree lives under /tmp regardless).
  ASSERT_TRUE(fs.ListDir(log_dir, &names).ok());
  for (const std::string& name : names) {
    (void)fs.DeleteFile(JoinPath(log_dir, name));
  }
}

// --- MemFileSystem seam self-checks ---------------------------------------

TEST(MemFileSystem, ShortWriteAppliesPrefixBeforeEnospc) {
  MemFileSystem fs;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs.OpenAppend("/d/f", &file).ok());
  fs.set_enospc_after_bytes(4);
  Status s = file->Append("0123456789");
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fs.Contents("/d/f"), "0123");  // the prefix that fit
}

TEST(MemFileSystem, SimulateCrashRollsBackToSyncedSize) {
  MemFileSystem fs;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs.OpenAppend("/d/f", &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("-volatile").ok());
  fs.SimulateCrash();
  EXPECT_EQ(fs.Contents("/d/f"), "durable");
}

TEST(MemFileSystem, RenameIsAtomicHandoff) {
  MemFileSystem fs;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(fs.OpenAppend("/d/f.tmp", &file).ok());
  ASSERT_TRUE(file->Append("payload").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(fs.RenameFile("/d/f.tmp", "/d/f").ok());
  EXPECT_FALSE(fs.HasFile("/d/f.tmp"));
  EXPECT_EQ(fs.Contents("/d/f"), "payload");
}

}  // namespace
}  // namespace log
}  // namespace tpstream
