// Durability cost benchmark backing BENCH_durability.json: exercises the
// durable event log and the RecoveryManager over the deterministic MemFS
// (log/memfs.h), so the numbers isolate the log's framing, checksum and
// barrier bookkeeping from device latency and stay comparable across
// machines. Three families of runs:
//
//   append.every_record   WAL append throughput, fsync after every record
//   append.every_64k      group commit by volume (64 KiB barriers)
//   append.interval       group commit by time (5 ms barriers)
//
//   recovery.n10000       one-call Recover() wall time: restore the
//   recovery.n100000      checkpoint, replay a ~90% log tail
//
//   incremental.k8        full-vs-delta checkpoint bytes over a
//                         PARTITION BY TPStreamOperator (full every 8th
//                         generation)
//
// Each run proves its durability claim before it reports a number: the
// append runs reopen the log and replay it, comparing every event
// byte-for-byte (ckpt wire format) against what was appended; the
// recovery and incremental runs re-checkpoint the recovered engine and
// compare against the uninterrupted reference. A divergence aborts the
// bench (exit 1); the JSON records it per run as "replay_verified" /
// "restore_verified".
//
// `--json=FILE` writes the "durability" bench record, gated against the
// committed BENCH_durability.json by cmake/check_bench_regression.cmake:
// per-run throughput floors, the fsync accounting of the sync policies
// (one barrier per record vs actual grouping), the verified flags, and
// the headline incremental invariant that mean delta bytes stay under
// half the mean full-snapshot bytes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/serde.h"
#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
#include "query/builder.h"

namespace tpstream {
namespace bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QuerySpec DurabilitySpec(bool partitioned) {
  Schema schema({Field{"speed", ValueType::kDouble},
                 Field{"temp", ValueType::kDouble},
                 Field{"key", ValueType::kInt}});
  QueryBuilder qb(schema);
  qb.Define("A", Gt(FieldRef(0, "speed"), Literal(0.55)))
      .Define("B", Gt(FieldRef(1, "temp"), Literal(0.45)))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(60)
      .Return("n_a", "A", AggKind::kCount)
      .Return("avg_temp", "B", AggKind::kAvg, "temp");
  if (partitioned) qb.PartitionBy("key");
  auto spec = qb.Build();
  if (!spec.ok()) {
    std::fprintf(stderr, "spec: %s\n", spec.status().ToString().c_str());
    std::abort();
  }
  return spec.value();
}

std::vector<Event> MakeStream(int64_t n, int num_keys) {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(n));
  // Deterministic xorshift random walk (same stream on every machine).
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto uni = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  double speed = 0.5, temp = 0.5;
  for (int64_t i = 0; i < n; ++i) {
    speed = std::clamp(speed + (uni() - 0.5) * 0.4, 0.0, 1.0);
    temp = std::clamp(temp + (uni() - 0.5) * 0.4, 0.0, 1.0);
    // Keys advance in blocks of 16 consecutive ticks so a partition sees
    // contiguous sub-streams (per-event striping would leave every
    // partition's events further apart than the query window). A wide
    // key space keeps the per-interval dirty set a small fraction of the
    // partitions a full snapshot covers — the situation the incremental
    // checkpoint path exists for.
    events.push_back(Event({Value(speed), Value(temp),
                            Value(static_cast<int64_t>((i / 16) % num_keys))},
                           static_cast<TimePoint>(i + 1)));
  }
  return events;
}

struct RunResult {
  std::string name;
  int64_t events = 0;
  double events_per_sec = 0;
  bool verified = false;
  // append.* runs
  int64_t batches = 0;
  int64_t fsyncs = 0;
  int64_t appended_bytes = 0;
  // recovery.* runs
  double recovery_ms = 0;
  int64_t replayed_events = 0;
  // incremental.* runs
  int64_t checkpoints = 0;
  int64_t full_checkpoints = 0;
  int64_t delta_checkpoints = 0;
  double bytes_per_full = 0;
  double bytes_per_delta = 0;
  enum Kind { kAppend, kRecovery, kIncremental } kind = kAppend;
};

/// Serializes `events` with the ckpt wire format (the log's own event
/// encoding, bit-exact doubles) for byte-level replay comparison.
std::string WireBytes(const std::vector<Event>& events) {
  ckpt::Writer w;
  for (const Event& e : events) w.WriteEvent(e);
  return w.Take();
}

/// Appends the stream under `policy`, then reopens the log and replays
/// it from offset 0, comparing every event byte-for-byte.
RunResult RunAppend(const std::string& name, const log::SyncPolicy& policy,
                    const std::vector<Event>& events, int64_t batch) {
  RunResult r;
  r.name = name;
  r.kind = RunResult::kAppend;
  r.events = static_cast<int64_t>(events.size());

  log::MemFileSystem fs;
  log::EventLogOptions options;
  options.sync = policy;
  std::unique_ptr<log::EventLog> wal;
  Status s = log::EventLog::Open(&fs, "/wal", options, &wal);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: open: %s\n", name.c_str(),
                 s.ToString().c_str());
    return r;
  }

  const int64_t start = NowNs();
  for (size_t i = 0; i < events.size(); i += static_cast<size_t>(batch)) {
    const size_t n = std::min(static_cast<size_t>(batch), events.size() - i);
    auto appended = wal->Append(std::span<const Event>(&events[i], n));
    if (!appended.ok()) {
      std::fprintf(stderr, "%s: append: %s\n", name.c_str(),
                   appended.status().ToString().c_str());
      return r;
    }
    ++r.batches;
  }
  // The final barrier is part of the durability cost being measured.
  s = wal->Sync();
  const double elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (!s.ok()) {
    std::fprintf(stderr, "%s: sync: %s\n", name.c_str(), s.ToString().c_str());
    return r;
  }

  r.events_per_sec = static_cast<double>(events.size()) / elapsed_s;
  r.fsyncs = static_cast<int64_t>(fs.num_syncs());
  r.appended_bytes = static_cast<int64_t>(fs.total_appended());

  // Durability proof: a fresh open must replay the identical stream.
  wal.reset();
  std::unique_ptr<log::EventLog> reopened;
  s = log::EventLog::Open(&fs, "/wal", options, &reopened);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: reopen: %s\n", name.c_str(),
                 s.ToString().c_str());
    return r;
  }
  std::vector<Event> replayed;
  replayed.reserve(events.size());
  s = reopened->ReplayFrom(0,
                           [&replayed](const Event& e) { replayed.push_back(e); });
  if (!s.ok()) {
    std::fprintf(stderr, "%s: replay: %s\n", name.c_str(),
                 s.ToString().c_str());
    return r;
  }
  r.verified = replayed.size() == events.size() &&
               WireBytes(replayed) == WireBytes(events);
  if (!r.verified) {
    std::fprintf(stderr,
                 "%s: replay diverged from the appended stream "
                 "(%zu vs %zu events)\n",
                 name.c_str(), replayed.size(), events.size());
  }
  return r;
}

/// Feeds `events` through a checkpointed operator + WAL, takes one
/// checkpoint at the 10% mark, then measures a cold one-call Recover():
/// restore the checkpoint and replay the remaining ~90% tail.
RunResult RunRecovery(const std::string& name,
                      const std::vector<Event>& events) {
  RunResult r;
  r.name = name;
  r.kind = RunResult::kRecovery;
  r.events = static_cast<int64_t>(events.size());

  log::MemFileSystem fs;
  log::EventLogOptions log_options;
  log_options.sync.mode = log::SyncMode::kEveryBytes;
  log_options.sync.sync_bytes = 64 * 1024;
  std::unique_ptr<log::EventLog> wal;
  Status s = log::EventLog::Open(&fs, "/wal", log_options, &wal);
  std::unique_ptr<log::RecoveryManager> mgr;
  if (s.ok()) {
    s = log::RecoveryManager::Open(&fs, "/wal/ckpt", wal.get(),
                                   log::RecoveryManager::Options{}, &mgr);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: open: %s\n", name.c_str(), s.ToString().c_str());
    return r;
  }

  const QuerySpec spec = DurabilitySpec(/*partitioned=*/false);
  TPStreamOperator reference(spec, TPStreamOperator::Options{}, nullptr);
  const size_t ckpt_at = events.size() / 10;
  for (size_t i = 0; i < events.size(); ++i) {
    auto appended = wal->Append(std::span<const Event>(&events[i], 1));
    if (!appended.ok()) {
      std::fprintf(stderr, "%s: append: %s\n", name.c_str(),
                   appended.status().ToString().c_str());
      return r;
    }
    reference.Push(events[i]);
    if (i + 1 == ckpt_at) {
      auto info = mgr->Checkpoint(reference);
      if (!info.ok()) {
        std::fprintf(stderr, "%s: checkpoint: %s\n", name.c_str(),
                     info.status().ToString().c_str());
        return r;
      }
    }
  }
  s = wal->Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "%s: sync: %s\n", name.c_str(), s.ToString().c_str());
    return r;
  }

  // Cold restart: fresh log handle, fresh manager, fresh engine.
  wal.reset();
  mgr.reset();
  std::unique_ptr<log::EventLog> wal2;
  s = log::EventLog::Open(&fs, "/wal", log_options, &wal2);
  std::unique_ptr<log::RecoveryManager> mgr2;
  if (s.ok()) {
    s = log::RecoveryManager::Open(&fs, "/wal/ckpt", wal2.get(),
                                   log::RecoveryManager::Options{}, &mgr2);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: reopen: %s\n", name.c_str(),
                 s.ToString().c_str());
    return r;
  }
  TPStreamOperator recovered(spec, TPStreamOperator::Options{}, nullptr);
  const int64_t t0 = NowNs();
  auto report = mgr2->Recover(recovered);
  const double recover_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (!report.ok()) {
    std::fprintf(stderr, "%s: recover: %s\n", name.c_str(),
                 report.status().ToString().c_str());
    return r;
  }
  r.recovery_ms = recover_s * 1e3;
  r.replayed_events = static_cast<int64_t>(report.value().replayed_events);
  r.events_per_sec = static_cast<double>(r.replayed_events) / recover_s;

  ckpt::Writer final_ref, final_rec;
  reference.Checkpoint(final_ref);
  recovered.Checkpoint(final_rec);
  r.verified = final_ref.buffer() == final_rec.buffer() &&
               recovered.num_matches() == reference.num_matches();
  if (!r.verified) {
    std::fprintf(stderr,
                 "%s: recovered run diverged from the uninterrupted run "
                 "(%zu vs %zu final bytes, %lld vs %lld matches)\n",
                 name.c_str(), final_rec.buffer().size(),
                 final_ref.buffer().size(),
                 static_cast<long long>(recovered.num_matches()),
                 static_cast<long long>(reference.num_matches()));
  }
  return r;
}

/// Periodic RecoveryManager checkpoints over a PARTITION BY
/// TPStreamOperator with a full snapshot every 8th generation; reports
/// mean file bytes per full vs per delta and proves the chain restores
/// byte-identically.
RunResult RunIncremental(const std::string& name,
                         const std::vector<Event>& events, int64_t interval) {
  RunResult r;
  r.name = name;
  r.kind = RunResult::kIncremental;
  r.events = static_cast<int64_t>(events.size());

  log::MemFileSystem fs;
  log::EventLogOptions log_options;
  log_options.sync.mode = log::SyncMode::kEveryBytes;
  log_options.sync.sync_bytes = 64 * 1024;
  std::unique_ptr<log::EventLog> wal;
  Status s = log::EventLog::Open(&fs, "/wal", log_options, &wal);
  std::unique_ptr<log::RecoveryManager> mgr;
  log::RecoveryManager::Options mgr_options;
  mgr_options.full_snapshot_interval = 8;
  if (s.ok()) {
    s = log::RecoveryManager::Open(&fs, "/wal/ckpt", wal.get(), mgr_options,
                                   &mgr);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: open: %s\n", name.c_str(), s.ToString().c_str());
    return r;
  }

  const QuerySpec spec = DurabilitySpec(/*partitioned=*/true);
  TPStreamOperator reference(spec, TPStreamOperator::Options{}, nullptr);
  int64_t full_bytes = 0, delta_bytes = 0;

  const int64_t start = NowNs();
  for (size_t i = 0; i < events.size(); ++i) {
    auto appended = wal->Append(std::span<const Event>(&events[i], 1));
    if (!appended.ok()) {
      std::fprintf(stderr, "%s: append: %s\n", name.c_str(),
                   appended.status().ToString().c_str());
      return r;
    }
    reference.Push(events[i]);
    if ((static_cast<int64_t>(i) + 1) % interval == 0) {
      auto info = mgr->Checkpoint(reference);
      if (!info.ok()) {
        std::fprintf(stderr, "%s: checkpoint: %s\n", name.c_str(),
                     info.status().ToString().c_str());
        return r;
      }
      ++r.checkpoints;
      if (info.value().incremental) {
        ++r.delta_checkpoints;
        delta_bytes += static_cast<int64_t>(info.value().bytes);
      } else {
        ++r.full_checkpoints;
        full_bytes += static_cast<int64_t>(info.value().bytes);
      }
    }
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;
  r.events_per_sec = static_cast<double>(events.size()) / elapsed_s;
  r.bytes_per_full =
      r.full_checkpoints == 0
          ? 0.0
          : static_cast<double>(full_bytes) /
                static_cast<double>(r.full_checkpoints);
  r.bytes_per_delta =
      r.delta_checkpoints == 0
          ? 0.0
          : static_cast<double>(delta_bytes) /
                static_cast<double>(r.delta_checkpoints);

  // Durability proof: cold-start recovery (full + delta chain + replay)
  // must land byte-identically on the reference's state.
  s = wal->Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "%s: sync: %s\n", name.c_str(), s.ToString().c_str());
    return r;
  }
  wal.reset();
  mgr.reset();
  std::unique_ptr<log::EventLog> wal2;
  s = log::EventLog::Open(&fs, "/wal", log_options, &wal2);
  std::unique_ptr<log::RecoveryManager> mgr2;
  if (s.ok()) {
    s = log::RecoveryManager::Open(&fs, "/wal/ckpt", wal2.get(), mgr_options,
                                   &mgr2);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "%s: reopen: %s\n", name.c_str(),
                 s.ToString().c_str());
    return r;
  }
  TPStreamOperator recovered(spec, TPStreamOperator::Options{}, nullptr);
  auto report = mgr2->Recover(recovered);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: recover: %s\n", name.c_str(),
                 report.status().ToString().c_str());
    return r;
  }
  ckpt::Writer final_ref, final_rec;
  reference.Checkpoint(final_ref);
  recovered.Checkpoint(final_rec);
  r.verified = final_ref.buffer() == final_rec.buffer() &&
               recovered.num_matches() == reference.num_matches();
  if (!r.verified) {
    std::fprintf(stderr,
                 "%s: recovered run diverged from the uninterrupted run "
                 "(%zu vs %zu final bytes, %lld vs %lld matches)\n",
                 name.c_str(), final_rec.buffer().size(),
                 final_ref.buffer().size(),
                 static_cast<long long>(recovered.num_matches()),
                 static_cast<long long>(reference.num_matches()));
  }
  return r;
}

/// Mean delta bytes stay under half the mean full-snapshot bytes.
constexpr int kDeltaOverFullMaxPct = 50;

bool WriteRecord(const std::string& path, const std::vector<RunResult>& runs) {
  BenchRecord rec("durability");
  for (const RunResult& r : runs) {
    const std::string& n = r.name;
    rec.Set(n, "events", r.events);
    rec.Set(n, "events_per_sec", r.events_per_sec);
    rec.Floor(n, "events_per_sec", kThroughputFloorPct);
    const char* verified =
        r.kind == RunResult::kIncremental ? "restore_verified"
                                          : "replay_verified";
    switch (r.kind) {
      case RunResult::kAppend:
        rec.Set(n, "batches", r.batches);
        rec.Set(n, "fsyncs", r.fsyncs);
        rec.Set(n, "appended_bytes", r.appended_bytes);
        break;
      case RunResult::kRecovery:
        rec.Set(n, "recovery_ms", r.recovery_ms);
        rec.Set(n, "replayed_events", r.replayed_events);
        break;
      case RunResult::kIncremental:
        rec.Set(n, "checkpoints", r.checkpoints);
        rec.Set(n, "full_checkpoints", r.full_checkpoints);
        rec.Set(n, "delta_checkpoints", r.delta_checkpoints);
        rec.Set(n, "bytes_per_full", r.bytes_per_full);
        rec.Set(n, "bytes_per_delta", r.bytes_per_delta);
        rec.Check({.name = "deltas stay under half a full snapshot",
                   .value = {n, "bytes_per_delta"},
                   .over = {n, "bytes_per_full"},
                   .max_pct = kDeltaOverFullMaxPct});
        rec.Check({.name = "full snapshots are non-empty",
                   .value = {n, "bytes_per_full"}, .min_pct = 100});
        break;
    }
    rec.Set(n, verified, r.verified);
    rec.Check({.name = std::string(verified) + " differential passed",
               .value = {n, verified}, .min_pct = 100, .max_pct = 100});
  }
  // The sync policies' fsync accounting: kEveryRecord issues a barrier
  // per record; kEveryBytes groups commits (<= 1 barrier per 2 records).
  rec.Check({.name = "kEveryRecord barrier per record",
             .value = {"append.every_record", "fsyncs"},
             .over = {"append.every_record", "batches"}, .min_pct = 100});
  rec.Check({.name = "kEveryBytes groups commits",
             .value = {"append.every_64k", "fsyncs"},
             .over = {"append.every_64k", "batches"}, .max_pct = 50});
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t append_events = flags.GetInt("events", 200000);
  const int64_t batch = flags.GetInt("batch", 64);
  const int64_t interval = flags.GetInt("interval", 5000);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const int num_keys = static_cast<int>(flags.GetInt("keys", 4096));

  // Best-of-N to shed scheduler noise; every repeat's durability proof
  // must hold, so a single failed verification aborts.
  bool verified = true;
  auto best_of = [&](auto run_once) {
    RunResult best;
    for (int i = 0; i < repeats; ++i) {
      RunResult r = run_once();
      verified = verified && r.verified;
      if (i == 0 || r.events_per_sec > best.events_per_sec) {
        best = std::move(r);
      }
    }
    return best;
  };

  const std::vector<Event> stream = MakeStream(append_events, num_keys);
  std::vector<RunResult> runs;

  log::SyncPolicy every_record;
  every_record.mode = log::SyncMode::kEveryRecord;
  runs.push_back(best_of(
      [&] { return RunAppend("append.every_record", every_record, stream,
                             batch); }));
  log::SyncPolicy every_64k;
  every_64k.mode = log::SyncMode::kEveryBytes;
  every_64k.sync_bytes = 64 * 1024;
  runs.push_back(best_of(
      [&] { return RunAppend("append.every_64k", every_64k, stream, batch); }));
  log::SyncPolicy by_interval;
  by_interval.mode = log::SyncMode::kInterval;
  by_interval.sync_interval_ns = 5'000'000;
  runs.push_back(best_of(
      [&] { return RunAppend("append.interval", by_interval, stream, batch); }));

  runs.push_back(best_of(
      [&] { return RunRecovery("recovery.n10000",
                               MakeStream(10000, num_keys)); }));
  runs.push_back(best_of(
      [&] { return RunRecovery("recovery.n100000",
                               MakeStream(100000, num_keys)); }));

  runs.push_back(best_of(
      [&] { return RunIncremental("incremental.k8", stream, interval); }));

  std::printf("%-20s %9s %12s %8s %10s %12s %12s %s\n", "run", "events",
              "evt/s", "fsyncs", "rec ms", "bytes/full", "bytes/delta",
              "verified");
  for (const RunResult& r : runs) {
    std::printf("%-20s %9lld %12.0f %8lld %10.2f %12.0f %12.0f %s\n",
                r.name.c_str(), static_cast<long long>(r.events),
                r.events_per_sec, static_cast<long long>(r.fsyncs),
                r.recovery_ms, r.bytes_per_full, r.bytes_per_delta,
                r.verified ? "yes" : "NO");
  }
  if (!verified) return 1;

  return WriteRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) {
  return tpstream::bench::Main(argc, argv);
}
