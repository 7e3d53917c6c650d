// Checkpoint cost benchmark backing BENCH_checkpoint.json: drives the
// single-stream and partitioned operators over a random-walk sensor
// stream, taking a checkpoint every --interval events, and measures what
// durability costs the hot path:
//
//   operator.steady    TPStreamOperator, one stream, periodic checkpoints
//   partitioned.k64    TPStreamOperator, PARTITION BY over 64 keys
//
// Reported per run: sustained events/sec (checkpoint pauses included),
// mean serialized bytes per checkpoint, and the checkpoint pause
// distribution (p50/p95/p99/max, in ns) — the stall a caller sees when a
// checkpoint is taken between two Push() calls.
//
// Each run also proves its checkpoints are usable: the mid-stream blob is
// restored into a fresh engine, the tail of the stream replayed, and the
// final re-checkpoint compared byte-for-byte against the uninterrupted
// run's. A divergence aborts the bench (exit 1), so the measured fast
// path doubles as a recovery correctness check; the JSON records it as
// "restore_verified": 1.
//
// `--json=FILE` writes the "checkpoint" bench record, gated against the
// committed BENCH_checkpoint.json by cmake/check_bench_regression.cmake:
// per-run throughput floors, a pause-p99 bound, a bytes-per-checkpoint
// ceiling, and restore_verified = 1 in the fresh record.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/serde.h"
#include "core/operator.h"
#include "query/builder.h"

namespace tpstream {
namespace bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QuerySpec CheckpointSpec(bool partitioned) {
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
    // Keys are assigned in blocks of 16 consecutive ticks so a partition
    // sees contiguous sub-streams (per-event striping would leave every
    // partition's events further apart than the query window).
    events.push_back(Event({Value(speed), Value(temp),
                            Value(static_cast<int64_t>((i / 16) % num_keys))},
                           static_cast<TimePoint>(i + 1)));
  }
  return events;
}

struct RunResult {
  std::string name;
  int64_t events = 0;
  int64_t matches = 0;
  int64_t checkpoints = 0;
  double events_per_sec = 0;
  double bytes_per_checkpoint = 0;
  double pause_p50 = 0, pause_p95 = 0, pause_p99 = 0, pause_max = 0;
  bool restore_verified = false;
};

/// Runs one engine over `events` with a checkpoint every `interval`
/// events, then proves recovery: the checkpoint taken at the midpoint is
/// restored into `recovered` and the tail replayed; both engines must
/// re-checkpoint byte-identically at the end.
template <typename Engine>
RunResult Run(const std::string& name, Engine& engine, Engine& recovered,
              const std::vector<Event>& events, int64_t interval) {
  RunResult r;
  r.name = name;
  r.events = static_cast<int64_t>(events.size());

  std::vector<double> pauses;
  int64_t total_bytes = 0;
  std::string mid_blob;
  const size_t midpoint = events.size() / 2;

  const int64_t start = NowNs();
  for (size_t i = 0; i < events.size(); ++i) {
    engine.Push(events[i]);
    if ((static_cast<int64_t>(i) + 1) % interval == 0 ||
        i + 1 == midpoint) {
      const int64_t t0 = NowNs();
      ckpt::Writer w;
      engine.Checkpoint(w);
      pauses.push_back(static_cast<double>(NowNs() - t0));
      total_bytes += static_cast<int64_t>(w.buffer().size());
      ++r.checkpoints;
      if (i + 1 == midpoint) mid_blob = w.Take();
    }
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) * 1e-9;

  r.matches = engine.num_matches();
  r.events_per_sec = static_cast<double>(events.size()) / elapsed_s;
  r.bytes_per_checkpoint =
      r.checkpoints == 0
          ? 0.0
          : static_cast<double>(total_bytes) / static_cast<double>(r.checkpoints);
  r.pause_p50 = Percentile(pauses, 50);
  r.pause_p95 = Percentile(pauses, 95);
  r.pause_p99 = Percentile(pauses, 99);
  r.pause_max = pauses.empty() ? 0.0 : *std::max_element(pauses.begin(),
                                                         pauses.end());

  // Recovery differential: restore the midpoint blob, replay the tail,
  // compare final checkpoints byte for byte.
  ckpt::Reader reader(mid_blob);
  uint64_t offset = 0;
  const Status status = recovered.Restore(reader, &offset);
  if (!status.ok() || offset != midpoint) {
    std::fprintf(stderr, "%s: restore failed: %s (offset %llu)\n",
                 name.c_str(), status.ToString().c_str(),
                 static_cast<unsigned long long>(offset));
    return r;
  }
  for (size_t i = midpoint; i < events.size(); ++i) {
    recovered.Push(events[i]);
  }
  ckpt::Writer final_ref, final_rec;
  engine.Checkpoint(final_ref);
  recovered.Checkpoint(final_rec);
  r.restore_verified = final_ref.buffer() == final_rec.buffer() &&
                       recovered.num_matches() == engine.num_matches();
  if (!r.restore_verified) {
    std::fprintf(stderr,
                 "%s: recovered run diverged from the uninterrupted run "
                 "(%zu vs %zu final bytes, %lld vs %lld matches)\n",
                 name.c_str(), final_rec.buffer().size(),
                 final_ref.buffer().size(),
                 static_cast<long long>(recovered.num_matches()),
                 static_cast<long long>(engine.num_matches()));
  }
  return r;
}

/// Checkpoint size may at most double, plus 4 KiB so a near-empty
/// operator's tiny baseline still admits growth.
constexpr int kBytesCeilingPct = 200;
constexpr double kBytesSlack = 4096;

bool WriteRecord(const std::string& path, const std::vector<RunResult>& runs) {
  BenchRecord rec("checkpoint");
  for (const RunResult& r : runs) {
    rec.Set(r.name, "events", r.events);
    rec.Set(r.name, "matches", r.matches);
    rec.Set(r.name, "checkpoints", r.checkpoints);
    rec.Set(r.name, "events_per_sec", r.events_per_sec);
    rec.Set(r.name, "bytes_per_checkpoint", r.bytes_per_checkpoint);
    rec.Set(r.name, "restore_verified", r.restore_verified);
    rec.Set(r.name, "pause_ns.p50", r.pause_p50);
    rec.Set(r.name, "pause_ns.p95", r.pause_p95);
    rec.Set(r.name, "pause_ns.p99", r.pause_p99);
    rec.Set(r.name, "pause_ns.max", r.pause_max);
    rec.Floor(r.name, "events_per_sec", kThroughputFloorPct);
    rec.Ceiling(r.name, "pause_ns.p99", kP99CeilingPct, 0);
    rec.Ceiling(r.name, "bytes_per_checkpoint", kBytesCeilingPct, kBytesSlack);
    rec.Check({.name = "restore differential passed",
               .value = {r.name, "restore_verified"},
               .min_pct = 100, .max_pct = 100});
  }
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t horizon = flags.GetInt("events", 1000000);
  const int64_t interval = flags.GetInt("interval", 50000);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const int num_keys = static_cast<int>(flags.GetInt("keys", 64));

  // Best-of-N to shed scheduler noise; the restore differential must
  // hold on every repeat, so a single failed verification aborts.
  bool verified = true;
  auto best_of = [&](const std::string& name, auto make_engine) {
    RunResult best;
    for (int i = 0; i < repeats; ++i) {
      auto engine = make_engine();
      auto recovered = make_engine();
      RunResult r = Run(name, *engine, *recovered,
                        MakeStream(horizon, num_keys), interval);
      verified = verified && r.restore_verified;
      if (i == 0 || r.events_per_sec > best.events_per_sec) {
        best = std::move(r);
      }
    }
    return best;
  };

  const QuerySpec flat_spec = CheckpointSpec(/*partitioned=*/false);
  const QuerySpec part_spec = CheckpointSpec(/*partitioned=*/true);
  std::vector<RunResult> runs;
  runs.push_back(best_of("operator.steady", [&] {
    return std::make_unique<TPStreamOperator>(flat_spec,
                                              TPStreamOperator::Options{},
                                              nullptr);
  }));
  runs.push_back(best_of("partitioned.k64", [&] {
    return std::make_unique<TPStreamOperator>(
        part_spec, TPStreamOperator::Options{}, nullptr);
  }));

  std::printf("%-18s %9s %8s %12s %10s %9s %9s %9s %s\n", "run", "events",
              "ckpts", "evt/s", "bytes/ckpt", "p50 ns", "p99 ns", "max ns",
              "verified");
  for (const RunResult& r : runs) {
    std::printf("%-18s %9lld %8lld %12.0f %10.0f %9.0f %9.0f %9.0f %s\n",
                r.name.c_str(), static_cast<long long>(r.events),
                static_cast<long long>(r.checkpoints), r.events_per_sec,
                r.bytes_per_checkpoint, r.pause_p50, r.pause_p99,
                r.pause_max, r.restore_verified ? "yes" : "NO");
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
