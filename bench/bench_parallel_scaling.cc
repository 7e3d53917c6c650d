// Parallel-scaling benchmark backing BENCH_parallel.json: sweeps worker
// counts over a keyed workload in two flavors — match-heavy (frequent
// phase flips, so the sharded output path carries real traffic) and
// match-light (rare flips, so routing + detection dominate) — and
// reports events/sec, speedup and scaling efficiency vs the 1-worker
// run, backpressure counters (ring_full), producer-side
// allocations per event (must be ~0 in steady state: the recycled batch
// ring keeps the hot path allocation-free), and the wall-clock latency
// distribution of individual Push() calls.
//
// `--json=FILE` writes the "parallel" bench record, gated against the
// committed BENCH_parallel.json by cmake/check_bench_regression.cmake.
// The record carries match_heavy scaling floors over the 1-worker run
// (>= 1.3x at 2 workers, >= 2.5x at 4); a floor needing more CPUs than
// the process may use is recorded as skipped, with the reason.
//
// This file DEFINES replacement global operator new/delete (to count
// producer-thread heap allocations on the measured path), so it must not
// be linked together with another translation unit that does the same
// (bench/ingest_common.h).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"

std::atomic<int64_t> g_allocs_total{0};
thread_local int64_t t_allocs_this_thread = 0;

namespace {
void* CountedAlloc(std::size_t size) {
  g_allocs_total.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs_this_thread;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpstream {
namespace bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The keyed two-situation query of the parallel test suite: A (flag
/// high) meets/before B (flag low) within 200 ticks, partitioned by key.
QuerySpec KeyedSpec() {
  Schema schema(
      {Field{"key", ValueType::kInt}, Field{"flag", ValueType::kBool}});
  QueryBuilder qb(schema);
  qb.Define("A", FieldRef(1, "flag"))
      .Define("B", Not(FieldRef(1, "flag")))
      .Relate("A", {Relation::kMeets, Relation::kBefore}, "B")
      .Within(200)
      .Return("key", "A", AggKind::kFirst, "key")
      .Return("n", "A", AggKind::kCount)
      .PartitionBy("key");
  auto spec = qb.Build();
  if (!spec.ok()) {
    std::fprintf(stderr, "query build failed: %s\n",
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  return spec.value();
}

/// Round-robin keyed boolean phases: every tick emits one event per key;
/// `flip_prob` controls how often a key's flag toggles, i.e. how
/// match-heavy the stream is. Timestamps are strictly increasing per key.
std::vector<Event> KeyedWorkload(int keys, int64_t total_events,
                                 double flip_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bool> value(keys, false);
  std::bernoulli_distribution flip(flip_prob);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(total_events));
  TimePoint t = 0;
  while (static_cast<int64_t>(events.size()) < total_events) {
    ++t;
    for (int k = 0; k < keys && static_cast<int64_t>(events.size()) <
                                    total_events;
         ++k) {
      if (flip(rng)) value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

struct ScalingMeasurement {
  int workers = 0;
  int64_t events = 0;
  int64_t warmup_events = 0;
  double elapsed_s = 0;
  double events_per_sec = 0;
  double speedup_vs_w1 = 1.0;
  double scaling_efficiency = 1.0;
  int64_t matches = 0;
  int64_t ring_full = 0;
  int64_t free_ring_allocs = 0;
  int64_t producer_allocs = 0;
  double producer_allocs_per_event = 0;
  obs::HistogramSnapshot push_ns;
};

/// One sweep run: warmup segment, measured segment (throughput = pushes +
/// final Flush, producer-thread allocations counted), then a latency
/// segment timing individual Push() calls (kept separate so the clock
/// reads do not distort the throughput number).
ScalingMeasurement RunOnce(const QuerySpec& spec,
                           const std::vector<Event>& events, int workers,
                           size_t batch_size, size_t ring_capacity,
                           int64_t warmup_events, int64_t measured_events,
                           int64_t latency_events) {
  ScalingMeasurement m;
  m.workers = workers;
  m.warmup_events = warmup_events;
  m.events = measured_events;

  parallel::ParallelTPStream::Options options;
  options.num_workers = workers;
  options.batch_size = batch_size;
  options.ring_capacity = ring_capacity;
  std::atomic<int64_t> delivered{0};
  parallel::ParallelTPStream op(
      spec, options,
      [&delivered](const Event&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });

  const Event* cursor = events.data();
  // Warmup: partitions materialize, every circulating batch vector and
  // event payload reaches its steady-state capacity.
  for (int64_t i = 0; i < warmup_events; ++i) op.Push(*cursor++);
  op.Flush();

  const int64_t allocs_before = t_allocs_this_thread;
  const int64_t t0 = NowNs();
  for (int64_t i = 0; i < measured_events; ++i) op.Push(*cursor++);
  op.Flush();
  const int64_t t1 = NowNs();
  m.producer_allocs = t_allocs_this_thread - allocs_before;

  m.elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  m.events_per_sec = m.elapsed_s > 0
                         ? static_cast<double>(measured_events) / m.elapsed_s
                         : 0;
  m.producer_allocs_per_event = static_cast<double>(m.producer_allocs) /
                                static_cast<double>(measured_events);

  obs::LatencyHistogram hist;
  for (int64_t i = 0; i < latency_events; ++i) {
    const int64_t start = NowNs();
    op.Push(*cursor++);
    hist.Record(NowNs() - start);
  }
  op.Flush();
  m.push_ns = hist.Snapshot();

  const obs::MetricsSnapshot metrics = op.Metrics();
  m.matches = op.num_matches();
  m.ring_full = metrics.counters.at("parallel.ring_full");
  m.free_ring_allocs = metrics.counters.at("parallel.free_ring_allocs");
  if (delivered.load() != m.matches) {
    std::fprintf(stderr, "match delivery mismatch: %lld delivered vs %lld\n",
                 static_cast<long long>(delivered.load()),
                 static_cast<long long>(m.matches));
    std::exit(1);
  }
  return m;
}

/// Speedup floors over the 1-worker run, by worker count. match_heavy is
/// engine-bound and must scale; match_light is producer-bound (routing
/// runs single-threaded at ingest speed) and carries no floor.
constexpr std::pair<int, int> kScalingFloorsPct[] = {{2, 130}, {4, 250}};

bool WriteRecord(
    const std::string& path,
    const std::vector<std::pair<std::string, ScalingMeasurement>>& runs) {
  BenchRecord rec("parallel");
  for (const auto& [name, m] : runs) {
    rec.Set(name, "workers", m.workers);
    rec.Set(name, "events", m.events);
    rec.Set(name, "warmup_events", m.warmup_events);
    rec.Set(name, "elapsed_s", m.elapsed_s);
    rec.Set(name, "events_per_sec", m.events_per_sec);
    rec.Set(name, "speedup_vs_w1", m.speedup_vs_w1);
    rec.Set(name, "scaling_efficiency", m.scaling_efficiency);
    rec.Set(name, "matches", m.matches);
    rec.Set(name, "ring_full", m.ring_full);
    rec.Set(name, "free_ring_allocs", m.free_ring_allocs);
    rec.Set(name, "producer_allocs", m.producer_allocs);
    rec.Set(name, "producer_allocs_per_event", m.producer_allocs_per_event);
    rec.SetHistogram(name, "push_ns", m.push_ns);
    rec.Floor(name, "events_per_sec", kThroughputFloorPct);
    rec.Ceiling(name, "producer_allocs_per_event", 100, kAllocSlackPerEvent);
    rec.Ceiling(name, "push_ns.p99", kP99CeilingPct, 0);
    rec.Ceiling(name, "ring_full", kRingFullCeilingPct, kRingFullSlack);
  }
  auto ran = [&](const std::string& name) {
    return std::any_of(runs.begin(), runs.end(),
                       [&](const auto& r) { return r.first == name; });
  };
  for (const auto& [workers, pct] : kScalingFloorsPct) {
    const std::string wn = "match_heavy.w" + std::to_string(workers);
    if (!ran(wn)) continue;  // not in the sweep; a missing w1 fails the gate
    rec.Check({.name = "scaling floor w" + std::to_string(workers),
               .value = {wn, "events_per_sec"},
               .over = {"match_heavy.w1", "events_per_sec"},
               .min_pct = pct,
               .skip = rec.cpus >= workers
                           ? ""
                           : "machine has " + std::to_string(rec.cpus) +
                                 " usable CPU(s), the floor needs " +
                                 std::to_string(workers)});
  }
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int keys = static_cast<int>(flags.GetInt("keys", 64));
  const size_t batch_size =
      static_cast<size_t>(flags.GetInt("batch", 256));
  const size_t ring_capacity =
      static_cast<size_t>(flags.GetInt("ring", 8));
  const int64_t warmup = flags.GetInt("warmup", 100000);
  const int64_t measured = flags.GetInt("events", 1000000);
  const int64_t latency = flags.GetInt("latency-events", 100000);
  const int cpus = UsableCpus();

  std::vector<int> worker_counts;
  {
    const std::string spec = flags.GetString("workers", "1,2,4,8");
    size_t pos = 0;
    while (pos < spec.size()) {
      worker_counts.push_back(std::atoi(spec.c_str() + pos));
      const size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const QuerySpec spec = KeyedSpec();
  struct Profile {
    const char* name;
    double flip_prob;
  };
  // 0.35 flips => a situation boundary every ~3 ticks per key (match-
  // heavy: the output path carries a large fraction of the traffic);
  // 0.01 => matches are two orders of magnitude rarer.
  const Profile profiles[] = {{"match_heavy", 0.35}, {"match_light", 0.01}};

  std::printf("# bench_parallel_scaling: keys=%d batch=%zu ring=%zu "
              "warmup=%lld measured=%lld latency=%lld cpus=%d\n",
              keys, batch_size, ring_capacity,
              static_cast<long long>(warmup),
              static_cast<long long>(measured),
              static_cast<long long>(latency), cpus);

  std::vector<std::pair<std::string, ScalingMeasurement>> runs;
  for (const Profile& profile : profiles) {
    const std::vector<Event> events = KeyedWorkload(
        keys, warmup + measured + latency, profile.flip_prob, 42);
    double w1_eps = 0;
    for (const int workers : worker_counts) {
      ScalingMeasurement m =
          RunOnce(spec, events, workers, batch_size, ring_capacity, warmup,
                  measured, latency);
      if (workers == 1 || w1_eps == 0) w1_eps = m.events_per_sec;
      m.speedup_vs_w1 = w1_eps > 0 ? m.events_per_sec / w1_eps : 0;
      m.scaling_efficiency =
          workers > 0 ? m.speedup_vs_w1 / static_cast<double>(workers) : 0;
      std::printf(
          "# %-12s w=%d  evt/s=%-12.0f speedup=%-6.2f eff=%-5.2f "
          "matches=%-8lld ring_full=%-6lld alloc/evt=%-8.4f "
          "push_ns{p50=%lld p99=%lld}\n",
          profile.name, workers, m.events_per_sec, m.speedup_vs_w1,
          m.scaling_efficiency, static_cast<long long>(m.matches),
          static_cast<long long>(m.ring_full), m.producer_allocs_per_event,
          static_cast<long long>(m.push_ns.Quantile(50)),
          static_cast<long long>(m.push_ns.Quantile(99)));
      runs.emplace_back(
          std::string(profile.name) + ".w" + std::to_string(workers),
          std::move(m));
    }
  }

  return WriteRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) {
  return tpstream::bench::Main(argc, argv);
}
