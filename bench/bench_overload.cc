// Overload benchmark backing BENCH_overload.json: drives the parallel
// operator at ~2x its consumer-bound capacity (the consumer is slowed by
// a fixed busy-spin per match) under each backpressure policy — kBlock,
// kDropNewest, kDropOldest — and reports producer-side throughput, the
// wall-clock latency distribution of individual Push() calls, and the
// shed/ring accounting of the Degradation contract
// (docs/architecture.md).
//
// The capacity is calibrated first: a kBlock run over the same workload
// measures the end-to-end drain rate with the slow consumer; the
// measured phase then paces the producer at 2x that rate. Under kBlock
// the extra offered load turns into push-latency (the producer parks;
// nothing is shed); under the drop policies push latency stays bounded
// by the shed-spin budget and the excess is shed and counted.
//
// `--json=FILE` writes the "overload" bench record, gated against the
// committed BENCH_overload.json by cmake/check_bench_regression.cmake:
// kBlock sheds nothing, every shed batch is quarantined exactly once, and
// the drop policies' push p99 stays bounded relative to the baseline.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"
#include "robust/dead_letter.h"
#include "robust/overload_policy.h"

namespace tpstream {
namespace bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The keyed two-situation query of the parallel suite: A (flag high)
/// meets/before B (flag low) within 200 ticks, partitioned by key.
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

/// Match-heavy keyed boolean phases (frequent flips): the consumer-side
/// match work dominates, so the busy-spin sink sets the drain capacity.
std::vector<Event> KeyedWorkload(int keys, int64_t total_events,
                                 uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<bool> value(keys, false);
  std::bernoulli_distribution flip(0.5);
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(total_events));
  TimePoint t = 0;
  while (static_cast<int64_t>(events.size()) < total_events) {
    ++t;
    for (int k = 0;
         k < keys && static_cast<int64_t>(events.size()) < total_events;
         ++k) {
      if (flip(rng)) value[k] = !value[k];
      events.push_back(
          Event({Value(static_cast<int64_t>(k)), Value(value[k])}, t));
    }
  }
  return events;
}

struct OverloadMeasurement {
  int64_t events = 0;
  double elapsed_s = 0;
  double events_per_sec = 0;      // producer-side (includes shed events)
  double offered_eps = 0;         // pacing target (2x calibrated capacity)
  int64_t matches = 0;
  int64_t shed_batches = 0;
  int64_t shed_events = 0;
  int64_t drop_oldest_fallback = 0;
  int64_t ring_full = 0;
  int64_t quarantined = 0;        // dead-letter deliveries (count-only sink)
  obs::HistogramSnapshot push_ns;
};

parallel::ParallelTPStream::Options MakeOptions(
    robust::BackpressurePolicy policy, const Flags& flags,
    robust::DeadLetterSink* dead_letter) {
  parallel::ParallelTPStream::Options options;
  options.num_workers = static_cast<int>(flags.GetInt("workers", 2));
  options.batch_size = static_cast<size_t>(flags.GetInt("batch", 64));
  options.ring_capacity = static_cast<size_t>(flags.GetInt("ring", 4));
  options.backpressure = policy;
  options.dead_letter = dead_letter;
  return options;
}

/// Busy-spin per match: pins the consumer's drain rate well below the
/// producer's push rate, independent of the host's memory system.
struct SpinSink {
  int64_t spin;
  void operator()(const Event&) const {
    // Volatile loads in the condition and a volatile store per round
    // serialize the loop against unrolling; plain assignment statements
    // to a volatile are not deprecated (unlike ++/compound assignment).
    volatile int64_t counter = 0;
    while (counter < spin) counter = counter + 1;
  }
};

/// Calibration: end-to-end drain rate (events/sec) of the slow consumer
/// under kBlock — the capacity the measured phase doubles.
double CalibrateCapacity(const QuerySpec& spec, const Flags& flags,
                         const std::vector<Event>& events, int64_t spin) {
  parallel::ParallelTPStream op(spec,
                                MakeOptions(robust::BackpressurePolicy::kBlock,
                                            flags, nullptr),
                                SpinSink{spin});
  const int64_t t0 = NowNs();
  for (const Event& e : events) op.Push(e);
  op.Flush();
  const int64_t t1 = NowNs();
  const double elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  return elapsed_s > 0 ? static_cast<double>(events.size()) / elapsed_s : 1e9;
}

OverloadMeasurement RunPolicy(const QuerySpec& spec, const Flags& flags,
                              robust::BackpressurePolicy policy,
                              const std::vector<Event>& warmup,
                              const std::vector<Event>& events,
                              int64_t spin, double offered_eps) {
  OverloadMeasurement m;
  m.events = static_cast<int64_t>(events.size());
  m.offered_eps = offered_eps;

  // Count-only sink (capacity 0): exercises the quarantine path without
  // retaining the shed payloads.
  robust::CollectingDeadLetterSink dead_letter(0);
  parallel::ParallelTPStream op(spec, MakeOptions(policy, flags, &dead_letter),
                                SpinSink{spin});

  for (const Event& e : warmup) op.Push(e);
  op.Flush();

  // Paced producer: event i is offered at t0 + i/offered_eps. Under the
  // drop policies the producer keeps up with the schedule and the excess
  // is shed; under kBlock each Push absorbs the backlog as latency.
  const double interval_ns = 1e9 / offered_eps;
  obs::LatencyHistogram hist;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < events.size(); ++i) {
    const int64_t due = t0 + static_cast<int64_t>(interval_ns * i);
    while (NowNs() < due) {
    }
    const int64_t start = NowNs();
    op.Push(events[i]);
    hist.Record(NowNs() - start);
  }
  op.Flush();
  const int64_t t1 = NowNs();

  m.elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  m.events_per_sec =
      m.elapsed_s > 0 ? static_cast<double>(events.size()) / m.elapsed_s : 0;
  m.push_ns = hist.Snapshot();
  m.matches = op.num_matches();
  m.shed_batches = op.shed_batches();
  m.shed_events = op.shed_events();
  m.quarantined = dead_letter.accepted() + dead_letter.dropped();
  const obs::MetricsSnapshot metrics = op.Metrics();
  m.ring_full = metrics.counters.at("parallel.ring_full");
  m.drop_oldest_fallback =
      metrics.counters.at("parallel.drop_oldest_fallback");
  return m;
}

/// The Degradation contract as gates and invariants: throughput holds,
/// the drop policies' push p99 stays bounded (kBlock turns overload into
/// push latency by design, so it has no p99 gate), kBlock is lossless,
/// every shed batch reaches the dead-letter sink exactly once, and
/// kDropOldest actually sheds at the offered load (else the bench no
/// longer overloads the operator and every number is vacuous).
bool WriteRecord(
    const std::string& path, double capacity_eps,
    const std::vector<std::pair<std::string, OverloadMeasurement>>& runs) {
  BenchRecord rec("overload");
  for (const auto& [name, m] : runs) {
    rec.Set(name, "capacity_eps", capacity_eps);
    rec.Set(name, "events", m.events);
    rec.Set(name, "elapsed_s", m.elapsed_s);
    rec.Set(name, "events_per_sec", m.events_per_sec);
    rec.Set(name, "offered_eps", m.offered_eps);
    rec.Set(name, "matches", m.matches);
    rec.Set(name, "shed_batches", m.shed_batches);
    rec.Set(name, "shed_events", m.shed_events);
    rec.Set(name, "drop_oldest_fallback", m.drop_oldest_fallback);
    rec.Set(name, "ring_full", m.ring_full);
    rec.Set(name, "quarantined", m.quarantined);
    rec.SetHistogram(name, "push_ns", m.push_ns);
    rec.Floor(name, "events_per_sec", kThroughputFloorPct);
    if (name == "block") {
      rec.Check({.name = "kBlock sheds nothing",
                 .value = {name, "shed_events"}, .max_pct = 0});
      rec.Check({.name = "kBlock quarantines nothing",
                 .value = {name, "quarantined"}, .max_pct = 0});
      continue;
    }
    rec.Ceiling(name, "push_ns.p99", kP99CeilingPct, 0);
    rec.Check({.name = "every shed batch quarantined once",
               .value = {name, "quarantined"},
               .over = {name, "shed_batches"},
               .min_pct = 100, .max_pct = 100});
  }
  rec.Check({.name = "kDropOldest sheds under overload",
             .value = {"drop_oldest", "shed_events"}, .min_pct = 100});
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int keys = static_cast<int>(flags.GetInt("keys", 16));
  const int64_t total = flags.GetInt("events", 40000);
  const int64_t warmup_n = flags.GetInt("warmup", 4000);
  // Heavy enough that draining one batch outlasts the drop policies'
  // shed-spin budget — otherwise a full ring always clears within the
  // spin and nothing is ever shed (kDropNewest degenerates to kBlock).
  const int64_t spin = flags.GetInt("spin", 30000);
  const double factor = flags.GetDouble("overload-factor", 2.0);

  const QuerySpec spec = KeyedSpec();
  const std::vector<Event> all =
      KeyedWorkload(keys, warmup_n + total, /*seed=*/1);
  const std::vector<Event> warmup(all.begin(), all.begin() + warmup_n);
  const std::vector<Event> measured(all.begin() + warmup_n, all.end());

  // Capacity of the slowed consumer, from a dedicated kBlock pass over
  // the measured slice (unpaced: the ring applies the backpressure).
  const double capacity_eps =
      CalibrateCapacity(spec, flags, measured, spin);
  const double offered_eps = capacity_eps * factor;
  std::printf("# capacity %.0f evt/s, offering %.0f evt/s (%.1fx)\n",
              capacity_eps, offered_eps, factor);

  const std::pair<const char*, robust::BackpressurePolicy> policies[] = {
      {"block", robust::BackpressurePolicy::kBlock},
      {"drop_newest", robust::BackpressurePolicy::kDropNewest},
      {"drop_oldest", robust::BackpressurePolicy::kDropOldest},
  };
  std::vector<std::pair<std::string, OverloadMeasurement>> runs;
  std::printf(
      "# %-12s %12s %12s %10s %10s %10s %10s\n", "policy", "evt/s",
      "push_p99_ns", "shed_evt", "matches", "ring_full", "fallback");
  for (const auto& [name, policy] : policies) {
    OverloadMeasurement m =
        RunPolicy(spec, flags, policy, warmup, measured, spin, offered_eps);
    std::printf("  %-12s %12.0f %12lld %10lld %10lld %10lld %10lld\n", name,
                m.events_per_sec,
                static_cast<long long>(m.push_ns.Quantile(99)),
                static_cast<long long>(m.shed_events),
                static_cast<long long>(m.matches),
                static_cast<long long>(m.ring_full),
                static_cast<long long>(m.drop_oldest_fallback));
    runs.emplace_back(name, std::move(m));
  }

  // Invariants the JSON gate re-checks against the committed baseline:
  // kBlock is lossless; the drop policies actually shed under 2x load
  // and deliver every shed event to the dead-letter sink.
  for (const auto& [name, m] : runs) {
    const bool is_block = std::string(name) == "block";
    if (is_block && m.shed_events != 0) {
      std::fprintf(stderr, "kBlock shed %lld events\n",
                   static_cast<long long>(m.shed_events));
      return 1;
    }
    if (!is_block && m.quarantined != m.shed_batches) {
      std::fprintf(stderr,
                   "%s: %lld quarantined items vs %lld shed batches\n",
                   name.c_str(), static_cast<long long>(m.quarantined),
                   static_cast<long long>(m.shed_batches));
      return 1;
    }
  }

  return WriteRecord(flags.GetString("json", ""), capacity_eps, runs) ? 0
                                                                        : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) {
  return tpstream::bench::Main(argc, argv);
}
