#ifndef TPSTREAM_BENCH_INGEST_COMMON_H_
#define TPSTREAM_BENCH_INGEST_COMMON_H_

// Shared machinery for the ingestion benchmarks backing BENCH_ingest.json
// (events/sec, allocations/event, per-push wall latency percentiles).
//
// This header DEFINES the replacement global operator new/delete (to
// count heap allocations on the measured path), so it must be included
// from exactly ONE translation unit per binary — the benchmark's main
// .cc file.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/operator.h"
#include "obs/metrics.h"
#include "workload/synthetic.h"

namespace tpstream {
namespace bench {

std::atomic<size_t> g_ingest_alloc_count{0};

namespace ingest_internal {
inline void* CountedAlloc(std::size_t size) {
  g_ingest_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace ingest_internal

}  // namespace bench
}  // namespace tpstream

void* operator new(std::size_t size) {
  return tpstream::bench::ingest_internal::CountedAlloc(size);
}
void* operator new[](std::size_t size) {
  return tpstream::bench::ingest_internal::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpstream {
namespace bench {

/// One steady-state ingestion measurement (see EXPERIMENTS.md).
struct IngestMeasurement {
  int64_t events = 0;         // measured events (throughput pass)
  int64_t warmup_events = 0;  // events pushed before measuring
  double elapsed_s = 0;
  double events_per_sec = 0;
  int64_t allocations = 0;  // operator new calls during the pass
  double allocations_per_event = 0;
  int64_t matches = 0;  // total operator matches after the run
  /// Wall latency of individual Push() calls in nanoseconds, recorded in
  /// a separate (smaller) pass so the clock reads do not distort the
  /// throughput number.
  obs::HistogramSnapshot push_ns;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Drives `op` from `gen` with a reused scratch Event. `batch_size == 0`
/// measures per-event Push(); otherwise events are staged into a reused
/// std::vector<Event> and handed over via PushBatch().
inline IngestMeasurement MeasureIngest(TPStreamOperator& op,
                                       SyntheticGenerator& gen,
                                       int64_t warmup_events,
                                       int64_t measured_events,
                                       int64_t latency_events,
                                       size_t batch_size = 0) {
  IngestMeasurement m;
  m.warmup_events = warmup_events;
  m.events = measured_events;

  std::vector<Event> batch(batch_size == 0 ? 1 : batch_size);
  auto drive = [&](int64_t count) {
    if (batch_size == 0) {
      Event& scratch = batch[0];
      for (int64_t i = 0; i < count; ++i) {
        gen.Next(&scratch);
        op.Push(scratch);
      }
      return;
    }
    for (int64_t pushed = 0; pushed < count;) {
      const size_t n = static_cast<size_t>(
          std::min<int64_t>(static_cast<int64_t>(batch_size), count - pushed));
      for (size_t i = 0; i < n; ++i) gen.Next(&batch[i]);
      op.PushBatch(std::span<Event>(batch.data(), n));
      pushed += static_cast<int64_t>(n);
    }
  };

  // Warmup: situation buffers reach their window-bounded capacity, all
  // scratch vectors stop growing.
  drive(warmup_events);

  // Pass 1: throughput and allocation count, no per-event clock reads.
  const size_t allocs_before =
      g_ingest_alloc_count.load(std::memory_order_relaxed);
  const int64_t t0 = NowNs();
  drive(measured_events);
  const int64_t t1 = NowNs();
  const size_t allocs_after =
      g_ingest_alloc_count.load(std::memory_order_relaxed);

  m.elapsed_s = static_cast<double>(t1 - t0) * 1e-9;
  m.events_per_sec =
      m.elapsed_s > 0 ? static_cast<double>(measured_events) / m.elapsed_s : 0;
  m.allocations = static_cast<int64_t>(allocs_after - allocs_before);
  m.allocations_per_event =
      static_cast<double>(m.allocations) / static_cast<double>(measured_events);

  // Pass 2: per-push wall latency (PR2 log-linear histogram).
  obs::LatencyHistogram hist;
  Event& scratch = batch[0];
  for (int64_t i = 0; i < latency_events; ++i) {
    gen.Next(&scratch);
    const int64_t start = NowNs();
    op.Push(scratch);
    hist.Record(NowNs() - start);
  }
  m.push_ns = hist.Snapshot();
  m.matches = op.num_matches();
  return m;
}

inline void PrintIngestLine(const char* label, const IngestMeasurement& m) {
  std::printf(
      "# %-20s events=%-9lld evt/s=%-12.0f alloc/evt=%-8.4f "
      "push_ns{p50=%lld p99=%lld max=%lld}\n",
      label, static_cast<long long>(m.events), m.events_per_sec,
      m.allocations_per_event, static_cast<long long>(m.push_ns.Quantile(50)),
      static_cast<long long>(m.push_ns.Quantile(99)),
      static_cast<long long>(m.push_ns.max));
}

/// Writes the named runs as the "ingest" bench record behind the
/// committed BENCH_ingest.json, each gated on throughput, allocations
/// per event and push p99.
inline bool WriteIngestRecord(
    const std::string& path,
    const std::vector<std::pair<std::string, IngestMeasurement>>& runs) {
  BenchRecord rec("ingest");
  for (const auto& [name, m] : runs) {
    rec.Set(name, "events", m.events);
    rec.Set(name, "warmup_events", m.warmup_events);
    rec.Set(name, "elapsed_s", m.elapsed_s);
    rec.Set(name, "events_per_sec", m.events_per_sec);
    rec.Set(name, "allocations", m.allocations);
    rec.Set(name, "allocations_per_event", m.allocations_per_event);
    rec.Set(name, "matches", m.matches);
    rec.SetHistogram(name, "push_ns", m.push_ns);
    rec.Floor(name, "events_per_sec", kThroughputFloorPct);
    rec.Ceiling(name, "allocations_per_event", 100, kAllocSlackPerEvent);
    rec.Ceiling(name, "push_ns.p99", kP99CeilingPct, 0);
  }
  return rec.Write(path);
}

}  // namespace bench
}  // namespace tpstream

#endif  // TPSTREAM_BENCH_INGEST_COMMON_H_
