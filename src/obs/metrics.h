#ifndef TPSTREAM_OBS_METRICS_H_
#define TPSTREAM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpstream {
namespace obs {

/// Observability primitives for the TPStream engine.
///
/// Design goals (see docs/architecture.md, "Observability"):
///  * lock-light hot path: recording into a Counter / Gauge /
///    LatencyHistogram is a handful of relaxed atomic operations, no
///    locks. The registry mutex is only taken when a metric is first
///    registered (construction time) and when a snapshot is taken;
///  * mergeable: snapshots of distinct registries combine with Merge(),
///    so the parallel operator's workers record into thread-local
///    registries and readers merge on demand (TSan-clean by
///    construction, consistent with the concurrency contract of PR 1);
///  * exact at quiescence: all writes are relaxed atomics, so a snapshot
///    taken while writers are running is a monotone, possibly slightly
///    stale view; once the producing component has been flushed (and a
///    synchronizing operation such as ParallelTPStream::Flush() has run),
///    snapshots are exact.
///
/// Metric naming scheme: `<component>.<metric>` with lowercase dotted
/// segments, e.g. `deriver.situations_finished`,
/// `matcher.detection_latency`. Re-registering a name returns the same
/// metric object, so the partitions of a PARTITION BY query — and any
/// engines sharing one registry — aggregate into one set of
/// process-wide counters.

/// Monotonically increasing counter.
class Counter {
 public:
  void Inc(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Increment that pins at int64 max instead of wrapping. For
  /// upper-bound accounting (e.g. `robust.lost_match_upper_bound`) whose
  /// deltas are themselves saturated products: repeated Inc(kMax) would
  /// wrap the plain counter and understate the bound. `delta` must be
  /// non-negative.
  void IncSaturating(int64_t delta = 1) {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (true) {
      const int64_t next = (cur > kMax - delta) ? kMax : cur + delta;
      if (value_.compare_exchange_weak(cur, next,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, watermarks, EMAs).
/// Merging snapshots *sums* gauges: per-worker gauges are additive views
/// of a partitioned whole (e.g. per-worker partition counts).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// One exported histogram bucket: inclusive value range [lower, upper].
struct HistogramBucket {
  int64_t lower = 0;
  int64_t upper = 0;
  uint64_t count = 0;

  friend bool operator==(const HistogramBucket&,
                         const HistogramBucket&) = default;
};

/// Point-in-time copy of a LatencyHistogram, detached from the atomics.
/// Mergeable: merging two snapshots is exactly equivalent to having
/// recorded both value sequences into one histogram.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;  // sum of the *raw* recorded values (incl. clamped)
  int64_t min = 0;  // 0 when empty
  int64_t max = 0;  // 0 when empty
  uint64_t underflow = 0;  // recordings < 0 (bucket-clamped, counted here)
  uint64_t overflow = 0;   // recordings >= 2^40
  std::vector<HistogramBucket> buckets;  // non-empty buckets, ascending

  /// Nearest-rank quantile, `p` in [0, 100]. The returned value is the
  /// upper bound of the bucket holding the rank (capped at the exact
  /// recorded maximum), so it is >= the true quantile and off by at most
  /// one bucket width (<= 12.5% relative error for in-range values).
  /// Ranks landing in the underflow bucket report the exact minimum;
  /// ranks landing in the overflow bucket report the exact maximum.
  int64_t Quantile(double p) const;

  void Merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Fixed-bucket log-linear histogram of int64 samples (latencies in any
/// unit: ticks, microseconds, ...). Values 0..15 get exact buckets; every
/// power-of-two octave up to 2^40 is split into 8 sub-buckets (relative
/// error <= 1/8). Out-of-range values saturate into dedicated
/// underflow/overflow buckets instead of invoking UB; the exact raw
/// min/max/sum are tracked alongside. Recording is a few relaxed atomic
/// adds; concurrent recording from many threads is safe.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;           // 8 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;   // values < 2*kSub are exact
  static constexpr int kMaxExponent = 40;      // in-range: [0, 2^40)
  static constexpr int64_t kOverflowThreshold = int64_t{1} << kMaxExponent;
  static constexpr int kNumBuckets =
      2 * kSub + (kMaxExponent - kSubBits - 1) * kSub;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(int64_t value);

  HistogramSnapshot Snapshot() const;
  void Reset();

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Bucket geometry, exposed for the exporters and the property tests.
  /// `value` must be in [0, kOverflowThreshold).
  static int BucketIndex(int64_t value);
  static int64_t BucketLowerBound(int index);
  static int64_t BucketUpperBound(int index);  // inclusive

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max_{std::numeric_limits<int64_t>::min()};
  std::atomic<uint64_t> underflow_{0};
  std::atomic<uint64_t> overflow_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time copy of a whole registry. Counters and histograms merge
/// additively; gauges merge by summation (see Gauge).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void Merge(const MetricsSnapshot& other);

  /// Deterministic line-oriented text: counters, then gauges, then
  /// histograms, each section sorted by metric name. Stable across runs
  /// for identical contents (golden-file friendly).
  std::string ToText() const;

  /// Machine-readable JSON:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  ///                          "underflow":..,"overflow":..,
  ///                          "p50":..,"p95":..,"p99":..,
  ///                          "buckets":[[lower,upper,count],...]}}}
  /// Validated by cmake/check_metrics_json.cmake in CI.
  std::string ToJson() const;
};

/// Named metric directory. Handles returned by the Get* methods are
/// stable for the registry's lifetime; callers resolve them once (at
/// construction) and record lock-free afterwards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyHistogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (names stay registered). Intended
  /// for tests and between benchmark repetitions; not synchronized with
  /// concurrent writers beyond atomicity.
  void Reset();

 private:
  mutable std::mutex mutex_;  // guards the maps, never the hot path
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace obs
}  // namespace tpstream

#endif  // TPSTREAM_OBS_METRICS_H_
