#ifndef TPSTREAM_E2EBENCH_MEASURE_H_
#define TPSTREAM_E2EBENCH_MEASURE_H_

// The benchmark's own arithmetic: tail percentiles, the alert multiset
// digest, and spans with self time. `e2ebench --selftest` checks each.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/event.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A percentile as reported: the value, the percentile actually used, the
/// sample count, and how many samples lie beyond the reported rank.
struct Tail {
  double value = 0;
  double pct = 0;
  int64_t n = 0;
  int64_t beyond = 0;
};

/// Nearest-rank percentile `pct` of n samples as a Tail without its value,
/// lowered when needed so that at least 10 samples lie beyond the reported
/// rank: rank r = ceil(pct/100 * n) leaves n - r beyond it. With fewer
/// than 11 samples no percentile qualifies and the maximum is reported
/// with `pct` 100. The reported rank is n - beyond.
inline Tail TailRank(int64_t n, double pct) {
  Tail out;
  out.n = n;
  if (n == 0) return out;
  int64_t rank = static_cast<int64_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < 10) rank = std::max<int64_t>(n - 10, 1);
  if (n < 11) rank = n;
  out.pct = 100.0 * rank / n;
  out.beyond = n - rank;
  return out;
}

/// TailRank's percentile of `v` (reordered in place).
inline Tail TailPercentile(std::vector<float>& v, double pct) {
  Tail out = TailRank(static_cast<int64_t>(v.size()), pct);
  if (v.empty()) return out;
  const int64_t rank = out.n - out.beyond;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  out.value = v[rank - 1];
  return out;
}

/// Order-preserving unsigned image of a float (negatives below positives).
inline uint32_t FloatKey(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

inline float KeyFloat(uint32_t k) {
  const uint32_t u = (k & 0x80000000u) ? (k & 0x7fffffffu) : ~k;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// TailPercentile over the union of `parts` without copying them: each
/// part is sorted in place, and the value of the wanted rank is found by
/// bisection over FloatKey, counting each part's samples at or below.
inline Tail PooledTail(const std::vector<std::vector<float>*>& parts,
                       double pct) {
  int64_t n = 0;
  for (std::vector<float>* p : parts) {
    std::sort(p->begin(), p->end(),
              [](float a, float b) { return FloatKey(a) < FloatKey(b); });
    n += static_cast<int64_t>(p->size());
  }
  Tail out = TailRank(n, pct);
  if (n == 0) return out;
  const int64_t rank = n - out.beyond;
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    int64_t at_or_below = 0;
    for (const std::vector<float>* p : parts) {
      at_or_below += std::upper_bound(p->begin(), p->end(), mid,
                                      [](uint32_t k, float v) {
                                        return k < FloatKey(v);
                                      }) -
                     p->begin();
    }
    if (at_or_below >= rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  out.value = KeyFloat(lo);
  return out;
}

/// Cumulative CPU time the hypervisor gave to other guests while this
/// machine's vCPUs wanted to run ("steal" on the first line of
/// /proc/stat, in USER_HZ ticks); 0 where it is not reported.
inline uint64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

/// The windows of an open-loop phase its latency percentiles are taken
/// over, given the CPU time stolen during each: every window without
/// stolen time, or, when fewer than a third are that quiet, the third
/// with the least (earlier windows first on ties). The choice never looks
/// at latency, so an engine stall counts wherever a kept window holds it.
inline std::vector<size_t> QuietWindows(const std::vector<uint64_t>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&steal](size_t a, size_t b) {
    return steal[a] < steal[b];
  });
  size_t keep = (steal.size() + 2) / 3;
  while (keep < order.size() && steal[order[keep]] == 0) ++keep;
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Upper quartile, interpolated like Python's statistics.quantiles(n=4)
/// in its default (exclusive) method.
inline double UpperQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  if (v.size() == 1) return v[0];
  std::sort(v.begin(), v.end());
  const double pos = 0.75 * (v.size() + 1) - 1;  // 0-based
  if (pos >= v.size() - 1) return v.back();
  const size_t i = static_cast<size_t>(pos);
  return v[i] + (pos - i) * (v[i + 1] - v[i]);
}

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Order-independent identity of one alert: detection time and every
/// RETURN value (the key is the first), bit-exact for doubles.
inline uint64_t AlertHash(const tpstream::Event& e) {
  using tpstream::ValueType;
  uint64_t h = Mix(static_cast<uint64_t>(e.t) + 0x9e3779b97f4a7c15ULL);
  for (const tpstream::Value& v : e.payload) {
    uint64_t x = static_cast<uint64_t>(v.type());
    switch (v.type()) {
      case ValueType::kInt:
        x ^= static_cast<uint64_t>(v.AsInt()) << 3;
        break;
      case ValueType::kDouble: {
        uint64_t bits;
        const double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        x ^= bits;
        break;
      }
      case ValueType::kBool:
        x ^= v.AsBool() ? 8 : 16;
        break;
      case ValueType::kString:
        for (char c : v.AsString()) x = Mix(x ^ static_cast<uint8_t>(c));
        break;
      default:
        break;
    }
    h = Mix(h ^ Mix(x + 0x632be59bd9b4e019ULL));
  }
  return h;
}

/// Multiset digest of alerts: per hash bucket, a count and a sum of
/// re-mixed hashes. Two multisets compare exactly when no bucket holds
/// more than one differing alert; otherwise the difference is a lower
/// bound on missing + extra.
struct Digest {
  static constexpr size_t kBuckets = 1024;
  std::array<int64_t, kBuckets> count{};
  std::array<uint64_t, kBuckets> sum{};

  void Add(uint64_t h) {
    const size_t b = h & (kBuckets - 1);
    ++count[b];
    sum[b] += Mix(h ^ 0x5851f42d4c957f2dULL);
  }
  int64_t total() const {
    int64_t n = 0;
    for (int64_t c : count) n += c;
    return n;
  }
  /// This multiset minus `older` (a digest of a prefix of the same
  /// alert sequence).
  Digest Minus(const Digest& older) const {
    Digest d;
    for (size_t b = 0; b < kBuckets; ++b) {
      d.count[b] = count[b] - older.count[b];
      d.sum[b] = sum[b] - older.sum[b];
    }
    return d;
  }
};

struct AlertDiff {
  int64_t missing = 0;
  int64_t extra = 0;
};

inline AlertDiff Compare(const Digest& want, const Digest& got) {
  AlertDiff d;
  for (size_t b = 0; b < Digest::kBuckets; ++b) {
    const int64_t delta = got.count[b] - want.count[b];
    if (delta > 0) d.extra += delta;
    if (delta < 0) d.missing -= delta;
    if (delta == 0 && got.sum[b] != want.sum[b]) {
      ++d.missing;
      ++d.extra;
    }
  }
  return d;
}

/// One timed call into a layer. `parent` indexes the enclosing span (-1
/// for a root); spans of one producer batch share `batch`.
struct Span {
  const char* name = "";
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;
  int32_t batch = -1;
};

/// In-memory span recorder for the producer thread; written out once the
/// run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  int32_t Begin(const char* name, int32_t parent = -1, int32_t batch = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, batch});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[id].end = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children (overlapping children count
/// once), summed over spans of the same name.
inline std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    int64_t covered = 0;
    int64_t lo = 0;
    int64_t hi = -1;
    for (const auto& [a0, b0] : k) {
      const int64_t a = std::max(a0, spans[i].start);
      const int64_t b = std::min(b0, spans[i].end);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[spans[i].name] += (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

/// Cheap timestamp for regions of tens of nanoseconds (one deriver step,
/// one callback): the TSC where there is one, else NowNs().
inline uint64_t Ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(NowNs());
#endif
}

/// Converts Ticks() differences to nanoseconds, net of the cost of
/// reading the counter twice.
struct TickClock {
  double ns_per_tick = 1;
  double pair_ticks = 0;

  static TickClock Calibrate() {
    TickClock c;
    const int64_t n0 = NowNs();
    const uint64_t t0 = Ticks();
    while (NowNs() - n0 < 20'000'000) {
    }
    c.ns_per_tick = (NowNs() - n0) / static_cast<double>(Ticks() - t0);
    constexpr int kReps = 100000;
    uint64_t total = 0;
    for (int i = 0; i < kReps; ++i) {
      const uint64_t a = Ticks();
      total += Ticks() - a;
    }
    c.pair_ticks = static_cast<double>(total) / kReps;
    return c;
  }
  /// Nanoseconds spent in `regions` timed regions totalling `ticks`.
  double Ns(uint64_t ticks, int64_t regions) const {
    return (static_cast<double>(ticks) - pair_ticks * regions) * ns_per_tick;
  }
};

}  // namespace e2e

#endif  // TPSTREAM_E2EBENCH_MEASURE_H_
