#ifndef TPSTREAM_BENCH_BENCH_UTIL_H_
#define TPSTREAM_BENCH_BENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/query_spec.h"
#include "expr/simd.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "workload/linear_road.h"
#include "workload/synthetic.h"

namespace tpstream {
namespace bench {

/// Minimal --key=value flag parsing for the figure harnesses.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

 private:
  std::unordered_map<std::string, std::string> values_;
};

/// One table line summarizing a latency histogram snapshot (application
/// or wall time; the unit is the caller's).
inline void PrintHistogramLine(const char* label,
                               const obs::HistogramSnapshot& h) {
  std::printf("# %-32s count=%-9lld p50=%-8lld p95=%-8lld p99=%-8lld "
              "max=%lld\n",
              label, static_cast<long long>(h.count),
              static_cast<long long>(h.Quantile(50)),
              static_cast<long long>(h.Quantile(95)),
              static_cast<long long>(h.Quantile(99)),
              static_cast<long long>(h.max));
}

/// Writes `snapshot` as JSON to the file named by --metrics-json, if the
/// flag was given (the machine-readable counterpart of the printed
/// tables; CI validates the schema with cmake/check_metrics_json.cmake).
inline bool MaybeWriteMetricsJson(const Flags& flags,
                                  const obs::MetricsSnapshot& snapshot) {
  const std::string path = flags.GetString("metrics-json", "");
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string json = snapshot.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("# metrics JSON written to %s\n", path.c_str());
  return true;
}

/// Shared regression thresholds of the bench gate
/// (cmake/check_bench_regression.cmake). They are generous on purpose:
/// shared CI machines are noisy, so the gate catches regressions (an
/// allocation back on the hot path, a 2x slowdown, a collapsed hand-off),
/// not variance. A bench-specific floor lives in the bench that states it.
inline constexpr int kThroughputFloorPct = 70;      // evt/s: at most -30%
inline constexpr double kAllocSlackPerEvent = 0.5;  // alloc/event: +0.5
inline constexpr int kP99CeilingPct = 500;          // latency p99: 5x
inline constexpr int kRingFullCeilingPct = 500;     // ring_full: 5x ...
inline constexpr double kRingFullSlack = 1000;      // ... + 1000

/// CPUs this process may run on: the affinity mask (taskset, cpusets)
/// where the platform has one, else hardware_concurrency().
inline int UsableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return CPU_COUNT(&set);
  }
#endif
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One bench result in the `tpstream-bench-v3` format, the only format
/// cmake/check_bench_regression.cmake reads. A record holds flat numeric
/// metrics per run (nested values are flattened, e.g. "push_ns.p99") plus
/// every check the gate applies to it, so the pass rule of a bench lives
/// in the bench alone:
///  - gates compare a fresh metric with the committed baseline's:
///    a floor passes when fresh >= base * pct/100, a ceiling when
///    fresh <= base * pct/100 + slack;
///  - invariants check the fresh document alone: one metric, or the
///    ratio of two, times 100 against an integer-percent min and/or max.
///    An invariant that does not apply on this machine carries a `skip`
///    reason instead of a verdict.
class BenchRecord {
 public:
  struct MetricRef {
    std::string run;
    std::string metric;
  };
  // Default member initializers let callers name only the fields they
  // set ({.name = ..., .value = ..., .max_pct = 0}) without -Wextra noise.
  struct Invariant {
    std::string name = {};
    MetricRef value = {};
    MetricRef over = {};  // ratio denominator; empty run: `value` alone
    std::optional<int> min_pct = {};
    std::optional<int> max_pct = {};
    std::string skip = {};  // non-empty: not evaluated here, and why
  };

  explicit BenchRecord(std::string bench) : bench_(std::move(bench)) {}

  int cpus = UsableCpus();  // of the measuring process
  /// SIMD tier the columnar kernels dispatch to.
  std::string simd_level = simd::SimdLevelName(simd::DefaultSimdLevel());

  /// Sets `run`.`metric`; runs and metrics keep their insertion order.
  template <typename T>
  void Set(const std::string& run, const std::string& metric, T value) {
    static_assert(std::is_arithmetic_v<T>, "metrics are numbers");
    auto it = std::find_if(runs_.begin(), runs_.end(),
                           [&](const auto& r) { return r.first == run; });
    if (it == runs_.end()) it = runs_.insert(runs_.end(), {run, {}});
    it->second.emplace_back(metric, static_cast<double>(value));
  }
  /// Flattens a latency histogram into `prefix`.{count,p50,p95,p99,max}.
  void SetHistogram(const std::string& run, const std::string& prefix,
                    const obs::HistogramSnapshot& h) {
    Set(run, prefix + ".count", h.count);
    for (const int q : {50, 95, 99}) {
      Set(run, prefix + ".p" + std::to_string(q), h.Quantile(q));
    }
    Set(run, prefix + ".max", h.max);
  }

  void Floor(const std::string& run, const std::string& metric, int pct) {
    gates_.push_back("{\"run\": " + Quote(run) + ", \"metric\": " +
                     Quote(metric) +
                     ", \"floor_pct\": " + std::to_string(pct) + "}");
  }
  void Ceiling(const std::string& run, const std::string& metric, int pct,
               double slack) {
    gates_.push_back("{\"run\": " + Quote(run) + ", \"metric\": " +
                     Quote(metric) + ", \"ceiling_pct\": " +
                     std::to_string(pct) + ", \"slack\": " + Number(slack) +
                     "}");
  }
  void Check(const Invariant& inv) {
    auto ref = [](const MetricRef& m) {
      return "[" + Quote(m.run) + ", " + Quote(m.metric) + "]";
    };
    std::string json = "{\"name\": " + Quote(inv.name) +
                       ", \"value\": " + ref(inv.value);
    if (!inv.over.run.empty()) json += ", \"over\": " + ref(inv.over);
    if (inv.min_pct) json += ", \"min_pct\": " + std::to_string(*inv.min_pct);
    if (inv.max_pct) json += ", \"max_pct\": " + std::to_string(*inv.max_pct);
    if (!inv.skip.empty()) json += ", \"skip\": " + Quote(inv.skip);
    invariants_.push_back(json + "}");
  }

  /// Writes the record to `path` (no-op success when empty).
  bool Write(const std::string& path) const {
    if (path.empty()) return true;
    std::string out = "{\n  \"schema\": \"tpstream-bench-v3\",\n"
                      "  \"bench\": " + Quote(bench_) +
                      ",\n  \"cpus\": " + std::to_string(cpus) +
                      ",\n  \"simd_level\": " + Quote(simd_level) +
                      ",\n  \"runs\": {";
    for (size_t i = 0; i < runs_.size(); ++i) {
      out += (i == 0 ? "\n    " : ",\n    ") + Quote(runs_[i].first) + ": {";
      const auto& metrics = runs_[i].second;
      for (size_t j = 0; j < metrics.size(); ++j) {
        out += (j == 0 ? "\n      " : ",\n      ") + Quote(metrics[j].first) +
               ": " + Number(metrics[j].second);
      }
      out += "\n    }";
    }
    out += "\n  },\n  \"gates\": [" + JoinLines(gates_) +
           "],\n  \"invariants\": [" + JoinLines(invariants_) + "]\n}\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    const bool written = std::fwrite(out.data(), 1, out.size(), f) ==
                         out.size();
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("# %s record written to %s\n", bench_.c_str(), path.c_str());
    return true;
  }

 private:
  static std::string Quote(const std::string& s) { return "\"" + s + "\""; }
  /// Shortest round-trip decimal, never exponent notation; JSON has no
  /// NaN/inf, so those become null (which the gate rejects).
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[512];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
    return std::string(buf, res.ptr);
  }
  static std::string JoinLines(const std::vector<std::string>& items) {
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i == 0 ? "\n    " : ",\n    ") + items[i];
    }
    return items.empty() ? out : out + "\n  ";
  }

  std::string bench_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      runs_;
  std::vector<std::string> gates_;
  std::vector<std::string> invariants_;
};

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times fn() and returns elapsed milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const double start = NowMs();
  fn();
  return NowMs() - start;
}

inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * (values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - lo;
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Routes events of an unpartitioned operator type by an integer key
/// field — used to give the baseline operators the same PARTITION BY
/// semantics the TPStream operator provides natively.
template <typename Op>
class PartitionedBy {
 public:
  PartitionedBy(int key_field, std::function<std::unique_ptr<Op>()> factory)
      : key_field_(key_field), factory_(std::move(factory)) {}

  void Push(const Event& e) {
    auto& slot = partitions_[e.payload[key_field_].AsInt()];
    if (slot == nullptr) slot = factory_();
    slot->Push(e);
  }

  int64_t num_matches() const {
    int64_t total = 0;
    for (const auto& [k, op] : partitions_) total += op->num_matches();
    return total;
  }
  size_t BufferedCount() const {
    size_t total = 0;
    for (const auto& [k, op] : partitions_) total += op->BufferedCount();
    return total;
  }

 private:
  int key_field_;
  std::function<std::unique_ptr<Op>()> factory_;
  std::unordered_map<int64_t, std::unique_ptr<Op>> partitions_;
};

/// Thresholds for the aggressive-driver query, calibrated like the paper
/// (Section 6.2.1): p99 of speed, p90 / p10 of acceleration.
struct DriverThresholds {
  double speed;
  double accel;
  double decel;
};

inline DriverThresholds CalibrateThresholds(
    const LinearRoadGenerator::Options& options, int sample = 50000) {
  // Like the paper: p99 of speed, p90 of the positive acceleration values
  // and p90 of the negative ones (in magnitude).
  LinearRoadGenerator gen(options);
  std::vector<double> speeds;
  std::vector<double> pos_accel;
  std::vector<double> neg_accel;
  for (int i = 0; i < sample; ++i) {
    const Event e = gen.Next();
    speeds.push_back(e.payload[LinearRoadGenerator::kSpeed].ToDouble());
    const double a = e.payload[LinearRoadGenerator::kAccel].ToDouble();
    if (a > 0) pos_accel.push_back(a);
    if (a < 0) neg_accel.push_back(-a);
  }
  return DriverThresholds{Percentile(speeds, 99.0),
                          Percentile(pos_accel, 90.0),
                          -Percentile(neg_accel, 90.0)};
}

/// Situation definitions of the aggressive-driver query (A acceleration,
/// B speeding, C deceleration), without duration constraints as in the
/// processing-time experiments of Section 6.2.1.
inline std::vector<SituationDefinition> DriverDefinitions(
    const Schema& schema, const DriverThresholds& thresholds) {
  const int speed = schema.IndexOf("speed");
  const int accel = schema.IndexOf("accel");
  return {
      SituationDefinition(
          "A", Gt(FieldRef(accel, "accel"), Literal(thresholds.accel))),
      SituationDefinition(
          "B", Gt(FieldRef(speed, "speed"), Literal(thresholds.speed))),
      SituationDefinition(
          "C", Lt(FieldRef(accel, "accel"), Literal(thresholds.decel))),
  };
}

/// The full aggressive-driver pattern (Listing 1) and the simplified
/// variant restricted to meets/overlaps (Section 6.2.1).
inline TemporalPattern DriverPattern(bool simplified) {
  TemporalPattern p({"A", "B", "C"});
  if (simplified) {
    (void)p.AddRelation(0, Relation::kMeets, 1);
    (void)p.AddRelation(0, Relation::kOverlaps, 1);
    (void)p.AddRelation(1, Relation::kMeets, 2);
    (void)p.AddRelation(1, Relation::kOverlaps, 2);
  } else {
    for (Relation r : {Relation::kMeets, Relation::kOverlaps,
                       Relation::kStarts, Relation::kDuring}) {
      (void)p.AddRelation(0, r, 1);
    }
    (void)p.AddRelation(2, Relation::kDuring, 1);
    for (Relation r :
         {Relation::kFinishes, Relation::kOverlaps, Relation::kMeets}) {
      (void)p.AddRelation(1, r, 2);
    }
    (void)p.AddRelation(0, Relation::kBefore, 2);
  }
  return p;
}

/// Boolean situation definitions s0..s(n-1) for the synthetic generator.
inline std::vector<SituationDefinition> SyntheticDefinitions(int n) {
  std::vector<SituationDefinition> defs;
  defs.reserve(n);
  for (int i = 0; i < n; ++i) {
    defs.emplace_back("S" + std::to_string(i),
                      FieldRef(i, "s" + std::to_string(i)));
  }
  return defs;
}

/// QuerySpec wrapper for matcher-only experiments on synthetic streams.
inline QuerySpec SyntheticSpec(int n, TemporalPattern pattern,
                               Duration window) {
  QuerySpec spec;
  std::vector<Field> fields;
  for (int i = 0; i < n; ++i) {
    fields.push_back(Field{"s" + std::to_string(i), ValueType::kBool});
  }
  spec.input_schema = Schema(fields);
  spec.definitions = SyntheticDefinitions(n);
  spec.pattern = std::move(pattern);
  spec.window = window;
  return spec;
}

}  // namespace bench
}  // namespace tpstream

#endif  // TPSTREAM_BENCH_BENCH_UTIL_H_
