// Multi-query scaling benchmark backing BENCH_multiquery.json: N standing
// queries over one stream, executed shared (one multi-query
// TPStreamOperator: deduplicated situation derivation, fan-out only on
// situation boundaries) versus unshared (N independent TPStreamOperators,
// each deriving every event).
// Sweeps N in {1, 100} for identical and distinct query mixes, plus
// N = 10000 identical where the shared engine is measured and the
// unshared side is extrapolated from the N = 100 run (unshared cost per
// input event is linear in N — running 10000 independent operators just
// to prove it would dominate CI time).
//
// The shared runs double as a correctness check: every query's match
// count must equal its unshared twin's (the differential suite pins the
// stronger byte-identical guarantee; here it guards the measured code
// path).
//
// `--json=FILE` writes the "multiquery" bench record, gated against the
// committed BENCH_multiquery.json by cmake/check_bench_regression.cmake:
// per-run throughput floors plus the headline invariant that at
// N = 10000 identical queries the shared engine sustains >= 5x the
// unshared events/sec.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
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

Schema SensorSchema() {
  return Schema({Field{"flag_a", ValueType::kBool},
                 Field{"flag_b", ValueType::kBool},
                 Field{"level", ValueType::kDouble}});
}

/// Three-symbol query; `threshold` varies the B predicate, so a distinct
/// mix shares A and C across all queries but derives each B separately.
QuerySpec MakeSpec(double threshold) {
  QueryBuilder qb(SensorSchema());
  qb.Define("A", FieldRef(0, "flag_a"))
      .Define("B", Gt(FieldRef(2, "level"), Literal(threshold)))
      .Define("C", FieldRef(1, "flag_b"))
      .Relate("A", {Relation::kOverlaps, Relation::kMeets}, "B")
      .Relate("B", {Relation::kOverlaps, Relation::kBefore}, "C")
      .Within(64)
      .Return("n_a", "A", AggKind::kCount)
      .Return("avg", "B", AggKind::kAvg, "level");
  auto spec = qb.Build();
  if (!spec.ok()) {
    std::fprintf(stderr, "query build failed: %s\n",
                 spec.status().ToString().c_str());
    std::exit(1);
  }
  return spec.value();
}

/// Piecewise-constant signals: flags flip and the level re-levels with
/// small probability per tick, so situation boundaries (the events that
/// trigger per-query fan-out work) stay sparse — the regime the shared
/// engine is built for. Every event still costs each UNSHARED operator a
/// full derivation pass, which is exactly the advantage under test. A
/// scripted A-B-C episode every 500 ticks guarantees real matches (and
/// match-path work) for every threshold in the sweep.
std::vector<Event> MakeWorkload(TimePoint horizon, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution flip(0.005);
  std::uniform_real_distribution<double> level(0.0, 10.0);
  bool a = false;
  bool b = false;
  double v = 5.0;
  std::vector<Event> events;
  events.reserve(horizon);
  for (TimePoint t = 1; t <= horizon; ++t) {
    if (flip(rng)) a = !a;
    if (flip(rng)) b = !b;
    if (flip(rng)) v = level(rng);
    const TimePoint phase = t % 500;
    const bool ep_a = phase >= 1 && phase < 9;
    const bool ep_b = phase >= 5 && phase < 15;
    const bool ep_c = phase >= 11 && phase < 21;
    events.push_back(Event({Value(a || ep_a), Value(b || ep_c),
                            Value(ep_b ? 10.9 : v)},
                           t));
  }
  return events;
}

std::vector<double> Thresholds(int n, bool identical) {
  std::vector<double> thresholds;
  thresholds.reserve(n);
  for (int i = 0; i < n; ++i) {
    thresholds.push_back(identical ? 5.0 : 0.5 + (i % 97) * 0.1);
  }
  return thresholds;
}

struct RunResult {
  std::string name;
  int queries = 0;
  int64_t events = 0;
  double elapsed_s = 0;
  double events_per_sec = 0;
  int64_t matches_q0 = 0;
  int distinct_definitions = 0;
  bool extrapolated = false;
};

RunResult RunShared(const std::string& name,
                    const std::vector<double>& thresholds,
                    const std::vector<Event>& events) {
  std::vector<int64_t> matches(thresholds.size(), 0);
  std::vector<TPStreamOperator::Query> queries;
  for (size_t i = 0; i < thresholds.size(); ++i) {
    queries.push_back({MakeSpec(thresholds[i]),
                       [&matches, i](const Event&) { ++matches[i]; }});
  }
  // Construction stays out of the measured window.
  auto shared = TPStreamOperator::Create(std::move(queries), {});
  if (!shared.ok()) {
    std::fprintf(stderr, "Create failed: %s\n",
                 shared.status().ToString().c_str());
    std::exit(1);
  }
  TPStreamOperator& op = *shared.value();

  const int64_t start = NowNs();
  for (const Event& e : events) op.Push(e);
  op.Flush();
  const int64_t elapsed = NowNs() - start;

  RunResult r;
  r.name = name;
  r.queries = static_cast<int>(thresholds.size());
  r.events = static_cast<int64_t>(events.size());
  r.elapsed_s = static_cast<double>(elapsed) * 1e-9;
  r.events_per_sec = static_cast<double>(events.size()) / r.elapsed_s;
  r.matches_q0 = matches[0];
  r.distinct_definitions = op.num_distinct_definitions();
  // Guard the measured path: every identical query must agree with
  // query 0 (the differential tests pin the stronger guarantee).
  for (size_t i = 1; i < thresholds.size(); ++i) {
    if (thresholds[i] == thresholds[0] && matches[i] != matches[0]) {
      std::fprintf(stderr, "%s: query %zu found %lld matches, query 0 %lld\n",
                   name.c_str(), i, static_cast<long long>(matches[i]),
                   static_cast<long long>(matches[0]));
      std::exit(1);
    }
  }
  return r;
}

RunResult RunUnshared(const std::string& name,
                      const std::vector<double>& thresholds,
                      const std::vector<Event>& events) {
  std::vector<int64_t> matches(thresholds.size(), 0);
  std::vector<std::unique_ptr<TPStreamOperator>> ops;
  ops.reserve(thresholds.size());
  for (size_t i = 0; i < thresholds.size(); ++i) {
    ops.push_back(std::make_unique<TPStreamOperator>(
        MakeSpec(thresholds[i]), TPStreamOperator::Options{},
        [&matches, i](const Event&) { ++matches[i]; }));
  }

  const int64_t start = NowNs();
  for (const Event& e : events) {
    for (auto& op : ops) op->Push(e);
  }
  for (auto& op : ops) op->Flush();
  const int64_t elapsed = NowNs() - start;

  RunResult r;
  r.name = name;
  r.queries = static_cast<int>(thresholds.size());
  r.events = static_cast<int64_t>(events.size());
  r.elapsed_s = static_cast<double>(elapsed) * 1e-9;
  r.events_per_sec = static_cast<double>(events.size()) / r.elapsed_s;
  r.matches_q0 = matches[0];
  // Each operator derives its query's full definition set.
  r.distinct_definitions = static_cast<int>(thresholds.size()) * 3;
  return r;
}

/// The headline sharing floor: at N = 10000 identical queries the shared
/// engine sustains >= 5x the unshared events/sec.
constexpr int kSharingFloorPct = 500;

bool WriteRecord(const std::string& path, const std::vector<RunResult>& runs) {
  BenchRecord rec("multiquery");
  for (const RunResult& r : runs) {
    rec.Set(r.name, "queries", r.queries);
    rec.Set(r.name, "events", r.events);
    rec.Set(r.name, "elapsed_s", r.elapsed_s);
    rec.Set(r.name, "events_per_sec", r.events_per_sec);
    rec.Set(r.name, "matches_per_query", r.matches_q0);
    rec.Set(r.name, "distinct_definitions", r.distinct_definitions);
    rec.Set(r.name, "extrapolated", r.extrapolated);
    rec.Floor(r.name, "events_per_sec", kThroughputFloorPct);
  }
  rec.Check({.name = "sharing floor",
             .value = {"n10000.identical.shared", "events_per_sec"},
             .over = {"n10000.identical.unshared", "events_per_sec"},
             .min_pct = kSharingFloorPct});
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Horizons sized so unshared N=100 and shared N=10000 each stay in
  // low single-digit seconds on a laptop-class core.
  const TimePoint h_small = flags.GetInt("horizon-small", 200000);
  const TimePoint h_mid = flags.GetInt("horizon-mid", 20000);

  std::vector<RunResult> runs;
  std::printf("%-28s %9s %8s %12s %10s %6s\n", "run", "queries", "events",
              "evt/s", "matches/q", "defs");
  auto report = [&](RunResult r) {
    std::printf("%-28s %9d %8lld %12.0f %10lld %6d%s\n", r.name.c_str(),
                r.queries, static_cast<long long>(r.events),
                r.events_per_sec, static_cast<long long>(r.matches_q0),
                r.distinct_definitions,
                r.extrapolated ? "  (extrapolated)" : "");
    runs.push_back(std::move(r));
  };

  const std::vector<Event> small = MakeWorkload(h_small, 41);
  // The N = 100 and N = 10000 configurations share one workload so the
  // extrapolated unshared run is commensurable with the measured shared
  // one.
  const std::vector<Event> mid = MakeWorkload(h_mid, 42);

  // N = 1: sharing must not tax the single-query path.
  report(RunShared("n1.identical.shared", Thresholds(1, true), small));
  report(RunUnshared("n1.identical.unshared", Thresholds(1, true), small));

  // N = 100, identical and distinct mixes, both sides measured.
  report(RunShared("n100.identical.shared", Thresholds(100, true), mid));
  report(
      RunUnshared("n100.identical.unshared", Thresholds(100, true), mid));
  report(RunShared("n100.distinct.shared", Thresholds(100, false), mid));
  report(
      RunUnshared("n100.distinct.unshared", Thresholds(100, false), mid));

  // Headline: N = 10000 identical. Shared is measured; unshared is
  // extrapolated from the N = 100 run (its per-input-event cost is
  // linear in N: every operator derives every event).
  report(
      RunShared("n10000.identical.shared", Thresholds(10000, true), mid));
  {
    const RunResult& base = runs[3];  // n100.identical.unshared
    RunResult r;
    r.name = "n10000.identical.unshared";
    r.queries = 10000;
    r.events = base.events;
    r.events_per_sec = base.events_per_sec * (100.0 / 10000.0);
    r.elapsed_s = static_cast<double>(r.events) / r.events_per_sec;
    r.matches_q0 = base.matches_q0;
    r.distinct_definitions = 10000 * 3;
    r.extrapolated = true;
    report(std::move(r));
  }

  const double shared_eps = runs[runs.size() - 2].events_per_sec;
  const double unshared_eps = runs.back().events_per_sec;
  std::printf("\nn10000 identical: shared %.0f evt/s vs unshared %.0f "
              "(extrapolated) — %.1fx\n",
              shared_eps, unshared_eps, shared_eps / unshared_eps);

  return WriteRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) { return tpstream::bench::Main(argc, argv); }
