// Micro-benchmarks (google-benchmark) for the performance-critical
// building blocks: deriver, situation buffer range queries, the join core
// and the NFA substrate.
//
// `--metrics-json=FILE` (handled before google-benchmark sees the args)
// skips the benchmarks and instead runs a small fully instrumented
// workload, dumping the registry snapshot as JSON — the smoke input for
// cmake/check_metrics_json.cmake in CI.
//
// `--json=FILE` likewise skips the benchmarks and measures steady-state
// sequential ingestion (per-event Push and PushBatch) on the
// allocation-free profile, writing the "ingest" bench record that CI
// gates against the committed BENCH_ingest.json
// (cmake/check_bench_regression.cmake). Optional knobs: --events=N
// --warmup=N --latency-events=N.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/ingest_common.h"
#include "cep/nfa.h"
#include "core/operator.h"
#include "derive/deriver.h"
#include "matcher/low_latency_matcher.h"
#include "matcher/matcher.h"
#include "matcher/situation_buffer.h"
#include "obs/metrics.h"
#include "workload/synthetic.h"

namespace tpstream {
namespace {

void BM_DeriverThroughput(benchmark::State& state) {
  const int num_streams = static_cast<int>(state.range(0));
  SyntheticGenerator::Options gopts;
  gopts.num_streams = num_streams;
  SyntheticGenerator gen(gopts);
  std::vector<SituationDefinition> defs;
  for (int i = 0; i < num_streams; ++i) {
    defs.emplace_back("S" + std::to_string(i), FieldRef(i));
  }
  Deriver deriver(defs, /*announce_starts=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(deriver.Process(gen.Next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeriverThroughput)->Arg(1)->Arg(4)->Arg(10);

void BM_BufferRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SituationBuffer buffer;
  TimePoint t = 0;
  std::mt19937_64 rng(1);
  for (int i = 0; i < n; ++i) {
    const TimePoint ts = t + 1 + static_cast<TimePoint>(rng() % 20);
    const TimePoint te = ts + 1 + static_cast<TimePoint>(rng() % 50);
    buffer.Append(Situation({}, ts, te));
    t = te;
  }
  const Situation probe({}, t / 2, t / 2 + 40);
  for (auto _ : state) {
    const auto bounds =
        BoundsForCounterpart(Relation::kBefore, probe, /*fixed_is_a=*/false);
    benchmark::DoNotOptimize(buffer.Find(*bounds));
  }
}
BENCHMARK(BM_BufferRangeQuery)->Arg(1000)->Arg(100000);

void BM_BufferAppendPurge(benchmark::State& state) {
  SituationBuffer buffer;
  TimePoint t = 0;
  for (auto _ : state) {
    buffer.Append(Situation({}, t, t + 5));
    buffer.PurgeBefore(t - 1000);
    t += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferAppendPurge);

void BM_MatcherUpdate(benchmark::State& state) {
  // A before B on steadily arriving situations with a sliding window.
  TemporalPattern p({"A", "B"});
  (void)p.AddRelation(0, Relation::kBefore, 1);
  Matcher matcher(p, 2000, [](const Match&) {});
  TimePoint t = 0;
  int sym = 0;
  for (auto _ : state) {
    t += 17;
    matcher.Update({{sym, Situation({}, t, t + 9)}}, t + 9);
    sym ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatcherUpdate);

void BM_LowLatencyUpdate(benchmark::State& state) {
  TemporalPattern p({"A", "B"});
  (void)p.AddRelation(0, Relation::kOverlaps, 1);
  DetectionAnalysis analysis(p, std::vector<DurationConstraint>(2));
  LowLatencyMatcher matcher(p, analysis, 2000, [](const Match&) {});
  TimePoint t = 0;
  int sym = 0;
  for (auto _ : state) {
    t += 17;
    Situation ongoing({}, t, kTimeUnknown);
    matcher.Update({}, {{sym, Situation({}, t - 20, t)}}, t);
    matcher.Update({{sym ^ 1, ongoing}}, {}, t);
    sym ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LowLatencyUpdate);

void BM_NfaPush(benchmark::State& state) {
  cep::CepPattern p;
  const ExprPtr flag = FieldRef(0);
  p.steps.push_back(cep::PatternStep{"pre", Not(flag), false, {}});
  p.steps.push_back(cep::PatternStep{"body", flag, true, {}});
  p.steps.push_back(cep::PatternStep{"post", Not(flag), false, {}});
  cep::NfaEngine engine(p, nullptr);
  SyntheticGenerator::Options gopts;
  gopts.num_streams = 1;
  SyntheticGenerator gen(gopts);
  for (auto _ : state) {
    engine.Push(gen.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NfaPush);

void BM_ExpressionEval(benchmark::State& state) {
  // The speeding predicate of Listing 1.
  const ExprPtr pred = Gt(FieldRef(1, "speed"), Literal(70.0));
  const Tuple tuple = {Value(int64_t{7}), Value(82.0), Value(0.4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPredicate(*pred, tuple));
  }
}
BENCHMARK(BM_ExpressionEval);

int RunMetricsSmoke(const std::string& path) {
  // Small instrumented end-to-end run: the full operator stack on the
  // Figure 7 pattern, every metric live.
  TemporalPattern pattern({"A", "B", "C"});
  (void)pattern.AddRelation(0, Relation::kBefore, 1);
  (void)pattern.AddRelation(1, Relation::kOverlaps, 2);
  obs::MetricsRegistry registry;
  TPStreamOperator::Options options;
  options.metrics = &registry;
  TPStreamOperator op(bench::SyntheticSpec(3, pattern, /*window=*/5000),
                      options, nullptr);
  SyntheticGenerator::Options gopts;
  gopts.num_streams = 3;
  SyntheticGenerator gen(gopts);
  for (int i = 0; i < 20000; ++i) op.Push(gen.Next());

  const std::string json = registry.Snapshot().ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("metrics JSON (%zu bytes, %lld matches) written to %s\n",
              json.size(), static_cast<long long>(op.num_matches()),
              path.c_str());
  return 0;
}

int RunIngestBench(const bench::Flags& flags) {
  const int64_t events = flags.GetInt("events", 1000000);
  const int64_t warmup = flags.GetInt("warmup", 50000);
  const int64_t latency_events = flags.GetInt("latency-events", 200000);

  // The allocation-free profile (see tests/ingest_test.cc): connected
  // "A before B" on two boolean streams, no aggregates, no metrics, no
  // adaptive re-planning (the controller's re-optimization allocates).
  TemporalPattern pattern({"A", "B"});
  (void)pattern.AddRelation(0, Relation::kBefore, 1);
  const QuerySpec spec = bench::SyntheticSpec(2, pattern, /*window=*/150);
  TPStreamOperator::Options options;
  options.adaptive = false;

  std::vector<std::pair<std::string, bench::IngestMeasurement>> runs;
  {
    TPStreamOperator op(spec, options, /*output=*/nullptr);
    SyntheticGenerator gen({.num_streams = 2, .seed = 9});
    runs.emplace_back("micro_push", bench::MeasureIngest(
                                        op, gen, warmup, events,
                                        latency_events));
  }
  {
    TPStreamOperator op(spec, options, /*output=*/nullptr);
    SyntheticGenerator gen({.num_streams = 2, .seed = 9});
    runs.emplace_back("micro_push_batch",
                      bench::MeasureIngest(op, gen, warmup, events,
                                           latency_events,
                                           /*batch_size=*/256));
  }
  for (const auto& [name, m] : runs) {
    bench::PrintIngestLine(name.c_str(), m);
  }
  return bench::WriteIngestRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

}  // namespace
}  // namespace tpstream

int main(int argc, char** argv) {
  // Intercept --metrics-json / --json before benchmark::Initialize
  // (which rejects flags it does not know).
  const tpstream::bench::Flags flags(argc, argv);
  if (flags.Has("json")) return tpstream::RunIngestBench(flags);
  constexpr const char kFlag[] = "--metrics-json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      return tpstream::RunMetricsSmoke(argv[i] + sizeof(kFlag) - 1);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
