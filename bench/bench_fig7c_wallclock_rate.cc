// Figure 7(c): result latency split into processing latency and event
// latency for event rates from 1M/s down to 1/s, window fixed
// (Section 6.3.2). Rates are virtual (DESIGN.md substitution 4): the
// processing latency is measured once at max rate, while the event
// latency converts the measured application-time trigger gap with the
// configured rate. At 1 event/s the gap equals application time, which is
// where ISEQ's event latency dominates and TPStream introduces none.
// Flags: --events=N --window=SECONDS --metrics-json=FILE
//
// `--json=FILE` skips the latency experiment and instead measures
// steady-state ingestion of the same disconnected pattern at max rate,
// writing the "ingest" bench record (run "fig7c_push") that CI gates
// against BENCH_ingest.json (cmake/check_bench_regression.cmake).
#include <utility>
#include <vector>

#include "bench/ingest_common.h"
#include "bench/latency_common.h"

namespace tpstream {
namespace bench {
namespace {

int RunIngest(const Flags& flags) {
  const int64_t events = flags.GetInt("events", 1000000);
  const Duration window = flags.GetInt("window", 100000);
  const QuerySpec spec = SyntheticSpec(3, LatencyPattern(), window);
  TPStreamOperator::Options options;
  options.adaptive = false;
  TPStreamOperator op(spec, options, /*output=*/nullptr);
  SyntheticGenerator::Options gopts;
  gopts.num_streams = 3;
  SyntheticGenerator gen(gopts);
  std::vector<std::pair<std::string, IngestMeasurement>> runs;
  runs.emplace_back(
      "fig7c_push",
      MeasureIngest(op, gen, flags.GetInt("warmup", 50000), events,
                    flags.GetInt("latency-events", 200000)));
  PrintIngestLine("fig7c_push", runs.back().second);
  return WriteIngestRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("json")) return RunIngest(flags);
  const int64_t events = flags.GetInt("events", 1000000);
  const Duration window = flags.GetInt("window", 100000);

  std::printf(
      "# Figure 7(c): latency split at varying event rates, window=%lld s\n"
      "# events=%lld, pattern A before B overlaps C\n"
      "# columns: rate_evt_s  system  processing_ms  event_ms  total_ms\n",
      static_cast<long long>(window), static_cast<long long>(events));

  const LatencyRun tps = MeasureTpstream(events, window);
  const LatencyRun iseq = MeasureIseq(events, window);

  const double rates[] = {1e6, 1e4, 1e2, 1.0};
  for (double rate : rates) {
    auto report = [&](const char* name, const LatencyRun& run) {
      const double event_ms = run.avg_event_gap_s / rate * 1000.0;
      std::printf("%10.0f  %-9s %13.4f %12.4f %12.4f\n", rate, name,
                  run.avg_processing_ms, event_ms,
                  run.avg_processing_ms + event_ms);
    };
    report("tpstream", tps);
    report("iseq", iseq);
  }
  std::printf(
      "# expected shape (paper): tpstream's event latency is zero at every\n"
      "# rate; iseq's event latency grows as the rate drops and dominates\n"
      "# at 1 event/s (approaching the application-time gain of Fig 7a).\n"
      "# avg application-time trigger gap: tpstream=%.1f s, iseq=%.1f s\n",
      tps.avg_event_gap_s, iseq.avg_event_gap_s);
  PrintHistogramLine("tpstream processing_us", tps.processing_us());
  PrintHistogramLine("iseq processing_us", iseq.processing_us());
  PrintHistogramLine("tpstream event_gap_ticks", tps.event_gap_ticks());
  PrintHistogramLine("iseq event_gap_ticks", iseq.event_gap_ticks());
  MaybeWriteMetricsJson(flags, tps.metrics);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) { return tpstream::bench::Run(argc, argv); }
