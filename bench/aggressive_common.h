#ifndef TPSTREAM_BENCH_AGGRESSIVE_COMMON_H_
#define TPSTREAM_BENCH_AGGRESSIVE_COMMON_H_

// Shared implementation of the aggressive-driver processing-time
// experiments (Figure 5 a/b of the paper): the Listing-1 query over
// Linear-Road-style trip data, executed by TPStream, ISEQ and the two
// straw-man baselines, with events pushed at the maximum possible rate.
//
// Methodology follows Section 6.1: event generation time is measured
// upfront and subtracted; every engine consumes the identical stream
// (same generator seed); thresholds are percentile-calibrated.

#include <cstdio>

#include "baselines/iseq.h"
#include "baselines/strawman.h"
#include "bench/bench_util.h"
#include "core/operator.h"

namespace tpstream {
namespace bench {

inline cep::CepPattern EventLevelDriverPattern(const Schema& schema,
                                               const DriverThresholds& th) {
  // The single-query event-granularity encoding sketched in Section 1:
  // [accel]+ [speeding]+ [braking], contiguity glues the phases together.
  // Aggregates and duration constraints are lost (the paper's point).
  const ExprPtr accel =
      Gt(FieldRef(schema.IndexOf("accel"), "accel"), Literal(th.accel));
  const ExprPtr speed =
      Gt(FieldRef(schema.IndexOf("speed"), "speed"), Literal(th.speed));
  const ExprPtr decel =
      Lt(FieldRef(schema.IndexOf("accel"), "accel"), Literal(th.decel));
  cep::CepPattern p;
  p.steps.push_back(cep::PatternStep{"accel", accel, true, {}});
  p.steps.push_back(cep::PatternStep{"speeding", speed, true, {}});
  p.steps.push_back(cep::PatternStep{"braking", decel, false, {}});
  p.within = 300;
  return p;
}

inline int RunAggressiveBenchmark(int argc, char** argv, bool simplified) {
  const Flags flags(argc, argv);
  const int64_t max_events = flags.GetInt("events", 1000000);
  const int cars = static_cast<int>(flags.GetInt("cars", 1000));
  const Duration window = flags.GetInt("window", 300);
  const bool run_strawmen = !flags.Has("no-strawmen");

  LinearRoadGenerator::Options lr;
  lr.num_cars = cars;
  const DriverThresholds th = CalibrateThresholds(lr);
  LinearRoadGenerator probe(lr);
  const Schema schema = probe.schema();

  std::printf(
      "# Figure 5(%s): aggressive-driver detection, %s pattern\n"
      "# cars=%d window=%llds thresholds: speed>%.1f accel>%.2f accel<%.2f\n"
      "# columns: events  system  time_ms  kevents_s  matches  buffered\n",
      simplified ? "a" : "b", simplified ? "simplified" : "full", cars,
      static_cast<long long>(window), th.speed, th.accel, th.decel);

  std::vector<int64_t> sizes;
  for (int64_t n = max_events / 8; n <= max_events; n *= 2) {
    sizes.push_back(n);
  }

  for (int64_t n : sizes) {
    // Generation cost, subtracted from every system's measurement.
    double gen_ms = TimeMs([&] {
      LinearRoadGenerator gen(lr);
      for (int64_t i = 0; i < n; ++i) gen.Next();
    });

    auto report = [&](const char* name, double total_ms, int64_t matches,
                      size_t buffered) {
      const double ms = std::max(total_ms - gen_ms, 0.001);
      std::printf("%10lld  %-10s %10.1f %10.0f %9lld %9zu\n",
                  static_cast<long long>(n), name, ms, n / ms,
                  static_cast<long long>(matches), buffered);
      std::fflush(stdout);
    };

    {
      QuerySpec spec;
      spec.input_schema = schema;
      spec.definitions = DriverDefinitions(schema, th);
      spec.pattern = DriverPattern(simplified);
      spec.window = window;
      spec.partition_field = schema.IndexOf("car_id");
      TPStreamOperator op(spec, {}, nullptr);
      LinearRoadGenerator gen(lr);
      const double ms =
          TimeMs([&] { for (int64_t i = 0; i < n; ++i) op.Push(gen.Next()); });
      report("tpstream", ms, op.num_matches(), op.BufferedCount());
    }
    {
      PartitionedBy<IseqOperator> op(
          schema.IndexOf("car_id"), [&] {
            return std::make_unique<IseqOperator>(
                DriverDefinitions(schema, th), DriverPattern(simplified),
                window, nullptr);
          });
      LinearRoadGenerator gen(lr);
      const double ms =
          TimeMs([&] { for (int64_t i = 0; i < n; ++i) op.Push(gen.Next()); });
      report("iseq", ms, op.num_matches(), op.BufferedCount());
    }
    if (run_strawmen) {
      PartitionedBy<TwoPhaseMatcher> op(
          schema.IndexOf("car_id"), [&] {
            return std::make_unique<TwoPhaseMatcher>(
                DriverDefinitions(schema, th), DriverPattern(simplified),
                window, nullptr);
          });
      LinearRoadGenerator gen(lr);
      const double ms =
          TimeMs([&] { for (int64_t i = 0; i < n; ++i) op.Push(gen.Next()); });
      report("esper1", ms, op.num_matches(), op.BufferedCount());
    }
    if (run_strawmen && simplified) {
      // Event-granularity single query (Esper-2 / SASE+ style); only the
      // simplified pattern is expressible without disjunctions.
      PartitionedBy<SingleRunMatcher> op(
          schema.IndexOf("car_id"), [&] {
            return std::make_unique<SingleRunMatcher>(
                EventLevelDriverPattern(schema, th), nullptr);
          });
      LinearRoadGenerator gen(lr);
      const double ms =
          TimeMs([&] { for (int64_t i = 0; i < n; ++i) op.Push(gen.Next()); });
      report("event-nfa", ms, op.num_matches(), op.BufferedCount());
    }
  }
  std::printf(
      "# expected shape (paper): tpstream ~ iseq, straw men several times\n"
      "# slower; event-nfa match counts differ (no aggregates/durations).\n");
  return 0;
}

}  // namespace bench
}  // namespace tpstream

#endif  // TPSTREAM_BENCH_AGGRESSIVE_COMMON_H_
