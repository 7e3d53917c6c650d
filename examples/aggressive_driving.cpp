// The paper's running example (Listing 1): detect aggressively driving
// cars — a sharp acceleration followed by hard braking, both accompanied
// by a period of speeding — on a Linear-Road-style sensor stream, using
// the textual query language, PARTITION BY, duration constraints and
// low-latency matching.
//
//   ./build/examples/aggressive_driving [events]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/operator.h"
#include "query/parser.h"
#include "workload/linear_road.h"

using namespace tpstream;

int main(int argc, char** argv) {
  const int events = argc > 1 ? std::atoi(argv[1]) : 500000;

  LinearRoadGenerator::Options options;
  options.num_cars = 100;
  options.aggressive_fraction = 0.1;
  LinearRoadGenerator generator(options);

  // Calibrate thresholds from a data sample, as in Section 6.2.1.
  const double speeding = LinearRoadGenerator::SampleFieldPercentile(
      options, LinearRoadGenerator::kSpeed, 99.0, 50000);

  char query[1024];
  std::snprintf(
      query, sizeof(query),
      "FROM CarSensors CS PARTITION BY CS.car_id                 "
      "DEFINE A AS CS.accel > 8 AT LEAST 3s,                     "
      "       B AS CS.speed > %.1f BETWEEN 4s AND 120s,          "
      "       C AS CS.accel < -9 AT LEAST 2s                     "
      "PATTERN A meets B; A overlaps B; A starts B; A during B   "
      "    AND C during B; B finishes C; B overlaps C; B meets C "
      "    AND A before C                                        "
      "WITHIN 5 MINUTES                                          "
      "RETURN first(B.car_id) AS id, avg(B.speed) AS avg_speed,  "
      "       max(A.accel) AS peak_accel, start(B) AS speeding_from",
      speeding);

  Result<QuerySpec> spec = query::ParseQuery(query, generator.schema());
  if (!spec.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }
  std::printf("deployed query:\n%s\n\n", query);

  int64_t alerts = 0;
  TPStreamOperator op(spec.value(), {}, [&](const Event& alert) {
    if (++alerts <= 10) {
      std::printf(
          "t=%-7lld ALERT car=%lld avg_speed=%.1f mph peak_accel=%.1f "
          "m/s^2 (speeding since t=%lld, still ongoing)\n",
          static_cast<long long>(alert.t), alert.payload[0].AsInt(),
          alert.payload[1].ToDouble(), alert.payload[2].ToDouble(),
          alert.payload[3].AsInt());
    }
  });

  for (int i = 0; i < events; ++i) op.Push(generator.Next());

  std::printf(
      "\nprocessed %d events from %zu cars; %lld aggressive-driving "
      "alerts\n",
      events, op.num_partitions(), static_cast<long long>(alerts));
  std::printf(
      "(alerts fire at the beginning of the braking phase — while the\n"
      " speeding situation is still ongoing — per Section 5.3 of the "
      "paper)\n");
  return 0;
}
