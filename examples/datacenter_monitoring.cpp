// Data-center monitoring with per-host partitioning and adaptive plan
// selection: thermal-runaway incidents are flagged when a sustained CPU
// burst overlaps an over-temperature phase whose cooling response stays
// absent. The workload's character changes halfway through (nightly batch
// jobs start everywhere), and the adaptive optimizer re-orders the join
// on the fly — the example prints the plan migrations it performs.
//
//   ./build/examples/datacenter_monitoring
#include <cstdio>
#include <random>

#include "core/operator.h"
#include "query/builder.h"

using namespace tpstream;

int main() {
  Schema schema({
      Field{"host", ValueType::kInt},
      Field{"cpu", ValueType::kDouble},   // utilization %
      Field{"temp", ValueType::kDouble},  // intake temperature, Celsius
      Field{"fan", ValueType::kDouble},   // fan speed, RPM
  });

  QueryBuilder qb(schema);
  qb.Define("BURST", Gt(FieldRef(schema, "cpu").value(), Literal(90.0)),
            AtLeast(30))
      .Define("HOT", Gt(FieldRef(schema, "temp").value(), Literal(45.0)))
      .Define("NOFAN", Lt(FieldRef(schema, "fan").value(), Literal(1000.0)))
      .Relate("BURST",
              {Relation::kOverlaps, Relation::kStarts, Relation::kDuring,
               Relation::kMeets},
              "HOT")
      .Relate("NOFAN", {Relation::kDuring, Relation::kOverlaps,
                        Relation::kStartedBy, Relation::kEquals},
              "HOT")
      .Within(1800)
      .Return("host", "HOT", AggKind::kFirst, "host")
      .Return("peak_temp", "HOT", AggKind::kMax, "temp")
      .Return("burst_len", "BURST", AggKind::kCount)
      .PartitionBy("host");
  Result<QuerySpec> spec = qb.Build();
  if (!spec.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }

  int64_t incidents = 0;
  TPStreamOperator op(spec.value(), {}, [&](const Event& incident) {
    if (++incidents <= 8) {
      std::printf(
          "t=%-6lld INCIDENT host=%lld peak_temp=%.1fC burst_samples=%lld\n",
          static_cast<long long>(incident.t), incident.payload[0].AsInt(),
          incident.payload[1].ToDouble(), incident.payload[2].AsInt());
    }
  });

  // Simulate 16 hosts for two "hours" (1 sample/s/host); batch jobs kick
  // in halfway and make CPU bursts far more common.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  struct Host {
    double cpu = 30, temp = 35, fan = 3000;
    int burst_left = 0, hot_left = 0, nofan_left = 0;
  };
  std::vector<Host> hosts(16);
  constexpr TimePoint kTotal = 7200;
  for (TimePoint t = 1; t <= kTotal; ++t) {
    const bool batch_window = t > kTotal / 2;
    for (size_t h = 0; h < hosts.size(); ++h) {
      Host& host = hosts[h];
      if (host.burst_left == 0 && uni(rng) < (batch_window ? 0.01 : 0.001)) {
        host.burst_left = 40 + static_cast<int>(uni(rng) * 200);
        host.hot_left = host.burst_left + 60;
        if (uni(rng) < 0.5) host.nofan_left = host.hot_left - 20;
      }
      host.cpu = host.burst_left > 0 ? 95 + 4 * uni(rng) : 25 + 30 * uni(rng);
      host.temp = host.hot_left > 0 ? 46 + 6 * uni(rng) : 33 + 5 * uni(rng);
      host.fan = host.nofan_left > 0 ? 500 : 2800 + 400 * uni(rng);
      if (host.burst_left > 0) --host.burst_left;
      if (host.hot_left > 0) --host.hot_left;
      if (host.nofan_left > 0) --host.nofan_left;

      op.Push(Event({Value(static_cast<int64_t>(h)), Value(host.cpu),
                     Value(host.temp), Value(host.fan)},
                    t));
    }
  }

  std::printf(
      "\n%lld thermal incidents across %zu hosts (%lld samples "
      "processed)\n",
      static_cast<long long>(incidents), op.num_partitions(),
      static_cast<long long>(op.num_events()));
  return 0;
}
