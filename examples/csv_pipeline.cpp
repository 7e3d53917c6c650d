// Standalone pipeline: CSV in, CSV out — with partition-parallel
// execution. Demonstrates composing the io:: and parallel:: extension
// modules around a TPStream query.
//
// Reads machine telemetry rows (written to a temp stringstream here to
// stay self-contained; swap in std::ifstream for real files), fans
// partitions out to worker threads, and writes every detected overload
// incident as a CSV row.
//
// Ordering contract (ParallelTPStream::Push): timestamps must be
// non-decreasing across the whole input and strictly increasing per
// machine, as TPStream assumes a timestamp-ordered stream. The rows
// below are written in that order; sort a real file by timestamp first.
//
//   ./build/examples/csv_pipeline
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>

#include "io/csv.h"
#include "parallel/parallel_operator.h"
#include "query/parser.h"

using namespace tpstream;

int main() {
  Schema schema({
      Field{"machine", ValueType::kInt},
      Field{"load", ValueType::kDouble},
      Field{"queue_len", ValueType::kInt},
  });

  // Produce a CSV input in timestamp order, one row per machine and tick.
  std::stringstream csv_input;
  {
    csv_input << "timestamp,machine,load,queue_len\n";
    for (TimePoint t = 1; t <= 600; ++t) {
      for (int m = 0; m < 4; ++m) {
        const bool overloaded = (t % 150) > 60 && (t % 150) < 130;
        const double load = overloaded ? 0.97 : 0.35;
        const int queue = (overloaded && (t % 150) > 80) ? 120 : 4;
        char row[96];
        std::snprintf(row, sizeof(row), "%lld,%d,%.2f,%d\n",
                      static_cast<long long>(t), m, load, queue);
        csv_input << row;
      }
    }
  }

  auto spec = query::ParseQuery(
      "FROM Telemetry PARTITION BY machine "
      "DEFINE HOT AS load > 0.9 AT LEAST 10s, "
      "       BACKLOG AS queue_len > 100 "
      // Complete prefix group {overlaps, finishes, contains}: the
      // incident is certain (and reported) the moment the backlog starts
      // while the machine is already hot.
      "PATTERN HOT overlaps BACKLOG; HOT finishes BACKLOG; "
      "        HOT contains BACKLOG "
      "WITHIN 10 minutes "
      "RETURN first(HOT.machine) AS machine, max(HOT.load) AS peak_load, "
      "       max(BACKLOG.queue_len) AS peak_queue",
      schema);
  if (!spec.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 spec.status().ToString().c_str());
    return 1;
  }

  std::ostringstream csv_output;
  std::mutex writer_mutex;
  io::CsvEventWriter writer(csv_output,
                            {"machine", "peak_load", "peak_queue"});

  parallel::ParallelTPStream::Options options;
  options.num_workers = 2;
  parallel::ParallelTPStream engine(
      spec.value(), options, [&](const Event& incident) {
        std::lock_guard<std::mutex> lock(writer_mutex);
        writer.Write(incident);
      });

  // CSV -> parallel engine.
  io::CsvEventReader reader(csv_input, schema);
  const Status status =
      reader.ReadAll([&](const Event& e) { engine.Push(e); });
  if (!status.ok()) {
    std::fprintf(stderr, "read error: %s\n", status.ToString().c_str());
    return 1;
  }
  engine.Flush();

  std::printf("rows read: %lld\n",
              static_cast<long long>(reader.rows_read()));
  std::printf("incidents: %lld across %zu machines\n\n",
              static_cast<long long>(engine.num_matches()),
              engine.num_partitions());
  std::printf("--- incidents.csv ---\n%s", csv_output.str().c_str());
  return 0;
}
