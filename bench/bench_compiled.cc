// Compiled-predicate ablation backing BENCH_compiled.json: one Deriver
// with a battery of mixed-shape DEFINE predicates (comparison chains,
// AND/OR chains, arithmetic, a duplicated predicate exercising the
// program cache) driven over the same event stream, in the same chunks,
// three ways:
//
//   deriver.interpreter            Expression::Eval per (event, definition)
//   deriver.bytecode_batch         PushBatch-style: PrepareBatch()
//                                  evaluates each distinct program
//                                  columnarly over the whole chunk at the
//                                  process-wide SIMD tier (TPSTREAM_SIMD,
//                                  else the machine's best), Process()
//                                  consumes precomputed selection bitmaps
//   deriver.bytecode_batch_scalar  same, pinned to TPSTREAM_SIMD=off — the
//                                  same executor on scalar-width kernels,
//                                  isolating the vector width's
//                                  contribution from the SoA/batch
//                                  restructuring
//
// The workload is derivation-bound by construction — predicates flip
// rarely, so situation/matcher work is negligible and events/sec measures
// predicate evaluation almost purely. Every run must derive the identical
// situation stream (checksummed); a divergence aborts the bench, so the
// measured fast path is also a correctness check.
//
// `--json=FILE` writes the "compiled" bench record, gated against the
// committed BENCH_compiled.json by cmake/check_bench_regression.cmake.
// Its "simd_level" is the tier deriver.bytecode_batch dispatched to
// ("off"/"sse2"/"avx2"). Besides per-run throughput floors the record
// carries the headline invariant eps(deriver.bytecode_batch) >=
// eps(deriver.interpreter) * 4 when that tier is SIMD, * 2 when "off".

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "derive/deriver.h"
#include "expr/expression.h"

namespace tpstream {
namespace bench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Schema: speed, accel, load (double); lane, zone (int).
constexpr int kSpeed = 0;
constexpr int kAccel = 1;
constexpr int kLoad = 2;
constexpr int kLane = 3;
constexpr int kZone = 4;

/// Sixteen predicates spanning the shapes the compiler lowers
/// differently: single comparisons, comparison chains under AND/OR
/// (eager connectives), arithmetic subtrees (widening, division),
/// unary negation, one exact duplicate (S0/S7) so the fingerprint-keyed
/// program cache is on the measured path, and four derived-quantity
/// predicates (S12-S15: energy, quadratic deviation, unit conversions)
/// whose deeper trees are where tree-walking overhead concentrates.
std::vector<SituationDefinition> Definitions() {
  auto speed = [] { return FieldRef(kSpeed, "speed"); };
  auto accel = [] { return FieldRef(kAccel, "accel"); };
  auto load = [] { return FieldRef(kLoad, "load"); };
  auto lane = [] { return FieldRef(kLane, "lane"); };
  auto zone = [] { return FieldRef(kZone, "zone"); };
  std::vector<ExprPtr> preds = {
      Gt(speed(), Literal(95.0)),
      And(Gt(speed(), Literal(80.0)), Gt(accel(), Literal(1.5))),
      Gt(Binary(BinaryOp::kMul, speed(), Literal(0.44704)),
         Binary(BinaryOp::kSub, load(), Literal(5.0))),
      Or(Eq(lane(), Literal(int64_t{7})), Eq(lane(), Literal(int64_t{9}))),
      Not(Lt(accel(), Literal(-8.0))),
      Gt(Binary(BinaryOp::kDiv, speed(),
                Binary(BinaryOp::kAdd, accel(), Literal(12.0))),
         Literal(30.0)),
      Ge(Binary(BinaryOp::kSub,
                Binary(BinaryOp::kAdd, speed(),
                       Binary(BinaryOp::kMul, accel(), Literal(2.0))),
         Literal(1.0)),
         Literal(110.0)),
      Gt(speed(), Literal(95.0)),  // duplicate of S0: shares its program
      And(Binary(BinaryOp::kNe, zone(), Literal(int64_t{0})),
          Gt(speed(), Literal(90.0))),
      Gt(Negate(accel()), Literal(6.0)),
      Gt(speed(), Binary(BinaryOp::kAdd, load(), Literal(70.0))),
      Or(And(Gt(speed(), Literal(85.0)), Eq(lane(), Literal(int64_t{1}))),
         Gt(speed(), Literal(99.0))),
      // Kinetic-energy-style derived quantity: 0.5 * m * v^2 scaled.
      Gt(Binary(BinaryOp::kAdd,
                Binary(BinaryOp::kDiv,
                       Binary(BinaryOp::kMul,
                              Binary(BinaryOp::kMul, Literal(0.5), load()),
                              Binary(BinaryOp::kMul, speed(), speed())),
                       Literal(1000.0)),
                Binary(BinaryOp::kMul, load(),
                       Binary(BinaryOp::kMul, Literal(9.81),
                              Literal(0.02)))),
         Literal(40.0)),
      // Quadratic deviation from cruise: (v-60)^2 + 25*a^2.
      Gt(Binary(BinaryOp::kAdd,
                Binary(BinaryOp::kMul,
                       Binary(BinaryOp::kSub, speed(), Literal(60.0)),
                       Binary(BinaryOp::kSub, speed(), Literal(60.0))),
                Binary(BinaryOp::kMul,
                       Binary(BinaryOp::kMul, accel(), accel()),
                       Literal(25.0))),
         Literal(900.0)),
      // Rational form with a guarded denominator.
      Gt(Binary(BinaryOp::kDiv,
                Binary(BinaryOp::kSub,
                       Binary(BinaryOp::kMul, speed(), speed()),
                       Binary(BinaryOp::kMul,
                              Binary(BinaryOp::kMul, Literal(2.0), accel()),
                              load())),
                Binary(BinaryOp::kAdd, load(), Literal(1.0))),
         Literal(250.0)),
      // Unit-converted linear blend under a range check.
      And(Gt(Binary(BinaryOp::kSub,
                    Binary(BinaryOp::kAdd,
                           Binary(BinaryOp::kMul, speed(), Literal(0.277)),
                           Binary(BinaryOp::kMul, accel(), Literal(1.5))),
                    Binary(BinaryOp::kMul, load(), Literal(0.1))),
             Literal(20.0)),
          Gt(load(), Literal(5.0))),
  };
  std::vector<SituationDefinition> defs;
  defs.reserve(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    defs.emplace_back("S" + std::to_string(i), std::move(preds[i]));
  }
  return defs;
}

/// Piecewise-smooth signals: values drift slowly and cross the predicate
/// thresholds rarely, keeping situation boundaries (and thus non-predicate
/// work) sparse — the stream is derivation-bound.
std::vector<Event> MakeWorkload(TimePoint horizon, uint64_t seed) {
  std::vector<Event> events;
  events.reserve(horizon);
  uint64_t s = seed;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  double speed = 60.0;
  double accel = 0.0;
  double load = 10.0;
  int64_t lane = 2;
  int64_t zone = 1;
  for (TimePoint t = 1; t <= horizon; ++t) {
    accel += (static_cast<double>(next() % 2001) - 1000.0) * 1e-3;
    if (accel > 10.0) accel = 10.0;
    if (accel < -10.0) accel = -10.0;
    speed += accel * 0.05;
    if (speed > 120.0) speed = 120.0;
    if (speed < 0.0) speed = 0.0;
    if (next() % 997 == 0) lane = static_cast<int64_t>(next() % 10);
    if (next() % 1499 == 0) zone = static_cast<int64_t>(next() % 4);
    load += (static_cast<double>(next() % 201) - 100.0) * 1e-3;
    events.push_back(Event({Value(speed), Value(accel), Value(load),
                            Value(lane), Value(zone)},
                           t));
  }
  return events;
}

struct RunResult {
  std::string name;
  int64_t events = 0;
  int definitions = 0;
  int compiled_programs = 0;
  double elapsed_s = 0;
  double events_per_sec = 0;
  int64_t situations = 0;
  uint64_t checksum = 0;
  double speedup_vs_interpreter = 1.0;
  std::string simd_level = "off";
};

RunResult Run(const std::string& name, bool compiled,
              const std::vector<Event>& events, size_t batch_size,
              const std::string& simd) {
  DeriveOptions options;
  options.compiled_predicates = compiled;
  options.simd = simd;
  Deriver deriver(Definitions(), /*announce_starts=*/true,
                  /*metrics=*/nullptr, options);

  int64_t situations = 0;
  uint64_t checksum = 0;
  const int64_t start = NowNs();
  for (size_t i = 0; i < events.size(); i += batch_size) {
    const size_t n = std::min(batch_size, events.size() - i);
    const std::span<const Event> chunk(events.data() + i, n);
    deriver.PrepareBatch(chunk);  // a no-op for the interpreter
    for (const Event& e : chunk) {
      Deriver::Update& u = deriver.Process(e);
      situations +=
          static_cast<int64_t>(u.started.size() + u.finished.size());
      for (const SymbolSituation& f : u.finished) {
        checksum = checksum * 1099511628211ull ^
                   (static_cast<uint64_t>(f.symbol) * 131 +
                    static_cast<uint64_t>(f.situation.ts));
      }
    }
  }
  const int64_t elapsed = NowNs() - start;

  RunResult r;
  r.name = name;
  r.events = static_cast<int64_t>(events.size());
  r.definitions = deriver.num_definitions();
  r.compiled_programs = deriver.num_compiled_programs();
  r.elapsed_s = static_cast<double>(elapsed) * 1e-9;
  r.events_per_sec = static_cast<double>(events.size()) / r.elapsed_s;
  r.situations = situations;
  r.checksum = checksum;
  r.simd_level = deriver.simd_level();  // "off" for the interpreter
  return r;
}

/// The headline ablation floor: batched bytecode over the interpreter,
/// 4x where the batch run dispatched SIMD kernels, 2x at scalar width.
constexpr int kSimdSpeedupFloorPct = 400;
constexpr int kScalarSpeedupFloorPct = 200;

bool WriteRecord(const std::string& path, const std::vector<RunResult>& runs) {
  BenchRecord rec("compiled");
  rec.simd_level = runs[1].simd_level;  // deriver.bytecode_batch
  for (const RunResult& r : runs) {
    rec.Set(r.name, "events", r.events);
    rec.Set(r.name, "definitions", r.definitions);
    rec.Set(r.name, "compiled_programs", r.compiled_programs);
    rec.Set(r.name, "elapsed_s", r.elapsed_s);
    rec.Set(r.name, "events_per_sec", r.events_per_sec);
    rec.Set(r.name, "situations", r.situations);
    rec.Set(r.name, "speedup_vs_interpreter", r.speedup_vs_interpreter);
    rec.Floor(r.name, "events_per_sec", kThroughputFloorPct);
  }
  rec.Check({.name = "ablation floor (simd_level " + rec.simd_level + ")",
             .value = {"deriver.bytecode_batch", "events_per_sec"},
             .over = {"deriver.interpreter", "events_per_sec"},
             .min_pct = rec.simd_level == "off" ? kScalarSpeedupFloorPct
                                                : kSimdSpeedupFloorPct});
  return rec.Write(path);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const TimePoint horizon = flags.GetInt("horizon", 2000000);
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 512));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));

  const std::vector<Event> events = MakeWorkload(horizon, 1234577);

  // Best-of-N to shed scheduler noise on shared CI machines; the
  // situation checksum must be identical across every run and mode.
  auto best_of = [&](const std::string& name, bool compiled,
                     const std::string& simd) {
    RunResult best;
    for (int i = 0; i < repeats; ++i) {
      RunResult r = Run(name, compiled, events, batch, simd);
      if (i == 0 || r.events_per_sec > best.events_per_sec) {
        best = std::move(r);
      }
    }
    return best;
  };

  std::vector<RunResult> runs;
  runs.push_back(best_of("deriver.interpreter", /*compiled=*/false, ""));
  runs.push_back(best_of("deriver.bytecode_batch", /*compiled=*/true, ""));
  runs.push_back(
      best_of("deriver.bytecode_batch_scalar", /*compiled=*/true, "off"));

  for (const RunResult& r : runs) {
    if (r.situations != runs[0].situations ||
        r.checksum != runs[0].checksum) {
      std::fprintf(stderr,
                   "%s diverged from the interpreter: %lld situations "
                   "(checksum %llx) vs %lld (%llx)\n",
                   r.name.c_str(), static_cast<long long>(r.situations),
                   static_cast<unsigned long long>(r.checksum),
                   static_cast<long long>(runs[0].situations),
                   static_cast<unsigned long long>(runs[0].checksum));
      return 1;
    }
  }
  for (RunResult& r : runs) {
    r.speedup_vs_interpreter = r.events_per_sec / runs[0].events_per_sec;
  }

  std::printf("%-30s %9s %12s %10s %6s %5s %9s\n", "run", "events",
              "evt/s", "situations", "progs", "simd", "speedup");
  for (const RunResult& r : runs) {
    std::printf("%-30s %9lld %12.0f %10lld %6d %5s %8.2fx\n",
                r.name.c_str(), static_cast<long long>(r.events),
                r.events_per_sec, static_cast<long long>(r.situations),
                r.compiled_programs, r.simd_level.c_str(),
                r.speedup_vs_interpreter);
  }

  return WriteRecord(flags.GetString("json", ""), runs) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace tpstream

int main(int argc, char** argv) { return tpstream::bench::Main(argc, argv); }
