// End-to-end benchmark program: runs one workload (see README.md) through
// the deployment it models and prints one JSON record on stdout.
//
//   e2ebench --workload NAME --seed N --seconds S [--trace 0|1]
//            [--scratch DIR] [--smoke]
//   e2ebench --selftest
//
// Phases of a run, all on input generated from the seed before timing:
//   reference  single-threaded PartitionedTPStream, default options; its
//              alerts are the oracle for every later phase
//   setup      parse + engine construction (+ log/recovery open), 25 times
//              before each of the phases below
//   max        closed loop: push as fast as the engine accepts, Flush()
//   lo, hi     open loop at fixed rates; latency from each alert's
//              trigger-event due time to its arrival at the callback
//   recover    drivers_durable only: crash half-way between checkpoints,
//              reopen, RecoveryManager::Recover, replay
// With --trace 1 it also runs the layer passes that produce the
// per-layer metrics (spans around each call, single-threaded rebuild of
// the operator from Deriver + MatchEngine).

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/match_engine.h"
#include "core/partitioned_operator.h"
#include "derive/deriver.h"
#include "expr/simd.h"
#include "log/event_log.h"
#include "log/file.h"
#include "log/recovery.h"
#include "measure.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/parser.h"
#include "workloads.h"

namespace e2e {
namespace {

using tpstream::Deriver;
using tpstream::MatchEngine;
using tpstream::PartitionedTPStream;
using tpstream::QuerySpec;
using tpstream::Status;
using tpstream::TPStreamOperator;
using tpstream::parallel::ParallelTPStream;
namespace tlog = tpstream::log;
namespace obs = tpstream::obs;

/// Every workload runs on ParallelTPStream with this many workers: with
/// the producer that makes the 4 threads a 4-vCPU machine has.
constexpr int kWorkers = 3;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".bench_build/scratch";
  bool smoke = false;
  bool selftest = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::stoull(next());
    else if (k == "--seconds") a.seconds = std::stod(next());
    else if (k == "--trace") a.trace = std::stoi(next());
    else if (k == "--scratch") a.scratch = next();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--selftest") a.selftest = true;
    else Fatal("unknown argument " + k);
  }
  return a;
}

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Failure accounting across every checked phase: the denominator of
/// failed_frac is expected alerts plus events offered.
struct Ledger {
  int64_t expected = 0;
  int64_t events = 0;
  int64_t missing = 0;
  int64_t extra = 0;
  int64_t shed = 0;

  void Check(const char* phase, const Digest& want, const Digest& got,
             int64_t offered, int64_t shed_events) {
    const AlertDiff d = Compare(want, got);
    expected += want.total();
    events += offered;
    missing += d.missing;
    extra += d.extra;
    shed += shed_events;
    if (d.missing || d.extra || shed_events) {
      std::fprintf(stderr,
                   "MISMATCH in %s: missing=%lld extra=%lld shed=%lld "
                   "(expected %lld alerts)\n",
                   phase, static_cast<long long>(d.missing),
                   static_cast<long long>(d.extra),
                   static_cast<long long>(shed_events),
                   static_cast<long long>(want.total()));
    }
  }
  int64_t failed() const { return missing + extra + shed; }
  int64_t attempted() const { return expected + events; }
};

/// State of the output callback. Engines serialize their callbacks
/// (ParallelTPStream under its output mutex), so plain fields suffice.
struct Sink {
  const Input* in = nullptr;
  Digest digest;
  // Open-loop latency: event i >= warm was due at
  // t0 + (i - warm) * ns_per_event; its alerts' latencies go to the
  // window of its due time. Alerts of earlier (warm-up) events are only
  // checked.
  bool latency = false;
  int64_t warm = 0;
  int64_t t0 = 0;
  double ns_per_event = 0;
  double events_per_window = 1;
  std::vector<std::vector<float>> lat_us;
  int64_t unmatched = 0;
  // The layer passes time every callback (the emit layer).
  bool timed = false;
  uint64_t emit_ticks = 0;
  int64_t emits = 0;

  void Clear() {
    digest = Digest();
    for (auto& w : lat_us) w.clear();
    unmatched = 0;
    emit_ticks = 0;
    emits = 0;
  }

  void operator()(const Event& a) {
    const uint64_t tick = timed ? Ticks() : 0;
    const int64_t now = latency ? NowNs() : 0;
    digest.Add(AlertHash(a));
    if (latency) {
      const int64_t i = in->Find(in->KeyOf(a.payload[0]), a.t);
      if (i < 0) {
        ++unmatched;
      } else if (i >= warm) {
        const double due = t0 + static_cast<double>(i - warm) * ns_per_event;
        const size_t win = std::min<size_t>(
            lat_us.size() - 1, static_cast<size_t>((i - warm) / events_per_window));
        lat_us[win].push_back(static_cast<float>((now - due) / 1e3));
      }
    }
    if (timed) {
      emit_ticks += Ticks() - tick;
      ++emits;
    }
  }
};

ParallelTPStream::Options ParallelOptions(const Workload& w) {
  ParallelTPStream::Options o;
  o.num_workers = kWorkers;
  o.batch_size = w.batch;
  return o;
}

tlog::EventLogOptions LogOptions(obs::MetricsRegistry* metrics) {
  tlog::EventLogOptions o;
  o.sync.mode = tlog::SyncMode::kEveryBytes;  // default 64 KiB group commit
  o.metrics = metrics;
  return o;
}

/// One deployment of a workload: the parallel engine, and on
/// drivers_durable the event log and recovery manager in front of it.
struct Deployment {
  const Workload* w = nullptr;
  Tracer* tracer = nullptr;
  tlog::PosixFileSystem fs;
  obs::MetricsRegistry log_metrics;
  std::unique_ptr<tlog::EventLog> log;
  std::unique_ptr<tlog::RecoveryManager> mgr;
  // Declared last of the three: destroyed first, the engine drains into
  // the sink while the log still exists.
  std::unique_ptr<ParallelTPStream> par;
  std::vector<Event> batch;
  int64_t next_ckpt = 0;
  int32_t batch_id = 0;
  std::vector<double> ckpt_ms;
  uint64_t ckpt_bytes = 0;

  /// Everything a deployment needs before its first event; returns the
  /// parse time in microseconds through `parse_us`.
  void Open(const Workload& wl, const std::string& dir, Sink* sink,
            Tracer* tr, double* parse_us) {
    w = &wl;
    tracer = tr;
    const int64_t p0 = NowNs();
    auto spec = tpstream::query::ParseQuery(w->query, w->input.schema);
    if (parse_us) *parse_us = (NowNs() - p0) / 1e3;
    if (!spec.ok()) Fatal("query: " + spec.status().ToString());
    auto out = [sink](const Event& e) { (*sink)(e); };
    par = std::make_unique<ParallelTPStream>(spec.value(), ParallelOptions(*w),
                                             out);
    if (w->durable) {
      Status s = tlog::EventLog::Open(&fs, dir + "/log",
                                      LogOptions(&log_metrics), &log);
      if (!s.ok()) Fatal("log open: " + s.ToString());
      s = tlog::RecoveryManager::Open(&fs, dir + "/ckpt", log.get(), {}, &mgr);
      if (!s.ok()) Fatal("recovery open: " + s.ToString());
      next_ckpt = w->checkpoint_every;
    }
    batch.resize(w->batch);
  }

  void Push(size_t begin, size_t end) {
    Tracer& tr = *tracer;
    const int32_t id = batch_id++;
    const int32_t root = tr.Begin("batch", -1, id);
    const size_t m = end - begin;
    int32_t s = tr.Begin("workload.materialize", root, id);
    for (size_t j = 0; j < m; ++j) w->input.Materialize(begin + j, &batch[j]);
    tr.End(s);
    std::span<Event> events(batch.data(), m);
    if (log) {
      s = tr.Begin("log.append", root, id);
      auto r = log->Append(events);
      tr.End(s);
      if (!r.ok()) Fatal("append: " + r.status().ToString());
    }
    s = tr.Begin("parallel.push", root, id);
    par->PushBatch(events);
    tr.End(s);
    if (mgr && static_cast<int64_t>(end) >= next_ckpt) {
      next_ckpt += w->checkpoint_every;
      const int64_t c0 = NowNs();
      s = tr.Begin("ckpt.checkpoint", root, id);
      auto info = mgr->Checkpoint(*par);
      tr.End(s);
      if (!info.ok()) Fatal("checkpoint: " + info.status().ToString());
      ckpt_ms.push_back((NowNs() - c0) / 1e6);
      ckpt_bytes = info.value().bytes;
    }
    tr.End(root);
  }

  void Flush() {
    const int32_t s = tracer->Begin("parallel.flush");
    par->Flush();
    tracer->End(s);
  }

  int64_t shed() const { return par->shed_events(); }
};

std::string FreshDir(const Args& a, const std::string& tag) {
  const std::string dir = a.scratch + "/" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) Fatal("cannot create " + dir + ": " + ec.message());
  return dir;
}

/// Closed loop over events [0, n): pushes as fast as the engine accepts.
/// The first tenth warms up; returns events/s over the rest, Flush()
/// included.
double ClosedLoop(Deployment& d, size_t n) {
  const size_t b = d.w->batch;
  const size_t warm = n / 10;
  int64_t start = 0;
  size_t timed_from = 0;
  for (size_t i = 0; i < n; i += b) {
    if (start == 0 && i >= warm) {
      start = NowNs();
      timed_from = i;
    }
    d.Push(i, std::min(n, i + b));
  }
  d.Flush();
  return (n - timed_from) * 1e9 / static_cast<double>(NowNs() - start);
}

struct Schedule {
  std::vector<float> lag_us;  // per batch: push start minus due time
  int64_t backlog_max = 0;    // events due but not yet pushed
  // StealTicks() as each window's first batch is pushed, and once more
  // after the final Flush(); `seconds` runs from the schedule's start to
  // that last reading.
  std::vector<uint64_t> steal_at;
  double seconds = 0;
};

/// An open-loop phase is cut into 3 to 63 windows by due time, each
/// expected to hold >= 1100 alerts and, on drivers_durable, at least one
/// checkpoint so its pauses show in every window. The latency metrics are
/// percentiles over all alerts of the QuietWindows: on a shared VM the
/// host takes vCPUs away for milliseconds at a time, in some minutes
/// again and again, and a window it did so in measures the host, not
/// the engine.
int Windows(int64_t expected_alerts, int64_t events, int64_t ckpt_every) {
  int64_t k = std::min<int64_t>(expected_alerts / 1100, 63);
  if (ckpt_every > 0) k = std::min(k, events / ckpt_every);
  return static_cast<int>(std::max<int64_t>(k, 3));
}

/// Open loop over events [0, n) at `rate` events/s. The first tenth is
/// pushed closed-loop and flushed as warm-up (partitions are created and
/// windows fill); from then on a batch is pushed once its last event is
/// due, so the batch-fill wait counts as latency, and a stall delays every
/// later batch while latency is still taken from their due times.
void OpenLoop(Deployment& d, Sink& sink, size_t n, double rate,
              int windows, Schedule* sched) {
  const size_t b = d.w->batch;
  const size_t warm = std::max<size_t>(b, n / 10 / b * b);
  for (size_t i = 0; i < warm; i += b) d.Push(i, std::min(n, i + b));
  d.Flush();

  const double ns_per = 1e9 / rate;
  const int64_t t0 = NowNs() + 1'000'000;
  sink.t0 = t0;
  sink.warm = static_cast<int64_t>(warm);
  sink.ns_per_event = ns_per;
  sink.events_per_window = static_cast<double>(n - warm) / windows;
  sink.lat_us.resize(windows);
  sink.latency = true;
  for (size_t i = warm; i < n; i += b) {
    const size_t end = std::min(n, i + b);
    const int64_t due = t0 + static_cast<int64_t>((end - 1 - warm) * ns_per);
    // Sleep through most of the wait so the workers keep every core, and
    // spin the last stretch, where a sleep would overshoot.
    int64_t now = NowNs();
    if (due - now > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 150'000));
      now = NowNs();
    }
    while (now < due) now = NowNs();
    sched->lag_us.push_back(static_cast<float>((now - due) / 1e3));
    const size_t win = static_cast<size_t>((i - warm) / sink.events_per_window);
    while (sched->steal_at.size() <= win) {
      sched->steal_at.push_back(StealTicks());
    }
    const int64_t due_count = std::min<int64_t>(
        n, warm + static_cast<int64_t>((now - t0) / ns_per) + 1);
    sched->backlog_max = std::max<int64_t>(sched->backlog_max,
                                           due_count - static_cast<int64_t>(i));
    d.Push(i, end);
  }
  d.Flush();
  sink.latency = false;
  while (sched->steal_at.size() <= static_cast<size_t>(windows)) {
    sched->steal_at.push_back(StealTicks());
  }
  sched->seconds = (NowNs() - t0) / 1e9;
}

/// Reference alerts: the single-threaded PartitionedTPStream with default
/// options over the first `points.back()` events; digests[j] covers the
/// alerts triggered by events [0, points[j]).
std::vector<Digest> Reference(const Workload& w, const QuerySpec& spec,
                              const std::vector<size_t>& points,
                              double* eps) {
  std::vector<Digest> digests(points.size());
  const Input& in = w.input;
  PartitionedTPStream ref(spec, TPStreamOperator::Options{},
                          [&](const Event& a) {
                            const int64_t i =
                                in.Find(in.KeyOf(a.payload[0]), a.t);
                            if (i < 0) Fatal("reference alert has no trigger");
                            const uint64_t h = AlertHash(a);
                            for (size_t j = 0; j < points.size(); ++j) {
                              if (static_cast<size_t>(i) < points[j]) {
                                digests[j].Add(h);
                              }
                            }
                          });
  std::vector<Event> batch(w.batch);
  const size_t n = *std::max_element(points.begin(), points.end());
  int64_t push_ns = 0;
  for (size_t i = 0; i < n; i += w.batch) {
    const size_t end = std::min(n, i + w.batch);
    for (size_t j = i; j < end; ++j) in.Materialize(j, &batch[j - i]);
    const int64_t t0 = NowNs();
    ref.PushBatch(std::span<Event>(batch.data(), end - i));
    push_ns += NowNs() - t0;
  }
  *eps = n * 1e9 / push_ns;
  return digests;
}

/// Forwarding engine for the traced recovery: RecoveryManager::Recover
/// drives it exactly like the engine, and it notes how long Restore took
/// and when replay (the first Push) began.
struct TimedEngine {
  ParallelTPStream* e;
  int64_t restore_ns = 0;
  int64_t first_push = 0;

  Status Restore(tpstream::ckpt::Reader& r, uint64_t* offset) {
    const int64_t t0 = NowNs();
    Status s = e->Restore(r, offset);
    restore_ns += NowNs() - t0;
    return s;
  }
  void Reset() { e->Reset(); }
  void Push(const Event& ev) {
    if (first_push == 0) first_push = NowNs();
    e->Push(ev);
  }
};

struct RecoveryTiming {
  double seconds = 0;
  double restore_ms = 0;
  double replay_ns_per_event = 0;
  uint64_t offset = 0;
  uint64_t replayed = 0;
};

/// Crash recovery of drivers_durable from the files in `dir`: reopen the
/// log and checkpoints, Recover into a fresh engine, replay, Flush.
RecoveryTiming Recover(const Workload& w, const QuerySpec& spec,
                       const std::string& dir, Sink* sink, bool traced) {
  RecoveryTiming out;
  tlog::PosixFileSystem fs;
  obs::MetricsRegistry metrics;
  const int64_t t0 = NowNs();
  std::unique_ptr<tlog::EventLog> log;
  Status s = tlog::EventLog::Open(&fs, dir + "/log", LogOptions(&metrics), &log);
  if (!s.ok()) Fatal("reopen log: " + s.ToString());
  std::unique_ptr<tlog::RecoveryManager> mgr;
  s = tlog::RecoveryManager::Open(&fs, dir + "/ckpt", log.get(), {}, &mgr);
  if (!s.ok()) Fatal("reopen checkpoints: " + s.ToString());
  ParallelTPStream engine(spec, ParallelOptions(w),
                          [sink](const Event& e) { (*sink)(e); });
  TimedEngine timed{&engine};
  auto report = traced ? mgr->Recover(timed) : mgr->Recover(engine);
  if (!report.ok()) Fatal("recover: " + report.status().ToString());
  engine.Flush();
  const int64_t t1 = NowNs();
  out.seconds = (t1 - t0) / 1e9;
  out.offset = report.value().offset;
  out.replayed = report.value().replayed_events;
  if (traced) {
    out.restore_ms = timed.restore_ns / 1e6;
    if (out.replayed > 0) {
      out.replay_ns_per_event =
          static_cast<double>(t1 - timed.first_push) / out.replayed;
    }
  }
  return out;
}

/// One key's TPStreamOperator, rebuilt from its public parts. Not
/// movable: the engine points at the deriver.
struct KeyPipe {
  KeyPipe(const QuerySpec& spec, const std::vector<int>& slots,
          obs::MetricsRegistry* reg, const MatchEngine::Options& mo,
          MatchEngine::OutputCallback out)
      : deriver(spec.definitions, /*announce_starts=*/true, reg),
        engine(&spec, &deriver, slots, mo, std::move(out)) {}
  Deriver deriver;
  MatchEngine engine;
};

struct LayerPass {
  double derive_ns = 0;  // per event
  double match_ns = 0;   // per event, emit excluded
  double emit_ns = 0;    // per event
  double partitioned_ns = 0;  // PartitionedTPStream::PushBatch per event
  int64_t events = 0;
  int64_t alerts = 0;
  size_t partitions = 0;
  size_t buffered = 0;
  obs::MetricsSnapshot counters;
};

/// The per-layer passes over events [0, n), single-threaded and with obs
/// metrics on in both: (1) PartitionedTPStream::PushBatch, timed per
/// batch; (2) TPStreamOperator::Push rebuilt per key from its public
/// parts, NoteEvents(1) -> Deriver::Process -> MatchEngine::Consume, with
/// each call timed. Both passes' alerts are checked against `want`.
LayerPass RunLayerPasses(const Workload& w, const QuerySpec& spec, size_t n,
                         const Digest& want, Ledger* ledger) {
  LayerPass out;
  out.events = static_cast<int64_t>(n);
  const TickClock clock = TickClock::Calibrate();
  const Input& in = w.input;
  std::vector<Event> batch(w.batch);
  Sink sink;
  sink.in = &in;
  sink.timed = true;
  auto out_cb = [&sink](const Event& e) { sink(e); };
  // An enclosing region pays for both counter reads of each region nested
  // in it, hence the 2 * emits below.
  {
    obs::MetricsRegistry reg;
    TPStreamOperator::Options o;
    o.metrics = &reg;
    PartitionedTPStream op(spec, o, out_cb);
    uint64_t push_ticks = 0;
    int64_t pushes = 0;
    for (size_t i = 0; i < n; i += w.batch) {
      const size_t end = std::min(n, i + w.batch);
      for (size_t j = i; j < end; ++j) in.Materialize(j, &batch[j - i]);
      const uint64_t t0 = Ticks();
      op.PushBatch(std::span<Event>(batch.data(), end - i));
      push_ticks += Ticks() - t0;
      ++pushes;
    }
    op.Flush();
    const double emit_ns = clock.Ns(sink.emit_ticks, sink.emits);
    out.partitioned_ns =
        (clock.Ns(push_ticks, pushes + 2 * sink.emits) - emit_ns) / n;
    out.emit_ns = emit_ns / n;
    out.partitions = op.num_partitions();
    out.buffered = op.BufferedCount();
    ledger->Check("layer pass (partitioned)", want, sink.digest,
                  static_cast<int64_t>(n), 0);
  }

  sink.Clear();
  obs::MetricsRegistry reg;
  MatchEngine::Options mo;
  mo.metrics = &reg;
  std::vector<int> slots(spec.definitions.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<std::unique_ptr<KeyPipe>> pipes(in.num_keys);
  uint64_t derive_ticks = 0;
  uint64_t consume_ticks = 0;
  int64_t consumes = 0;
  for (size_t i = 0; i < n; i += w.batch) {
    const size_t end = std::min(n, i + w.batch);
    for (size_t j = i; j < end; ++j) in.Materialize(j, &batch[j - i]);
    for (size_t j = i; j < end; ++j) {
      std::unique_ptr<KeyPipe>& pipe = pipes[in.key[j]];
      if (!pipe) pipe = std::make_unique<KeyPipe>(spec, slots, &reg, mo, out_cb);
      const Event& e = batch[j - i];
      pipe->engine.NoteEvents(1);
      const uint64_t t0 = Ticks();
      Deriver::Update& u = pipe->deriver.Process(e);
      const uint64_t t1 = Ticks();
      derive_ticks += t1 - t0;
      if (u.empty()) continue;
      pipe->engine.Consume(u, e.t);
      consume_ticks += Ticks() - t1;
      ++consumes;
    }
  }
  out.alerts = sink.digest.total();
  out.derive_ns = clock.Ns(derive_ticks, n) / n;
  out.match_ns = (clock.Ns(consume_ticks, consumes + 2 * sink.emits) -
                  clock.Ns(sink.emit_ticks, sink.emits)) / n;
  out.counters = reg.Snapshot();
  ledger->Check("layer pass (rebuilt operator)", want, sink.digest,
                static_cast<int64_t>(n), 0);
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                 "\"parent\":%d,\"batch\":%d}\n",
                 s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, s.batch);
  }
  std::fclose(f);
}

/// Runs `fn` in a forked copy of this process and returns its result.
/// Every timed phase thus starts from the same prepared state (input and
/// reference built, heap trimmed), not from whatever the previous phase
/// left in the allocator. If `peak_rss_mib` is set, it is raised to the
/// copy's peak resident memory (the prepared input included).
template <typename T, typename Fn>
T InChild(Fn&& fn, double* peak_rss_mib = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  struct Reply {
    T value;
    long maxrss_kib;
  };
  std::fflush(nullptr);
  malloc_trim(0);
  int fds[2];
  if (pipe(fds) != 0) Fatal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) Fatal("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Reply r{fn(), 0};
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    r.maxrss_kib = self.ru_maxrss;
    const char* p = reinterpret_cast<const char*>(&r);
    for (size_t left = sizeof(Reply); left > 0;) {
      const ssize_t k = write(fds[1], p, left);
      if (k <= 0) _exit(3);
      p += k;
      left -= static_cast<size_t>(k);
    }
    _exit(0);
  }
  close(fds[1]);
  Reply r{};
  char* p = reinterpret_cast<char*>(&r);
  size_t got = 0;
  while (got < sizeof(Reply)) {
    const ssize_t k = read(fds[0], p + got, sizeof(Reply) - got);
    if (k <= 0) break;
    got += static_cast<size_t>(k);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(Reply) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Fatal("a phase process failed");
  }
  if (peak_rss_mib) {
    *peak_rss_mib = std::max(*peak_rss_mib, r.maxrss_kib / 1024.0);
  }
  return r.value;
}

constexpr int kSetupsPerSample = 25;

/// Stolen share of the VM's CPU time above which an open-loop phase is
/// measured again: calm phases on the shared VM lose 0-1%, phases in the
/// host's busy minutes 3-27%.
constexpr double kMaxStolenShare = 0.02;

struct SetupResult {
  double seconds[kSetupsPerSample] = {};
  double parse_us[kSetupsPerSample] = {};
};

struct MaxResult {
  double eps = 0;
  int64_t shed = 0;
  Digest digest;
};

struct OpenResult {
  Digest digest;
  int64_t shed = 0;
  int64_t unmatched = 0;
  Tail p50, p99;
  int windows = 0;
  int quiet = 0;              // windows the percentiles are taken over
  uint64_t steal_ticks = 0;   // stolen during the whole phase
  double stolen_share = 0;    // of the VM's CPU time during the phase
  double lag_p99_us = 0;
  int64_t backlog_max = 0;
};

struct RecoverResult {
  RecoveryTiming t;
  Digest digest;
};

struct TracedResult {
  double eps = 0;
  int64_t shed = 0;
  Digest digest;
  // Self time per event of the producer-side layers.
  double log_ns = 0, ckpt_ns = 0, push_ns = 0, flush_ns = 0,
         materialize_ns = 0;
  double ring_full_per_kbatch = 0, log_bytes = 0, log_fsyncs = 0,
         fsync_p99_us = 0, flush_ms = 0, ckpt_pause_ms = 0;
  uint64_t ckpt_bytes = 0;
};

int Run(const Args& a) {
  const double S = a.seconds;
  const double t_lat = 0.2 * S;  // each open-loop phase
  const double max_budget = 0.35 * S;

  // Phase sizes, fixed by the rates and the run length before any
  // event is generated.
  Workload w;
  if (!MakeWorkload(a.workload, a.seed, 0, &w)) Fatal("unknown workload " + a.workload);
  if (a.smoke) w.checkpoint_every = 40 * static_cast<int64_t>(w.batch);
  const size_t b = w.batch;
  auto round_up = [b](double x) {
    return std::max<size_t>(b, static_cast<size_t>(std::ceil(x / b)) * b);
  };
  const size_t n_max = round_up(0.05 * S * w.hi_eps);
  const size_t n_lo = round_up(t_lat * w.lo_eps);
  size_t n_hi = round_up(t_lat * w.hi_eps);
  size_t crash_ckpt = 0;
  if (w.durable) {
    // End the hi phase half-way between two checkpoints.
    const size_t c = static_cast<size_t>(w.checkpoint_every);
    const size_t k = std::max<size_t>(1, n_hi / c);
    crash_ckpt = k * c;
    n_hi = crash_ckpt + c / 2;
  }
  std::vector<size_t> points = {n_max, n_lo, n_hi};
  if (w.durable) points.push_back(crash_ckpt);
  const size_t n_input = *std::max_element(points.begin(), points.end());

  const int64_t g0 = NowNs();
  if (!MakeWorkload(a.workload, a.seed, n_input, &w)) Fatal("generate");
  if (a.smoke) w.checkpoint_every = 40 * static_cast<int64_t>(w.batch);
  auto spec_r = tpstream::query::ParseQuery(w.query, w.input.schema);
  if (!spec_r.ok()) Fatal("query: " + spec_r.status().ToString());
  const QuerySpec spec = spec_r.value();
  // In a phase process of its own, like everything after it, so the
  // reference engine's heap never becomes the timed phases' heap.
  struct RefDigests {
    Digest d[4];
    double eps = 0;
  };
  const RefDigests ref_digests = InChild<RefDigests>([&] {
    RefDigests out;
    const std::vector<Digest> r = Reference(w, spec, points, &out.eps);
    std::copy(r.begin(), r.end(), out.d);
    return out;
  });
  const std::vector<Digest> ref(ref_digests.d, ref_digests.d + points.size());
  std::fprintf(stderr,
               "# %s seed=%llu: %zu events, %u keys, reference %lld alerts, "
               "prepared in %.1fs\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               w.input.size(), w.input.num_keys,
               static_cast<long long>(ref[2].total()), (NowNs() - g0) / 1e9);

  Ledger ledger;
  Metrics m;
  Tracer off(false);
  Sink sink;
  sink.in = &w.input;

  // --- setup ---------------------------------------------------------------
  // A sample of kSetupsPerSample setups runs in a phase process of its own
  // before every timed phase, so set-up time is sampled across the whole
  // run rather than in one stretch: on a shared VM a single thread's speed
  // changes by up to 2x from one half-second to the next.
  std::vector<double> setup_s, parse_us;
  auto sample_setup = [&] {
    const SetupResult r = InChild<SetupResult>([&] {
      SetupResult out;
      for (int k = 0; k < kSetupsPerSample; ++k) {
        const std::string dir = FreshDir(a, "setup");
        const int64_t t0 = NowNs();
        Deployment d;
        d.Open(w, dir, &sink, &off, &out.parse_us[k]);
        out.seconds[k] = (NowNs() - t0) / 1e9;
      }
      return out;
    });
    setup_s.insert(setup_s.end(), r.seconds, r.seconds + kSetupsPerSample);
    parse_us.insert(parse_us.end(), r.parse_us,
                    r.parse_us + kSetupsPerSample);
  };

  // --- max: closed loop ----------------------------------------------------
  // Peak RSS of the deployment phases (max, lo, hi) only: not of the
  // reference pass or the traced layer passes.
  double peak_rss_mib = 0;
  std::vector<double> eps;
  const int64_t m0 = NowNs();
  while (eps.size() < 8 ||
         (eps.size() < 24 && (NowNs() - m0) / 1e9 < max_budget)) {
    sample_setup();
    const MaxResult res = InChild<MaxResult>([&] {
      sink.Clear();
      Deployment d;
      d.Open(w, FreshDir(a, "max"), &sink, &off, nullptr);
      MaxResult out;
      out.eps = ClosedLoop(d, n_max);
      out.shed = d.shed();
      d.par.reset();  // drained by Flush(); the digest is final
      out.digest = sink.digest;
      return out;
    }, &peak_rss_mib);
    eps.push_back(res.eps);
    ledger.Check("max", ref[0], res.digest, n_max, res.shed);
  }

  // --- lo / hi: open loop --------------------------------------------------
  std::map<std::string, Tail> tails;
  double lag_p99_us = 0;
  int64_t backlog_max = 0;
  const std::string crash_dir = a.scratch + "/hi";
  for (int phase = 0; phase < 2; ++phase) {
    const bool hi = phase == 1;
    const size_t n = hi ? n_hi : n_lo;
    const Digest& want = ref[hi ? 2 : 1];
    // A phase during which the host took more than kMaxStolenShare of the
    // VM's CPU time is run again, at most twice, and the attempt with the
    // least stolen share counts. Every attempt's alerts are checked.
    OpenResult res;
    int attempts = 0;
    while (attempts == 0 ||
           (attempts < 3 && res.stolen_share > kMaxStolenShare)) {
      ++attempts;
      sample_setup();
      const OpenResult r = InChild<OpenResult>([&] {
        sink.Clear();
        const int windows =
            Windows(want.total() * 9 / 10, static_cast<int64_t>(n * 9 / 10),
                    w.durable ? w.checkpoint_every : 0);
        sink.lat_us.assign(windows, {});
        for (auto& v : sink.lat_us) v.reserve(want.total() / windows + 1024);
        Schedule sched;
        OpenResult out;
        {
          Deployment d;
          d.Open(w, FreshDir(a, hi ? "hi" : "lo"), &sink, &off, nullptr);
          OpenLoop(d, sink, n, hi ? w.hi_eps : w.lo_eps, windows, &sched);
          out.shed = d.shed();
          // drivers_durable: leaving this scope is the crash. The engine and
          // log are dropped without a final checkpoint; the files stay.
        }
        out.digest = sink.digest;
        out.unmatched = sink.unmatched;
        std::vector<uint64_t> steal(windows);
        for (int k = 0; k < windows; ++k) {
          steal[k] = sched.steal_at[k + 1] - sched.steal_at[k];
        }
        std::vector<std::vector<float>*> quiet;
        for (size_t k : QuietWindows(steal)) quiet.push_back(&sink.lat_us[k]);
        out.windows = windows;
        out.quiet = static_cast<int>(quiet.size());
        out.steal_ticks = sched.steal_at.back() - sched.steal_at.front();
        const double cpu_ticks = sched.seconds * sysconf(_SC_CLK_TCK) *
                                 std::thread::hardware_concurrency();
        out.stolen_share = out.steal_ticks / cpu_ticks;
        out.p50 = PooledTail(quiet, 50);
        out.p99 = PooledTail(quiet, 99);
        out.lag_p99_us = TailPercentile(sched.lag_us, 99).value;
        out.backlog_max = sched.backlog_max;
        return out;
      }, &peak_rss_mib);
      ledger.Check(hi ? "hi" : "lo", want, r.digest, n, r.shed);
      if (r.unmatched) Fatal("alerts without a trigger event");
      if (attempts == 1 || r.stolen_share < res.stolen_share) res = r;
    }
    const std::string sfx = hi ? "hi" : "lo";
    m["alert_p50_us_" + sfx] = {res.p50.value, "us"};
    m["alert_p99_us_" + sfx] = {res.p99.value, "us"};
    tails["p50_" + sfx] = res.p50;
    tails["p99_" + sfx] = res.p99;
    std::fprintf(stderr,
                 "# %s: percentiles over %d of %d windows; %llu ticks "
                 "(%.1f%%) of CPU time stolen by the host during the phase; "
                 "%d attempt(s)\n",
                 sfx.c_str(), res.quiet, res.windows,
                 static_cast<unsigned long long>(res.steal_ticks),
                 100 * res.stolen_share, attempts);
    lag_p99_us = std::max(lag_p99_us, res.lag_p99_us);
    backlog_max = std::max(backlog_max, res.backlog_max);
  }

  // --- recover -------------------------------------------------------------
  std::vector<double> recover_s;
  RecoveryTiming traced_recovery;
  if (w.durable) {
    const Digest want = ref[2].Minus(ref[3]);
    for (int r = 0; r < 3 + a.trace; ++r) {
      const bool traced = r == 3;
      sample_setup();
      const RecoverResult res = InChild<RecoverResult>([&] {
        sink.Clear();
        RecoverResult out;
        out.t = Recover(w, spec, crash_dir, &sink, traced);
        out.digest = sink.digest;
        return out;
      });
      if (res.t.offset != crash_ckpt || res.t.replayed != n_hi - crash_ckpt) {
        Fatal("recovery resumed at offset " + std::to_string(res.t.offset) +
              ", expected " + std::to_string(crash_ckpt));
      }
      ledger.Check("replay", want, res.digest,
                   static_cast<int64_t>(res.t.replayed), 0);
      if (traced) {
        traced_recovery = res.t;
      } else {
        recover_s.push_back(res.t.seconds);
      }
    }
  }

  std::fprintf(stderr, "# max_eps reps:");
  for (double e : eps) std::fprintf(stderr, " %.0f", e);
  std::fprintf(stderr, "\n");
  // Upper quartile of the repetitions: on a shared VM a repetition runs
  // 40% slower whenever its vCPU's physical core is busy with a
  // neighbour, and the share of such repetitions drifts from minute to
  // minute; the upper quartile tracks what the engine does when it gets
  // the core.
  m["max_eps"] = {UpperQuartile(eps), "events/s"};
  m["setup_s"] = {Median(setup_s), "s"};
  std::fprintf(stderr, "# setup_s: median of %zu setups in %zu samples\n",
               setup_s.size(), setup_s.size() / kSetupsPerSample);
  if (w.durable) m["recover_s"] = {Median(recover_s), "s"};
  // The same job on one thread (the reference pass, callback included):
  // the single-threaded baseline the parallel deployments are read
  // against.
  m["core.single_thread_eps"] = {ref_digests.eps, "events/s"};
  m["workload.gen_lag_p99_us"] = {lag_p99_us, "us"};
  m["workload.backlog_max_events"] = {static_cast<double>(backlog_max), "count"};

  // --- traced run ----------------------------------------------------------
  if (a.trace) {
    const TracedResult tr = InChild<TracedResult>([&] {
      Tracer tracer(true);
      sink.Clear();
      TracedResult out;
      Deployment d;
      d.Open(w, FreshDir(a, "traced"), &sink, &tracer, nullptr);
      out.eps = ClosedLoop(d, n_max);
      out.shed = d.shed();
      const std::map<std::string, int64_t> self = SelfTimes(tracer.spans());
      auto per_event = [&](const char* name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / static_cast<double>(n_max);
      };
      out.log_ns = per_event("log.append");
      out.ckpt_ns = per_event("ckpt.checkpoint");
      out.push_ns = per_event("parallel.push");
      out.flush_ns = per_event("parallel.flush");
      out.materialize_ns = per_event("workload.materialize");
      for (const Span& s : tracer.spans()) {
        if (std::string(s.name) == "parallel.flush") {
          out.flush_ms = (s.end - s.start) / 1e6;
        }
      }
      const obs::MetricsSnapshot snap = d.par->Metrics();
      const double batches = snap.counters.at("parallel.batches");
      if (batches > 0) {
        out.ring_full_per_kbatch =
            1000.0 * snap.counters.at("parallel.ring_full") / batches;
      }
      if (d.log) {
        const obs::MetricsSnapshot snap = d.log_metrics.Snapshot();
        out.log_bytes = snap.counters.at("log.appended_bytes");
        out.log_fsyncs = snap.counters.at("log.fsyncs");
        out.fsync_p99_us =
            snap.histograms.at("log.fsync_ns").Quantile(99) / 1e3;
      }
      out.ckpt_pause_ms = Median(d.ckpt_ms);
      out.ckpt_bytes = d.ckpt_bytes;
      d.par.reset();
      out.digest = sink.digest;
      WriteSpans(a.scratch + "/spans-" + w.name + ".jsonl", tracer.spans());
      return out;
    });
    ledger.Check("traced max", ref[0], tr.digest, n_max, tr.shed);

    const LayerPass lp = RunLayerPasses(w, spec, n_max, ref[0], &ledger);
    auto counter = [&lp](const std::string& name) -> double {
      auto it = lp.counters.counters.find(name);
      return it == lp.counters.counters.end() ? 0.0 : it->second;
    };
    const double nev = static_cast<double>(lp.events);

    // Self time per event of each layer on the path every event takes.
    // Producer-side layers come from the traced closed-loop run; the
    // layers inside the engine come from the single-threaded passes.
    const double core_ns = lp.partitioned_ns - lp.derive_ns - lp.match_ns;
    const std::map<std::string, double> layer_ns = {
        {"log", tr.log_ns},
        {"ckpt", tr.ckpt_ns},
        {"parallel", tr.push_ns + tr.flush_ns},
        {"core", core_ns},
        {"derive", lp.derive_ns},
        {"matcher", lp.match_ns},
        {"emit", lp.emit_ns},
    };
    double total = 0;
    for (const auto& [k, v] : layer_ns) total += std::max(v, 0.0);
    for (const auto& [k, v] : layer_ns) {
      m["self_ns." + k] = {v, "ns/event"};
      m["self_share." + k] = {total > 0 ? std::max(v, 0.0) / total : 0,
                              "ratio"};
    }

    m["query.parse_us"] = {Median(parse_us), "us"};
    m["log.append_ns_per_event"] = {tr.log_ns, "ns/event"};
    m["log.bytes_per_event"] = {tr.log_bytes / n_max, "B/event"};
    m["log.fsyncs_per_mevent"] = {tr.log_fsyncs * 1e6 / n_max, "1/Mevent"};
    m["log.fsync_p99_us"] = {tr.fsync_p99_us, "us"};
    m["log.restore_ms"] = {traced_recovery.restore_ms, "ms"};
    m["log.replay_ns_per_event"] = {traced_recovery.replay_ns_per_event,
                                    "ns/event"};
    m["ckpt.pause_ms"] = {tr.ckpt_pause_ms, "ms"};
    m["ckpt.bytes"] = {static_cast<double>(tr.ckpt_bytes), "B"};
    m["parallel.push_ns_per_event"] = {tr.push_ns, "ns/event"};
    m["parallel.flush_wait_ms"] = {tr.flush_ms, "ms"};
    m["parallel.ring_full_per_kbatch"] = {tr.ring_full_per_kbatch, "1/kbatch"};
    m["core.partition_ns_per_event"] = {core_ns, "ns/event"};
    m["core.partitions"] = {static_cast<double>(lp.partitions), "count"};
    m["core.buffered_situations"] = {static_cast<double>(lp.buffered), "count"};
    m["core.alerts_per_kevent"] = {1000.0 * lp.alerts / nev, "1/kevent"};
    m["derive.ns_per_event"] = {lp.derive_ns, "ns/event"};
    m["derive.predicate_evals_per_event"] = {
        counter("deriver.predicate_evals") / nev, "1/event"};
    m["derive.situations_per_kevent"] = {
        1000.0 * counter("deriver.situations_finished") / nev, "1/kevent"};
    m["matcher.ns_per_event"] = {lp.match_ns, "ns/event"};
    m["matcher.probes_per_alert"] = {
        lp.alerts ? counter("matcher.probes") / lp.alerts : 0.0, "1/alert"};
    m["matcher.triggers_per_kevent"] = {
        1000.0 * counter("matcher.triggers") / nev, "1/kevent"};
    m["optimizer.reoptimizations"] = {counter("optimizer.reoptimizations"),
                                      "count"};
    m["emit.ns_per_event"] = {lp.emit_ns, "ns/event"};
    m["workload.materialize_ns_per_event"] = {tr.materialize_ns, "ns/event"};
    // Against the untraced repetitions' median, since the traced run is
    // one repetition.
    m["trace.overhead_frac"] = {1.0 - tr.eps / Median(eps), "ratio"};
  }

  m["peak_rss_mb"] = {peak_rss_mib, "MiB"};
  m["failed_frac"] = {static_cast<double>(ledger.failed()) /
                          std::max<int64_t>(1, ledger.attempted()),
                      "ratio"};

  // --- report --------------------------------------------------------------
  const bool correct = ledger.failed() == 0;
  for (const auto& [name, t] : tails) {
    std::fprintf(stderr, "# latency %-7s = %.1f us (p%.3f, n=%lld, %lld beyond)\n",
                 name.c_str(), t.value, t.pct, static_cast<long long>(t.n),
                 static_cast<long long>(t.beyond));
  }
  std::string json = "{\"workload\":\"" + w.name + "\",\"seed\":" +
                     std::to_string(a.seed) + ",\"trace\":" +
                     std::to_string(a.trace) + ",\"stamp\":{\"cpus\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"simd\":\"" +
                     tpstream::simd::SimdLevelName(
                         tpstream::simd::DefaultSimdLevel()) +
                     "\",\"compiler\":\"" E2EBENCH_COMPILER
                     "\",\"build_type\":\"" E2EBENCH_BUILD_TYPE "\"}";
  json += ",\"correct\":" + std::string(correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(ledger.attempted());
  json += ",\"failed\":" + std::to_string(ledger.failed());
  json += ",\"samples\":{";
  bool first = true;
  for (const auto& [name, t] : tails) {
    json += std::string(first ? "" : ",") + "\"" + name + "\":{\"n\":" +
            std::to_string(t.n) + ",\"beyond\":" + std::to_string(t.beyond) +
            ",\"pct\":" + JsonNumber(t.pct) + "}";
    first = false;
  }
  json += "},\"metrics\":{";
  first = true;
  for (const auto& [name, v] : m) {
    json += std::string(first ? "" : ",") + "\"" + name + "\":{\"value\":" +
            JsonNumber(v.value) + ",\"unit\":\"" + v.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

// --- self-test of the benchmark's own arithmetic ---------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  {
    std::vector<float> v(1000);
    std::iota(v.begin(), v.end(), 1.0f);
    const Tail t = TailPercentile(v, 99);
    std::printf("      p99 of 1..1000: value=%.0f n=%lld beyond=%lld\n",
                t.value, static_cast<long long>(t.n),
                static_cast<long long>(t.beyond));
    expect(t.value == 990 && t.beyond == 10 && t.n == 1000,
           "p99 of 1000 samples leaves exactly 10 beyond");
    std::vector<float> w(500);
    std::iota(w.begin(), w.end(), 1.0f);
    const Tail u = TailPercentile(w, 99);
    std::printf("      p99 of 1..500: value=%.0f pct=%.1f beyond=%lld\n",
                u.value, u.pct, static_cast<long long>(u.beyond));
    expect(u.value == 490 && u.beyond == 10 && u.pct < 99,
           "p99 of 500 samples is lowered to keep 10 beyond");
    std::vector<float> x = {3, 1, 2};
    const Tail s = TailPercentile(x, 50);
    expect(s.value == 3 && s.pct == 100, "fewer than 11 samples report max");
    std::vector<float> y(101);
    std::iota(y.begin(), y.end(), 0.0f);
    expect(TailPercentile(y, 50).value == 50, "median of 0..100 is 50");
    expect(UpperQuartile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) == 8.25,
           "upper quartile matches statistics.quantiles(n=4)");

    std::vector<std::vector<float>> parts(3);
    std::vector<float> all;
    uint64_t r = 12345;
    for (int i = 0; i < 3000; ++i) {
      r = Mix(r);
      const float f =
          static_cast<float>(static_cast<int64_t>(r % 20000) - 500) / 7;
      parts[i % 3 == 0 ? 0 : (i % 7 == 0 ? 1 : 2)].push_back(f);
      all.push_back(f);
    }
    const std::vector<std::vector<float>*> ptrs = {&parts[0], &parts[1],
                                                   &parts[2]};
    bool pooled_ok = true;
    for (double pct : {1.0, 50.0, 99.0}) {
      const Tail p = PooledTail(ptrs, pct);
      const Tail q = TailPercentile(all, pct);
      pooled_ok = pooled_ok && p.value == q.value && p.n == q.n &&
                  p.beyond == q.beyond;
    }
    expect(pooled_ok, "pooled percentile of parts equals that of their union");

    expect(QuietWindows({3, 0, 2, 0, 0, 1}) == std::vector<size_t>{1, 3, 4},
           "every window without stolen time is kept");
    expect(QuietWindows({3, 1, 2, 1, 5, 4, 0}) == std::vector<size_t>{1, 3, 6},
           "at least the third with the least stolen time is kept");
  }

  {
    // root [0,100] > A [10,40] > A1 [20,30]; root > B [50,90] and an
    // overlapping B' [60,95] (union with B: [50,95]).
    std::vector<Span> spans = {
        {"root", 0, 100, -1, 0}, {"A", 10, 40, 0, 0}, {"A1", 20, 30, 1, 0},
        {"B", 50, 90, 0, 0},     {"B", 60, 95, 0, 0}};
    const auto self = SelfTimes(spans);
    expect(self.at("root") == 100 - 30 - 45, "root self time excludes children");
    expect(self.at("A") == 20, "nested child self time excludes grandchild");
    expect(self.at("A1") == 10, "leaf self time is its duration");
    expect(self.at("B") == 40 + 35, "same-name spans sum");
  }

  {
    std::vector<Event> alerts;
    Digest want;
    for (int i = 0; i < 5000; ++i) {
      Event e({Value(static_cast<int64_t>(i % 64)), Value(0.5 * i)}, i / 3);
      want.Add(AlertHash(e));
      alerts.push_back(e);
    }
    Digest same;
    for (auto it = alerts.rbegin(); it != alerts.rend(); ++it) {
      same.Add(AlertHash(*it));
    }
    const AlertDiff d0 = Compare(want, same);
    expect(d0.missing == 0 && d0.extra == 0, "order does not matter");

    Ledger ledger;
    Digest planted = same;
    planted.Add(AlertHash(Event({Value(int64_t{7}), Value(1.0)}, 99)));
    ledger.Check("planted", want, planted, 10000, 0);
    const double frac =
        static_cast<double>(ledger.failed()) / ledger.attempted();
    std::printf("      planted extra alert: failed=%lld attempted=%lld "
                "failed_frac=%.3g\n",
                static_cast<long long>(ledger.failed()),
                static_cast<long long>(ledger.attempted()), frac);
    expect(ledger.extra == 1 && ledger.missing == 0 &&
               frac == 1.0 / (5000 + 10000),
           "a planted extra alert shows in failed_frac");

    Digest changed;
    for (size_t i = 0; i < alerts.size(); ++i) {
      Event e = alerts[i];
      if (i == 17) e.payload[1] = Value(-1.0);
      changed.Add(AlertHash(e));
    }
    const AlertDiff d1 = Compare(want, changed);
    expect(d1.missing == 1 && d1.extra == 1,
           "a changed payload is one missing plus one extra");

    Digest prefix;
    for (int i = 0; i < 1000; ++i) prefix.Add(AlertHash(alerts[i]));
    Digest tail;
    for (int i = 1000; i < 5000; ++i) tail.Add(AlertHash(alerts[i]));
    const AlertDiff d2 = Compare(tail, want.Minus(prefix));
    expect(d2.missing == 0 && d2.extra == 0,
           "digest difference isolates a suffix");
  }

  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::ParseArgs(argc, argv);
  if (args.selftest) return e2e::SelfTest();
  return e2e::Run(args);
}
