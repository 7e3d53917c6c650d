// One conformance suite for the engine contract (log::Engine): the two
// ingestion surfaces — TPStreamOperator and parallel::ParallelTPStream —
// run the same typed cases, each row described by a small traits struct
// (make, drain, metrics). TPStreamOperator has four rows, one per
// checkpoint layout and query count: OperatorSurface runs an
// unpartitioned query (one kOperator section, full snapshots only) and
// PartitionedSurface a PARTITION BY one (kPartitioned, sorted by key);
// QueryGroupSurface and PartitionedMultiQuerySurface run two queries
// sharing a definition, unpartitioned and over five keys:
//
//  * Flush is an idempotent synchronization point: a no-op on an empty
//    stream, it publishes gauges and a second Flush changes neither state
//    nor metrics, and the stream continues after it with the same
//    matches and state as without it;
//  * PushBatch (const and mutable spans, several batch sizes) is
//    equivalent to one Push per event: same matches, same checkpoint;
//  * Restore into a fresh instance and into an instance mid-way through
//    a different stream (full overwrite) resumes the reference run;
//    double restore re-checkpoints byte for byte;
//  * Reset — after a stream or after a restore — returns the exact state
//    of a fresh instance (adaptive statistics and evaluation order
//    included, since both are checkpointed);
//  * the checkpoint of a fresh instance restores into a fresh instance;
//  * kill and recover (Durability contract): an engine killed right after
//    a checkpoint at any offset, restored into a fresh instance and
//    replayed from the stamped offset equals the uninterrupted run —
//    matches, counters and final checkpoint bytes — and so does one
//    recovered by RecoveryManager from a durable log after a clean crash,
//    a crash that tears the unsynced log tail, and a corrupted newest
//    checkpoint. The operator's option variants (baseline matcher, fixed
//    evaluation order, overload caps) run the same kill-at-offset helper.
//
// Matches are compared as rendered strings ("t|payload..."), in emission
// order where the surface is sequential and sorted for the parallel one,
// whose workers interleave.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "log/event_log.h"
#include "log/memfs.h"
#include "log/recovery.h"
#include "obs/metrics.h"
#include "parallel/parallel_operator.h"
#include "query/builder.h"

namespace tpstream {
namespace {

static_assert(log::Engine<TPStreamOperator>);
static_assert(log::Engine<parallel::ParallelTPStream>);

Schema KeyedSchema() {
  return Schema({Field{"key", ValueType::kInt}, Field{"a", ValueType::kBool},
                 Field{"b", ValueType::kBool}});
}

/// "A overlaps B" with a count aggregate, so checkpoints carry live
/// aggregate state next to the matcher's.
QuerySpec OverlapSpec(bool partitioned) {
  QueryBuilder qb(KeyedSchema());
  qb.Define("A", FieldRef(1, "a"))
      .Define("B", FieldRef(2, "b"))
      .Relate("A", Relation::kOverlaps, "B")
      .Within(100)
      .Return("n_a", "A", AggKind::kCount);
  if (partitioned) qb.PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// Second query of the multi-query rows: shares definition A (predicate
/// and count aggregate) with OverlapSpec.
QuerySpec BeforeSpec(bool partitioned) {
  QueryBuilder qb(KeyedSchema());
  qb.Define("A", FieldRef(1, "a"))
      .Define("C", Not(FieldRef(2, "b")))
      .Relate("A", Relation::kBefore, "C")
      .Within(60)
      .ReturnStart("a_start", "A")
      .Return("n_a", "A", AggKind::kCount);
  if (partitioned) qb.PartitionBy("key");
  auto spec = qb.Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.value();
}

/// `n` events at t = t0+1 .. t0+n, keys round-robin over `keys`; each
/// key's a/b flags flip independently with ~10% probability per event.
std::vector<Event> Stream(int n, int keys, uint64_t seed, TimePoint t0 = 0) {
  std::vector<Event> events;
  events.reserve(n);
  std::vector<bool> a(keys, false), b(keys, false);
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto flip = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 100 < 10;
  };
  for (int i = 0; i < n; ++i) {
    const int k = i % keys;
    if (flip()) a[k] = !a[k];
    if (flip()) b[k] = !b[k];
    events.push_back(Event({Value(static_cast<int64_t>(k)), Value(a[k]),
                            Value(b[k])},
                           t0 + i + 1));
  }
  return events;
}

/// Thread-safe match collector (the parallel surface calls back from its
/// workers under its own output mutex; the lock keeps reads race-free).
class Collector {
 public:
  TPStreamOperator::OutputCallback Callback(std::string tag = "") {
    return [this, tag = std::move(tag)](const Event& e) {
      std::string line = tag + std::to_string(e.t);
      for (const Value& v : e.payload) line += "|" + v.ToString();
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(std::move(line));
    };
  }

  /// Returns and clears the matches collected so far.
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(lines_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

// --- one traits struct per row ----------------------------------------------

/// Make wires an optional metrics registry; Metrics reads back what the
/// engine recorded (ParallelTPStream merges its worker-local registries).
/// The TPStreamOperator rows: one per checkpoint layout.
template <bool kPartitioned>
struct OperatorRow {
  using Engine = TPStreamOperator;
  static constexpr int kKeys = kPartitioned ? 5 : 1;
  static constexpr bool kOrdered = true;
  static std::unique_ptr<Engine> Make(Collector* out,
                                      obs::MetricsRegistry* metrics) {
    TPStreamOperator::Options options;
    options.metrics = metrics;
    return std::make_unique<Engine>(OverlapSpec(kPartitioned), options,
                                    out->Callback());
  }
  static void Drain(Engine&) {}
  static obs::MetricsSnapshot Metrics(Engine&, obs::MetricsRegistry& r) {
    return r.Snapshot();
  }
};
/// Unpartitioned query: envelope + one kOperator section.
struct OperatorSurface : OperatorRow<false> {};
/// PARTITION BY query: envelope + one kPartitioned section.
struct PartitionedSurface : OperatorRow<true> {};

struct ParallelSurface {
  using Engine = parallel::ParallelTPStream;
  static constexpr int kKeys = 5;
  static constexpr bool kOrdered = false;
  static constexpr int kWorkers = 3;
  static std::unique_ptr<Engine> Make(Collector* out,
                                      obs::MetricsRegistry* metrics) {
    Engine::Options options;
    options.num_workers = kWorkers;
    options.batch_size = 8;  // many batches per stream
    options.operator_options.metrics = metrics;
    return std::make_unique<Engine>(OverlapSpec(true), options,
                                    out->Callback());
  }
  static void Drain(Engine& e) { e.Flush(); }
  static obs::MetricsSnapshot Metrics(Engine& e, obs::MetricsRegistry&) {
    return e.Metrics();
  }
};

/// The two-query TPStreamOperator rows; the second query stays
/// uninstrumented.
template <bool kPartitioned>
struct MultiQueryRow : OperatorRow<kPartitioned> {
  static std::unique_ptr<TPStreamOperator> Make(
      Collector* out, obs::MetricsRegistry* metrics) {
    TPStreamOperator::Options options;
    options.metrics = metrics;
    std::vector<TPStreamOperator::Query> queries(2);
    queries[0] = {OverlapSpec(kPartitioned), out->Callback("q0@"), metrics};
    queries[1] = {BeforeSpec(kPartitioned), out->Callback("q1@")};
    auto op = TPStreamOperator::Create(std::move(queries), options);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    EXPECT_EQ(op.value()->num_distinct_definitions(), 3);  // A is shared
    return std::move(op).value();
  }
};
/// Unpartitioned: envelope + one kOperator section of a deriver and two
/// engines. (The name predates the multi-query operator; the typed-test
/// names embed it.)
struct QueryGroupSurface : MultiQueryRow<false> {};
/// PARTITION BY: that section per key inside kPartitioned.
struct PartitionedMultiQuerySurface : MultiQueryRow<true> {};

// --- helpers shared by the cases -------------------------------------------

template <typename Engine>
std::string Snapshot(Engine& e) {
  ckpt::Writer w;
  e.Checkpoint(w);
  return w.Take();
}

/// The logical counters a recovered engine must carry over; the rest of
/// its state (buffers, statistics, evaluation order, dedup table) is
/// compared through the final checkpoint bytes.
std::vector<int64_t> Counters(const TPStreamOperator& e) {
  std::vector<int64_t> counters = {
      e.num_events(), e.num_matches(),
      static_cast<int64_t>(e.num_partitions()), e.shed_situations(),
      e.lost_match_upper_bound(), e.shed_trigger_candidates()};
  for (int q = 0; q < e.num_queries(); ++q) {
    counters.push_back(e.num_matches(q));
  }
  return counters;
}
std::vector<int64_t> Counters(const parallel::ParallelTPStream& e) {
  return {e.num_events(), e.num_matches(),
          static_cast<int64_t>(e.num_partitions())};
}

constexpr size_t kKillOffsets[] = {1, 133, 257, 399};

/// Kill-at-offset differential. `make(Collector*)` builds a fresh engine
/// (the same construction for every incarnation). For each kill offset a
/// first incarnation runs the stream up to it, checkpoints and dies; a
/// second one restores the checkpoint and replays from the stamped
/// offset. The matches of both incarnations, the counters and the final
/// checkpoint bytes must equal those of the uninterrupted run.
template <typename MakeFn>
void RunOperatorDifferential(MakeFn make, bool ordered,
                             const std::vector<Event>& events) {
  Collector collector;
  const auto take = [&] {
    std::vector<std::string> lines = collector.Take();
    if (!ordered) std::sort(lines.begin(), lines.end());
    return lines;
  };
  auto ref = make(&collector);
  for (const Event& e : events) ref->Push(e);
  ref->Flush();
  const std::vector<std::string> ref_outputs = take();
  const std::vector<int64_t> ref_counters = Counters(*ref);
  const std::string ref_final = Snapshot(*ref);
  ASSERT_FALSE(ref_outputs.empty()) << "workload produced no matches";

  for (const size_t kill : kKillOffsets) {
    SCOPED_TRACE("kill@" + std::to_string(kill));
    ASSERT_LT(kill, events.size());
    std::string blob;
    {
      auto first = make(&collector);
      for (size_t i = 0; i < kill; ++i) first->Push(events[i]);
      blob = Snapshot(*first);  // quiescent: a parallel engine drains
    }
    auto second = make(&collector);
    ckpt::Reader r(blob);
    uint64_t offset = 0;
    ASSERT_TRUE(second->Restore(r, &offset).ok()) << r.status().ToString();
    ASSERT_EQ(offset, kill);
    for (size_t i = offset; i < events.size(); ++i) second->Push(events[i]);
    second->Flush();
    EXPECT_EQ(take(), ref_outputs);
    EXPECT_EQ(Counters(*second), ref_counters);
    EXPECT_EQ(Snapshot(*second), ref_final) << "recovered state diverged";
  }
}

enum class CrashMode {
  kClean,          // log synced per record: nothing lost
  kTornTail,       // unsynced log tail wiped by the crash
  kCorruptNewest,  // newest checkpoint file bit-flipped after the crash
};

/// Crash-recovery differential through log::RecoveryManager on a
/// MemFileSystem. For each kill offset an engine feeds a durable log,
/// checkpoints at a quarter and at half of the offset (so recovery
/// restores and replays, deltas chain on PARTITION BY queries, and a
/// corrupted newest checkpoint has an older generation to fall back to)
/// and crashes. A fresh engine recovers with one Recover() call, the
/// source re-sends from the log's end, and the final checkpoint bytes
/// must equal those of the uninterrupted run.
template <typename MakeFn>
void RunRecoveryDifferential(MakeFn make, const std::vector<Event>& events,
                             CrashMode mode) {
  constexpr char kLogDir[] = "/wal";
  constexpr char kCkptDir[] = "/wal/ckpt";
  Collector collector;  // matches are compared by RunOperatorDifferential
  std::string ref_final;
  {
    auto ref = make(&collector);
    for (const Event& e : events) ref->Push(e);
    ref->Flush();
    ref_final = Snapshot(*ref);
  }

  log::EventLogOptions log_options;
  if (mode == CrashMode::kTornTail) {
    log_options.sync.mode = log::SyncMode::kEveryBytes;
    log_options.sync.sync_bytes = 1 << 20;  // the crash loses the tail
  }
  log::RecoveryManager::Options mgr_options;
  mgr_options.full_snapshot_interval = 2;  // every other one is a delta
  const auto open = [&](log::FileSystem* fs,
                        std::unique_ptr<log::EventLog>* log,
                        std::unique_ptr<log::RecoveryManager>* mgr) {
    Status s = log::EventLog::Open(fs, kLogDir, log_options, log);
    if (s.ok()) {
      s = log::RecoveryManager::Open(fs, kCkptDir, log->get(), mgr_options,
                                     mgr);
    }
    return s;
  };
  const auto feed = [](log::EventLog& log, auto& engine, const Event& e) {
    auto r = log.Append(std::span<const Event>(&e, 1));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    engine.Push(e);
  };

  for (const size_t kill : kKillOffsets) {
    SCOPED_TRACE("kill@" + std::to_string(kill) +
                 " mode=" + std::to_string(static_cast<int>(mode)));
    log::MemFileSystem fs;
    {
      std::unique_ptr<log::EventLog> log;
      std::unique_ptr<log::RecoveryManager> mgr;
      ASSERT_TRUE(open(&fs, &log, &mgr).ok());
      auto first = make(&collector);
      for (size_t i = 0; i < kill; ++i) {
        feed(*log, *first, events[i]);
        if (kill >= 4 && (i + 1 == kill / 2 || i + 1 == kill / 4)) {
          auto info = mgr->Checkpoint(*first);
          ASSERT_TRUE(info.ok()) << info.status().ToString();
        }
      }
    }
    if (mode == CrashMode::kTornTail) fs.SimulateCrash();
    if (mode == CrashMode::kCorruptNewest) {
      std::vector<std::string> names;
      ASSERT_TRUE(fs.ListDir(kCkptDir, &names).ok());
      std::sort(names.begin(), names.end());
      if (!names.empty()) {
        const std::string path = std::string(kCkptDir) + "/" + names.back();
        fs.CorruptByte(path, fs.FileSize(path) / 2, 0x10);
      }
    }

    std::unique_ptr<log::EventLog> log;
    std::unique_ptr<log::RecoveryManager> mgr;
    ASSERT_TRUE(open(&fs, &log, &mgr).ok());
    auto second = make(&collector);
    auto report = mgr->Recover(*second);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (mode == CrashMode::kClean) {
      ASSERT_EQ(log->end_offset(), kill);  // synced per record
    }
    // The source re-sends from the log's end (at-least-once upstream).
    for (size_t i = log->end_offset(); i < events.size(); ++i) {
      feed(*log, *second, events[i]);
    }
    second->Flush();
    EXPECT_EQ(Snapshot(*second), ref_final) << "recovered state diverged";
  }
}

template <typename Surface>
class EngineConformance : public ::testing::Test {
 protected:
  using Engine = typename Surface::Engine;
  static constexpr int kEvents = 600;

  void SetUp() override {
    events_ = Stream(kEvents, Surface::kKeys, /*seed=*/1);
    auto ref = Make();
    for (const Event& e : events_) ref->Push(e);
    Drain(*ref);
    ref_outputs_ = Outputs();
    ref_final_ = Snapshot(*ref);
    ASSERT_FALSE(ref_outputs_.empty()) << "workload produced no matches";
  }

  std::unique_ptr<Engine> Make(obs::MetricsRegistry* metrics = nullptr) {
    return Surface::Make(&collector_, metrics);
  }
  void Drain(Engine& e) { Surface::Drain(e); }

  /// Matches collected since the last call, sorted unless the surface
  /// emits in a deterministic order.
  std::vector<std::string> Outputs() {
    std::vector<std::string> lines = collector_.Take();
    if (!Surface::kOrdered) std::sort(lines.begin(), lines.end());
    return lines;
  }

  static Status RestoreFrom(Engine& e, const std::string& blob,
                            uint64_t* offset = nullptr) {
    ckpt::Reader r(blob);
    return e.Restore(r, offset);
  }

  void PushRange(Engine& e, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) e.Push(events_[i]);
  }

  /// Checkpoint taken after the first half of the stream, and the
  /// matches that half produced.
  std::string HalfwayBlob(std::vector<std::string>* prefix_outputs) {
    auto source = Make();
    PushRange(*source, 0, events_.size() / 2);
    Drain(*source);
    *prefix_outputs = Outputs();
    return Snapshot(*source);
  }

  /// Prefix + resumed matches, in the same order Outputs() uses.
  std::vector<std::string> Concat(std::vector<std::string> prefix,
                                  const std::vector<std::string>& rest) {
    prefix.insert(prefix.end(), rest.begin(), rest.end());
    if (!Surface::kOrdered) std::sort(prefix.begin(), prefix.end());
    return prefix;
  }

  Collector collector_;
  std::vector<Event> events_;
  std::vector<std::string> ref_outputs_;
  std::string ref_final_;
};

using Surfaces =
    ::testing::Types<OperatorSurface, PartitionedSurface, ParallelSurface,
                     QueryGroupSurface, PartitionedMultiQuerySurface>;
TYPED_TEST_SUITE(EngineConformance, Surfaces);

// --- Flush lifecycle --------------------------------------------------------

TYPED_TEST(EngineConformance, FlushOnEmptyStreamIsANoOp) {
  auto e = this->Make();
  e->Flush();
  e->Flush();
  EXPECT_TRUE(this->Outputs().empty());
  this->PushRange(*e, 0, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Outputs(), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

TYPED_TEST(EngineConformance, DoubleFlushIsIdempotent) {
  obs::MetricsRegistry registry;
  auto e = this->Make(&registry);
  this->PushRange(*e, 0, this->events_.size());
  e->Flush();
  obs::MetricsSnapshot metrics = TypeParam::Metrics(*e, registry);
  EXPECT_FALSE(metrics.gauges.empty()) << "Flush published no gauges";
  const std::string once = Snapshot(*e);
  const std::vector<std::string> outputs = this->Outputs();

  e->Flush();
  EXPECT_TRUE(this->Outputs().empty());
  EXPECT_EQ(Snapshot(*e), once);
  EXPECT_EQ(outputs, this->ref_outputs_);
  obs::MetricsSnapshot again = TypeParam::Metrics(*e, registry);
  // The two checkpoints leave every metric as it was, except that a
  // parallel checkpoint records each worker's serialization time.
  if constexpr (std::is_same_v<TypeParam, ParallelSurface>) {
    constexpr char kSerialize[] = "parallel.ckpt_serialize_us";
    EXPECT_EQ(again.histograms.at(kSerialize).count,
              metrics.histograms.at(kSerialize).count +
                  2 * ParallelSurface::kWorkers);
    metrics.histograms.erase(kSerialize);
    again.histograms.erase(kSerialize);
  }
  EXPECT_EQ(again.counters, metrics.counters);
  EXPECT_EQ(again.gauges, metrics.gauges);
  EXPECT_EQ(again.histograms, metrics.histograms);
}

TYPED_TEST(EngineConformance, PushAfterFlushContinuesTheStream) {
  auto e = this->Make();
  const size_t half = this->events_.size() / 2;
  this->PushRange(*e, 0, half);
  e->Flush();
  const std::vector<std::string> first = this->Outputs();
  this->PushRange(*e, half, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Concat(first, this->Outputs()), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

// --- Batched ingestion ------------------------------------------------------

TYPED_TEST(EngineConformance, PushBatchEqualsPerEventPush) {
  const std::vector<Event>& events = this->events_;
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}, events.size()}) {
    for (const bool mutable_span : {false, true}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   (mutable_span ? " span<Event>" : " span<const Event>"));
      auto e = this->Make();
      std::vector<Event> copy = events;  // a mutable span may be consumed
      for (size_t i = 0; i < events.size(); i += batch) {
        const size_t n = std::min(batch, events.size() - i);
        if (mutable_span) {
          e->PushBatch(std::span<Event>(copy.data() + i, n));
        } else {
          e->PushBatch(std::span<const Event>(events.data() + i, n));
        }
      }
      this->Drain(*e);
      EXPECT_EQ(this->Outputs(), this->ref_outputs_);
      EXPECT_EQ(Snapshot(*e), this->ref_final_);
    }
  }
}

// --- Restore lifecycle ------------------------------------------------------

TYPED_TEST(EngineConformance, RestoreIntoFreshInstanceResumesTheStream) {
  std::vector<std::string> prefix;
  const std::string blob = this->HalfwayBlob(&prefix);
  const size_t half = this->events_.size() / 2;

  auto e = this->Make();
  uint64_t offset = 0;
  ASSERT_TRUE(this->RestoreFrom(*e, blob, &offset).ok());
  EXPECT_EQ(offset, half);
  this->PushRange(*e, offset, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Concat(prefix, this->Outputs()), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

TYPED_TEST(EngineConformance, RestoreIntoUsedInstanceOverwritesIt) {
  std::vector<std::string> prefix;
  const std::string blob = this->HalfwayBlob(&prefix);

  // Mid-way through a different, later stream: its buffers, counters,
  // partitions and pending triggers must be dropped, not merged.
  auto e = this->Make();
  for (const Event& ev :
       Stream(300, TypeParam::kKeys, /*seed=*/7, /*t0=*/100000)) {
    e->Push(ev);
  }
  this->Drain(*e);
  this->Outputs();
  uint64_t offset = 0;
  ASSERT_TRUE(this->RestoreFrom(*e, blob, &offset).ok());
  this->PushRange(*e, offset, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Concat(prefix, this->Outputs()), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

TYPED_TEST(EngineConformance, DoubleRestoreReCheckpointsByteIdentically) {
  std::vector<std::string> prefix;
  const std::string blob = this->HalfwayBlob(&prefix);
  auto e = this->Make();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(this->RestoreFrom(*e, blob).ok()) << "restore " << i;
  }
  EXPECT_EQ(Snapshot(*e), blob);
}

// --- Reset ------------------------------------------------------------------

TYPED_TEST(EngineConformance, ResetAfterStreamMatchesFreshInstance) {
  auto fresh = this->Make();
  const std::string fresh_blob = Snapshot(*fresh);

  // A full stream moves the adaptive state (matcher statistics, the
  // controller's evaluation order) away from the initial plan; Reset must
  // bring all of it back, which the byte comparison checks.
  auto e = this->Make();
  this->PushRange(*e, 0, this->events_.size());
  this->Drain(*e);
  this->Outputs();
  e->Reset();
  EXPECT_EQ(Snapshot(*e), fresh_blob);

  this->PushRange(*e, 0, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Outputs(), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

TYPED_TEST(EngineConformance, RestoreThenResetMatchesFreshInstance) {
  std::vector<std::string> prefix;
  const std::string blob = this->HalfwayBlob(&prefix);
  auto fresh = this->Make();
  const std::string fresh_blob = Snapshot(*fresh);

  auto e = this->Make();
  ASSERT_TRUE(this->RestoreFrom(*e, blob).ok());
  e->Reset();
  EXPECT_EQ(Snapshot(*e), fresh_blob);

  // Replaying from the start re-emits every match (the exactly-once
  // fingerprints were rewound too).
  this->PushRange(*e, 0, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Outputs(), this->ref_outputs_);
}

// --- Checkpoint of a fresh instance -----------------------------------------

TYPED_TEST(EngineConformance, FreshCheckpointRestoresIntoFreshInstance) {
  auto source = this->Make();
  const std::string blob = Snapshot(*source);

  auto e = this->Make();
  uint64_t offset = 1;
  ASSERT_TRUE(this->RestoreFrom(*e, blob, &offset).ok());
  EXPECT_EQ(offset, 0u);
  this->PushRange(*e, 0, this->events_.size());
  this->Drain(*e);
  EXPECT_EQ(this->Outputs(), this->ref_outputs_);
  EXPECT_EQ(Snapshot(*e), this->ref_final_);
}

// --- Kill and recover -------------------------------------------------------

template <typename Surface>
auto MakeFn() {
  return [](Collector* out) { return Surface::Make(out, nullptr); };
}

TYPED_TEST(EngineConformance, KillRestoreReplayEqualsUninterruptedRun) {
  RunOperatorDifferential(MakeFn<TypeParam>(), TypeParam::kOrdered,
                          this->events_);
}

TYPED_TEST(EngineConformance, RecoversFromCleanCrash) {
  RunRecoveryDifferential(MakeFn<TypeParam>(), this->events_,
                          CrashMode::kClean);
}

TYPED_TEST(EngineConformance, RecoversFromTornLogTail) {
  RunRecoveryDifferential(MakeFn<TypeParam>(), this->events_,
                          CrashMode::kTornTail);
}

TYPED_TEST(EngineConformance, RecoversFromCorruptNewestCheckpoint) {
  RunRecoveryDifferential(MakeFn<TypeParam>(), this->events_,
                          CrashMode::kCorruptNewest);
}

/// Operator options that change what a checkpoint holds, run through the
/// kill-at-offset helper on the unpartitioned query.
struct OptionVariant {
  const char* name;
  TPStreamOperator::Options options;
};

void PrintTo(const OptionVariant& v, std::ostream* os) { *os << v.name; }

OptionVariant BaselineMatcher() {
  OptionVariant v{"BaselineMatcher", {}};
  v.options.low_latency = false;
  return v;
}
OptionVariant FixedOrder() {
  OptionVariant v{"FixedOrder", {}};
  v.options.fixed_order = std::vector<int>{1, 0};
  return v;
}
/// Caps small enough that eviction fires constantly: the shed accounting
/// and the capped buffers must survive kill and recovery too.
OptionVariant Overloaded() {
  OptionVariant v{"Overloaded", {}};
  v.options.overload.max_situations_per_buffer = 3;
  v.options.overload.max_trigger_pool = 2;
  return v;
}

class OperatorOptionsDifferential
    : public ::testing::TestWithParam<OptionVariant> {};

TEST_P(OperatorOptionsDifferential, KillRestoreReplayEqualsUninterruptedRun) {
  const TPStreamOperator::Options options = GetParam().options;
  const std::vector<Event> events = Stream(600, 1, /*seed=*/3);
  const auto make = [&](Collector* out) {
    return std::make_unique<TPStreamOperator>(OverlapSpec(false), options,
                                              out->Callback());
  };
  if (options.overload.max_situations_per_buffer > 0) {
    Collector unused;
    auto op = make(&unused);
    for (const Event& e : events) op->Push(e);
    ASSERT_GT(op->shed_situations(), 0) << "the caps never evicted";
  }
  RunOperatorDifferential(make, /*ordered=*/true, events);
}

INSTANTIATE_TEST_SUITE_P(Variants, OperatorOptionsDifferential,
                         ::testing::Values(BaselineMatcher(), FixedOrder(),
                                           Overloaded()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace tpstream
