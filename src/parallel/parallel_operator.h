#ifndef TPSTREAM_PARALLEL_PARALLEL_OPERATOR_H_
#define TPSTREAM_PARALLEL_PARALLEL_OPERATOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "core/operator.h"
#include "obs/metrics.h"
#include "parallel/spsc_ring.h"
#include "robust/dead_letter.h"
#include "robust/overload_policy.h"

namespace tpstream {
namespace parallel {

/// A batch of events in flight between the producer and one worker. The
/// `events` vector is storage that is recycled through the worker's free
/// ring: only the first `count` elements are live (a recycled vector may
/// be longer than the batch refilled into it), and refills overwrite the
/// existing Events in place — reusing their payload capacity — so the
/// steady state allocates nothing per event (PR 3's ingestion contract).
struct EventBatch {
  std::vector<Event> events;
  size_t count = 0;
};

/// Partition-parallel TPStream execution — the paper's second future-work
/// item (Section 7): partitions (PARTITION BY keys) are hashed onto a
/// fixed set of worker threads, each running an independent
/// TPStreamOperator over its share of the keys. Because partitions are
/// evaluated independently by definition, results are identical to the
/// sequential operator (verified by tests), while ingestion scales with
/// the number of workers.
///
/// Threading contract (see docs/architecture.md "Concurrency contract"):
///  * Push() and Flush() must be called from a single producer thread;
///    debug builds assert this. The destructor is exempt: once the
///    producer has stopped pushing, the operator may be destroyed from
///    any thread (it releases the producer claim before its final
///    flush). Per-partition timestamp ordering is the producer's
///    responsibility (see Push()).
///  * Batches are handed to each worker through a bounded lock-free SPSC
///    ring (SpscRing, depth Options::ring_capacity) — up to
///    `ring_capacity` batches may be in flight per worker, so a
///    temporarily slow worker no longer head-of-line-blocks the
///    producer. Only when a ring is full does the producer back-pressure
///    (adaptive spin, then park on a condition variable; counted as
///    `parallel.ring_full`). Batch storage is recycled through a free
///    ring, keeping the producer path allocation-free in steady state.
///  * Each worker thread exclusively owns its engine; no engine state is
///    shared across threads. Matches are collected into a worker-local
///    buffer (no locking while a batch is processed) and drained in
///    order at batch boundaries; the output callback fires on worker
///    threads serialized by an internal mutex, so a plain callback is
///    safe and workers never block each other mid-batch. Per-partition
///    emission order equals the sequential operator's (a partition lives
///    on exactly one worker, and drains preserve engine order).
///  * num_matches() / num_partitions() / num_events() may be called from
///    any thread at any time: they read per-worker registry counters
///    published after every completed batch. While ingestion is running
///    they trail the live engines by at most the in-flight batches per
///    worker (and are monotone); once Flush() has returned they are
///    exact.
///  * Observability follows the merge-on-read design: every worker owns a
///    private obs::MetricsRegistry its engine records into (no cross-
///    thread metric writes), plus one producer-side registry for the
///    routing-layer metrics. Metrics() merges all of them into one
///    snapshot; the same staleness/exactness rules as above apply.
class ParallelTPStream {
 public:
  struct Options {
    int num_workers = 2;
    /// Events are handed to workers in batches to amortize queue
    /// synchronization.
    size_t batch_size = 256;
    /// Bound (in batches, rounded up to a power of two) of each worker's
    /// SPSC hand-off ring. Larger rings absorb more skew before the
    /// producer back-pressures; smaller rings bound memory and staleness.
    size_t ring_capacity = 8;
    /// `operator_options.metrics` acts as an enable flag only: when
    /// non-null, every worker engine is instrumented into its *own*
    /// worker-local registry (never into the supplied registry, which
    /// would funnel every worker's writes through shared gauges); read
    /// the merged result — engine metrics plus the routing-layer
    /// `parallel.*` metrics — with Metrics().
    TPStreamOperator::Options operator_options;
    /// What the producer does when a worker's ring is full (Degradation
    /// contract, docs/architecture.md):
    ///  * kBlock (default): adaptive spin, then park until a slot frees —
    ///    lossless, unbounded push latency under sustained overload.
    ///  * kDropNewest: spin at most kShedSpin iterations, then shed the
    ///    batch being submitted. Push latency is bounded; the freshest
    ///    data is lost first.
    ///  * kDropOldest: grant the worker a drop credit (it discards the
    ///    next batch it pops instead of processing it) and spin for the
    ///    freed slot; if the worker is stalled mid-batch the credit is
    ///    revoked and the new batch is shed instead (counted separately
    ///    as `parallel.drop_oldest_fallback`). Push latency is bounded;
    ///    the stalest queued data is lost first.
    /// Shed batches are counted (`parallel.shed_batches` /
    /// `parallel.shed_events`) and quarantined to `dead_letter` when set.
    robust::BackpressurePolicy backpressure =
        robust::BackpressurePolicy::kBlock;
    /// Optional quarantine sink for shed batches. Must be thread-safe:
    /// the producer (drop-newest, fallback) and worker threads
    /// (drop-oldest) both deliver to it. Not owned; must outlive the
    /// operator.
    robust::DeadLetterSink* dead_letter = nullptr;
  };

  /// Spin budget (iterations) a drop policy waits for a slot before
  /// shedding. Bounds the producer's worst-case push latency; irrelevant
  /// under kBlock.
  static constexpr int kShedSpin = 256;

  ParallelTPStream(QuerySpec spec, Options options,
                   TPStreamOperator::OutputCallback output);

  /// Flushes outstanding batches, then stops and joins every worker.
  /// Workers only exit once their ring is empty, so no event or match is
  /// dropped. May run on any thread once the producer has stopped
  /// pushing: the destructor releases the producer claim before its
  /// final flush.
  ~ParallelTPStream();

  ParallelTPStream(const ParallelTPStream&) = delete;
  ParallelTPStream& operator=(const ParallelTPStream&) = delete;

  /// Routes one event to its partition's worker (allocation-free typed
  /// hashing, see ValueHash). Single producer only; timestamps must be
  /// non-decreasing globally (strictly increasing per partition).
  void Push(const Event& event);

  /// Move overload: the event's payload storage is swapped into the
  /// worker's pending batch (the caller's event receives the recycled
  /// slot storage back, ready for reuse) — the zero-copy hand-off for
  /// producers that own their events. Same contract as
  /// Push(const Event&).
  void Push(Event&& event);

  /// Batched ingestion: routes the events in order, equivalent to one
  /// Push() per event (differential-tested). The mutable-span overload
  /// moves each event's payload into the worker batches, leaving the
  /// caller's storage with moved-from events for reuse.
  void PushBatch(std::span<Event> events);
  void PushBatch(std::span<const Event> events);

  /// Drains all rings and blocks until every worker is idle. After it
  /// returns, all matches concluded by pushed events have been delivered
  /// and the statistics getters are exact. Idempotent; also called by
  /// the destructor. Single producer only.
  void Flush();

  /// Returns the stream to its freshly-constructed state: drains every
  /// ring (Flush), then resets each worker's engine and rewinds the
  /// published event/match/partition counters. Single producer only;
  /// the worker threads stay parked throughout (no batch is in flight
  /// after the flush, so the producer may touch the engines — the
  /// drained-wait's mutex re-acquisition orders the hand-off).
  void Reset();

  /// Quiescent checkpoint, stamped with the event-log offset
  /// (= num_events()). The producer hands every worker its pending batch
  /// and a checkpoint request (a flag beside the ring, never a batch, so
  /// no backpressure policy can shed it). Each worker drains its ring,
  /// then serializes its own engine into a Writer it owns and reuses, so
  /// the workers serialize concurrently. The producer waits for all of
  /// them and splices the parts in worker order:
  ///
  ///   Envelope | kParallel{ u32 n | worker 0 .. n-1 engine bytes }
  ///
  /// The bytes equal a sequential serialization of the engines. With
  /// engine metrics on, each worker records the time it spent into
  /// `parallel.ckpt_serialize_us`. Single producer only — counts as a
  /// producer call.
  void Checkpoint(ckpt::Writer& w);

  /// Restores a checkpoint taken on a stream with the same worker count
  /// (partition-to-worker routing depends on it) and the same query and
  /// options. Quiesces first; single producer only. On success,
  /// `*offset` (when non-null) receives the event-log offset to replay
  /// from. On error the stream must be Reset() or discarded.
  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr);

  /// Total matches across workers. Safe from any thread; exact after
  /// Flush(), otherwise a recent (monotone) snapshot.
  int64_t num_matches() const;

  /// Events accepted by Push(). Safe from any thread.
  int64_t num_events() const { return events_ctr_->value(); }

  /// Total partitions across workers. Safe from any thread; exact after
  /// Flush(), otherwise a recent (monotone) snapshot.
  size_t num_partitions() const;

  /// Merged observability snapshot: producer registry + every worker's
  /// registry (counters/histograms add, gauges sum). Safe from any
  /// thread; exact once Flush() has returned.
  obs::MetricsSnapshot Metrics() const;

  /// Batches / events shed by the backpressure policy (producer-side
  /// drop-newest and fallback sheds plus worker-side drop-oldest
  /// discards). Always 0 under kBlock. Safe from any thread; exact after
  /// Flush().
  int64_t shed_batches() const;
  int64_t shed_events() const;

 private:
  struct Worker {
    Worker(size_t ring_capacity, size_t batch_size);

    /// Worker-local metrics: the engine (when instrumented) and the
    /// batch-publish counters below record here; only this worker's
    /// thread writes, any thread may snapshot (merge-on-read).
    obs::MetricsRegistry registry;
    std::unique_ptr<TPStreamOperator> engine;  // worker-thread-owned
    std::thread thread;

    /// Lock-free hand-off: filled batches flow producer -> worker through
    /// `ring`; drained batch storage flows back worker -> producer
    /// through `free_ring` (sized ring_capacity + 2: one batch filling at
    /// the producer, `ring_capacity` in flight, one at the worker).
    SpscRing<EventBatch> ring;
    SpscRing<EventBatch> free_ring;

    /// Slow-path parking. The mutex guards `stop` and serializes the
    /// park/notify handshakes; the hot path never takes it.
    std::mutex mutex;
    std::condition_variable wake;      // worker parks: ring empty
    std::condition_variable not_full;  // producer parks: ring full
    std::condition_variable drained;   // Flush() waits: ring empty + idle
    bool stop = false;                 // guarded by mutex
    /// True while the worker is parked (or about to park) on `wake`; set
    /// under the mutex, read by the producer through a seq_cst fence
    /// (Dekker handshake, see the .cc) to decide whether to notify.
    std::atomic<bool> idle{false};
    /// Symmetric flag for the producer parked on `not_full`.
    std::atomic<bool> producer_parked{false};
    /// Drop-oldest hand-off: the producer grants a credit when it finds
    /// the ring full; the worker consumes it (CAS decrement) right after
    /// a pop and quarantines that batch instead of processing it. The
    /// producer revokes unconsumed credits once its push lands so an
    /// overload that resolves by normal draining drops nothing.
    std::atomic<int64_t> drop_credit{0};
    /// Checkpoint request (guarded by mutex): set by the producer, served
    /// by the worker once its ring is empty, which serializes its engine
    /// into `ckpt` and clears the flag before it reports idle.
    bool ckpt_requested = false;
    /// Worker-owned checkpoint bytes of the last request; Clear() keeps
    /// the capacity, so steady-state checkpoints do not reallocate. Read
    /// by the producer after the drained-wait.
    ckpt::Writer ckpt;
    /// `parallel.ckpt_serialize_us`; null when engine metrics are off.
    obs::LatencyHistogram* ckpt_serialize_us = nullptr;

    /// Producer-side batch being filled (recycled storage; only
    /// `pending.count` elements are live).
    EventBatch pending;
    /// Worker-side match buffer: the engine's output callback appends
    /// here lock-free; drained under the output mutex at batch
    /// boundaries. Storage recycled like `pending`.
    EventBatch local_matches;

    /// Engine statistics re-published into `registry` by the worker
    /// thread after every completed batch (counter handles resolved at
    /// construction); readable from any thread without the mutex.
    obs::Counter* matches_ctr = nullptr;
    obs::Counter* partitions_ctr = nullptr;
    /// Worker-registry shed accounting for drop-oldest discards (the
    /// producer-side sheds use the producer-registry twins; Metrics()
    /// merges both under the same names).
    obs::Counter* shed_batches_ctr = nullptr;
    obs::Counter* shed_events_ctr = nullptr;
    /// Producer-registry gauge: true ring occupancy (in batches) after
    /// the last hand-off / flush.
    obs::Gauge* depth_gauge = nullptr;
    /// Worker-thread-local: engine totals at the last publish (delta
    /// source for the counters above).
    int64_t last_matches = 0;
    int64_t last_partitions = 0;
  };

  void WorkerLoop(Worker* worker);
  /// Worker side of Checkpoint(): serializes the engine into `ckpt`.
  void SerializeCheckpoint(Worker* worker);
  void ProcessBatch(Worker* worker, EventBatch* batch);
  void Submit(Worker* worker);
  /// Slow path of Submit() once the first TryPush failed: applies the
  /// configured backpressure policy. Returns true when the batch entered
  /// the ring, false when it was shed (its storage is reusable).
  bool ResolveFullRing(Worker* worker, EventBatch* batch);
  /// Counts `batch` as shed (producer side) and quarantines its events
  /// to the dead-letter sink; resets the batch to empty-but-reusable.
  void ShedBatch(Worker* worker, EventBatch* batch, const char* detail);
  /// Shared routing step of the Push overloads: counts the event and
  /// picks its partition's worker.
  Worker* RouteTo(const Event& event);
  /// Flush body without the single-producer assertion (destructor path).
  void FlushInternal();
  /// Waits until `worker` has an empty ring, is parked and has served
  /// any checkpoint request.
  void WaitDrained(Worker* worker);
  /// Debug-build check that Push()/Flush() stay on one thread.
  void AssertSingleProducer() const;

  QuerySpec spec_;
  Options options_;
  TPStreamOperator::OutputCallback output_;
  std::mutex output_mutex_;
  std::vector<std::unique_ptr<Worker>> workers_;
  /// Routing-layer metrics; written by the producer thread only.
  obs::MetricsRegistry producer_registry_;
  obs::Counter* events_ctr_ = nullptr;
  obs::Counter* batches_ctr_ = nullptr;
  /// Submits that found the ring full (producer spun or parked).
  obs::Counter* ring_full_ctr_ = nullptr;
  /// Free-ring misses: the producer could not recycle batch storage and
  /// had to allocate fresh (never happens in steady state; see Submit).
  obs::Counter* free_alloc_ctr_ = nullptr;
  /// Producer-side shed accounting (drop-newest sheds and drop-oldest
  /// fallbacks; the worker-side drop-oldest discards live in the worker
  /// registries under the same names).
  obs::Counter* shed_batches_ctr_ = nullptr;
  obs::Counter* shed_events_ctr_ = nullptr;
  /// Drop-oldest submits that had to shed the new batch because the
  /// worker was stalled mid-batch and never consumed the credit.
  obs::Counter* drop_oldest_fallback_ctr_ = nullptr;
  /// First thread to call Push()/Flush(); debug-only enforcement.
  mutable std::atomic<std::thread::id> producer_{};
};

}  // namespace parallel
}  // namespace tpstream

#endif  // TPSTREAM_PARALLEL_PARALLEL_OPERATOR_H_
