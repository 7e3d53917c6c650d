#include "parallel/parallel_operator.h"

#include <cassert>
#include <chrono>

namespace tpstream {
namespace parallel {

namespace {

// Adaptive-wait budgets. The fast path is pure lock-free ring traffic;
// when a side runs dry (worker) or full (producer) it spins briefly —
// first with CpuRelax (cheap, keeps the core) then with yield (lets the
// other side run on oversubscribed machines) — and only then parks on a
// condition variable.
constexpr int kSpinRelax = 128;
constexpr int kSpinYield = 16;

/// Appends a copy of `event` to `batch`, reusing the recycled Event slot
/// (and its payload capacity) at `batch->count` when one exists — the
/// allocation-free steady state of the producer path.
void AppendCopy(EventBatch* batch, const Event& event) {
  if (batch->count < batch->events.size()) {
    Event& slot = batch->events[batch->count];
    slot.t = event.t;
    slot.payload.assign(event.payload.begin(), event.payload.end());
  } else {
    batch->events.push_back(event);
  }
  ++batch->count;
}

/// Move flavor: swaps payload storage with the recycled slot, so the
/// caller's event gets the slot's capacity back for reuse (zero-copy,
/// zero-allocation in steady state).
void AppendSwap(EventBatch* batch, Event&& event) {
  if (batch->count < batch->events.size()) {
    Event& slot = batch->events[batch->count];
    slot.t = event.t;
    slot.payload.swap(event.payload);
  } else {
    batch->events.push_back(std::move(event));
  }
  ++batch->count;
}

/// Moves a shed batch's live events into a dead-letter item and delivers
/// it. The batch slots are left moved-from; refills overwrite them in
/// place, so recycling keeps working. A full sink counts the loss itself
/// (CollectingDeadLetterSink::dropped()).
void QuarantineBatch(robust::DeadLetterSink* sink, EventBatch* batch,
                     const char* detail) {
  if (sink == nullptr || batch->count == 0) return;
  robust::DeadLetterItem item;
  item.kind = robust::DeadLetterKind::kShedBatch;
  item.detail = detail;
  item.events.reserve(batch->count);
  for (size_t i = 0; i < batch->count; ++i) {
    item.events.push_back(std::move(batch->events[i]));
  }
  (void)sink->Consume(std::move(item));
}

/// CAS-decrements `credit` if it is positive. Returns true when a credit
/// was taken (consume on the worker, revoke on the producer).
bool TakeCredit(std::atomic<int64_t>* credit) {
  int64_t value = credit->load(std::memory_order_acquire);
  while (value > 0) {
    if (credit->compare_exchange_weak(value, value - 1,
                                      std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

}  // namespace

ParallelTPStream::Worker::Worker(size_t ring_capacity, size_t batch_size)
    : ring(ring_capacity), free_ring(ring.capacity() + 2) {
  // Pre-populate the recycling loop: one batch filling at the producer
  // (`pending`), up to ring.capacity() in flight, one draining at the
  // worker — capacity + 2 batches total, so the free ring never runs dry
  // in steady state (see Submit()). The reserve is capped: gigantic
  // batch sizes would multiply across the circulating batches, and the
  // vectors reach their steady-state capacity within the first few
  // batches anyway.
  const size_t reserve = batch_size < 4096 ? batch_size : 4096;
  pending.events.reserve(reserve);
  for (size_t i = 0; i < ring.capacity() + 1; ++i) {
    EventBatch batch;
    batch.events.reserve(reserve);
    free_ring.TryPush(std::move(batch));
  }
}

ParallelTPStream::ParallelTPStream(QuerySpec spec, Options options,
                                   TPStreamOperator::OutputCallback output)
    : spec_(std::move(spec)),
      options_(options),
      output_(std::move(output)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.batch_size < 1) options_.batch_size = 1;
  if (options_.ring_capacity < 1) options_.ring_capacity = 1;

  events_ctr_ = producer_registry_.GetCounter("parallel.events");
  batches_ctr_ = producer_registry_.GetCounter("parallel.batches");
  ring_full_ctr_ = producer_registry_.GetCounter("parallel.ring_full");
  free_alloc_ctr_ =
      producer_registry_.GetCounter("parallel.free_ring_allocs");
  shed_batches_ctr_ = producer_registry_.GetCounter("parallel.shed_batches");
  shed_events_ctr_ = producer_registry_.GetCounter("parallel.shed_events");
  drop_oldest_fallback_ctr_ =
      producer_registry_.GetCounter("parallel.drop_oldest_fallback");

  const bool engine_metrics = options_.operator_options.metrics != nullptr;
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>(options_.ring_capacity,
                                           options_.batch_size);
    worker->matches_ctr = worker->registry.GetCounter("parallel.matches");
    worker->partitions_ctr =
        worker->registry.GetCounter("parallel.partitions");
    worker->shed_batches_ctr =
        worker->registry.GetCounter("parallel.shed_batches");
    worker->shed_events_ctr =
        worker->registry.GetCounter("parallel.shed_events");
    if (engine_metrics) {
      worker->ckpt_serialize_us =
          worker->registry.GetHistogram("parallel.ckpt_serialize_us");
    }
    worker->depth_gauge = producer_registry_.GetGauge(
        "parallel.queue_depth.w" + std::to_string(i));
    // Each worker engine records into the worker's own registry so that
    // no metric is written from two threads (merge-on-read). Matches are
    // buffered worker-locally (no lock while a batch runs) and drained
    // in order at batch boundaries under the output mutex.
    TPStreamOperator::Options op_options = options_.operator_options;
    op_options.metrics = engine_metrics ? &worker->registry : nullptr;
    TPStreamOperator::OutputCallback sink;
    if (output_) {
      sink = [w = worker.get()](const Event& e) {
        AppendCopy(&w->local_matches, e);
      };
    }
    // The workers share one initial plan: the first to create a key
    // computes it, the others copy it, so the deployment runs the plan DP
    // once, like a sequential TPStreamOperator (and its `optimizer.*`
    // counters agree).
    worker->engine = std::make_unique<TPStreamOperator>(
        spec_, op_options, std::move(sink),
        workers_.empty() ? nullptr : workers_.front()->engine.get());
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread =
        std::thread([this, w = worker.get()] { WorkerLoop(w); });
  }
}

ParallelTPStream::~ParallelTPStream() {
  // Destruction from a thread other than the producer is legitimate once
  // pushing has stopped (ownership hand-off); release the producer claim
  // so the final flush does not trip the single-producer assert.
  producer_.store(std::thread::id{}, std::memory_order_relaxed);
  FlushInternal();
  // Shutdown ordering: every worker is marked stopped before any join, so
  // the joins proceed concurrently instead of serializing one wake-up at
  // a time. Worker loops only exit with an empty ring (and the flush just
  // emptied them), so nothing is dropped.
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    worker->stop = true;
  }
  for (auto& worker : workers_) worker->wake.notify_one();
  for (auto& worker : workers_) worker->thread.join();
}

void ParallelTPStream::ProcessBatch(Worker* worker, EventBatch* batch) {
  worker->engine->PushBatch(
      std::span<Event>(batch->events.data(), batch->count));
  // Drain the worker-local match buffer in order: the callback fires
  // serialized (output mutex), but contention is per batch, not per
  // match, and a partition's matches keep their engine emission order
  // (each partition lives on exactly one worker).
  if (worker->local_matches.count > 0) {
    std::lock_guard<std::mutex> lock(output_mutex_);
    for (size_t i = 0; i < worker->local_matches.count; ++i) {
      output_(worker->local_matches.events[i]);
    }
  }
  worker->local_matches.count = 0;
  // Publish engine statistics before announcing idleness: a reader
  // synchronizing through Flush() (whose drained-wait re-acquires this
  // worker's mutex after the idle transition) then observes exact
  // values. Concurrent readers see a monotone snapshot at batch
  // granularity. Published as counter deltas into the worker-local
  // registry so they merge with the other workers' on read.
  worker->matches_ctr->Inc(worker->engine->num_matches() -
                           worker->last_matches);
  worker->last_matches = worker->engine->num_matches();
  const int64_t partitions =
      static_cast<int64_t>(worker->engine->num_partitions());
  worker->partitions_ctr->Inc(partitions - worker->last_partitions);
  worker->last_partitions = partitions;
}

void ParallelTPStream::WorkerLoop(Worker* worker) {
  EventBatch batch;
  for (;;) {
    if (worker->ring.TryPop(&batch)) {
      // A slot was just freed: wake the producer if it parked on a full
      // ring. The seq_cst fence pairs with the one in Submit()'s park
      // path (Dekker handshake): either we observe producer_parked, or
      // the producer's post-fence Full() check observes our pop.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (worker->producer_parked.load(std::memory_order_relaxed)) {
        { std::lock_guard<std::mutex> lock(worker->mutex); }
        worker->not_full.notify_one();
      }
      // Drop-oldest: a pending credit means the producer found the ring
      // full — quarantine this (oldest queued) batch instead of
      // processing it, freeing the slot without paying the engine cost.
      if (TakeCredit(&worker->drop_credit)) {
        worker->shed_batches_ctr->Inc();
        worker->shed_events_ctr->Inc(static_cast<int64_t>(batch.count));
        QuarantineBatch(options_.dead_letter, &batch,
                        "ring shed (drop_oldest)");
      } else {
        ProcessBatch(worker, &batch);
      }
      batch.count = 0;
      // Recycle the storage. By the circulation invariant the free ring
      // has room; a failed push (cannot happen in steady state) merely
      // drops the storage, which the next pop replaces.
      worker->free_ring.TryPush(std::move(batch));
      continue;
    }
    // Ring observed empty: spin briefly for the next batch, then park.
    bool woke = false;
    for (int spin = 0; spin < kSpinRelax + kSpinYield; ++spin) {
      if (spin < kSpinRelax) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
      if (!worker->ring.Empty()) {
        woke = true;
        break;
      }
    }
    if (woke) continue;
    std::unique_lock<std::mutex> lock(worker->mutex);
    if (worker->ckpt_requested && worker->ring.Empty()) {
      // Quiescent point: the ring is drained and the single producer
      // waits in Checkpoint() until the flag clears, so the engine is
      // serialized without holding the mutex.
      lock.unlock();
      SerializeCheckpoint(worker);
      lock.lock();
      worker->ckpt_requested = false;
    }
    worker->idle.store(true, std::memory_order_relaxed);
    // Pairs with the fence in Submit()'s wake path: either the producer
    // observes idle==true and notifies under the mutex, or our
    // post-fence emptiness recheck observes its push.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!worker->ring.Empty()) {
      worker->idle.store(false, std::memory_order_relaxed);
      continue;
    }
    worker->drained.notify_all();  // Flush() may be waiting on idleness
    worker->wake.wait(lock, [worker] {
      return worker->stop || worker->ckpt_requested || !worker->ring.Empty();
    });
    if (worker->stop && worker->ring.Empty()) return;  // idle stays true
    worker->idle.store(false, std::memory_order_relaxed);
  }
}

void ParallelTPStream::SerializeCheckpoint(Worker* worker) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start =
      worker->ckpt_serialize_us != nullptr ? Clock::now() : Clock::time_point{};
  worker->ckpt.Clear();
  worker->engine->Checkpoint(worker->ckpt);
  if (worker->ckpt_serialize_us != nullptr) {
    worker->ckpt_serialize_us->Record(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
  }
}

void ParallelTPStream::ShedBatch(Worker* worker, EventBatch* batch,
                                 const char* detail) {
  (void)worker;
  shed_batches_ctr_->Inc();
  shed_events_ctr_->Inc(static_cast<int64_t>(batch->count));
  QuarantineBatch(options_.dead_letter, batch, detail);
  batch->count = 0;
}

bool ParallelTPStream::ResolveFullRing(Worker* worker, EventBatch* batch) {
  switch (options_.backpressure) {
    case robust::BackpressurePolicy::kBlock: {
      // Lossless: adaptive spin, then park until the worker frees a slot.
      int spin = 0;
      while (!worker->ring.TryPush(std::move(*batch))) {
        if (spin < kSpinRelax) {
          ++spin;
          CpuRelax();
        } else if (spin < kSpinRelax + kSpinYield) {
          ++spin;
          std::this_thread::yield();
        } else {
          std::unique_lock<std::mutex> lock(worker->mutex);
          worker->producer_parked.store(true, std::memory_order_relaxed);
          // Pairs with the fence in the worker's pop path (WorkerLoop).
          std::atomic_thread_fence(std::memory_order_seq_cst);
          worker->not_full.wait(lock,
                                [worker] { return !worker->ring.Full(); });
          worker->producer_parked.store(false, std::memory_order_relaxed);
          spin = 0;  // single producer: the retry is guaranteed to succeed
        }
      }
      return true;
    }

    case robust::BackpressurePolicy::kDropNewest: {
      // Bounded wait, then shed the batch being submitted.
      for (int spin = 0; spin < kShedSpin; ++spin) {
        if (spin < kSpinRelax) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
        if (worker->ring.TryPush(std::move(*batch))) return true;
      }
      ShedBatch(worker, batch, "ring shed (drop_newest)");
      return false;
    }

    case robust::BackpressurePolicy::kDropOldest: {
      // Grant the worker a drop credit: the next batch it pops is
      // quarantined instead of processed, freeing a slot at dequeue cost
      // rather than engine cost.
      worker->drop_credit.fetch_add(1, std::memory_order_acq_rel);
      bool pushed = false;
      for (int spin = 0; spin < kShedSpin && !pushed; ++spin) {
        if (spin < kSpinRelax) {
          CpuRelax();
        } else {
          std::this_thread::yield();
        }
        pushed = worker->ring.TryPush(std::move(*batch));
      }
      if (pushed) {
        // The slot may have freed by normal draining; revoke the credit
        // if the worker has not consumed it yet so an overload that
        // resolves on its own drops nothing. A lost race (worker already
        // quarantining) is correct drop-oldest behaviour and accounted
        // on the worker side.
        (void)TakeCredit(&worker->drop_credit);
        return true;
      }
      if (!TakeCredit(&worker->drop_credit)) {
        // The worker consumed the credit, so a slot is being freed right
        // now; give the push one more bounded spin.
        for (int spin = 0; spin < kShedSpin && !pushed; ++spin) {
          CpuRelax();
          pushed = worker->ring.TryPush(std::move(*batch));
        }
        if (pushed) return true;
      }
      // Worker stalled mid-batch (or the freed slot never materialized in
      // budget): shed the new batch to keep push latency bounded.
      drop_oldest_fallback_ctr_->Inc();
      ShedBatch(worker, batch, "ring shed (drop_oldest fallback)");
      return false;
    }
  }
  return false;  // unreachable
}

void ParallelTPStream::Submit(Worker* worker) {
  if (worker->pending.count == 0) return;
  batches_ctr_->Inc();
  EventBatch batch = std::move(worker->pending);
  worker->pending.count = 0;
  if (!worker->ring.TryPush(std::move(batch))) {
    // Ring full: apply the backpressure policy. Counted once per stalled
    // submit (`parallel.ring_full`).
    ring_full_ctr_->Inc();
    if (!ResolveFullRing(worker, &batch)) {
      // The batch was shed: it never entered the ring, so its storage
      // becomes the new `pending` directly (the circulation invariant is
      // untouched — no free-ring pop). The worker has a full ring and is
      // not parked, so no wake is needed.
      worker->pending = std::move(batch);
      worker->pending.count = 0;
      return;
    }
  }
  // Wake the worker if it parked on an empty ring (Dekker, see
  // WorkerLoop's idle transition).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker->idle.load(std::memory_order_relaxed)) {
    { std::lock_guard<std::mutex> lock(worker->mutex); }
    worker->wake.notify_one();
  }
  // True ring occupancy, not the batch size that was just handed off.
  worker->depth_gauge->Set(static_cast<double>(worker->ring.Size()));
  // Re-arm `pending` with recycled storage. The circulation invariant
  // (capacity + 2 batches, see Worker::Worker) guarantees the free ring
  // is logically non-empty here; the short spin covers store-visibility
  // lag, and the allocation fallback keeps the producer unconditionally
  // live (counted, never hit in steady state).
  bool recycled = worker->free_ring.TryPop(&worker->pending);
  for (int spin = 0; !recycled && spin < kSpinRelax; ++spin) {
    CpuRelax();
    recycled = worker->free_ring.TryPop(&worker->pending);
  }
  if (!recycled) {
    worker->pending = EventBatch{};
    free_alloc_ctr_->Inc();
  }
  worker->pending.count = 0;
}

void ParallelTPStream::AssertSingleProducer() const {
#ifndef NDEBUG
  std::thread::id unclaimed{};
  const std::thread::id self = std::this_thread::get_id();
  if (!producer_.compare_exchange_strong(unclaimed, self,
                                         std::memory_order_relaxed) &&
      unclaimed != self) {
    assert(false &&
           "ParallelTPStream: Push()/Flush() called from a second thread; "
           "the producer side is single-threaded by contract");
  }
#endif
}

ParallelTPStream::Worker* ParallelTPStream::RouteTo(const Event& event) {
  AssertSingleProducer();
  events_ctr_->Inc();
  size_t index = 0;
  if (spec_.partition_field >= 0 && workers_.size() > 1) {
    // Hash the typed value directly (ValueHash): no per-event ToString()
    // materialization for double/bool/string keys.
    index = ValueHash{}(event.payload[spec_.partition_field]) %
            workers_.size();
  }
  return workers_[index].get();
}

void ParallelTPStream::Push(const Event& event) {
  Worker* worker = RouteTo(event);
  AppendCopy(&worker->pending, event);
  if (worker->pending.count >= options_.batch_size) Submit(worker);
}

void ParallelTPStream::Push(Event&& event) {
  Worker* worker = RouteTo(event);
  AppendSwap(&worker->pending, std::move(event));
  if (worker->pending.count >= options_.batch_size) Submit(worker);
}

void ParallelTPStream::PushBatch(std::span<Event> events) {
  for (Event& event : events) Push(std::move(event));
}

void ParallelTPStream::PushBatch(std::span<const Event> events) {
  for (const Event& event : events) Push(event);
}

void ParallelTPStream::Flush() {
  AssertSingleProducer();
  FlushInternal();
}

void ParallelTPStream::FlushInternal() {
  for (auto& worker : workers_) Submit(worker.get());
  for (auto& worker : workers_) WaitDrained(worker.get());
}

void ParallelTPStream::WaitDrained(Worker* worker) {
  std::unique_lock<std::mutex> lock(worker->mutex);
  worker->drained.wait(lock, [worker] {
    return worker->ring.Empty() && !worker->ckpt_requested &&
           worker->idle.load(std::memory_order_relaxed);
  });
  worker->depth_gauge->Set(0.0);
}

void ParallelTPStream::Reset() {
  AssertSingleProducer();
  // Quiesce: after the flush every worker has published its engine state
  // and parked (the drained-wait re-acquired its mutex after the idle
  // transition), so the producer may mutate the engines directly.
  FlushInternal();
  events_ctr_->Reset();
  for (auto& worker : workers_) {
    worker->engine->Reset();
    worker->matches_ctr->Inc(-worker->last_matches);
    worker->last_matches = 0;
    worker->partitions_ctr->Inc(-worker->last_partitions);
    worker->last_partitions = 0;
  }
}

void ParallelTPStream::Checkpoint(ckpt::Writer& w) {
  AssertSingleProducer();
  // Request every checkpoint before waiting on any, so the workers drain
  // their rings and serialize their engines concurrently. The request is
  // a flag, not a batch: no backpressure policy can shed it.
  for (auto& worker : workers_) {
    Submit(worker.get());
    {
      std::lock_guard<std::mutex> lock(worker->mutex);
      worker->ckpt_requested = true;
    }
    worker->wake.notify_one();
  }
  // The drained-wait re-acquires each worker's mutex after it served the
  // request, which orders its writes to `ckpt` before the reads below.
  size_t bytes = 0;
  for (auto& worker : workers_) {
    WaitDrained(worker.get());
    bytes += worker->ckpt.size();
  }
  w.Envelope(static_cast<uint64_t>(num_events()));
  const size_t cookie = w.BeginSection(ckpt::Tag::kParallel);
  w.U32(static_cast<uint32_t>(workers_.size()));
  w.Reserve(bytes);
  for (const auto& worker : workers_) w.Raw(worker->ckpt.buffer());
  w.EndSection(cookie);
}

Status ParallelTPStream::Restore(ckpt::Reader& r, uint64_t* offset) {
  AssertSingleProducer();
  FlushInternal();  // quiescent point: see Reset() for the hand-off
  uint64_t off = 0;
  Status status = r.Envelope(&off);
  if (!status.ok()) return status;
  const size_t end = r.BeginSection(ckpt::Tag::kParallel);
  const uint32_t num_workers = r.U32();
  if (r.ok() && num_workers != workers_.size()) {
    status = Status::InvalidArgument(
        "checkpoint: worker count mismatch (partition-to-worker routing "
        "depends on num_workers)");
    return status;
  }
  for (auto& worker : workers_) {
    status = worker->engine->Restore(r);
    if (!status.ok()) return status;
  }
  status = r.EndSection(end);
  if (!status.ok()) return status;
  // Re-base the published counters on the restored engines so the
  // any-thread getters are exact immediately.
  events_ctr_->Inc(static_cast<int64_t>(off) - events_ctr_->value());
  for (auto& worker : workers_) {
    worker->matches_ctr->Inc(worker->engine->num_matches() -
                             worker->last_matches);
    worker->last_matches = worker->engine->num_matches();
    const int64_t partitions =
        static_cast<int64_t>(worker->engine->num_partitions());
    worker->partitions_ctr->Inc(partitions - worker->last_partitions);
    worker->last_partitions = partitions;
  }
  if (offset != nullptr) *offset = off;
  return Status::OK();
}

size_t ParallelTPStream::num_partitions() const {
  int64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->partitions_ctr->value();
  }
  return static_cast<size_t>(total);
}

int64_t ParallelTPStream::num_matches() const {
  int64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->matches_ctr->value();
  }
  return total;
}

int64_t ParallelTPStream::shed_batches() const {
  int64_t total = shed_batches_ctr_->value();
  for (const auto& worker : workers_) {
    total += worker->shed_batches_ctr->value();
  }
  return total;
}

int64_t ParallelTPStream::shed_events() const {
  int64_t total = shed_events_ctr_->value();
  for (const auto& worker : workers_) {
    total += worker->shed_events_ctr->value();
  }
  return total;
}

obs::MetricsSnapshot ParallelTPStream::Metrics() const {
  obs::MetricsSnapshot snapshot = producer_registry_.Snapshot();
  for (const auto& worker : workers_) {
    snapshot.Merge(worker->registry.Snapshot());
  }
  return snapshot;
}

}  // namespace parallel
}  // namespace tpstream
