#ifndef TPSTREAM_LOG_RECOVERY_H_
#define TPSTREAM_LOG_RECOVERY_H_

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/status.h"
#include "log/crc32c.h"
#include "log/event_log.h"
#include "log/file.h"
#include "obs/metrics.h"
#include "robust/dead_letter.h"

namespace tpstream {
namespace log {

/// What Recover needs of an engine: Reset, Restore a blob, Push the log
/// tail. Every Engine models it, and so does a thin wrapper forwarding
/// only these three (a timing probe, say).
template <typename E>
concept Recoverable =
    requires(E& e, const Event& event, ckpt::Reader& r, uint64_t* offset) {
      e.Push(event);
      e.Reset();
      { e.Restore(r, offset) } -> std::same_as<Status>;
    };

/// The one engine contract (docs/architecture.md, "Engine contract") of
/// TPStreamOperator and parallel::ParallelTPStream: per-event and
/// batched ingestion, an idempotent Flush, Reset to a fresh stream, and a
/// checkpoint stamped with the event-log offset that Restore brings back.
template <typename E>
concept Engine = Recoverable<E> &&
    requires(E& e, std::span<const Event> batch, ckpt::Writer& w) {
      e.PushBatch(batch);
      e.Flush();
      e.Checkpoint(w);
    };

/// Result of one RecoveryManager::Checkpoint call.
struct CheckpointInfo {
  uint64_t generation = 0;
  /// True when a dirty-set delta was written instead of a full snapshot.
  bool incremental = false;
  /// Bytes of the persisted checkpoint file (header + blob + footer).
  uint64_t bytes = 0;
  /// Event-log offset stamped into the blob (replay resumes here).
  uint64_t offset = 0;
};

/// Result of one RecoveryManager::Recover call.
struct RecoveryReport {
  /// False when no valid checkpoint existed (cold start: full replay).
  bool restored = false;
  /// Generation of the newest state actually restored (full + applied
  /// deltas); 0 when `restored` is false.
  uint64_t generation = 0;
  /// Event-log offset the restored state was taken at.
  uint64_t offset = 0;
  uint64_t replayed_events = 0;
  /// Deltas applied on top of the base full snapshot.
  int64_t deltas_applied = 0;
  /// Checkpoint files skipped as corrupt/unreadable/chain-broken (each
  /// also quarantined as kCorruptCheckpoint when a sink is configured).
  int64_t corrupt_skipped = 0;
};

/// One-call crash recovery for every engine surface (Durability
/// contract, docs/architecture.md).
///
/// The manager owns a directory of checkpoint generation files
/// (`ckpt-<20-digit generation>-{full|delta}.tpc`) next to — usually
/// inside — the durable event log's directory, and ties the two
/// together:
///
///   Checkpoint(engine):  log barrier               (events < offset are
///                                                   durable first; free
///                                                   when durable_offset()
///                                                   already covers them)
///                        -> write generation file  (tmp + fsync + rename
///                                                   + directory fsync)
///                        -> engine baseline mark   (dirty sets cleared)
///                        -> log checkpoint marker  (advisory, under the
///                                                   log's sync policy)
///
///   Recover(engine):     newest valid full snapshot (corrupt ones fall
///                        back to the previous generation)
///                        -> chain-validated deltas applied on top
///                        -> log.ReplayFrom(stamped offset)
///
/// Incremental checkpoints: for engines exposing the incremental surface
/// (TPStreamOperator), every K-th generation is a full snapshot and the
/// ones between are dirty-set deltas — while the engine reports
/// CanCheckpointIncremental(), which only PARTITION BY queries do (an
/// unpartitioned TPStreamOperator writes full snapshots only). Each file
/// records its base generation and a CRC-32C *chain hash*
/// (h_full = crc(blob); h_g = crc_extend(h_{g-1}, blob_g)), so Recover
/// applies a delta only when its declared base matches the running chain
/// exactly — a missing, corrupt, reordered or foreign delta breaks the
/// chain and recovery cleanly degrades to the prefix that validates
/// (worst case the last full snapshot), never a frankenstate.
///
/// Checkpoint file layout (little-endian, built on the ckpt wire
/// format): u32 magic "TPCF" | u32 version | u64 generation | u8 kind
/// (1=full, 2=delta) | u64 base generation | u32 base chain hash |
/// Str(blob) | checksum footer (ckpt::Writer::SealChecksum). The blob is
/// the engine's own Checkpoint()/CheckpointIncremental() bytes.
///
/// Output contract: alerts are emitted as the engine derives them, not
/// when their input becomes durable. Under group commit (kEveryBytes,
/// kInterval) an alert may therefore be emitted for an event that is
/// written but not yet covered by EventLog::durable_offset(); a power
/// cut can lose that event, and recovery does not re-derive the alert
/// (the source re-sends from the recovered log's end_offset(), and the
/// alert comes again then). Every alert whose input was durable at the
/// crash is re-derived exactly once: the checkpoint holds the state up
/// to its offset and replay covers the rest of the durable log.
///
/// Checkpoint takes an Engine and Recover a Recoverable one; the
/// incremental surface (CheckpointIncremental / RestoreIncremental /
/// CanCheckpointIncremental / MarkCheckpointBaseline) is used when
/// present. Single-threaded, like the surfaces it
/// checkpoints.
class RecoveryManager {
 public:
  struct Options {
    /// Every K-th generation is a full snapshot (K=1 disables deltas).
    uint64_t full_snapshot_interval = 8;
    /// Optional `recovery.*` metrics. Must outlive the manager.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional quarantine for corrupt checkpoint files
    /// (kCorruptCheckpoint). Must outlive the manager.
    robust::DeadLetterSink* dead_letter = nullptr;
  };

  /// Opens (creating if needed) the checkpoint directory `dir` and scans
  /// the existing generation files. `log` may be null (checkpoint-only
  /// operation: Recover then restores without replay). `fs`, `log` and
  /// the options' sinks must outlive the manager.
  static Status Open(FileSystem* fs, const std::string& dir, EventLog* log,
                     const Options& options, std::unique_ptr<RecoveryManager>* out);

  /// Takes a checkpoint of `engine` at its current quiescent point: a
  /// full snapshot or, when the engine supports it and the cadence
  /// allows, a dirty-set delta. On failure (e.g. kResourceExhausted on a
  /// full disk) no generation is consumed, the partially written temp
  /// file is removed, and the next call falls back to a full snapshot.
  template <Engine E>
  Result<CheckpointInfo> Checkpoint(E& engine);

  /// Restores `engine` to the newest recoverable state and replays the
  /// log tail into it. See the class comment for the procedure.
  template <Recoverable E>
  Result<RecoveryReport> Recover(E& engine);

  /// Highest generation persisted or discovered (0 when none).
  uint64_t last_generation() const { return last_generation_; }
  /// Checkpoint generation files currently tracked on disk.
  int64_t num_checkpoint_files() const {
    return static_cast<int64_t>(entries_.size());
  }
  const std::string& dir() const { return dir_; }

 private:
  struct Entry {
    uint64_t generation = 0;
    bool delta = false;
    std::string name;
  };

  struct Loaded {
    uint64_t generation = 0;
    bool delta = false;
    uint64_t base_generation = 0;
    uint32_t base_hash = 0;
    std::string blob;
  };

  RecoveryManager(FileSystem* fs, std::string dir, EventLog* log,
                  const Options& options);

  Status ScanDir();
  /// Builds the generation file bytes around `blob` (whose CRC-32C is
  /// `blob_crc`) and publishes them atomically (tmp + fsync + rename +
  /// directory fsync, and the parent's on the first call); registers the
  /// entry on success.
  Status PersistGeneration(uint64_t generation, bool delta,
                           uint64_t base_generation, uint32_t base_hash,
                           const std::string& blob, uint32_t blob_crc,
                           uint64_t* file_bytes);
  /// Loads and validates one generation file (checksum, magic, version).
  Status LoadGeneration(const Entry& entry, Loaded* out);
  void Quarantine(const std::string& name, const Status& why);
  /// After a new full snapshot: deletes generations below the previous
  /// full (the previous full and its deltas stay as the fallback chain).
  void PruneOldGenerations(uint64_t new_full_generation);
  static std::string EntryFileName(uint64_t generation, bool delta);
  /// Records the time since `*mark` into `phase` and restarts the mark;
  /// a no-op (no clock read) when `phase` is null, i.e. metrics are off.
  static void Lap(obs::LatencyHistogram* phase,
                  std::chrono::steady_clock::time_point* mark);

  // Shared non-template halves of Checkpoint/Recover.
  Status CommitCheckpoint(uint64_t generation, bool delta,
                          const std::string& blob, uint64_t offset,
                          uint64_t* file_bytes);
  /// Validates the delta chain on top of `full` without touching any
  /// engine: returns the longest prefix of consecutive, checksum- and
  /// chain-hash-valid deltas, and the resulting running hash.
  std::vector<Loaded> ValidDeltaChain(const Loaded& full, uint32_t* chain_hash,
                                      int64_t* corrupt_skipped);

  FileSystem* fs_;
  std::string dir_;
  EventLog* log_;
  Options options_;

  std::vector<Entry> entries_;  // ascending by generation
  uint64_t last_generation_ = 0;
  uint32_t chain_hash_ = 0;
  bool have_chain_ = false;
  /// Set on persist failure (and at start): the next checkpoint must be
  /// a full snapshot because the dirty-set baseline is unknown.
  bool force_full_ = true;
  uint64_t gens_since_full_ = 0;
  /// Set once the parent of dir_ is synced: the first generation this
  /// manager persists makes the directory's own name durable too.
  bool parent_synced_ = false;

  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_full_ = nullptr;
  obs::Counter* m_delta_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_replayed_ = nullptr;
  obs::Counter* m_corrupt_ = nullptr;
  /// The checkpoint pause by phase: engine serialization, the log
  /// barrier, and CommitCheckpoint (file write, fsyncs, marker).
  obs::LatencyHistogram* m_serialize_us_ = nullptr;
  obs::LatencyHistogram* m_barrier_us_ = nullptr;
  obs::LatencyHistogram* m_persist_us_ = nullptr;
};

// ---------------------------------------------------------------------------
// Template implementations

template <Engine E>
Result<CheckpointInfo> RecoveryManager::Checkpoint(E& engine) {
  constexpr bool kIncremental =
      requires(E& e, ckpt::Writer& w) {
        e.CheckpointIncremental(w);
        { e.CanCheckpointIncremental() } -> std::convertible_to<bool>;
        e.MarkCheckpointBaseline();
      };

  const uint64_t generation = last_generation_ + 1;
  bool delta = false;
  if constexpr (kIncremental) {
    delta = have_chain_ && !force_full_ &&
            options_.full_snapshot_interval > 1 &&
            gens_since_full_ + 1 < options_.full_snapshot_interval &&
            engine.CanCheckpointIncremental();
  }

  std::chrono::steady_clock::time_point mark;
  if (m_serialize_us_ != nullptr) mark = std::chrono::steady_clock::now();
  ckpt::Writer wb;
  if constexpr (kIncremental) {
    if (delta) {
      engine.CheckpointIncremental(wb);
    } else {
      engine.Checkpoint(wb);
    }
  } else {
    engine.Checkpoint(wb);
  }
  const std::string blob = wb.Take();
  Lap(m_serialize_us_, &mark);

  uint64_t offset = 0;
  {
    ckpt::Reader r(blob);
    Status s = r.Envelope(&offset);
    if (!s.ok()) return s;
  }

  // Events below the stamped offset must be durable before a checkpoint
  // claims replay can start there; an offset the watermark already
  // covers costs no fsync.
  if (log_ != nullptr && log_->durable_offset() < offset) {
    Status s = log_->Sync();
    if (!s.ok()) return s;
  }
  Lap(m_barrier_us_, &mark);

  uint64_t file_bytes = 0;
  Status s = CommitCheckpoint(generation, delta, blob, offset, &file_bytes);
  Lap(m_persist_us_, &mark);
  if (!s.ok()) {
    // The dirty set was not cleared, so nothing is lost: the next
    // attempt re-covers the same changes — as a full snapshot, since
    // the persisted chain may now be behind the engine's baseline.
    force_full_ = true;
    return s;
  }
  if constexpr (kIncremental) engine.MarkCheckpointBaseline();

  CheckpointInfo info;
  info.generation = generation;
  info.incremental = delta;
  info.bytes = file_bytes;
  info.offset = offset;
  return info;
}

template <Recoverable E>
Result<RecoveryReport> RecoveryManager::Recover(E& engine) {
  constexpr bool kIncremental =
      requires(E& e, ckpt::Reader& r, uint64_t* off) {
        e.RestoreIncremental(r, off);
      };

  RecoveryReport report;
  const uint64_t max_generation =
      entries_.empty() ? 0 : entries_.back().generation;

  // Newest-first over full snapshots; the first one that restores wins.
  for (auto it = entries_.rbegin(); it != entries_.rend() && !report.restored;
       ++it) {
    if (it->delta) continue;
    Loaded full;
    Status s = LoadGeneration(*it, &full);
    if (!s.ok() || full.delta) {
      if (s.ok()) {
        s = Status::ParseError("checkpoint file " + it->name +
                               ": kind does not match file name");
      }
      Quarantine(it->name, s);
      ++report.corrupt_skipped;
      continue;
    }
    uint64_t offset = 0;
    engine.Reset();
    {
      ckpt::Reader r(full.blob);
      s = engine.Restore(r, &offset);
    }
    if (!s.ok()) {
      Quarantine(it->name, s);
      ++report.corrupt_skipped;
      engine.Reset();
      continue;
    }

    uint32_t chain = Crc32c(full.blob);
    uint64_t current = full.generation;
    int64_t applied = 0;

    if constexpr (kIncremental) {
      std::vector<Loaded> deltas =
          ValidDeltaChain(full, &chain, &report.corrupt_skipped);
      for (Loaded& d : deltas) {
        uint64_t delta_offset = 0;
        ckpt::Reader dr(d.blob);
        s = engine.RestoreIncremental(dr, &delta_offset);
        if (!s.ok()) {
          // Checksum-valid bytes that still fail to restore: degrade to
          // the full snapshot alone rather than keep a half-applied
          // chain.
          Quarantine(EntryFileName(d.generation, true), s);
          ++report.corrupt_skipped;
          engine.Reset();
          ckpt::Reader rf(full.blob);
          s = engine.Restore(rf, &offset);
          if (!s.ok()) return s;  // restored moments ago; cannot fail
          chain = Crc32c(full.blob);
          current = full.generation;
          applied = 0;
          break;
        }
        offset = delta_offset;
        current = d.generation;
        ++applied;
      }
    }

    report.restored = true;
    report.generation = current;
    report.offset = offset;
    report.deltas_applied = applied;
    chain_hash_ = chain;
    have_chain_ = true;
    force_full_ = false;
    gens_since_full_ = static_cast<uint64_t>(applied);
  }

  // New generations must never collide with files already on disk, even
  // ones skipped as corrupt.
  last_generation_ = std::max(max_generation, report.generation);

  if (report.restored && report.generation != last_generation_) {
    // Fallback recovery: files newer than the restored state remain on
    // disk (corrupt or chain-broken), so a delta based on the running
    // chain could never re-attach past them at the next recovery —
    // ValidDeltaChain stops at the first gap. Start a fresh full chain.
    force_full_ = true;
  }

  if (!report.restored) {
    // Cold start: nothing recoverable, replay the whole log into a
    // fresh engine.
    engine.Reset();
    have_chain_ = false;
    force_full_ = true;
    gens_since_full_ = 0;
  }

  if (log_ != nullptr) {
    Status s = log_->ReplayFrom(
        report.offset, [&engine](const Event& e) { engine.Push(e); },
        &report.replayed_events);
    if (!s.ok()) return s;
  }

  if (m_recoveries_ != nullptr) {
    // corrupt_skipped is already on the counter (Quarantine bumps it).
    m_recoveries_->Inc();
    m_replayed_->Inc(static_cast<int64_t>(report.replayed_events));
  }
  return report;
}

}  // namespace log
}  // namespace tpstream

#endif  // TPSTREAM_LOG_RECOVERY_H_
