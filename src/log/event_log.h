#ifndef TPSTREAM_LOG_EVENT_LOG_H_
#define TPSTREAM_LOG_EVENT_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/status.h"
#include "log/file.h"
#include "obs/metrics.h"
#include "robust/dead_letter.h"

namespace tpstream {
namespace log {

/// When the log issues a durability barrier (fsync) — the classic WAL
/// latency/durability dial.
enum class SyncMode {
  /// fsync after every record, on the caller's thread: no acknowledged
  /// event is ever lost, at the cost of one fsync per append.
  kEveryRecord,
  /// Request a barrier once at least `sync_bytes` have accumulated since
  /// the last request (group commit by volume). The fsync runs on the
  /// log thread; a crash loses at most the unsynced tail, which
  /// open-time tail repair truncates cleanly.
  kEveryBytes,
  /// Request a barrier once at least `sync_interval_ns` have elapsed
  /// since the last request (group commit by time). Checked on the
  /// append path, so an idle log syncs at the next append or explicit
  /// Sync(); the fsync runs on the log thread.
  kInterval,
};

const char* SyncModeName(SyncMode mode);

struct SyncPolicy {
  SyncMode mode = SyncMode::kEveryRecord;
  /// Barrier threshold for kEveryBytes.
  uint64_t sync_bytes = 64 * 1024;
  /// Barrier period for kInterval, in nanoseconds.
  int64_t sync_interval_ns = 5'000'000;  // 5 ms
  /// Injectable clock for kInterval (tests pin time); defaults to
  /// std::chrono::steady_clock.
  std::function<int64_t()> clock;
};

struct EventLogOptions {
  /// Segment rotation threshold: a new segment file starts once the
  /// current one holds at least this many bytes.
  uint64_t segment_bytes = 4 * 1024 * 1024;
  SyncPolicy sync;
  /// Optional observability sink (`log.*` metrics, see
  /// docs/architecture.md "Observability"). Must outlive the log.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional quarantine for torn-tail bytes truncated at open
  /// (DeadLetterKind::kTornLogRecord). Must outlive the log.
  robust::DeadLetterSink* dead_letter = nullptr;
};

/// Result of opening a log directory (tail-repair accounting).
struct OpenReport {
  /// Torn trailing records truncated from the final segment (0 or 1 per
  /// open: everything after the first bad record is discarded as one
  /// quarantined tail).
  int64_t truncated_tail_records = 0;
  /// Raw bytes discarded by tail repair.
  uint64_t truncated_tail_bytes = 0;
  /// Segments found on disk.
  int64_t segments = 0;
};

/// Segment-based append-only durable event log.
///
/// On-disk layout (little-endian; see "Durability contract",
/// docs/architecture.md): a directory of rotating segment files named
/// `segment-<20-digit base offset>.tpl`. Each segment starts with a
/// 16-byte header
///
///   u32 magic "TPLG" | u32 version | u64 base offset
///
/// (base offset = the log offset of the first event in the segment)
/// followed by records framed as
///
///   u32 payload length | u32 crc32c(payload) | payload
///
/// where payload[0] is a record type byte:
///   1 = event batch:      u64 first offset | u32 count | count x Event
///   2 = checkpoint marker: u64 generation  | u64 log offset
///
/// Events are serialized with the ckpt wire format (bit-exact doubles),
/// which is what makes replay byte-identical. Offsets count events, not
/// bytes; checkpoint markers do not advance the offset.
///
/// Group commit: under kEveryBytes and kInterval the log owns one thread
/// that runs the fsyncs. Append() still writes on the caller's thread, so
/// a returned record is in the OS page cache (a process crash keeps it);
/// when the policy says a barrier is due, Append() hands the fsync to the
/// log thread and returns. Requests that arrive while an fsync is in
/// flight are coalesced into the next one. durable_offset() is the
/// watermark of the last successful fsync. A failed background fsync is
/// sticky: the kernel may have dropped the dirty pages, so a retry could
/// report durability that does not exist. Every later Append, Sync and
/// AppendCheckpointMarker returns that error until the log is reopened.
/// kEveryRecord starts no thread and syncs inline (a failed sync rolls
/// its record back and the log stays usable).
///
/// Crash tolerance: only the tail of the *final* segment can legally be
/// torn (appends are sequential; rotation seals the old segment through
/// the same barrier first). Open() scans that segment record by
/// record; the first record with a bad length or CRC ends the trusted
/// prefix — the tail from that point is truncated on disk, counted, and
/// quarantined to the dead-letter sink. A CRC mismatch anywhere else
/// (non-final segment, or before valid trailing records) is corruption,
/// not a torn write, and fails loudly.
class EventLog {
 public:
  /// Opens (creating if needed) the log in `dir`. `fs` and everything in
  /// `options` must outlive the log. On success `*out_report` (when
  /// non-null) receives tail-repair accounting.
  static Status Open(FileSystem* fs, const std::string& dir,
                     const EventLogOptions& options,
                     std::unique_ptr<EventLog>* out,
                     OpenReport* out_report = nullptr);

  /// Finishes any fsync already requested, then stops the log thread.
  /// Issues no barrier of its own: what was not yet due stays unsynced.
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one batch as a single record. Returns the log offset of the
  /// *end* of the batch (== the new end_offset()); an empty batch is a
  /// no-op returning end_offset(). On kResourceExhausted (disk full) the
  /// partial record is rolled back and the segment stays re-openable;
  /// the error names the path and byte count. After a failed background
  /// fsync it returns that error and writes nothing.
  Result<uint64_t> Append(std::span<const Event> events);

  /// Appends a checkpoint marker record (generation, offset) under the
  /// sync policy like any record. Markers are advisory: the checkpoint
  /// files are the source of truth, and open-time tail repair drops a
  /// marker together with any earlier record that did not survive.
  Status AppendCheckpointMarker(uint64_t generation, uint64_t offset);

  /// Durability barrier over every record appended so far. Returns at
  /// once when durable_offset() already covers them; otherwise waits for
  /// an in-flight fsync and issues at most one more.
  Status Sync();

  /// Replays events with log offset >= `offset` in order, invoking
  /// `sink` for each. `*replayed` (when non-null) receives the number of
  /// events delivered. Checkpoint markers are skipped. Corruption
  /// encountered mid-replay fails with kParseError naming the segment.
  Status ReplayFrom(uint64_t offset,
                    const std::function<void(const Event&)>& sink,
                    uint64_t* replayed = nullptr) const;

  /// Scans for the newest checkpoint marker at or below end_offset().
  /// Returns false if the log holds no marker.
  bool LatestCheckpointMarker(uint64_t* generation, uint64_t* offset) const;

  /// Log offset one past the last appended event.
  uint64_t end_offset() const { return end_offset_; }
  /// Log offset one past the last event covered by a successful fsync
  /// (monotone, <= end_offset()). At open, the base of the final
  /// segment: earlier segments were sealed, the tail is not yet synced.
  /// Safe to read from any thread.
  uint64_t durable_offset() const { return durable_offset_.load(); }
  /// Log offset of the first retained event (0 until truncation exists).
  uint64_t begin_offset() const { return begin_offset_; }
  int64_t num_segments() const { return static_cast<int64_t>(segments_.size()); }
  const std::string& dir() const { return dir_; }

  /// Name of the segment file whose base offset is `base`.
  static std::string SegmentFileName(uint64_t base);

 private:
  struct Segment {
    std::string name;
    uint64_t base = 0;
  };

  EventLog(FileSystem* fs, std::string dir, const EventLogOptions& options);

  Status OpenTail(OpenReport* report);
  Status RotateIfNeeded();
  /// Starts a record of `type` in frame_, header left as a placeholder.
  void BeginRecord(uint8_t type);
  /// Patches the header of the record in frame_, writes it and applies
  /// the sync policy; the record carries `num_events` events.
  Status WriteRecord(uint64_t num_events);
  /// The append-path barrier rule: due under the policy -> fsync inline
  /// (kEveryRecord) or hand it to the log thread.
  Status MaybeSync();
  /// Inline fsync of the tail (kEveryRecord; no log thread).
  Status SyncTail();
  /// Syncs the parent of dir_ the first time it is called. Every fsync
  /// that can advance durable_offset() calls it first, so the log
  /// directory's own name is durable before any record is reported
  /// durable, and Open() pays no extra fsync.
  Status SyncParentOnce();
  /// Asks the log thread to cover everything written so far. Caller
  /// holds sync_mu_.
  void RequestSyncLocked();
  /// Blocks until no requested fsync is pending or running.
  void WaitSyncIdle();
  Status StickyError();
  void SyncLoop();
  int64_t NowNs() const;

  FileSystem* fs_;
  std::string dir_;
  EventLogOptions options_;

  std::vector<Segment> segments_;  // ascending by base offset
  std::unique_ptr<WritableFile> tail_;
  std::string tail_path_;
  uint64_t end_offset_ = 0;
  uint64_t begin_offset_ = 0;
  // Bytes written since this log was opened (the tail's size at open
  // included): the unit of the durable watermark, markers counted too.
  uint64_t written_bytes_ = 0;
  uint64_t bytes_since_sync_ = 0;
  int64_t last_sync_ns_ = 0;
  // One reused record buffer: header placeholder, payload, then patch.
  ckpt::Writer frame_;
  // Newest checkpoint marker seen (scanned at open, updated on append).
  bool has_marker_ = false;
  uint64_t marker_generation_ = 0;
  uint64_t marker_offset_ = 0;

  // Resolved metric handles (null when options_.metrics is null).
  obs::Counter* m_records_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_fsyncs_ = nullptr;
  obs::Counter* m_truncated_ = nullptr;
  obs::Counter* m_replays_ = nullptr;
  obs::Counter* m_replayed_events_ = nullptr;
  obs::Gauge* m_segments_ = nullptr;
  obs::LatencyHistogram* m_fsync_ns_ = nullptr;

  // Group commit. The producer owns everything above; the log thread
  // reads only the metric handles (fixed before it starts) and what
  // sync_mu_ guards below.
  std::mutex sync_mu_;
  std::condition_variable sync_requested_cv_;  // wakes the log thread
  std::condition_variable sync_done_cv_;       // wakes barrier waiters
  WritableFile* sync_file_ = nullptr;          // tail to fsync
  uint64_t requested_bytes_ = 0;
  uint64_t requested_offset_ = 0;
  uint64_t durable_bytes_ = 0;
  Status sync_error_;  // sticky
  bool stop_ = false;
  // Owned by the thread that runs the fsyncs (the producer under
  // kEveryRecord, the log thread otherwise).
  bool parent_synced_ = false;
  std::atomic<uint64_t> durable_offset_{0};
  // Declared last: started after, and joined before, everything it uses.
  std::thread sync_thread_;
};

}  // namespace log
}  // namespace tpstream

#endif  // TPSTREAM_LOG_EVENT_LOG_H_
