#ifndef TPSTREAM_ROBUST_DEAD_LETTER_H_
#define TPSTREAM_ROBUST_DEAD_LETTER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/status.h"

namespace tpstream {
namespace robust {

/// What kind of degradation produced a dead-letter item (see
/// docs/architecture.md, "Degradation contract").
enum class DeadLetterKind {
  /// A malformed CSV row skipped by CsvEventReader in
  /// kSkipAndQuarantine mode. `row` is the 1-based data row number,
  /// `detail` the parse error (with column context), `raw` the
  /// unparsed line.
  kCsvRow,
  /// A batch shed by ParallelTPStream under a drop backpressure policy.
  /// `events` holds every event of the shed batch, in push order.
  kShedBatch,
  /// A torn record truncated from the tail of a durable log segment on
  /// open (log::EventLog). `detail` names the segment and byte position;
  /// `raw` holds up to the first 256 raw bytes of the discarded tail.
  kTornLogRecord,
  /// A checkpoint file the RecoveryManager skipped because its checksum,
  /// structure, or chain link failed validation. `detail` names the file
  /// and the validation error.
  kCorruptCheckpoint,
};

const char* DeadLetterKindName(DeadLetterKind kind);

/// One quarantined item. Exactly one item is produced per degradation
/// decision; producers never deliver the same payload twice.
struct DeadLetterItem {
  DeadLetterKind kind = DeadLetterKind::kCsvRow;
  /// Human-readable context: parse error, lateness, shed policy.
  std::string detail;
  /// CSV data row number (1-based) for kCsvRow; -1 otherwise.
  int64_t row = -1;
  /// Raw CSV line for kCsvRow; empty otherwise.
  std::string raw;
  /// The quarantined event payload(s): the whole batch for kShedBatch,
  /// empty otherwise.
  std::vector<Event> events;
};

/// Uniform sink for quarantined items: instead of silently counting (or
/// fail-stopping the stream), every degradation path hands the affected
/// payload here. Implementations MUST be safe to call from multiple
/// threads concurrently — the parallel operator quarantines from both
/// the producer thread and worker threads.
///
/// Consume() returns OK when the item was accepted and
/// kResourceExhausted when the sink itself is at capacity (the item is
/// then dropped and only counted; a dead-letter channel must never be
/// the unbounded buffer it exists to prevent).
class DeadLetterSink {
 public:
  virtual ~DeadLetterSink() = default;
  virtual Status Consume(DeadLetterItem item) = 0;
};

/// Bounded in-memory sink: keeps up to `capacity` items (FIFO of
/// arrival), then drops and counts. Thread-safe; intended for tests,
/// tools, and as the default quarantine buffer of small deployments.
class CollectingDeadLetterSink : public DeadLetterSink {
 public:
  /// `capacity` bounds the retained items; 0 means "count only, retain
  /// nothing" (a pure accounting sink).
  explicit CollectingDeadLetterSink(size_t capacity = 1024)
      : capacity_(capacity) {}

  Status Consume(DeadLetterItem item) override;

  /// Items accepted (retained). Thread-safe.
  int64_t accepted() const;
  /// Items dropped because the sink was full. Thread-safe.
  int64_t dropped() const;
  /// Snapshot of the retained items, in arrival order.
  std::vector<DeadLetterItem> Items() const;
  /// Drains and returns the retained items (accepted()/dropped() keep
  /// their totals).
  std::vector<DeadLetterItem> Take();

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<DeadLetterItem> items_;
  int64_t accepted_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace robust
}  // namespace tpstream

#endif  // TPSTREAM_ROBUST_DEAD_LETTER_H_
