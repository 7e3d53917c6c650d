#include "robust/dead_letter.h"

namespace tpstream {
namespace robust {

const char* DeadLetterKindName(DeadLetterKind kind) {
  switch (kind) {
    case DeadLetterKind::kCsvRow:
      return "csv_row";
    case DeadLetterKind::kShedBatch:
      return "shed_batch";
    case DeadLetterKind::kTornLogRecord:
      return "torn_log_record";
    case DeadLetterKind::kCorruptCheckpoint:
      return "corrupt_checkpoint";
  }
  return "unknown";
}

Status CollectingDeadLetterSink::Consume(DeadLetterItem item) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (items_.size() >= capacity_) {
    ++dropped_;
    return Status::ResourceExhausted(
        "dead-letter sink full (capacity " + std::to_string(capacity_) +
        "); dropped " + DeadLetterKindName(item.kind) + " item");
  }
  items_.push_back(std::move(item));
  ++accepted_;
  return Status::OK();
}

int64_t CollectingDeadLetterSink::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

int64_t CollectingDeadLetterSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<DeadLetterItem> CollectingDeadLetterSink::Items() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_;
}

std::vector<DeadLetterItem> CollectingDeadLetterSink::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DeadLetterItem> out = std::move(items_);
  items_.clear();
  return out;
}

}  // namespace robust
}  // namespace tpstream
