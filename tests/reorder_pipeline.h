// Test-only engine: an ooo::ReorderBuffer in front of a TPStreamOperator,
// the out-of-order deployment examples/csv_pipeline.cpp wires by hand.
// It models log::Engine and forwards SetReplayMode to the buffer, so the
// checkpoint and recovery differentials can pin the buffer's checkpointed
// heap and RecoveryManager's replay hook (exactly-once late-event
// quarantine) through the same surface they use for the engines.

#ifndef TPSTREAM_TESTS_REORDER_PIPELINE_H_
#define TPSTREAM_TESTS_REORDER_PIPELINE_H_

#include <cstdint>
#include <span>
#include <utility>

#include "ckpt/serde.h"
#include "common/event.h"
#include "common/status.h"
#include "core/operator.h"
#include "log/recovery.h"
#include "ooo/reorder_buffer.h"

namespace tpstream {

class ReorderPipeline {
 public:
  ReorderPipeline(QuerySpec spec, ooo::ReorderBuffer::Options reorder,
                  TPStreamOperator::OutputCallback output)
      : buffer_(reorder),
        op_(std::move(spec), TPStreamOperator::Options{}, std::move(output)) {}
  ReorderPipeline(const ReorderPipeline&) = delete;
  ReorderPipeline& operator=(const ReorderPipeline&) = delete;

  void Push(const Event& event) {
    ++num_pushed_;
    buffer_.Push(event, release_);
  }

  void PushBatch(std::span<const Event> events) {
    for (const Event& event : events) Push(event);
  }

  /// Releases everything the buffer holds (end of stream).
  void Flush() {
    buffer_.Flush(release_);
    op_.Flush();
  }

  void Reset() {
    num_pushed_ = 0;
    buffer_.Reset();
    op_.Reset();
  }

  /// Envelope stamped with the events pushed into the buffer (the log
  /// offset), then the buffer and the operator.
  void Checkpoint(ckpt::Writer& w) const {
    w.Envelope(num_pushed_);
    buffer_.Checkpoint(w);
    op_.Checkpoint(w);
  }

  Status Restore(ckpt::Reader& r, uint64_t* offset = nullptr) {
    uint64_t off = 0;
    Status status = r.Envelope(&off);
    if (status.ok()) status = buffer_.Restore(r);
    if (status.ok()) status = op_.Restore(r);
    if (!status.ok()) return status;
    num_pushed_ = off;
    if (offset != nullptr) *offset = off;
    return Status::OK();
  }

  void SetReplayMode(bool replaying) { buffer_.SetReplayMode(replaying); }

 private:
  ooo::ReorderBuffer buffer_;
  TPStreamOperator op_;
  const ooo::ReorderBuffer::Sink release_ = [this](const Event& e) {
    op_.Push(e);
  };
  uint64_t num_pushed_ = 0;
};

static_assert(log::Engine<ReorderPipeline>);

}  // namespace tpstream

#endif  // TPSTREAM_TESTS_REORDER_PIPELINE_H_
