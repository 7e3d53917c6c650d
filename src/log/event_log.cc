#include "log/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "log/crc32c.h"

namespace tpstream {
namespace log {
namespace {

constexpr uint32_t kSegmentMagic = 0x474c5054;  // "TPLG" little-endian
constexpr uint32_t kSegmentVersion = 1;
constexpr size_t kSegmentHeaderSize = 16;
constexpr size_t kRecordHeaderSize = 8;  // u32 length | u32 crc32c

constexpr uint8_t kRecordEventBatch = 1;
constexpr uint8_t kRecordCheckpointMarker = 2;

// Cap on raw torn-tail bytes preserved in the dead-letter item; the
// full tail is still counted and truncated.
constexpr size_t kQuarantineRawBytes = 256;

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::string SegmentHeader(uint64_t base) {
  ckpt::Writer w;
  w.U32(kSegmentMagic);
  w.U32(kSegmentVersion);
  w.U64(base);
  return w.Take();
}

/// One parsed record framing within a segment buffer.
struct RecordView {
  size_t pos = 0;           // byte position of the frame start
  std::string_view payload;  // validated payload bytes
};

/// Walks the records of a segment buffer. Stops at the first framing or
/// CRC error; `ok_end` then points at the first untrusted byte.
class SegmentCursor {
 public:
  SegmentCursor(std::string_view data, size_t start) : data_(data), pos_(start) {}

  bool Next(RecordView* out) {
    if (pos_ + kRecordHeaderSize > data_.size()) return false;
    const uint32_t len = LoadU32(data_.data() + pos_);
    const uint32_t crc = LoadU32(data_.data() + pos_ + 4);
    if (len == 0 || pos_ + kRecordHeaderSize + len > data_.size()) {
      return false;
    }
    const std::string_view payload = data_.substr(pos_ + kRecordHeaderSize, len);
    if (Crc32c(payload) != crc) return false;
    out->pos = pos_;
    out->payload = payload;
    pos_ += kRecordHeaderSize + len;
    return true;
  }

  /// First byte after the last successfully parsed record.
  size_t ok_end() const { return pos_; }
  bool at_eof() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_;
};

Status CheckSegmentHeader(std::string_view data, const std::string& name,
                          uint64_t expected_base) {
  if (data.size() < kSegmentHeaderSize) {
    return Status::ParseError("log segment " + name + ": missing header (" +
                              std::to_string(data.size()) + " bytes)");
  }
  if (LoadU32(data.data()) != kSegmentMagic) {
    return Status::ParseError("log segment " + name +
                              ": bad magic (not a TPLG segment)");
  }
  if (LoadU32(data.data() + 4) != kSegmentVersion) {
    return Status::ParseError("log segment " + name +
                              ": unsupported version");
  }
  uint64_t base = 0;
  for (size_t i = 0; i < 8; ++i) {
    base |= static_cast<uint64_t>(static_cast<uint8_t>(data[8 + i])) << (8 * i);
  }
  if (base != expected_base) {
    return Status::ParseError(
        "log segment " + name + ": header base offset " +
        std::to_string(base) + " does not match file name");
  }
  return Status::OK();
}

}  // namespace

const char* SyncModeName(SyncMode mode) {
  switch (mode) {
    case SyncMode::kEveryRecord:
      return "every_record";
    case SyncMode::kEveryBytes:
      return "every_bytes";
    case SyncMode::kInterval:
      return "interval";
  }
  return "unknown";
}

std::string EventLog::SegmentFileName(uint64_t base) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "segment-%020llu.tpl",
                static_cast<unsigned long long>(base));
  return buf;
}

EventLog::EventLog(FileSystem* fs, std::string dir,
                   const EventLogOptions& options)
    : fs_(fs), dir_(std::move(dir)), options_(options) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* m = options_.metrics;
    m_records_ = m->GetCounter("log.appended_records");
    m_bytes_ = m->GetCounter("log.appended_bytes");
    m_fsyncs_ = m->GetCounter("log.fsyncs");
    m_truncated_ = m->GetCounter("log.truncated_tail_records");
    m_replays_ = m->GetCounter("log.replays");
    m_replayed_events_ = m->GetCounter("log.replayed_events");
    m_segments_ = m->GetGauge("log.segments");
    m_fsync_ns_ = m->GetHistogram("log.fsync_ns");
  }
}

EventLog::~EventLog() {
  if (!sync_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(sync_mu_);
    stop_ = true;
  }
  sync_requested_cv_.notify_one();
  sync_thread_.join();
}

int64_t EventLog::NowNs() const {
  if (options_.sync.clock) return options_.sync.clock();
  return SteadyNs();
}

Status EventLog::Open(FileSystem* fs, const std::string& dir,
                      const EventLogOptions& options,
                      std::unique_ptr<EventLog>* out, OpenReport* out_report) {
  Status s = fs->CreateDir(dir);
  if (!s.ok()) return s;
  std::unique_ptr<EventLog> log(new EventLog(fs, dir, options));
  OpenReport report;
  s = log->OpenTail(&report);
  if (!s.ok()) return s;
  if (log->m_segments_ != nullptr) {
    log->m_segments_->Set(static_cast<double>(log->segments_.size()));
  }
  if (log->m_truncated_ != nullptr && report.truncated_tail_records > 0) {
    log->m_truncated_->Inc(report.truncated_tail_records);
  }
  if (options.sync.mode != SyncMode::kEveryRecord) {
    log->sync_thread_ = std::thread(&EventLog::SyncLoop, log.get());
  }
  if (out_report != nullptr) *out_report = report;
  *out = std::move(log);
  return Status::OK();
}

Status EventLog::OpenTail(OpenReport* report) {
  std::vector<std::string> names;
  Status s = fs_->ListDir(dir_, &names);
  if (!s.ok()) return s;

  segments_.clear();
  for (const std::string& name : names) {
    unsigned long long base = 0;
    if (std::sscanf(name.c_str(), "segment-%20llu.tpl", &base) == 1 &&
        name == SegmentFileName(base)) {
      segments_.push_back(Segment{name, base});
    }
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.base < b.base; });

  // A crash during rotation can leave a final segment too short to hold
  // its header; it carries no records, so drop it and fall back to the
  // previous segment as the tail.
  while (!segments_.empty()) {
    const Segment& last = segments_.back();
    const std::string path = JoinPath(dir_, last.name);
    std::string data;
    s = fs_->ReadFile(path, &data);
    if (!s.ok()) return s;
    if (data.size() >= kSegmentHeaderSize) break;
    report->truncated_tail_bytes += data.size();
    s = fs_->DeleteFile(path);
    if (!s.ok()) return s;
    segments_.pop_back();
  }

  if (segments_.empty()) {
    // Fresh log: create segment 0.
    end_offset_ = 0;
    begin_offset_ = 0;
    segments_.push_back(Segment{SegmentFileName(0), 0});
    tail_path_ = JoinPath(dir_, segments_.back().name);
    s = fs_->OpenAppend(tail_path_, &tail_);
    if (!s.ok()) return s;
    if (tail_->size() == 0) {
      s = tail_->Append(SegmentHeader(0));
      if (!s.ok()) return s;
      s = tail_->Sync();
      if (!s.ok()) return s;
      s = fs_->SyncDir(dir_);  // the new segment's name
      if (!s.ok()) return s;
      durable_bytes_ = tail_->size();
    }
    written_bytes_ = tail_->size();
    last_sync_ns_ = NowNs();
    report->segments = 1;
    return Status::OK();
  }

  begin_offset_ = segments_.front().base;
  end_offset_ = segments_.front().base;

  for (size_t i = 0; i < segments_.size(); ++i) {
    const bool is_final = (i + 1 == segments_.size());
    const std::string path = JoinPath(dir_, segments_[i].name);
    std::string data;
    s = fs_->ReadFile(path, &data);
    if (!s.ok()) return s;
    s = CheckSegmentHeader(data, segments_[i].name, segments_[i].base);
    if (!s.ok()) return s;

    uint64_t offset = segments_[i].base;
    SegmentCursor cursor(data, kSegmentHeaderSize);
    RecordView rec;
    while (cursor.Next(&rec)) {
      ckpt::Reader r(rec.payload);
      const uint8_t type = r.U8();
      if (type == kRecordEventBatch) {
        const uint64_t first = r.U64();
        const uint32_t count = r.U32();
        if (!r.ok() || first != offset) {
          return Status::ParseError("log segment " + segments_[i].name +
                                    ": inconsistent batch offsets");
        }
        offset = first + count;
      } else if (type == kRecordCheckpointMarker) {
        const uint64_t gen = r.U64();
        const uint64_t ckpt_offset = r.U64();
        if (!r.ok()) {
          return Status::ParseError("log segment " + segments_[i].name +
                                    ": malformed checkpoint marker");
        }
        has_marker_ = true;
        marker_generation_ = gen;
        marker_offset_ = ckpt_offset;
      } else {
        return Status::ParseError("log segment " + segments_[i].name +
                                  ": unknown record type " +
                                  std::to_string(type));
      }
    }

    if (!cursor.at_eof()) {
      if (!is_final) {
        // Torn writes only happen at the log tail; a bad record in the
        // middle of the log is corruption, not a crash artifact.
        return Status::ParseError("log segment " + segments_[i].name +
                                  ": corrupt record at byte " +
                                  std::to_string(cursor.ok_end()));
      }
      const size_t good = cursor.ok_end();
      const uint64_t torn = data.size() - good;
      s = fs_->Truncate(path, good);
      if (!s.ok()) return s;
      report->truncated_tail_records += 1;
      report->truncated_tail_bytes += torn;
      if (options_.dead_letter != nullptr) {
        robust::DeadLetterItem item;
        item.kind = robust::DeadLetterKind::kTornLogRecord;
        item.detail = "torn record at byte " + std::to_string(good) +
                      " of " + segments_[i].name + " (" +
                      std::to_string(torn) + " byte(s) truncated)";
        item.raw = data.substr(good, std::min<size_t>(torn, kQuarantineRawBytes));
        options_.dead_letter->Consume(std::move(item));
      }
    }

    if (is_final) {
      end_offset_ = offset;
    } else if (offset != segments_[i + 1].base) {
      return Status::ParseError(
          "log segment " + segments_[i].name + " ends at offset " +
          std::to_string(offset) + " but the next segment starts at " +
          std::to_string(segments_[i + 1].base));
    }
  }

  tail_path_ = JoinPath(dir_, segments_.back().name);
  s = fs_->OpenAppend(tail_path_, &tail_);
  if (!s.ok()) return s;
  // Sealed segments are durable; whether the tail's records reached the
  // disk before the previous process ended is unknown until a Sync().
  written_bytes_ = tail_->size();
  durable_offset_.store(segments_.back().base);
  last_sync_ns_ = NowNs();
  report->segments = static_cast<int64_t>(segments_.size());
  return Status::OK();
}

Status EventLog::RotateIfNeeded() {
  if (tail_->size() < options_.segment_bytes) return Status::OK();
  // A segment that filled without end_offset_ advancing (checkpoint
  // markers only) cannot rotate: the new segment would take the current
  // tail's own name, and OpenAppend would append a duplicate header
  // mid-file. Let the tail keep growing until an event batch lands.
  if (end_offset_ == segments_.back().base) return Status::OK();
  // Seal the full segment: everything in it becomes durable before the
  // log moves on, so only the newest segment can ever hold a torn tail.
  // The barrier also leaves the log thread idle, so it holds no pointer
  // to the file closed below.
  Status s = Sync();
  if (!s.ok()) return s;
  s = tail_->Close();
  if (!s.ok()) return s;
  const std::string name = SegmentFileName(end_offset_);
  const std::string path = JoinPath(dir_, name);
  std::unique_ptr<WritableFile> next;
  s = fs_->OpenAppend(path, &next);
  if (s.ok()) s = next->Append(SegmentHeader(end_offset_));
  if (s.ok()) s = next->Sync();
  if (s.ok()) s = fs_->SyncDir(dir_);  // the new segment's name
  if (!s.ok()) {
    // Roll back the half-born segment and reattach the previous tail so
    // the log stays append-able (Open also tolerates a headerless final
    // segment, but do not rely on a restart to repair it).
    if (next != nullptr) next->Close();
    next.reset();
    fs_->DeleteFile(path);
    Status reopen = fs_->OpenAppend(tail_path_, &tail_);
    if (!reopen.ok()) return reopen;
    return s;
  }
  tail_ = std::move(next);
  tail_path_ = path;
  segments_.push_back(Segment{name, end_offset_});
  bytes_since_sync_ = 0;
  if (m_segments_ != nullptr) {
    m_segments_->Set(static_cast<double>(segments_.size()));
  }
  return Status::OK();
}

Status EventLog::StickyError() {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return sync_error_;
}

Status EventLog::MaybeSync() {
  bool due = false;
  switch (options_.sync.mode) {
    case SyncMode::kEveryRecord:
      due = true;
      break;
    case SyncMode::kEveryBytes:
      due = bytes_since_sync_ >= options_.sync.sync_bytes;
      break;
    case SyncMode::kInterval:
      due = NowNs() - last_sync_ns_ >= options_.sync.sync_interval_ns;
      break;
  }
  if (!due) return Status::OK();
  if (!sync_thread_.joinable()) return SyncTail();
  bytes_since_sync_ = 0;
  last_sync_ns_ = NowNs();
  std::lock_guard<std::mutex> lock(sync_mu_);
  RequestSyncLocked();
  return Status::OK();
}

Status EventLog::SyncTail() {
  Status s = SyncParentOnce();
  if (!s.ok()) return s;
  const int64_t t0 = SteadyNs();
  s = tail_->Sync();
  if (!s.ok()) return s;
  if (m_fsyncs_ != nullptr) m_fsyncs_->Inc();
  if (m_fsync_ns_ != nullptr) m_fsync_ns_->Record(SteadyNs() - t0);
  bytes_since_sync_ = 0;
  last_sync_ns_ = NowNs();
  std::lock_guard<std::mutex> lock(sync_mu_);
  durable_bytes_ = written_bytes_;
  durable_offset_.store(end_offset_);
  return Status::OK();
}

Status EventLog::SyncParentOnce() {
  if (parent_synced_) return Status::OK();
  Status s = fs_->SyncDir(ParentDir(dir_));
  if (s.ok()) parent_synced_ = true;
  return s;
}

void EventLog::RequestSyncLocked() {
  requested_bytes_ = written_bytes_;
  requested_offset_ = end_offset_;
  sync_file_ = tail_.get();
  sync_requested_cv_.notify_one();
}

void EventLog::WaitSyncIdle() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  sync_done_cv_.wait(lock, [this] {
    return !sync_error_.ok() || durable_bytes_ >= requested_bytes_;
  });
}

void EventLog::SyncLoop() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  for (;;) {
    auto pending = [this] {
      return sync_error_.ok() && requested_bytes_ > durable_bytes_;
    };
    sync_requested_cv_.wait(lock, [&] { return stop_ || pending(); });
    if (!pending()) return;  // stopping, nothing left to cover
    // Take the newest request: everything written before this fsync
    // starts is covered by it, however many requests that was.
    const uint64_t bytes = requested_bytes_;
    const uint64_t offset = requested_offset_;
    WritableFile* file = sync_file_;
    lock.unlock();
    Status s = SyncParentOnce();
    const int64_t t0 = SteadyNs();
    if (s.ok()) s = file->Sync();
    const int64_t t1 = SteadyNs();
    lock.lock();
    if (s.ok()) {
      if (m_fsyncs_ != nullptr) m_fsyncs_->Inc();
      if (m_fsync_ns_ != nullptr) m_fsync_ns_->Record(t1 - t0);
      durable_bytes_ = bytes;
      durable_offset_.store(offset);
    } else {
      sync_error_ = std::move(s);
    }
    sync_done_cv_.notify_all();
  }
}

void EventLog::BeginRecord(uint8_t type) {
  frame_.Clear();
  frame_.U32(0);  // payload length, patched by WriteRecord
  frame_.U32(0);  // payload crc32c, patched by WriteRecord
  frame_.U8(type);
}

Status EventLog::WriteRecord(uint64_t num_events) {
  Status s = RotateIfNeeded();
  if (!s.ok()) return s;
  const std::string_view frame = frame_.buffer();
  const std::string_view payload = frame.substr(kRecordHeaderSize);
  frame_.PatchU32(0, static_cast<uint32_t>(payload.size()));
  frame_.PatchU32(4, Crc32c(payload));

  const uint64_t pre_size = tail_->size();
  const uint64_t pre_bytes_since_sync = bytes_since_sync_;
  s = tail_->Append(frame);
  if (s.ok()) {
    end_offset_ += num_events;
    written_bytes_ += frame.size();
    bytes_since_sync_ += frame.size();
    s = MaybeSync();  // fails only on an inline (kEveryRecord) fsync
    if (!s.ok()) {
      end_offset_ -= num_events;
      written_bytes_ -= frame.size();
    }
  }
  if (!s.ok()) {
    // Roll the record back so the segment holds exactly the records the
    // caller was told succeeded. A partial frame would masquerade as a
    // crash artifact; a complete frame left behind after a failed sync is
    // worse — end_offset_ never advances, so a later sync resurrects
    // events reported as failed and a retried Append writes a second
    // batch with the same first-offset, making the log unopenable.
    bytes_since_sync_ = pre_bytes_since_sync;
    WaitSyncIdle();  // the log thread must not hold the file closed here
    tail_->Close();
    tail_.reset();
    fs_->Truncate(tail_path_, pre_size);
    Status reopen = fs_->OpenAppend(tail_path_, &tail_);
    if (!reopen.ok()) return reopen;
    return s;
  }
  if (m_records_ != nullptr) m_records_->Inc();
  if (m_bytes_ != nullptr) m_bytes_->Inc(static_cast<int64_t>(frame.size()));
  return Status::OK();
}

Result<uint64_t> EventLog::Append(std::span<const Event> events) {
  Status s = StickyError();
  if (!s.ok()) return s;
  if (events.empty()) return end_offset_;
  BeginRecord(kRecordEventBatch);
  frame_.U64(end_offset_);
  frame_.U32(static_cast<uint32_t>(events.size()));
  for (const Event& e : events) frame_.WriteEvent(e);
  s = WriteRecord(events.size());
  if (!s.ok()) return s;
  return end_offset_;
}

Status EventLog::AppendCheckpointMarker(uint64_t generation, uint64_t offset) {
  Status s = StickyError();
  if (!s.ok()) return s;
  BeginRecord(kRecordCheckpointMarker);
  frame_.U64(generation);
  frame_.U64(offset);
  s = WriteRecord(0);
  if (!s.ok()) return s;
  has_marker_ = true;
  marker_generation_ = generation;
  marker_offset_ = offset;
  return Status::OK();
}

Status EventLog::Sync() {
  std::unique_lock<std::mutex> lock(sync_mu_);
  if (!sync_error_.ok()) return sync_error_;
  if (durable_bytes_ >= written_bytes_) return Status::OK();
  if (!sync_thread_.joinable()) {
    lock.unlock();
    return SyncTail();
  }
  bytes_since_sync_ = 0;
  last_sync_ns_ = NowNs();
  RequestSyncLocked();
  const uint64_t target = written_bytes_;
  sync_done_cv_.wait(lock, [&] {
    return !sync_error_.ok() || durable_bytes_ >= target;
  });
  return sync_error_;
}

bool EventLog::LatestCheckpointMarker(uint64_t* generation,
                                      uint64_t* offset) const {
  if (!has_marker_) return false;
  if (generation != nullptr) *generation = marker_generation_;
  if (offset != nullptr) *offset = marker_offset_;
  return true;
}

Status EventLog::ReplayFrom(uint64_t offset,
                            const std::function<void(const Event&)>& sink,
                            uint64_t* replayed) const {
  uint64_t delivered = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    // Skip whole segments that end below the requested offset.
    if (i + 1 < segments_.size() && segments_[i + 1].base <= offset) continue;
    const std::string path = JoinPath(dir_, segments_[i].name);
    std::string data;
    Status s = fs_->ReadFile(path, &data);
    if (!s.ok()) return s;
    s = CheckSegmentHeader(data, segments_[i].name, segments_[i].base);
    if (!s.ok()) return s;
    SegmentCursor cursor(data, kSegmentHeaderSize);
    RecordView rec;
    while (cursor.Next(&rec)) {
      ckpt::Reader r(rec.payload);
      const uint8_t type = r.U8();
      if (type == kRecordCheckpointMarker) continue;
      if (type != kRecordEventBatch) {
        return Status::ParseError("log segment " + segments_[i].name +
                                  ": unknown record type " +
                                  std::to_string(type));
      }
      const uint64_t first = r.U64();
      const uint32_t count = r.U32();
      if (first + count <= offset) continue;  // whole batch below offset
      for (uint32_t k = 0; k < count; ++k) {
        Event e = r.ReadEvent();
        if (!r.ok()) break;
        if (first + k < offset) continue;  // skip within the batch
        sink(e);
        ++delivered;
      }
      if (!r.ok()) {
        return Status::ParseError("log segment " + segments_[i].name +
                                  ": malformed event batch at byte " +
                                  std::to_string(rec.pos));
      }
    }
    if (!cursor.at_eof()) {
      return Status::ParseError("log segment " + segments_[i].name +
                                ": corrupt record at byte " +
                                std::to_string(cursor.ok_end()));
    }
  }
  if (m_replays_ != nullptr) m_replays_->Inc();
  if (m_replayed_events_ != nullptr) {
    m_replayed_events_->Inc(static_cast<int64_t>(delivered));
  }
  if (replayed != nullptr) *replayed = delivered;
  return Status::OK();
}

}  // namespace log
}  // namespace tpstream
