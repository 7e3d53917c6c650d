#include "log/recovery.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace tpstream {
namespace log {

namespace {

constexpr uint32_t kCheckpointFileMagic = 0x46435054;  // "TPCF" little-endian
constexpr uint32_t kCheckpointFileVersion = 1;
constexpr uint8_t kKindFull = 1;
constexpr uint8_t kKindDelta = 2;

}  // namespace

RecoveryManager::RecoveryManager(FileSystem* fs, std::string dir,
                                 EventLog* log, const Options& options)
    : fs_(fs), dir_(std::move(dir)), log_(log), options_(options) {
  if (options_.full_snapshot_interval == 0) {
    options_.full_snapshot_interval = 1;
  }
  if (options_.metrics != nullptr) {
    m_checkpoints_ = options_.metrics->GetCounter("recovery.checkpoints");
    m_full_ = options_.metrics->GetCounter("recovery.full_checkpoints");
    m_delta_ = options_.metrics->GetCounter("recovery.delta_checkpoints");
    m_bytes_ = options_.metrics->GetCounter("recovery.checkpoint_bytes");
    m_recoveries_ = options_.metrics->GetCounter("recovery.recoveries");
    m_replayed_ = options_.metrics->GetCounter("recovery.replayed_events");
    m_corrupt_ =
        options_.metrics->GetCounter("recovery.corrupt_checkpoints_skipped");
    m_serialize_us_ =
        options_.metrics->GetHistogram("recovery.checkpoint_serialize_us");
    m_barrier_us_ =
        options_.metrics->GetHistogram("recovery.checkpoint_barrier_us");
    m_persist_us_ =
        options_.metrics->GetHistogram("recovery.checkpoint_persist_us");
  }
}

Status RecoveryManager::Open(FileSystem* fs, const std::string& dir,
                             EventLog* log, const Options& options,
                             std::unique_ptr<RecoveryManager>* out) {
  if (fs == nullptr) return Status::InvalidArgument("null FileSystem");
  if (out == nullptr) return Status::InvalidArgument("null output pointer");
  Status s = fs->CreateDir(dir);
  if (!s.ok()) return s;
  std::unique_ptr<RecoveryManager> mgr(
      new RecoveryManager(fs, dir, log, options));
  s = mgr->ScanDir();
  if (!s.ok()) return s;
  *out = std::move(mgr);
  return Status::OK();
}

void RecoveryManager::Lap(obs::LatencyHistogram* phase,
                          std::chrono::steady_clock::time_point* mark) {
  if (phase == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  phase->Record(
      std::chrono::duration_cast<std::chrono::microseconds>(now - *mark)
          .count());
  *mark = now;
}

std::string RecoveryManager::EntryFileName(uint64_t generation, bool delta) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020" PRIu64 "-%s.tpc", generation,
                delta ? "delta" : "full");
  return buf;
}

Status RecoveryManager::ScanDir() {
  std::vector<std::string> names;
  Status s = fs_->ListDir(dir_, &names);
  if (!s.ok()) return s;
  for (const std::string& name : names) {
    unsigned long long generation = 0;
    char kind[8] = {0};
    // Width-limited so a 21-digit name cannot overflow; the round-trip
    // check below rejects any lexical near-miss (e.g. leading '+').
    if (std::sscanf(name.c_str(), "ckpt-%20llu-%5[a-z].tpc", &generation,
                    kind) != 2) {
      continue;  // temp files, foreign files
    }
    const bool delta = std::string_view(kind) == "delta";
    if (!delta && std::string_view(kind) != "full") continue;
    if (name != EntryFileName(generation, delta)) continue;
    Entry e;
    e.generation = generation;
    e.delta = delta;
    e.name = name;
    entries_.push_back(std::move(e));
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.generation < b.generation;
            });
  if (!entries_.empty()) last_generation_ = entries_.back().generation;
  return Status::OK();
}

Status RecoveryManager::PersistGeneration(uint64_t generation, bool delta,
                                          uint64_t base_generation,
                                          uint32_t base_hash,
                                          const std::string& blob,
                                          uint32_t blob_crc,
                                          uint64_t* file_bytes) {
  // header | blob | footer, the bytes ckpt::Writer::Str(blob) followed
  // by SealChecksum() would build, written without copying the blob.
  ckpt::Writer header;
  header.U32(kCheckpointFileMagic);
  header.U32(kCheckpointFileVersion);
  header.U64(generation);
  header.U8(delta ? kKindDelta : kKindFull);
  header.U64(base_generation);
  header.U32(base_hash);
  header.U64(blob.size());
  ckpt::Writer footer;
  footer.ChecksumFooter(
      Crc32cCombine(Crc32c(header.buffer()), blob_crc, blob.size()));

  const std::string name = EntryFileName(generation, delta);
  const std::string tmp_path = JoinPath(dir_, name + ".tmp");
  const std::string final_path = JoinPath(dir_, name);

  // tmp + fsync + rename + directory fsync: the final name only ever
  // points at complete, durable bytes — a crash mid-write leaves a .tmp
  // that ScanDir skips — and the name itself is durable on return.
  std::unique_ptr<WritableFile> file;
  Status s = fs_->OpenAppend(tmp_path, &file);
  if (s.ok()) s = file->Append(header.buffer());
  if (s.ok()) s = file->Append(blob);
  if (s.ok()) s = file->Append(footer.buffer());
  if (s.ok()) s = file->Sync();
  if (file != nullptr) {
    Status close = file->Close();
    if (s.ok()) s = close;
  }
  if (s.ok()) s = fs_->RenameFile(tmp_path, final_path);
  if (s.ok()) {
    s = fs_->SyncDir(dir_);
    // The first generation of this manager also makes the directory's
    // own name durable.
    if (s.ok() && !parent_synced_) s = fs_->SyncDir(ParentDir(dir_));
    if (s.ok()) parent_synced_ = true;
    if (!s.ok()) (void)fs_->DeleteFile(final_path);
  }
  if (!s.ok()) {
    (void)fs_->DeleteFile(tmp_path);
    return s;
  }

  Entry e;
  e.generation = generation;
  e.delta = delta;
  e.name = name;
  entries_.push_back(std::move(e));
  if (file_bytes != nullptr) {
    *file_bytes = header.size() + blob.size() + footer.size();
  }
  return Status::OK();
}

Status RecoveryManager::LoadGeneration(const Entry& entry, Loaded* out) {
  std::string raw;
  Status s = fs_->ReadFile(JoinPath(dir_, entry.name), &raw);
  if (!s.ok()) return s;
  std::string_view payload;
  s = ckpt::VerifyAndStripChecksum(raw, &payload);
  if (!s.ok()) return s;
  ckpt::Reader r(payload);
  const uint32_t magic = r.U32();
  const uint32_t version = r.U32();
  out->generation = r.U64();
  out->delta = r.U8() == kKindDelta;
  out->base_generation = r.U64();
  out->base_hash = r.U32();
  out->blob = r.Str();
  if (!r.ok()) return r.status();
  if (magic != kCheckpointFileMagic) {
    return Status::ParseError("checkpoint file " + entry.name +
                              ": bad magic (not a TPCF file)");
  }
  if (version != kCheckpointFileVersion) {
    return Status::ParseError("checkpoint file " + entry.name +
                              ": unsupported version " +
                              std::to_string(version));
  }
  if (out->generation != entry.generation) {
    return Status::ParseError("checkpoint file " + entry.name +
                              ": generation does not match file name");
  }
  if (r.remaining() != 0) {
    return Status::ParseError("checkpoint file " + entry.name +
                              ": trailing bytes after blob");
  }
  return Status::OK();
}

void RecoveryManager::Quarantine(const std::string& name, const Status& why) {
  if (m_corrupt_ != nullptr) m_corrupt_->Inc();
  if (options_.dead_letter == nullptr) return;
  robust::DeadLetterItem item;
  item.kind = robust::DeadLetterKind::kCorruptCheckpoint;
  item.detail = "checkpoint " + JoinPath(dir_, name) +
                " skipped during recovery: " + std::string(why.message());
  (void)options_.dead_letter->Consume(std::move(item));
}

void RecoveryManager::PruneOldGenerations(uint64_t new_full_generation) {
  // Keep the previous full snapshot and its delta chain as the fallback
  // should the new full turn out unreadable; everything older goes.
  uint64_t previous_full = 0;
  for (const Entry& e : entries_) {
    if (!e.delta && e.generation < new_full_generation &&
        e.generation > previous_full) {
      previous_full = e.generation;
    }
  }
  if (previous_full == 0) return;
  std::vector<Entry> kept;
  kept.reserve(entries_.size());
  for (Entry& e : entries_) {
    if (e.generation < previous_full) {
      (void)fs_->DeleteFile(JoinPath(dir_, e.name));
    } else {
      kept.push_back(std::move(e));
    }
  }
  entries_ = std::move(kept);
}

Status RecoveryManager::CommitCheckpoint(uint64_t generation, bool delta,
                                         const std::string& blob,
                                         uint64_t offset,
                                         uint64_t* file_bytes) {
  const uint64_t base_generation = delta ? last_generation_ : 0;
  const uint32_t base_hash = delta ? chain_hash_ : 0;
  // The one pass over the blob: the file footer and the chain hash are
  // both derived from its CRC.
  const uint32_t blob_crc = Crc32c(blob);
  Status s = PersistGeneration(generation, delta, base_generation, base_hash,
                               blob, blob_crc, file_bytes);
  if (!s.ok()) return s;

  chain_hash_ =
      delta ? Crc32cCombine(chain_hash_, blob_crc, blob.size()) : blob_crc;
  have_chain_ = true;
  force_full_ = false;
  last_generation_ = generation;
  if (delta) {
    ++gens_since_full_;
  } else {
    PruneOldGenerations(generation);
    gens_since_full_ = 0;
  }

  if (m_checkpoints_ != nullptr) {
    m_checkpoints_->Inc();
    (delta ? m_delta_ : m_full_)->Inc();
    if (file_bytes != nullptr) {
      m_bytes_->Inc(static_cast<int64_t>(*file_bytes));
    }
  }

  if (log_ != nullptr) {
    // Advisory marker (LatestCheckpointMarker); the generation files are
    // the source of truth, so a marker-append failure is not fatal to the
    // checkpoint that already hit disk, and the marker rides the log's
    // sync policy instead of forcing a barrier of its own.
    (void)log_->AppendCheckpointMarker(generation, offset);
  }
  return Status::OK();
}

std::vector<RecoveryManager::Loaded> RecoveryManager::ValidDeltaChain(
    const Loaded& full, uint32_t* chain_hash, int64_t* corrupt_skipped) {
  std::vector<Loaded> chain;
  uint32_t hash = Crc32c(full.blob);
  uint64_t current = full.generation;
  for (const Entry& e : entries_) {
    if (e.generation <= full.generation) continue;
    if (!e.delta) break;  // a newer full ends this chain (it failed to
                          // restore, or we'd have started from it)
    Loaded d;
    Status s = LoadGeneration(e, &d);
    if (s.ok() && !d.delta) {
      s = Status::ParseError("checkpoint file " + e.name +
                             ": kind does not match file name");
    }
    if (s.ok() && (d.base_generation != current || d.base_hash != hash)) {
      s = Status::ParseError(
          "checkpoint file " + e.name + ": chain break (declares base " +
          std::to_string(d.base_generation) + ", running chain is at " +
          std::to_string(current) + ")");
    }
    if (!s.ok()) {
      // Anything after the break cannot re-attach; stop here and recover
      // the validated prefix.
      Quarantine(e.name, s);
      if (corrupt_skipped != nullptr) ++*corrupt_skipped;
      break;
    }
    hash = Crc32cExtend(hash, d.blob);
    current = d.generation;
    chain.push_back(std::move(d));
  }
  *chain_hash = hash;
  return chain;
}

}  // namespace log
}  // namespace tpstream
