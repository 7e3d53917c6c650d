#ifndef TPSTREAM_LOG_MEMFS_H_
#define TPSTREAM_LOG_MEMFS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "log/file.h"

namespace tpstream {
namespace log {

/// In-memory FileSystem with deterministic fault injection — the test
/// half of the `log::File` seam. Crash simulation works on the byte
/// level: `synced_size` records how much of each file a Sync() has made
/// durable, and `SimulateCrash()` rolls every file back to that point,
/// modelling a power cut that loses the unsynced tail. Tests then carve
/// arbitrary torn tails with `TruncateTo` / `CorruptByte`.
///
/// Fault plan (all default off):
///   - `set_enospc_after_bytes(n)`: the next appends succeed until n
///     total bytes have been written, then fail with kResourceExhausted;
///     the partial prefix that fit is applied first (short write), as a
///     real filesystem would.
///   - `set_fail_fsync_after(n)`: the first n Sync() calls succeed, every
///     later one fails with kInternal.
///
/// Thread-safe: one mutex guards all state, so a log thread's Sync() may
/// race the producer's appends and the test's crash and inspection calls.
class MemFileSystem : public FileSystem {
 public:
  Status OpenAppend(const std::string& path,
                    std::unique_ptr<WritableFile>* file) override;
  Status ReadFile(const std::string& path, std::string* out) override;
  Status ListDir(const std::string& dir,
                 std::vector<std::string>* names) override;
  Status CreateDir(const std::string& dir) override;
  Status DeleteFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  bool FileExists(const std::string& path) override;
  /// Counted no-op: names are always durable here (SimulateCrash keeps
  /// every file), so tests read dir_syncs() to pin where syncs happen.
  Status SyncDir(const std::string& dir) override;

  // --- fault plan ------------------------------------------------------
  void set_enospc_after_bytes(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    enospc_after_bytes_ = n;
  }
  void clear_enospc() {
    set_enospc_after_bytes(std::numeric_limits<uint64_t>::max());
  }
  void set_fail_fsync_after(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_fsync_after_ = n;
  }
  void clear_fsync_fault() {
    set_fail_fsync_after(std::numeric_limits<uint64_t>::max());
  }

  // --- crash simulation ------------------------------------------------
  /// Rolls every file back to its last synced size (power-cut model).
  void SimulateCrash();
  /// Overrides a file's length (carving a torn tail at any boundary).
  void TruncateTo(const std::string& path, uint64_t size);
  /// XORs one byte (bit-flip fuzzing).
  void CorruptByte(const std::string& path, uint64_t pos, uint8_t mask);

  // --- inspection ------------------------------------------------------
  bool HasFile(const std::string& path) const;
  uint64_t FileSize(const std::string& path) const;
  std::string Contents(const std::string& path) const;
  uint64_t total_appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_appended_;
  }
  uint64_t num_syncs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_syncs_;
  }
  /// SyncDir(dir) calls so far.
  uint64_t dir_syncs(const std::string& dir) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dir_syncs_.find(dir);
    return it == dir_syncs_.end() ? 0 : it->second;
  }

 private:
  friend class MemWritableFile;

  struct FileState {
    std::string data;
    uint64_t synced_size = 0;
  };

  mutable std::mutex mu_;  // guards every member below
  std::map<std::string, FileState> files_;
  std::set<std::string> dirs_;
  std::map<std::string, uint64_t> dir_syncs_;
  uint64_t total_appended_ = 0;
  uint64_t num_syncs_ = 0;
  uint64_t enospc_after_bytes_ = std::numeric_limits<uint64_t>::max();
  uint64_t fail_fsync_after_ = std::numeric_limits<uint64_t>::max();
};

}  // namespace log
}  // namespace tpstream

#endif  // TPSTREAM_LOG_MEMFS_H_
