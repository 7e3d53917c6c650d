#ifndef TPSTREAM_LOG_FILE_H_
#define TPSTREAM_LOG_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tpstream {
namespace log {

/// Append-only file handle behind the durability seam. Every byte the
/// log or the recovery manager persists flows through this interface, so
/// the chaos suites can inject short writes, fsync failures and ENOSPC
/// without touching the production code path.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `data` at the end of the file. On failure the file may have
  /// grown by a prefix of `data` (short write) — callers that need
  /// record atomicity roll back via FileSystem::Truncate.
  virtual Status Append(std::string_view data) = 0;

  /// Durability barrier: on success all previously appended bytes have
  /// reached stable storage.
  virtual Status Sync() = 0;

  virtual Status Close() = 0;

  /// Bytes appended so far (the current file size).
  virtual uint64_t size() const = 0;
};

/// Minimal filesystem abstraction (the `log::File` seam): a real posix
/// implementation for production and an in-memory fault-injecting one
/// for tests (memfs.h). Paths are plain strings; the log keeps all its
/// files inside one directory.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Opens `path` for appending, creating it if absent. On success the
  /// handle's size() reflects the existing file length.
  virtual Status OpenAppend(const std::string& path,
                            std::unique_ptr<WritableFile>* file) = 0;

  virtual Status ReadFile(const std::string& path, std::string* out) = 0;

  /// Lists regular-file names (not paths) in `dir`, unsorted.
  virtual Status ListDir(const std::string& dir,
                         std::vector<std::string>* names) = 0;

  /// Creates `dir` if it does not exist (single level).
  virtual Status CreateDir(const std::string& dir) = 0;

  virtual Status DeleteFile(const std::string& path) = 0;

  /// Atomic within a directory; used for the tmp-write + rename
  /// checkpoint publication protocol.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  /// Truncates `path` to `size` bytes (torn-tail repair and ENOSPC
  /// rollback). The file must not be open for append.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  virtual bool FileExists(const std::string& path) = 0;

  /// Durability barrier for `dir`'s entries: on success a file created in
  /// or renamed into `dir` before the call survives a power cut. (A file
  /// Sync() makes its bytes durable, not its name.)
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// The production implementation: open/write/fsync/rename/ftruncate;
/// SyncDir fsyncs the directory itself (opened O_DIRECTORY).
/// ENOSPC is surfaced as Status::ResourceExhausted naming the path and
/// the byte count that could not be written (Degradation contract —
/// disk-full is an operational condition, not a parse error).
class PosixFileSystem : public FileSystem {
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
  Status SyncDir(const std::string& dir) override;
};

/// Joins a directory and a file name with exactly one separator.
std::string JoinPath(const std::string& dir, const std::string& name);

/// The directory that holds `path`: "/log/wal" -> "/log", "wal" -> ".",
/// "/wal" -> "/". Trailing separators are ignored.
std::string ParentDir(const std::string& path);

}  // namespace log
}  // namespace tpstream

#endif  // TPSTREAM_LOG_FILE_H_
