#include "log/file.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>

namespace tpstream {
namespace log {
namespace {

Status ErrnoStatus(const std::string& op, const std::string& path, int err) {
  const std::string msg = op + " " + path + ": " + ::strerror(err);
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted(msg);
  }
  return Status::Internal(msg);
}

/// ENOSPC carries the path and the byte count that failed to land, so an
/// operator reading the error knows what to free and how much.
Status NoSpace(const std::string& path, size_t bytes) {
  return Status::ResourceExhausted("disk full: " + path + ": " +
                                   std::to_string(bytes) +
                                   " byte(s) could not be appended");
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path, uint64_t size)
      : fd_(fd), path_(std::move(path)), size_(size) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ENOSPC || errno == EDQUOT) return NoSpace(path_, left);
        return ErrnoStatus("write", path_, errno);
      }
      p += n;
      left -= static_cast<size_t>(n);
      size_ += static_cast<uint64_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_, errno);
    return Status::OK();
  }

  uint64_t size() const override { return size_; }

 private:
  int fd_;
  std::string path_;
  uint64_t size_;
};

}  // namespace

Status PosixFileSystem::OpenAppend(const std::string& path,
                                   std::unique_ptr<WritableFile>* file) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return ErrnoStatus("open", path, errno);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return ErrnoStatus("fstat", path, err);
  }
  *file = std::make_unique<PosixWritableFile>(
      fd, path, static_cast<uint64_t>(st.st_size));
  return Status::OK();
}

Status PosixFileSystem::ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("open", path, errno);
  }
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("read", path, err);
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status PosixFileSystem::ListDir(const std::string& dir,
                                std::vector<std::string>* names) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("opendir", dir, errno);
  names->clear();
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names->push_back(name);
  }
  ::closedir(d);
  return Status::OK();
}

Status PosixFileSystem::CreateDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir", dir, errno);
  }
  return Status::OK();
}

Status PosixFileSystem::DeleteFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) return ErrnoStatus("unlink", path, errno);
  return Status::OK();
}

Status PosixFileSystem::RenameFile(const std::string& from,
                                   const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("rename", from + " -> " + to, errno);
  }
  return Status::OK();
}

Status PosixFileSystem::Truncate(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate", path, errno);
  }
  return Status::OK();
}

bool PosixFileSystem::FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

Status PosixFileSystem::SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", dir, errno);
  Status s;
  if (::fsync(fd) != 0) s = ErrnoStatus("fsync", dir, errno);
  ::close(fd);
  return s;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

std::string ParentDir(const std::string& path) {
  size_t end = path.size();
  while (end > 1 && path[end - 1] == '/') --end;
  const size_t slash = end == 0 ? std::string::npos : path.rfind('/', end - 1);
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace log
}  // namespace tpstream
