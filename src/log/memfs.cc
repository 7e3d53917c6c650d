#include "log/memfs.h"

#include <algorithm>

namespace tpstream {
namespace log {

namespace {

Status MemNoSpace(const std::string& path, size_t bytes) {
  return Status::ResourceExhausted("disk full: " + path + ": " +
                                   std::to_string(bytes) +
                                   " byte(s) could not be appended");
}

}  // namespace

/// Handle into MemFileSystem state. The handle stays valid across
/// SimulateCrash()/TruncateTo (it re-reads the file length), matching
/// how a real fd would observe an out-of-band truncate only at the next
/// append.
class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(MemFileSystem* fs, std::string path)
      : fs_(fs), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    auto it = fs_->files_.find(path_);
    if (it == fs_->files_.end()) {
      return Status::NotFound("append to deleted file: " + path_);
    }
    size_t allowed = data.size();
    const bool enospc =
        fs_->total_appended_ + data.size() > fs_->enospc_after_bytes_;
    if (enospc) {
      const uint64_t room =
          fs_->enospc_after_bytes_ -
          std::min(fs_->enospc_after_bytes_, fs_->total_appended_);
      allowed = static_cast<size_t>(std::min<uint64_t>(room, data.size()));
    }
    it->second.data.append(data.data(), allowed);
    fs_->total_appended_ += allowed;
    if (enospc) return MemNoSpace(path_, data.size() - allowed);
    return Status::OK();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    if (fs_->num_syncs_ >= fs_->fail_fsync_after_) {
      ++fs_->num_syncs_;
      return Status::Internal("fsync " + path_ + ": injected failure");
    }
    ++fs_->num_syncs_;
    auto it = fs_->files_.find(path_);
    if (it != fs_->files_.end()) {
      it->second.synced_size = it->second.data.size();
    }
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

  uint64_t size() const override { return fs_->FileSize(path_); }

 private:
  MemFileSystem* fs_;
  std::string path_;
};

Status MemFileSystem::OpenAppend(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.try_emplace(path);  // create if absent, keep existing contents
  *file = std::make_unique<MemWritableFile>(this, path);
  return Status::OK();
}

Status MemFileSystem::ReadFile(const std::string& path, std::string* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  *out = it->second.data;
  return Status::OK();
}

Status MemFileSystem::ListDir(const std::string& dir,
                              std::vector<std::string>* names) {
  std::lock_guard<std::mutex> lock(mu_);
  names->clear();
  const std::string prefix = JoinPath(dir, "");
  for (const auto& [path, state] : files_) {
    if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
        path.find('/', prefix.size()) == std::string::npos) {
      names->push_back(path.substr(prefix.size()));
    }
  }
  return Status::OK();
}

Status MemFileSystem::CreateDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dirs_.insert(dir);
  return Status::OK();
}

Status MemFileSystem::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::OK();
}

Status MemFileSystem::RenameFile(const std::string& from,
                                 const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound("no such file: " + from);
  files_[to] = std::move(it->second);
  files_.erase(from);
  return Status::OK();
}

Status MemFileSystem::Truncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  if (size < it->second.data.size()) {
    it->second.data.resize(size);
    it->second.synced_size = std::min(it->second.synced_size, size);
  }
  return Status::OK();
}

bool MemFileSystem::FileExists(const std::string& path) {
  return HasFile(path);
}

Status MemFileSystem::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  ++dir_syncs_[dir];
  return Status::OK();
}

void MemFileSystem::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, state] : files_) {
    state.data.resize(state.synced_size);
  }
}

void MemFileSystem::TruncateTo(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return;
  if (size < it->second.data.size()) it->second.data.resize(size);
  it->second.synced_size = std::min(it->second.synced_size, size);
}

void MemFileSystem::CorruptByte(const std::string& path, uint64_t pos,
                                uint8_t mask) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end() || pos >= it->second.data.size()) return;
  it->second.data[pos] = static_cast<char>(
      static_cast<uint8_t>(it->second.data[pos]) ^ mask);
}

bool MemFileSystem::HasFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) != 0;
}

uint64_t MemFileSystem::FileSize(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.data.size();
}

std::string MemFileSystem::Contents(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  return it == files_.end() ? std::string() : it->second.data;
}

}  // namespace log
}  // namespace tpstream
