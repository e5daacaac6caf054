#include "src/env/fault_env.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

namespace acheron {

namespace {

constexpr const char* kCrashMsg = "simulated crash";

class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string fname,
                    std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    Status s = env_->RegisterFileOp("append", fname_, data.size());
    if (!s.ok()) return s;
    if (env_->ShouldFailWrite()) {
      return Status::IOError("injected write fault");
    }
    s = base_->Append(data);
    if (s.ok()) env_->OnAppendDone(fname_, data.size());
    return s;
  }
  Status Close() override {
    Status s = env_->RegisterFileOp("close", fname_);
    if (!s.ok()) return s;
    return base_->Close();
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    Status s = env_->RegisterFileOp("sync", fname_);
    if (!s.ok()) return s;
    s = base_->Sync();
    if (s.ok()) env_->OnSyncDone(fname_);
    return s;
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

class FaultRandomAccessFile : public RandomAccessFile {
 public:
  FaultRandomAccessFile(FaultInjectionEnv* env, std::string fname,
                        std::unique_ptr<RandomAccessFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (env_->ShouldFailRead(fname_)) {
      return Status::IOError("injected read fault", fname_);
    }
    return base_->Read(offset, n, result, scratch);
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<RandomAccessFile> base_;
};

class FaultSequentialFile : public SequentialFile {
 public:
  FaultSequentialFile(FaultInjectionEnv* env, std::string fname,
                      std::unique_ptr<SequentialFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (env_->ShouldFailRead(fname_)) {
      return Status::IOError("injected read fault", fname_);
    }
    return base_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<SequentialFile> base_;
};

}  // namespace

bool FaultInjectionEnv::ShouldFailWrite() {
  int64_t v = write_countdown_.load(std::memory_order_acquire);
  while (true) {
    if (v < 0) return false;  // fault disabled
    if (v == 0) {
      // Countdown expired: keep failing until the fault is cleared.
      faults_injected_.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
    if (write_countdown_.compare_exchange_weak(v, v - 1,
                                               std::memory_order_acq_rel)) {
      return false;
    }
  }
}

bool FaultInjectionEnv::ShouldFailRead(const std::string& fname) {
  MutexLock l(&mu_);
  if (read_fault_substr_.empty()) return false;
  if (fname.find(read_fault_substr_) == std::string::npos) return false;
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

namespace {

Status SoftFaultStatus(FaultInjectionEnv::SoftFaultClass cls,
                       const std::string& fname) {
  switch (cls) {
    case FaultInjectionEnv::SoftFaultClass::kNoSpace:
      return Status::NoSpace("injected disk full", fname);
    case FaultInjectionEnv::SoftFaultClass::kTransientEio:
      break;
  }
  return Status::IOError("injected transient fault", fname);
}

}  // namespace

Status FaultInjectionEnv::RegisterFileOp(const char* kind,
                                         const std::string& fname,
                                         uint64_t append_size) {
  MutexLock l(&mu_);
  const uint64_t index = op_counter_++;
  if (crashed_ ||
      (crash_at_op_ >= 0 && index >= static_cast<uint64_t>(crash_at_op_))) {
    if (!crashed_) {
      crashed_ = true;
      crashed_op_ = CrashedOpInfo{kind, fname, append_size};
    }
    return Status::IOError(kCrashMsg, fname);
  }
  auto armed = soft_fail_ops_.find(index);
  if (armed != soft_fail_ops_.end()) {
    const SoftFaultClass cls = armed->second;
    // One-shot: the index is consumed; a retry of the same logical
    // operation re-registers at a fresh index and proceeds.
    soft_fail_ops_.erase(armed);
    soft_faults_injected_++;
    return SoftFaultStatus(cls, fname);
  }
  if (persistent_fault_armed_) {
    // Data-path ops fail; close/remove/rename succeed so space can still
    // be reclaimed (and probe files cleaned up) while the fault is armed.
    const bool data_path = std::strcmp(kind, "create") == 0 ||
                           std::strcmp(kind, "append") == 0 ||
                           std::strcmp(kind, "sync") == 0;
    if (data_path) {
      soft_faults_injected_++;
      return SoftFaultStatus(persistent_fault_class_, fname);
    }
  }
  return Status::OK();
}

void FaultInjectionEnv::OnAppendDone(const std::string& fname, uint64_t n) {
  MutexLock l(&mu_);
  FileCrashInfo& info = files_[fname];
  info.written_bytes += n;
  info.last_append_bytes = n;
}

void FaultInjectionEnv::OnSyncDone(const std::string& fname) {
  MutexLock l(&mu_);
  FileCrashInfo& info = files_[fname];
  info.synced_bytes = info.written_bytes;
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  std::unique_ptr<SequentialFile> base;
  Status s = base_->NewSequentialFile(fname, &base);
  if (!s.ok()) return s;
  result->reset(new FaultSequentialFile(this, fname, std::move(base)));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  std::unique_ptr<RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (!s.ok()) return s;
  result->reset(new FaultRandomAccessFile(this, fname, std::move(base)));
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  Status s = RegisterFileOp("create", fname);
  if (!s.ok()) return s;
  std::unique_ptr<WritableFile> base;
  s = base_->NewWritableFile(fname, &base);
  if (!s.ok()) return s;
  {
    // NewWritableFile truncates, so tracking restarts from zero.
    MutexLock l(&mu_);
    files_[fname] = FileCrashInfo{};
  }
  result->reset(new FaultWritableFile(this, fname, std::move(base)));
  return Status::OK();
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  Status s = RegisterFileOp("remove", fname);
  if (!s.ok()) return s;
  s = base_->RemoveFile(fname);
  if (s.ok()) {
    MutexLock l(&mu_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  Status s = RegisterFileOp("rename", src);
  if (!s.ok()) return s;
  s = base_->RenameFile(src, target);
  if (s.ok()) {
    MutexLock l(&mu_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      files_[target] = it->second;
      files_.erase(it);
    } else {
      // Renaming an untracked (pre-existing, fully durable) file over a
      // tracked one still replaces the target's contents.
      files_.erase(target);
    }
  }
  return s;
}

Status FaultInjectionEnv::TruncateBaseFile(const std::string& fname,
                                           uint64_t persisted) {
  // The base env has no truncate primitive, so rebuild the file from its
  // persisted prefix: read |persisted| bytes, then rewrite them through a
  // fresh (truncating) writable file. All I/O goes straight to base_ and is
  // therefore neither counted nor failed by the crash machinery.
  std::string prefix;
  if (persisted > 0) {
    std::unique_ptr<RandomAccessFile> src;
    Status s = base_->NewRandomAccessFile(fname, &src);
    if (!s.ok()) return s;
    prefix.resize(persisted);
    std::vector<char> scratch(64 * 1024);
    uint64_t off = 0;
    while (off < persisted) {
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(scratch.size(), persisted - off));
      Slice chunk;
      s = src->Read(off, n, &chunk, scratch.data());
      if (!s.ok()) return s;
      if (chunk.empty()) {
        return Status::Corruption("crash restore: short read", fname);
      }
      prefix.replace(static_cast<size_t>(off), chunk.size(), chunk.data(),
                     chunk.size());
      off += chunk.size();
    }
  }
  std::unique_ptr<WritableFile> dst;
  Status s = base_->NewWritableFile(fname, &dst);
  if (!s.ok()) return s;
  if (!prefix.empty()) s = dst->Append(prefix);
  if (s.ok()) s = dst->Sync();
  if (s.ok()) s = dst->Close();
  return s;
}

Status FaultInjectionEnv::CrashAndRestart(
    CrashDataPolicy policy,
    const std::map<std::string, uint64_t>& persisted_bytes) {
  MutexLock l(&mu_);
  for (auto& entry : files_) {
    const std::string& fname = entry.first;
    FileCrashInfo& info = entry.second;
    uint64_t target = policy == CrashDataPolicy::kKeepWritten
                          ? info.written_bytes
                          : info.synced_bytes;
    auto it = persisted_bytes.find(fname);
    if (it != persisted_bytes.end()) {
      target = std::max(info.synced_bytes,
                        std::min(info.written_bytes, it->second));
    }
    if (target < info.written_bytes) {
      Status s = TruncateBaseFile(fname, target);
      if (!s.ok()) return s;
    }
    // What survived the reboot is the new durable baseline.
    info.synced_bytes = info.written_bytes = target;
    info.last_append_bytes = 0;
  }
  crashed_ = false;
  crash_at_op_ = -1;
  crashed_op_ = CrashedOpInfo{};
  return Status::OK();
}

}  // namespace acheron
