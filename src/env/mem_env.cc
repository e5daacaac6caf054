// In-memory Env for tests and RAM-resident benchmarks. Files are reference
// counted strings; paths are flat (directories exist implicitly).
#include <map>
#include <set>

#include "src/env/env.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace acheron {
namespace {

class FileState {
 public:
  FileState() : refs_(0) {}

  FileState(const FileState&) = delete;
  FileState& operator=(const FileState&) = delete;

  void Ref() {
    MutexLock l(&mu_);
    refs_++;
  }

  void Unref() {
    bool do_delete = false;
    {
      MutexLock l(&mu_);
      refs_--;
      do_delete = (refs_ <= 0);
    }
    if (do_delete) delete this;
  }

  uint64_t Size() const {
    MutexLock l(&mu_);
    return data_.size();
  }

  void Truncate() {
    MutexLock l(&mu_);
    data_.clear();
  }

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const {
    MutexLock l(&mu_);
    if (offset >= data_.size()) {
      *result = Slice();
      return Status::OK();
    }
    const size_t available = data_.size() - offset;
    if (n > available) n = available;
    memcpy(scratch, data_.data() + offset, n);
    *result = Slice(scratch, n);
    return Status::OK();
  }

  Status Append(const Slice& data) {
    MutexLock l(&mu_);
    data_.append(data.data(), data.size());
    return Status::OK();
  }

 private:
  ~FileState() = default;

  mutable Mutex mu_;
  int refs_ GUARDED_BY(mu_);
  std::string data_ GUARDED_BY(mu_);
};

class MemSequentialFile : public SequentialFile {
 public:
  explicit MemSequentialFile(FileState* file) : file_(file), pos_(0) {
    file_->Ref();
  }
  ~MemSequentialFile() override { file_->Unref(); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    Status s = file_->Read(pos_, n, result, scratch);
    if (s.ok()) pos_ += result->size();
    return s;
  }

  Status Skip(uint64_t n) override {
    if (pos_ > file_->Size()) {
      return Status::IOError("pos_ > file_->Size()");
    }
    const uint64_t available = file_->Size() - pos_;
    if (n > available) n = available;
    pos_ += n;
    return Status::OK();
  }

 private:
  FileState* file_;
  uint64_t pos_;
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(FileState* file) : file_(file) { file_->Ref(); }
  ~MemRandomAccessFile() override { file_->Unref(); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    return file_->Read(offset, n, result, scratch);
  }

 private:
  FileState* file_;
};

class MemWritableFile : public WritableFile {
 public:
  explicit MemWritableFile(FileState* file) : file_(file) { file_->Ref(); }
  ~MemWritableFile() override { file_->Unref(); }

  Status Append(const Slice& data) override { return file_->Append(data); }
  Status Close() override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }

 private:
  FileState* file_;
};

class MemEnv : public Env {
 public:
  MemEnv() = default;

  ~MemEnv() override {
    for (auto& [name, file] : files_) {
      file->Unref();
    }
  }

  void Schedule(void (*function)(void*), void* arg) override {
    scheduler_.Schedule(function, arg);
  }

  void StartThread(void (*function)(void*), void* arg) override {
    std::thread t(function, arg);
    t.detach();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      result->reset();
      return Status::NotFound(fname, "file not found");
    }
    result->reset(new MemSequentialFile(it->second));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      result->reset();
      return Status::NotFound(fname, "file not found");
    }
    result->reset(new MemRandomAccessFile(it->second));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    FileState* file;
    if (it == files_.end()) {
      file = new FileState();
      file->Ref();
      files_[fname] = file;
    } else {
      file = it->second;
      file->Truncate();
    }
    result->reset(new MemWritableFile(file));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    MutexLock l(&mu_);
    return files_.count(fname) > 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    MutexLock l(&mu_);
    result->clear();
    for (const auto& [name, file] : files_) {
      if (name.size() >= dir.size() + 1 && name[dir.size()] == '/' &&
          Slice(name).starts_with(Slice(dir))) {
        result->push_back(name.substr(dir.size() + 1));
      }
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::NotFound(fname, "file not found");
    }
    it->second->Unref();
    files_.erase(it);
    return Status::OK();
  }

  Status CreateDir(const std::string&) override { return Status::OK(); }
  Status RemoveDir(const std::string&) override { return Status::OK(); }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    MutexLock l(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::NotFound(fname, "file not found");
    }
    *size = it->second->Size();
    return Status::OK();
  }

  Status RenameFile(const std::string& src, const std::string& target) override {
    MutexLock l(&mu_);
    auto it = files_.find(src);
    if (it == files_.end()) {
      return Status::NotFound(src, "file not found");
    }
    FileState* file = it->second;
    files_.erase(it);
    auto dst = files_.find(target);
    if (dst != files_.end()) {
      dst->second->Unref();
      files_.erase(dst);
    }
    files_[target] = file;
    return Status::OK();
  }

 private:
  BackgroundScheduler scheduler_;
  Mutex mu_;
  std::map<std::string, FileState*> files_ GUARDED_BY(mu_);
};

}  // namespace

Env* NewMemEnv() { return new MemEnv(); }

}  // namespace acheron
