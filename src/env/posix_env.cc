// POSIX filesystem implementation of Env.
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/env/env.h"

namespace acheron {
namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context, std::strerror(err));
  }
  if (err == ENOSPC || err == EDQUOT) {
    // Space exhaustion is recoverable (degraded read-only mode, see
    // DBImpl::RecordBackgroundError); keep it distinguishable from EIO.
    return Status::NoSpace(context, std::strerror(err));
  }
  return Status::IOError(context, std::strerror(err));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string filename, int fd)
      : fd_(fd), filename_(std::move(filename)) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ::ssize_t read_size = ::read(fd_, scratch, n);
      if (read_size < 0) {
        if (errno == EINTR) continue;
        return PosixError(filename_, errno);
      }
      *result = Slice(scratch, read_size);
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, n, SEEK_CUR) == static_cast<off_t>(-1)) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

 private:
  const int fd_;
  const std::string filename_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string filename, int fd)
      : fd_(fd), filename_(std::move(filename)) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ::ssize_t read_size = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (read_size < 0) {
      *result = Slice();
      return PosixError(filename_, errno);
    }
    *result = Slice(scratch, read_size);
    return Status::OK();
  }

 private:
  const int fd_;
  const std::string filename_;
};

// Counting semaphore over a scarce resource (mmap slots): Acquire never
// blocks, it just reports whether a slot was available.
class Limiter {
 public:
  explicit Limiter(int max_allowed) : available_(max_allowed) {}

  Limiter(const Limiter&) = delete;
  Limiter& operator=(const Limiter&) = delete;

  bool Acquire() {
    int old = available_.fetch_sub(1, std::memory_order_relaxed);
    if (old > 0) return true;
    available_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  void Release() { available_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<int> available_;
};

// RandomAccessFile over a read-only mmap of the whole file: Read is a
// pointer computation plus bounds check — no syscall, no copy into scratch.
//
// The mapping length is captured once at open and never grows, which is
// what makes this safe under the crash simulator: table files are immutable
// after install, and a reader can never observe bytes past the size the
// file had when it was opened (pread has the same property via the file's
// i-size at read time, but a fixed-length mapping makes it structural).
class PosixMmapReadableFile final : public RandomAccessFile {
 public:
  // |base| points to the length-|length| mapping of |filename|; ownership
  // of the mapping (and one Limiter slot) transfers to this object.
  PosixMmapReadableFile(std::string filename, char* base, size_t length,
                        Limiter* limiter)
      : base_(base), length_(length), limiter_(limiter),
        filename_(std::move(filename)) {}

  ~PosixMmapReadableFile() override {
    // io: unlocked -- mapping teardown at file close
    ::munmap(static_cast<void*>(base_), length_);
    limiter_->Release();
  }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    // pread-equivalent EOF semantics: reads at or past the end return an
    // empty/short slice with OK, not an error (callers detect truncation
    // by result size, see table/format.cc).
    (void)scratch;
    if (offset >= length_) {
      *result = Slice();
      return Status::OK();
    }
    *result = Slice(base_ + offset, std::min(n, length_ - offset));
    return Status::OK();
  }

 private:
  char* const base_;
  const size_t length_;
  Limiter* const limiter_;
  const std::string filename_;
};

class PosixWritableFile final : public WritableFile {
 public:
  // |buffered| == false routes every Append straight to write(2), skipping
  // the 64KiB user-space buffer. Crash simulation needs this: the
  // FaultInjectionEnv durability model assumes appends reach the (tracked)
  // file immediately, and the buffer would silently under-count what the
  // OS saw at the simulated crash point.
  PosixWritableFile(std::string filename, int fd, bool buffered = true)
      : pos_(0), fd_(fd), buffered_(buffered),
        filename_(std::move(filename)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      (void)Close();  // errors in a destructor have nowhere to go
    }
  }

  Status Append(const Slice& data) override {
    size_t write_size = data.size();
    const char* write_data = data.data();
    if (!buffered_) {
      return WriteUnbuffered(write_data, write_size);
    }

    // Fit as much as possible into buffer.
    size_t copy_size = std::min(write_size, kWritableFileBufferSize - pos_);
    std::memcpy(buf_ + pos_, write_data, copy_size);
    write_data += copy_size;
    write_size -= copy_size;
    pos_ += copy_size;
    if (write_size == 0) {
      return Status::OK();
    }

    // Can't fit in buffer, so need to do at least one write.
    Status status = FlushBuffer();
    if (!status.ok()) {
      return status;
    }

    // Small writes go to buffer, large writes are written directly.
    if (write_size < kWritableFileBufferSize) {
      std::memcpy(buf_, write_data, write_size);
      pos_ = write_size;
      return Status::OK();
    }
    return WriteUnbuffered(write_data, write_size);
  }

  Status Close() override {
    Status status = FlushBuffer();
    const int close_result = ::close(fd_);
    if (close_result < 0 && status.ok()) {
      status = PosixError(filename_, errno);
    }
    fd_ = -1;
    return status;
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (::fdatasync(fd_) < 0) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

 private:
  static constexpr size_t kWritableFileBufferSize = 64 * 1024;

  Status FlushBuffer() {
    Status status = WriteUnbuffered(buf_, pos_);
    pos_ = 0;
    return status;
  }

  Status WriteUnbuffered(const char* data, size_t size) {
    while (size > 0) {
      ::ssize_t write_result = ::write(fd_, data, size);
      if (write_result < 0) {
        if (errno == EINTR) continue;
        return PosixError(filename_, errno);
      }
      data += write_result;
      size -= write_result;
    }
    return Status::OK();
  }

  char buf_[kWritableFileBufferSize];
  size_t pos_;
  int fd_;
  const bool buffered_;
  const std::string filename_;
};

// WritableFile for the live WAL: an Append is a memcpy into a MAP_SHARED
// window over the file's tail, so appending a record makes no syscall and
// Flush() has nothing to do. The bytes are in the page cache once the copy
// ends, so a process crash loses no appended byte -- the same contract as
// write(2) -- and Sync() is one fdatasync, which writes back pages dirtied
// through the mapping like any others.
//
// A copy only stores to bytes the file already holds: the file is grown
// ahead of the cursor by size-extending fallocate in kExtendBytes steps, so
// running out of space surfaces as a Status from Append (NoSpace for
// ENOSPC), never as SIGBUS from a store past EOF. At least one reserved
// byte follows a copied append, so the file's size runs up to kExtendBytes
// past the appended bytes, and that tail reads as zeros; Close() trims it.
// A crash that skips Close() leaves the zero tail in place, and a kill
// mid-copy leaves a torn record that only zeros follow: wal::Reader reads
// either as end-of-log. Extensions stay coarse on purpose: each
// size-extending fallocate costs tens of microseconds.
//
// Each page's first store through the mapping takes a fault, which for a
// large append costs more than a syscall. So an append of
// kWriteThroughBytes or more (a large batch's fragments) goes through
// pwrite(2) instead, extending the file itself past the reserved tail, and
// so does an append that starts on the page such a pwrite ended in.
class PosixMappedWalFile final : public WritableFile {
 public:
  static constexpr size_t kWindowBytes = 1 << 20;
  static constexpr size_t kExtendBytes = 256 << 10;
  static constexpr size_t kWriteThroughBytes = 4096;

  // |fd| is open for reading and writing, holds kExtendBytes reserved bytes
  // and is mapped at |window| for kWindowBytes from offset 0; ownership of
  // both passes to this object.
  PosixMappedWalFile(std::string filename, int fd, char* window)
      : fd_(fd), window_(window), reserved_(kExtendBytes),
        page_bytes_(static_cast<uint64_t>(::sysconf(_SC_PAGESIZE))),
        filename_(std::move(filename)) {}

  ~PosixMappedWalFile() override {
    if (fd_ >= 0) {
      (void)Close();  // errors in a destructor have nowhere to go
    }
  }

  Status Append(const Slice& data) override {
    const char* src = data.data();
    size_t left = data.size();
    const bool large = left >= kWriteThroughBytes;
    if (large || offset_ < pwrite_page_end_) {
      while (left > 0) {
        const ::ssize_t r =
            ::pwrite(fd_, src, left, static_cast<off_t>(offset_));
        if (r < 0) {
          if (errno == EINTR) continue;
          return PosixError(filename_, errno);
        }
        offset_ += r;
        src += r;
        left -= r;
      }
      reserved_ = std::max(reserved_, offset_);
      if (large) {
        pwrite_page_end_ =
            (offset_ + page_bytes_ - 1) / page_bytes_ * page_bytes_;
      }
      return Status::OK();
    }
    if (reserved_ - offset_ <= left) {
      const uint64_t grown =
          (offset_ + left + kExtendBytes) / kExtendBytes * kExtendBytes;
      if (::fallocate(fd_, 0, static_cast<off_t>(reserved_),
                      static_cast<off_t>(grown - reserved_)) != 0) {
        return PosixError(filename_, errno);
      }
      reserved_ = grown;
    }
    while (left > 0) {
      if (window_ == nullptr || offset_ - window_start_ >= kWindowBytes) {
        Status s = MapWindow();
        if (!s.ok()) return s;
      }
      const size_t n =
          std::min<uint64_t>(left, window_start_ + kWindowBytes - offset_);
      std::memcpy(window_ + (offset_ - window_start_), src, n);
      offset_ += n;
      src += n;
      left -= n;
    }
    return Status::OK();
  }

  Status Close() override {
    Status status;
    if (window_ != nullptr) {
      // io: unlocked -- mapping teardown at file close
      ::munmap(window_, kWindowBytes);
      window_ = nullptr;
    }
    // Trim the reserved tail: a cleanly closed log ends at its last record.
    if (::ftruncate(fd_, static_cast<off_t>(offset_)) != 0) {
      status = PosixError(filename_, errno);
    }
    if (::close(fd_) < 0 && status.ok()) {
      status = PosixError(filename_, errno);
    }
    fd_ = -1;
    return status;
  }

  Status Flush() override { return Status::OK(); }

  Status Sync() override {
    if (::fdatasync(fd_) < 0) {
      return PosixError(filename_, errno);
    }
    return Status::OK();
  }

 private:
  // Moves the window to the one holding offset_; Append calls it when the
  // cursor leaves the current window.
  Status MapWindow() {
    if (window_ != nullptr) {
      // io: unlocked -- the WAL leader appends with the DB mutex released
      ::munmap(window_, kWindowBytes);
      window_ = nullptr;
    }
    window_start_ = offset_ - offset_ % kWindowBytes;
    // io: unlocked -- as above
    void* base = ::mmap(nullptr, kWindowBytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, fd_, static_cast<off_t>(window_start_));
    if (base == MAP_FAILED) {
      return PosixError(filename_, errno);
    }
    window_ = static_cast<char*>(base);
    return Status::OK();
  }

  int fd_;
  char* window_;               // kWindowBytes mapped at window_start_
  uint64_t window_start_ = 0;  // file offset of window_[0]
  uint64_t offset_ = 0;        // bytes appended
  uint64_t reserved_;          // file size; offset_ <= reserved_
  // End of the page the last large pwrite ended in: the mapping has not
  // faulted that page in, so appends starting before it are written
  // through as well. They do not move it, so copies resume on the next
  // page.
  uint64_t pwrite_page_end_ = 0;
  const uint64_t page_bytes_;
  const std::string filename_;
};

// The live WAL is the one file written through PosixMappedWalFile: table,
// MANIFEST and vLog appends come in large chunks, where one page fault per
// 4KiB costs more than one write(2) per 64KiB buffer.
bool IsWalFile(const std::string& filename) {
  constexpr char kSuffix[] = ".log";
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  return filename.size() > kSuffixLen &&
         filename.compare(filename.size() - kSuffixLen, kSuffixLen,
                          kSuffix) == 0;
}

// Up to 1000 mmapped files on 64-bit (virtual address space is effectively
// free there); 0 on 32-bit, where maps of multi-MB tables would exhaust it.
constexpr int kDefaultMmapBudget = (sizeof(void*) >= 8) ? 1000 : 0;

class PosixEnv : public Env {
 public:
  explicit PosixEnv(bool unbuffered_writes = false, int mmap_budget = -1)
      : unbuffered_writes_(unbuffered_writes),
        mmap_limiter_(mmap_budget >= 0 ? mmap_budget : kDefaultMmapBudget) {}

  Status NewSequentialFile(const std::string& filename,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    result->reset(new PosixSequentialFile(filename, fd));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& filename,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(filename.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    // Serve via mmap while the budget lasts; empty files (mmap of length 0
    // is EINVAL) and mapping failures fall back to pread. The fd is only
    // needed to establish the mapping.
    if (mmap_limiter_.Acquire()) {
      struct ::stat file_stat;
      if (::fstat(fd, &file_stat) == 0 && file_stat.st_size > 0) {
        const size_t length = static_cast<size_t>(file_stat.st_size);
        // io: unlocked -- one-time mapping; length fixed at open
        void* base = ::mmap(nullptr, length, PROT_READ, MAP_SHARED, fd, 0);
        if (base != MAP_FAILED) {
          ::close(fd);
          result->reset(new PosixMmapReadableFile(
              filename, static_cast<char*>(base), length, &mmap_limiter_));
          return Status::OK();
        }
      }
      mmap_limiter_.Release();
    }
#if defined(POSIX_FADV_RANDOM)
    // pread-served files get random-access advice: point lookups read one
    // block at a time, and the default kernel readahead would drag in up to
    // 128KiB around every 4KiB block read. The trade-off: a compaction
    // input served by pread gets no read-ahead at all, one block read at a
    // time. Such inputs exist only once the mmap budget (1000 maps by
    // default) is spent.
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_RANDOM);
#endif
    result->reset(new PosixRandomAccessFile(filename, fd));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& filename,
                         std::unique_ptr<WritableFile>* result) override {
    const bool wal = IsWalFile(filename);
    // A shared writable mapping needs the file open for reading too.
    int fd = ::open(filename.c_str(),
                    O_TRUNC | (wal ? O_RDWR : O_WRONLY) | O_CREAT | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      result->reset();
      return PosixError(filename, errno);
    }
    if (wal) {
      // Any failure to reserve or map the first window (a filesystem
      // without fallocate, a full disk, no address space) leaves the log on
      // the buffered writer below; its first write(2) reports a real error.
      if (::fallocate(fd, 0, 0, PosixMappedWalFile::kExtendBytes) == 0) {
        // io: caller's side -- maps the first window as the WAL is created
        void* base = ::mmap(nullptr, PosixMappedWalFile::kWindowBytes,
                            PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
        if (base != MAP_FAILED) {
          result->reset(new PosixMappedWalFile(filename, fd,
                                               static_cast<char*>(base)));
          return Status::OK();
        }
        (void)::ftruncate(fd, 0);
      }
    }
    result->reset(new PosixWritableFile(filename, fd, !unbuffered_writes_));
    return Status::OK();
  }

  bool FileExists(const std::string& filename) override {
    return ::access(filename.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& directory_path,
                     std::vector<std::string>* result) override {
    result->clear();
    ::DIR* dir = ::opendir(directory_path.c_str());
    if (dir == nullptr) {
      return PosixError(directory_path, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(dir)) != nullptr) {
      if (std::strcmp(entry->d_name, ".") == 0 ||
          std::strcmp(entry->d_name, "..") == 0) {
        continue;
      }
      result->emplace_back(entry->d_name);
    }
    ::closedir(dir);
    return Status::OK();
  }

  Status RemoveFile(const std::string& filename) override {
    if (::unlink(filename.c_str()) != 0) {
      return PosixError(filename, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0) {
      if (errno == EEXIST) return Status::OK();
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& filename, uint64_t* size) override {
    struct ::stat file_stat;
    if (::stat(filename.c_str(), &file_stat) != 0) {
      *size = 0;
      return PosixError(filename, errno);
    }
    *size = file_stat.st_size;
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError(from, errno);
    }
    return Status::OK();
  }

  void Schedule(void (*function)(void*), void* arg) override {
    scheduler_.Schedule(function, arg);
  }

  void StartThread(void (*function)(void*), void* arg) override {
    std::thread t(function, arg);
    t.detach();
  }

 private:
  const bool unbuffered_writes_;
  Limiter mmap_limiter_;
  BackgroundScheduler scheduler_;
};

}  // namespace

Env* DefaultEnv() {
  static PosixEnv env;
  return &env;
}

Env* NewPosixEnv(bool unbuffered_writes, int mmap_budget) {
  // Ownership passes to the caller (see the declaration in env.h).
  return std::make_unique<PosixEnv>(unbuffered_writes, mmap_budget).release();
}

}  // namespace acheron
