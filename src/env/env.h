// Env: abstraction over the host filesystem. The engine performs all IO
// through an Env so tests can run against an in-memory filesystem and fault
// injection wrappers, while production uses the POSIX implementation.
#ifndef ACHERON_ENV_ENV_H_
#define ACHERON_ENV_ENV_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace acheron {

// Sequential read-only file (WAL/MANIFEST replay).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  // Read up to n bytes. Sets *result to the data read (may point into
  // scratch, which must have room for n bytes). Returns a short result at
  // EOF, empty at exact EOF.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

// Random-access read-only file (SSTable reads). Must be safe for concurrent
// use by multiple threads.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Read up to n bytes at |offset|. Sets *result to the data read: a short
  // result at EOF, empty at or past it. A file serves every read from its
  // own memory (a mapping that lives as long as the file: *result points
  // into it and |scratch| is not touched, so it may be null) or none (the
  // bytes are copied into |scratch|, which must have room for n bytes).
  // Table::Open tells the two apart by its first read.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  // Inert: nothing reads it and no engine file overrides it. Kept so
  // existing overrides (perfbench's tracing file decorator) still compile.
  virtual int PreadFd() const { return -1; }
};

// Append-only writable file (WAL, SSTable, MANIFEST).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
  virtual Status Flush() = 0;
  // Durably persist written data (fsync/fdatasync equivalent).
  virtual Status Sync() = 0;

  // Inert: no engine file overrides it and no engine path calls it. Kept,
  // falling back to Sync(), only so perfbench's tracing file decorator
  // still compiles; it goes with ROADMAP item 1.
  virtual Status SyncDurable() { return Sync(); }
};

// ---- Inert submission/completion IO -----------------------------------
//
// No engine path submits IO: table outputs fsync through WritableFile::Sync
// on the thread that wrote them, and every read is synchronous. These
// declarations, and Env::SubmitReads/SubmitSync below, exist only for
// perfbench's tracing Env decorator, which overrides them; they go with
// ROADMAP item 1.

// Counts posted completions.
class CompletionQueue {
 public:
  CompletionQueue() = default;

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  void Post() { completed_.fetch_add(1, std::memory_order_release); }
  uint64_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t> completed_{0};
};

// One read of [offset, offset+n) into |scratch| (result may point
// elsewhere, exactly like RandomAccessFile::Read). The optional
// on_complete hook runs after status/result are set, before the post.
struct ReadRequest {
  RandomAccessFile* file = nullptr;
  uint64_t offset = 0;
  size_t n = 0;
  char* scratch = nullptr;
  void (*on_complete)(ReadRequest* req) = nullptr;
  void* arg = nullptr;  // caller context for on_complete

  Slice result;
  Status status;
};

// One durable sync of a writable file (WritableFile::SyncDurable).
struct SyncRequest {
  WritableFile* file = nullptr;
  void (*on_complete)(SyncRequest* req) = nullptr;
  void* arg = nullptr;  // caller context for on_complete

  Status status;
};

class Env {
 public:
  virtual ~Env() = default;

  // --- Threading -----------------------------------------------------------
  //
  // Schedule runs (*function)(arg) once on a background thread owned by this
  // Env. Calls are serviced FIFO by a single worker (leveldb-style), so two
  // scheduled jobs never run concurrently with each other — but they DO run
  // concurrently with foreground threads. The worker is started lazily on
  // first use and joined (after draining the queue) when the Env dies.
  virtual void Schedule(void (*function)(void*), void* arg) = 0;

  // Start a dedicated thread running (*function)(arg). The thread is
  // detached; the caller is responsible for any join/exit handshake.
  virtual void StartThread(void (*function)(void*), void* arg) = 0;

  // Sleep the calling thread for at least |micros| microseconds. Used for
  // write-throttling backoff; virtual so a simulated Env could fast-forward.
  virtual void SleepForMicroseconds(int micros);

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname, std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  // Inert (see CompletionQueue above): each request runs inline on the
  // calling thread, then posts once to |cq|.
  virtual void SubmitReads(ReadRequest** reqs, size_t count,
                           CompletionQueue* cq);
  virtual void SubmitSync(SyncRequest* req, CompletionQueue* cq);

  // Read/write an entire small file; used for CURRENT.
  Status WriteStringToFile(const Slice& data, const std::string& fname);
  Status ReadFileToString(const std::string& fname, std::string* data);
};

// Shared implementation of Env::Schedule's single-worker FIFO queue, used by
// both PosixEnv and MemEnv (fault_env forwards to its wrapped base instead).
// The worker thread starts lazily on the first Schedule() call; the
// destructor lets already-queued work drain, then joins the worker, so an
// Env owner never leaks a running background job.
class BackgroundScheduler {
 public:
  BackgroundScheduler();
  ~BackgroundScheduler();

  BackgroundScheduler(const BackgroundScheduler&) = delete;
  BackgroundScheduler& operator=(const BackgroundScheduler&) = delete;

  void Schedule(void (*function)(void*), void* arg);

 private:
  struct Item {
    void (*function)(void*);
    void* arg;
  };

  void WorkerLoop();
  static void WorkerEntry(void* self);

  Mutex mu_;
  CondVar work_available_;  // paired with mu_
  bool started_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_);
  std::deque<Item> queue_ GUARDED_BY(mu_);
  std::thread worker_;
};

// The default POSIX environment; singleton, never destroyed.
Env* DefaultEnv();

// A fully in-memory environment for tests and RAM-resident benchmarks.
// Caller owns the result.
Env* NewMemEnv();

// A private POSIX environment; caller owns the result. With
// |unbuffered_writes| set, WritableFile::Append bypasses the 64KiB
// user-space buffer and issues write(2) directly -- required when the env
// is wrapped in a FaultInjectionEnv for crash simulation, whose durability
// model assumes appends reach the tracked file immediately. The flag does
// not touch WAL files (*.log): either way they are appended through a
// mapped, preallocated tail, where every Append reaches the page cache
// before it returns.
//
// |mmap_budget| bounds how many RandomAccessFiles may be served via mmap at
// once (reads skip the pread syscall + copy); files beyond the budget, or
// whose mapping fails, fall back to pread transparently. -1 picks the
// default (1000 on 64-bit, 0 on 32-bit where address space is scarce);
// 0 disables mmap entirely.
Env* NewPosixEnv(bool unbuffered_writes, int mmap_budget = -1);

}  // namespace acheron

#endif  // ACHERON_ENV_ENV_H_
