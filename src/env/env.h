// Env: abstraction over the host filesystem. The engine performs all IO
// through an Env so tests can run against an in-memory filesystem and fault
// injection wrappers, while production uses the POSIX implementation.
#ifndef ACHERON_ENV_ENV_H_
#define ACHERON_ENV_ENV_H_

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

  // The durability half of Sync(), for Env::SubmitSync: persists data
  // already handed to the OS without touching any user-space write buffer,
  // so it is safe to run on a completion thread concurrently with Append()
  // from the owner.
  // Callers must Flush() buffered data before submitting. The default
  // falls back to Sync(), which is only concurrency-safe for
  // implementations without a user-space buffer.
  virtual Status SyncDurable() { return Sync(); }
};

// ---- Asynchronous submission/completion IO ------------------------------
//
// Batches of RandomAccessFile reads (and WritableFile syncs) can be
// submitted to the Env and completed through a CompletionQueue instead of
// blocking the calling thread per operation. PosixEnv and MemEnv both back
// this with an AsyncIoPool, so every test exercises the backend the
// production env runs. FaultInjectionEnv overrides submission to keep its
// op-numbering and synced-prefix crash model exact (see fault_env.h).

// Counts completions. One queue is typically stack-allocated per batch;
// the submitter calls WaitFor(n) after submitting n requests. Post() is
// called by the Env exactly once per completed request, after the
// request's status/result fields are fully written and any on_complete
// hook has run (the queue's lock gives the waiter a happens-before edge to
// those writes).
class CompletionQueue {
 public:
  CompletionQueue() : cv_(&mu_), completed_(0), waiters_(0), armed_target_(0) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  void Post() {
    MutexLock l(&mu_);
    completed_++;
    // Only wake the waiter once its target is reached: a 64-read batch
    // costs one wakeup, not 64 spurious ones (each a context switch when
    // submitter and workers share cores).
    if (armed_target_ != 0 && completed_ >= armed_target_) cv_.SignalAll();
  }

  // Blocks until at least |n| completions have been posted since
  // construction.
  void WaitFor(uint64_t n) {
    MutexLock l(&mu_);
    waiters_++;
    while (completed_ < n) {
      if (armed_target_ == 0 || n < armed_target_) armed_target_ = n;
      cv_.Wait();
    }
    waiters_--;
    // Re-arm any remaining waiters: the armed target may have been this
    // waiter's, and a stale zero would let Post skip their wakeup forever.
    armed_target_ = 0;
    if (waiters_ > 0) cv_.SignalAll();
  }

  uint64_t completed() const {
    MutexLock l(&mu_);
    return completed_;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;  // paired with mu_
  uint64_t completed_ GUARDED_BY(mu_);
  int waiters_ GUARDED_BY(mu_);
  uint64_t armed_target_ GUARDED_BY(mu_);
};

// One asynchronous read of [offset, offset+n) into |scratch| (result may
// point elsewhere, e.g. an mmap view, exactly like RandomAccessFile::Read).
// The optional on_complete hook runs on the completing thread after
// status/result are set and before the completion is posted -- table block
// CRC checks and parses ride it so they overlap across a batch.
struct ReadRequest {
  RandomAccessFile* file = nullptr;
  uint64_t offset = 0;
  size_t n = 0;
  char* scratch = nullptr;
  void (*on_complete)(ReadRequest* req) = nullptr;
  void* arg = nullptr;  // caller context for on_complete

  // Outputs, valid once the completion is posted.
  Slice result;
  Status status;
};

// One asynchronous durable sync of a writable file (SyncDurable semantics:
// the submitter Flush()es first). Completion posts to the queue after
// |status| is set and the optional hook has run.
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

  // --- Asynchronous IO -----------------------------------------------------
  //
  // Submit |count| reads; each posts exactly once to |cq| when complete.
  // Completion order is unspecified.
  virtual void SubmitReads(ReadRequest** reqs, size_t count,
                           CompletionQueue* cq) = 0;

  // Submit one durable sync (WritableFile::SyncDurable); posts exactly once
  // to |cq| when complete. The submitter must Flush() buffered data first.
  virtual void SubmitSync(SyncRequest* req, CompletionQueue* cq) = 0;

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

// The thread-pool backend for Env::SubmitReads/SubmitSync, shared by
// PosixEnv and MemEnv. Worker threads start lazily as submissions arrive,
// up to clamp(2 * cores, 8, 16); the destructor drains queued requests --
// every accepted submission still posts its completion -- then joins the
// workers.
class AsyncIoPool {
 public:
  AsyncIoPool();
  ~AsyncIoPool();

  AsyncIoPool(const AsyncIoPool&) = delete;
  AsyncIoPool& operator=(const AsyncIoPool&) = delete;

  void SubmitReads(ReadRequest** reqs, size_t count, CompletionQueue* cq);
  void SubmitSync(SyncRequest* req, CompletionQueue* cq);

 private:
  // Exactly one of |reads| (nreads > 0) and |sync| is set. Reads travel in
  // small chunks so a 64-read batch costs a handful of queue hand-offs
  // (lock + condvar wake + context switch) instead of 64; SubmitReads picks
  // the chunk size to still spread the batch across every worker.
  struct Item {
    static constexpr size_t kMaxReads = 16;
    ReadRequest* reads[kMaxReads] = {};
    size_t nreads = 0;
    SyncRequest* sync = nullptr;
    CompletionQueue* cq = nullptr;
  };

  void EnqueueLocked(Item item) EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void WorkerLoop();
  static void WorkerEntry(void* self);

  const int max_threads_;
  Mutex mu_;
  CondVar work_available_;  // paired with mu_
  int started_threads_ GUARDED_BY(mu_);
  int idle_threads_ GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_);
  std::deque<Item> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
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
// model assumes appends reach the tracked file immediately.
//
// |mmap_budget| bounds how many RandomAccessFiles may be served via mmap at
// once (reads skip the pread syscall + copy); files beyond the budget, or
// whose mapping fails, fall back to pread transparently. -1 picks the
// default (1000 on 64-bit, 0 on 32-bit where address space is scarce);
// 0 disables mmap entirely.
Env* NewPosixEnv(bool unbuffered_writes, int mmap_budget = -1);

}  // namespace acheron

#endif  // ACHERON_ENV_ENV_H_
