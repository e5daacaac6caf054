#include "src/env/env.h"

#include <algorithm>
#include <chrono>

namespace acheron {

void Env::SleepForMicroseconds(int micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

// ---- AsyncIoPool ----------------------------------------------------------

namespace {

// Runs one request to completion on the calling (worker) thread: fill
// outputs, run the hook, then post.
void ExecuteRead(ReadRequest* req, CompletionQueue* cq) {
  req->status = req->file->Read(req->offset, req->n, &req->result,
                                req->scratch);
  if (req->on_complete != nullptr) (*req->on_complete)(req);
  cq->Post();
}

void ExecuteSync(SyncRequest* req, CompletionQueue* cq) {
  req->status = req->file->SyncDurable();
  if (req->on_complete != nullptr) (*req->on_complete)(req);
  cq->Post();
}

int DefaultAsyncIoThreads() {
  // Workers spend their time blocked in pread/fsync, not on a core, so the
  // ceiling tracks the IO queue depth we want in flight rather than the
  // core count; 2x cores with a floor of 8 keeps batched reads overlapping
  // even on small machines. Threads start lazily, so an idle env pays for
  // none of them.
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(2 * hw, 8u, 16u));
}

}  // namespace

AsyncIoPool::AsyncIoPool()
    : max_threads_(DefaultAsyncIoThreads()),
      work_available_(&mu_),
      started_threads_(0),
      idle_threads_(0),
      shutting_down_(false) {}

AsyncIoPool::~AsyncIoPool() {
  mu_.Lock();
  shutting_down_ = true;
  mu_.Unlock();
  work_available_.SignalAll();
  // Workers drain the queue before exiting: every accepted submission still
  // posts its completion, so no waiter is stranded by env teardown.
  for (std::thread& w : workers_) w.join();
}

void AsyncIoPool::EnqueueLocked(Item item) {
  queue_.push_back(item);
  if (idle_threads_ == 0 && started_threads_ < max_threads_) {
    started_threads_++;
    workers_.emplace_back(&AsyncIoPool::WorkerEntry, this);
  }
  work_available_.Signal();
}

void AsyncIoPool::SubmitReads(ReadRequest** reqs, size_t count,
                              CompletionQueue* cq) {
  if (count == 0) return;
  MutexLock l(&mu_);
  // Chunk the batch: big enough to amortize the per-item hand-off, small
  // enough that every worker still gets a share of the batch.
  const size_t per_worker = (count + static_cast<size_t>(max_threads_) - 1) /
                            static_cast<size_t>(max_threads_);
  const size_t chunk =
      std::min(Item::kMaxReads, std::max<size_t>(size_t{1}, per_worker));
  for (size_t i = 0; i < count; i += chunk) {
    Item item;
    item.nreads = std::min(chunk, count - i);
    for (size_t k = 0; k < item.nreads; k++) {
      item.reads[k] = reqs[i + k];
    }
    item.cq = cq;
    EnqueueLocked(item);
  }
}

void AsyncIoPool::SubmitSync(SyncRequest* req, CompletionQueue* cq) {
  MutexLock l(&mu_);
  Item item;
  item.sync = req;
  item.cq = cq;
  EnqueueLocked(item);
}

void AsyncIoPool::WorkerEntry(void* self) {
  static_cast<AsyncIoPool*>(self)->WorkerLoop();
}

void AsyncIoPool::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (queue_.empty() && !shutting_down_) {
      idle_threads_++;
      work_available_.Wait();
      idle_threads_--;
    }
    if (queue_.empty()) break;  // shutting down and drained
    Item item = queue_.front();
    queue_.pop_front();
    mu_.Unlock();
    if (item.nreads > 0) {
      for (size_t i = 0; i < item.nreads; i++) {
        ExecuteRead(item.reads[i], item.cq);
      }
    } else {
      ExecuteSync(item.sync, item.cq);
    }
    mu_.Lock();
  }
  mu_.Unlock();
}

BackgroundScheduler::BackgroundScheduler()
    : work_available_(&mu_), started_(false), shutting_down_(false) {}

BackgroundScheduler::~BackgroundScheduler() {
  mu_.Lock();
  const bool joinable = started_;
  shutting_down_ = true;
  mu_.Unlock();
  work_available_.SignalAll();
  if (joinable) worker_.join();
}

void BackgroundScheduler::Schedule(void (*function)(void*), void* arg) {
  MutexLock l(&mu_);
  if (!started_) {
    started_ = true;
    worker_ = std::thread(&BackgroundScheduler::WorkerEntry, this);
  }
  queue_.push_back(Item{function, arg});
  work_available_.Signal();
}

void BackgroundScheduler::WorkerEntry(void* self) {
  static_cast<BackgroundScheduler*>(self)->WorkerLoop();
}

void BackgroundScheduler::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (queue_.empty() && !shutting_down_) work_available_.Wait();
    // Drain queued work even when shutting down: callers (DBImpl) wait for
    // their scheduled job to run before tearing down, so dropping it on the
    // floor would deadlock them.
    if (queue_.empty()) break;
    Item item = queue_.front();
    queue_.pop_front();
    mu_.Unlock();
    (*item.function)(item.arg);
    mu_.Lock();
  }
  mu_.Unlock();
}

Status Env::WriteStringToFile(const Slice& data, const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(data);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) (void)RemoveFile(fname);  // best-effort cleanup
  return s;
}

Status Env::ReadFileToString(const std::string& fname, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  static const int kBufferSize = 8192;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) break;
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) break;
  }
  return s;
}

}  // namespace acheron
