#include "src/env/env.h"

#include <chrono>

namespace acheron {

void Env::SleepForMicroseconds(int micros) {
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

void Env::SubmitReads(ReadRequest** reqs, size_t count,
                      CompletionQueue* cq) {
  for (size_t i = 0; i < count; i++) {
    ReadRequest* req = reqs[i];
    req->status = req->file->Read(req->offset, req->n, &req->result,
                                  req->scratch);
    if (req->on_complete != nullptr) (*req->on_complete)(req);
    cq->Post();
  }
}

void Env::SubmitSync(SyncRequest* req, CompletionQueue* cq) {
  req->status = req->file->SyncDurable();
  if (req->on_complete != nullptr) (*req->on_complete)(req);
  cq->Post();
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
