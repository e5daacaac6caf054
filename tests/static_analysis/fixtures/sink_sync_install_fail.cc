// acheron-check fixture: sync-before-install through a table sink, must
// FAIL.
//
// A sink whose builder creates each output and only submits its fsync
// through Env::SubmitSync, with Finish waiting on the completion queue. A
// submitted sync never counts as a sync, so no path here separates the
// create from the LogAndApply -- least of all the fast path, which
// installs before even calling Finish.

struct Status {
  static Status OK();
  bool ok() const;
};

struct Slice {};

struct WritableFile {
  Status Flush();
  Status SyncDurable();
  Status Close();
};

struct SyncRequest {
  WritableFile* file = nullptr;
  Status status;
};

struct CompletionQueue {
  void WaitFor(unsigned long n);
};

struct Env {
  Status NewWritableFile(const char* fname, WritableFile** file);
  void SubmitSync(SyncRequest* req, CompletionQueue* cq);
};

const char* TableFileName(int number);

template <typename F>
void RunOnWorker(F work);

class Sink {
 public:
  void Add(const Slice& key) {
    RunOnWorker([this, key] { Consume(key); });
  }

  Status Finish() {
    cq_.WaitFor(submitted_);  // the install wait: every output is durable
    return file_->Close();
  }

 private:
  void Consume(const Slice& key) {
    if (file_ == nullptr) OpenOutput();
    FinishOutput();
  }

  void OpenOutput() {
    (void)env_->NewWritableFile(TableFileName(next_++), &file_);
  }

  void FinishOutput() {
    (void)file_->Flush();
    req_.file = file_;
    env_->SubmitSync(&req_, &cq_);  // in flight; Finish waits for it
    submitted_++;
  }

  Env* env_ = nullptr;
  WritableFile* file_ = nullptr;
  SyncRequest req_;
  CompletionQueue cq_;
  unsigned long submitted_ = 0;
  int next_ = 7;
};

class VersionSetStub {
 public:
  Status LogAndApply(int edit);
};

class Compactor {
 public:
  Status CompactTables(const Slice& key, bool fast_path) {
    Sink sink;
    sink.Add(key);
    if (fast_path) {
      return versions_->LogAndApply(1);  // skips the sink's install wait
    }
    Status s = sink.Finish();
    if (s.ok()) {
      s = versions_->LogAndApply(0);
    }
    return s;
  }

 private:
  VersionSetStub* versions_ = nullptr;
};
