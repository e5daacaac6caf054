// acheron-check fixture: sync-before-install through a table sink, must
// PASS.
//
// The sink's builder (run on a worker through a submitted closure) creates
// each table output and syncs it in FinishOutput, on the thread that wrote
// it, before the next output is created. The sink's Finish drains the
// builder and closes the files. CompactTables streams entries into the
// sink and calls Finish before LogAndApply, so sync-before-install holds
// even though the create and the sync sit two calls deep.

struct Status {
  static Status OK();
  bool ok() const;
};

struct Slice {};

struct WritableFile {
  Status Sync();
  Status Close();
};

struct Env {
  Status NewWritableFile(const char* fname, WritableFile** file);
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
    return file_->Close();  // every finished output is already durable
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
    (void)file_->Sync();  // on the builder thread, before the next create
  }

  Env* env_ = nullptr;
  WritableFile* file_ = nullptr;
  int next_ = 7;
};

class VersionSetStub {
 public:
  Status LogAndApply(int edit);
};

class Compactor {
 public:
  Status CompactTables(const Slice& key) {
    Sink sink;
    sink.Add(key);
    Status s = sink.Finish();
    if (s.ok()) {
      s = versions_->LogAndApply(0);
    }
    return s;
  }

 private:
  VersionSetStub* versions_ = nullptr;
};
