#include "perfbench/tracer.h"

#include <algorithm>
#include <atomic>

namespace perfbench {

using acheron::Slice;
using acheron::Status;

namespace {

enum class Role : uint8_t { kUnknown, kClient, kBg };
thread_local Role t_role = Role::kUnknown;
thread_local uint64_t t_compares = 0;

std::atomic_ref<uint64_t> Word(std::vector<uint64_t>& v, size_t i) {
  return std::atomic_ref<uint64_t>(v[i]);
}

struct Thunk {
  void (*function)(void*);
  void* arg;
};

void BgTrampoline(void* p) {
  std::unique_ptr<Thunk> t(static_cast<Thunk*>(p));
  t_role = Role::kBg;
  t->function(t->arg);
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

const char* OpName(OpType t) {
  static const char* kNames[] = {"put",      "delete",   "delete_range",
                                 "get",      "multiget", "scan"};
  return kNames[t];
}

FileKind KindOf(const std::string& fname) {
  if (EndsWith(fname, ".log")) return kWal;
  if (EndsWith(fname, ".sst")) return kSst;
  if (EndsWith(fname, ".vlog")) return kVlog;
  size_t slash = fname.rfind('/');
  std::string base = slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base.rfind("MANIFEST-", 0) == 0) return kManifest;
  return kOtherFile;
}

// ---------------- Tracer ----------------

Tracer::Tracer()
    : epoch_ns_(NowNs()), counters_(Counters().v.size(), 0) {
  log_.reserve(kMaxLoggedSpans);
}

void Tracer::RegisterClientThread() { t_role = Role::kClient; }

int Tracer::CurrentSource() const {
  switch (t_role) {
    case Role::kClient:
      return in_op_ ? int{op_type_} : kSetupSrc;
    case Role::kBg:
      return kBgSrc;
    default:
      return kIoSrc;
  }
}

uint64_t Tracer::current_op_id() const {
  return t_role == Role::kClient && in_op_ ? op_id_ : 0;
}

void Tracer::Add(int src, int comp, uint64_t bytes, int64_t ns) {
  size_t base = (static_cast<size_t>(src) * kNumComps + comp) * kNumStats;
  Word(counters_, base + kCount).fetch_add(1, std::memory_order_relaxed);
  if (bytes != 0) {
    Word(counters_, base + kBytes).fetch_add(bytes, std::memory_order_relaxed);
  }
  if (ns > 0) {
    Word(counters_, base + kNs).fetch_add(static_cast<uint64_t>(ns),
                                          std::memory_order_relaxed);
  }
}

Counters Tracer::Snapshot() const {
  Counters c;
  for (size_t i = 0; i < c.v.size(); i++) {
    c.v[i] = Word(counters_, i).load(std::memory_order_relaxed);
  }
  return c;
}

void Tracer::Log(uint64_t op_id, uint8_t name, int64_t start, int64_t end) {
  std::lock_guard<std::mutex> l(log_mu_);
  if (log_.size() < kMaxLoggedSpans) {
    log_.push_back({op_id, name, start - epoch_ns_, end - epoch_ns_});
  } else {
    spans_dropped_++;
  }
}

void Tracer::BeginOp(OpType type) {
  op_type_ = type;
  in_op_ = true;
  op_id_++;
  children_.clear();
  op_cmp_start_ = t_compares;
  op_start_ = NowNs();
}

void Tracer::ChildSpan(int src, Layer layer, int64_t start, int64_t end) {
  // Calls on IO threads are covered by their request's async span; calls by
  // the client outside an op are only counted.
  if (src < kNumOpTypes) {
    children_.push_back({layer, start, end});
  } else if (src == kBgSrc) {
    Log(0, static_cast<uint8_t>(int{kNumOpTypes} + int{layer}), start, end);
  }
}

void Tracer::AsyncSpan(uint64_t op_id, Layer layer, int64_t start,
                       int64_t end) {
  std::lock_guard<std::mutex> l(async_mu_);
  async_children_.push_back({op_id, {layer, start, end}});
}

void Tracer::EndOp() {
  const int64_t end = NowNs();
  const OpType t = op_type_;
  in_op_ = false;
  {
    std::lock_guard<std::mutex> l(async_mu_);
    for (const auto& [id, c] : async_children_) {
      if (id == op_id_) children_.push_back(c);
    }
    async_children_.clear();
  }
  Breakdown& b = breakdown_;
  const double total = static_cast<double>(end - op_start_);
  b.ops[t]++;
  b.op_ns[t] += total;
  b.cmp[t] += t_compares - op_cmp_start_;

  // Sweep the children's start/end points: each elementary interval covered
  // by k children is split equally among them; uncovered time is the
  // engine's own.
  double covered = 0;
  if (!children_.empty()) {
    struct Edge {
      int64_t at;
      int idx;
      bool open;
    };
    std::vector<Edge> edges;
    edges.reserve(children_.size() * 2);
    for (size_t i = 0; i < children_.size(); i++) {
      Child& c = children_[i];
      c.start = std::clamp(c.start, op_start_, end);
      c.end = std::clamp(c.end, c.start, end);
      edges.push_back({c.start, static_cast<int>(i), true});
      edges.push_back({c.end, static_cast<int>(i), false});
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& e) {
      return a.at < e.at || (a.at == e.at && !a.open && e.open);
    });
    std::vector<int> active;
    int64_t prev = op_start_;
    for (const Edge& e : edges) {
      if (!active.empty() && e.at > prev) {
        double share = static_cast<double>(e.at - prev) / active.size();
        for (int i : active) b.layer_ns[t][children_[i].layer] += share;
        covered += static_cast<double>(e.at - prev);
      }
      prev = e.at;
      if (e.open) {
        active.push_back(e.idx);
      } else {
        active.erase(std::find(active.begin(), active.end(), e.idx));
      }
    }
  }
  b.self_ns[t] += total - covered;

  Log(op_id_, static_cast<uint8_t>(t), op_start_, end);
  for (const Child& c : children_) {
    Log(op_id_, static_cast<uint8_t>(int{kNumOpTypes} + int{c.layer}), c.start, c.end);
  }
}

size_t Tracer::WriteSpans(const std::string& path) const {
  static const char* kLayerNames[] = {"wal",   "sst",   "vlog",  "manifest",
                                      "other", "cache", "bloom", "async_read"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::lock_guard<std::mutex> l(log_mu_);
  std::fprintf(f, "# op_id\tname\tstart_ns\tdur_ns  (op_id 0 = bg; %llu "
               "spans dropped past the cap)\n",
               static_cast<unsigned long long>(spans_dropped_));
  for (const LoggedSpan& s : log_) {
    const char* name = s.name < kNumOpTypes
                           ? OpName(static_cast<OpType>(s.name))
                           : kLayerNames[s.name - kNumOpTypes];
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.op_id), name,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end - s.start));
  }
  std::fclose(f);
  return log_.size();
}

// ---------------- Env decorator ----------------

namespace {

class TracingRandomAccessFile : public acheron::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<acheron::RandomAccessFile> base,
                          FileKind kind, Tracer* tr)
      : base_(std::move(base)), kind_(kind), tr_(tr) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const int src = tr_->CurrentSource();
    const int64_t start = NowNs();
    Status s = base_->Read(offset, n, result, scratch);
    const int64_t end = NowNs();
    tr_->Add(src, FileComp(kind_, kRead), result->size(), end - start);
    if (s.ok() && result->size() < n) tr_->Count(src, FileComp(kind_, kShortRead));
    if (!s.ok()) tr_->Count(src, FileComp(kind_, kError));
    tr_->ChildSpan(src, static_cast<Layer>(kind_), start, end);
    return s;
  }

  int PreadFd() const override { return base_->PreadFd(); }

  FileKind kind() const { return kind_; }

 private:
  std::unique_ptr<acheron::RandomAccessFile> base_;
  const FileKind kind_;
  Tracer* const tr_;
};

class TracingWritableFile : public acheron::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<acheron::WritableFile> base,
                      FileKind kind, Tracer* tr)
      : base_(std::move(base)), kind_(kind), tr_(tr) {}

  Status Append(const Slice& data) override {
    return Timed(kAppend, data.size(), [&] { return base_->Append(data); });
  }
  Status Close() override {
    return Timed(kClose, 0, [&] { return base_->Close(); });
  }
  Status Flush() override {
    return Timed(kFlush, 0, [&] { return base_->Flush(); });
  }
  Status Sync() override {
    return Timed(kSync, 0, [&] { return base_->Sync(); });
  }
  Status SyncDurable() override {
    return Timed(kSync, 0, [&] { return base_->SyncDurable(); });
  }

 private:
  template <typename F>
  Status Timed(FileCall call, uint64_t bytes, F&& f) {
    const int src = tr_->CurrentSource();
    const int64_t start = NowNs();
    Status s = f();
    const int64_t end = NowNs();
    tr_->Add(src, FileComp(kind_, call), bytes, end - start);
    if (!s.ok()) tr_->Count(src, FileComp(kind_, kError));
    tr_->ChildSpan(src, static_cast<Layer>(kind_), start, end);
    return s;
  }

  std::unique_ptr<acheron::WritableFile> base_;
  const FileKind kind_;
  Tracer* const tr_;
};

// Replaces a request's completion hook for the duration of one submission;
// the original hook (block CRC + parse) still runs, on the same thread, with
// the request restored.
struct ReadHook {
  void (*on_complete)(acheron::ReadRequest*);
  void* arg;
  Tracer* tr;
  int src;
  uint64_t op_id;
  FileKind kind;
  int64_t submitted;
};

// The span ends after the original hook: the submitter waits for both.
void ReadDone(acheron::ReadRequest* req) {
  std::unique_ptr<ReadHook> h(static_cast<ReadHook*>(req->arg));
  req->on_complete = h->on_complete;
  req->arg = h->arg;
  if (req->on_complete != nullptr) req->on_complete(req);
  const int64_t done = NowNs();
  h->tr->Add(h->src, kAsyncRead, req->result.size(), done - h->submitted);
  if (!req->status.ok()) h->tr->Count(h->src, FileComp(h->kind, kError));
  if (h->op_id != 0) {
    h->tr->AsyncSpan(h->op_id, kAsyncLayer, h->submitted, done);
  } else {
    h->tr->ChildSpan(h->src, kAsyncLayer, h->submitted, done);
  }
}

struct SyncHook {
  void (*on_complete)(acheron::SyncRequest*);
  void* arg;
  Tracer* tr;
  int src;
  uint64_t op_id;
  int64_t submitted;
};

void SyncDone(acheron::SyncRequest* req) {
  std::unique_ptr<SyncHook> h(static_cast<SyncHook*>(req->arg));
  req->on_complete = h->on_complete;
  req->arg = h->arg;
  if (req->on_complete != nullptr) req->on_complete(req);
  const int64_t done = NowNs();
  h->tr->Add(h->src, kSubmitSync, 0, done - h->submitted);
  if (h->op_id != 0) {
    h->tr->AsyncSpan(h->op_id, kAsyncLayer, h->submitted, done);
  }
}

}  // namespace

void TracingEnv::Schedule(void (*function)(void*), void* arg) {
  base_->Schedule(&BgTrampoline, new Thunk{function, arg});
}

void TracingEnv::StartThread(void (*function)(void*), void* arg) {
  base_->StartThread(&BgTrampoline, new Thunk{function, arg});
}

Status TracingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<acheron::RandomAccessFile>* result) {
  const FileKind kind = KindOf(fname);
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  std::unique_ptr<acheron::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  const int64_t end = NowNs();
  tr_->Add(src, FileComp(kind, kOpenRead), 0, end - start);
  tr_->ChildSpan(src, static_cast<Layer>(kind), start, end);
  if (!s.ok()) {
    tr_->Count(src, FileComp(kind, kError));
    return s;
  }
  *result = std::make_unique<TracingRandomAccessFile>(std::move(file), kind, tr_);
  return s;
}

Status TracingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<acheron::WritableFile>* result) {
  const FileKind kind = KindOf(fname);
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  std::unique_ptr<acheron::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  const int64_t end = NowNs();
  tr_->Add(src, FileComp(kind, kOpenWrite), 0, end - start);
  tr_->ChildSpan(src, static_cast<Layer>(kind), start, end);
  if (!s.ok()) {
    tr_->Count(src, FileComp(kind, kError));
    return s;
  }
  *result = std::make_unique<TracingWritableFile>(std::move(file), kind, tr_);
  return s;
}

void TracingEnv::SubmitReads(acheron::ReadRequest** reqs, size_t count,
                             acheron::CompletionQueue* cq) {
  const int src = tr_->CurrentSource();
  const uint64_t op_id = tr_->current_op_id();
  const int64_t start = NowNs();
  for (size_t i = 0; i < count; i++) {
    acheron::ReadRequest* r = reqs[i];
    // Every RandomAccessFile the engine holds came from this Env.
    FileKind kind = static_cast<TracingRandomAccessFile*>(r->file)->kind();
    r->arg = new ReadHook{r->on_complete, r->arg, tr_, src, op_id, kind, start};
    r->on_complete = &ReadDone;
  }
  base_->SubmitReads(reqs, count, cq);
  tr_->Add(src, kSubmitReads, count, NowNs() - start);
}

void TracingEnv::SubmitSync(acheron::SyncRequest* req,
                            acheron::CompletionQueue* cq) {
  const int src = tr_->CurrentSource();
  req->arg = new SyncHook{req->on_complete, req->arg, tr_, src,
                          tr_->current_op_id(), NowNs()};
  req->on_complete = &SyncDone;
  base_->SubmitSync(req, cq);
}

// ---------------- Cache, FilterPolicy, Comparator ----------------

acheron::Cache::Handle* TracingCache::Insert(
    const Slice& key, void* value, size_t charge,
    void (*deleter)(const Slice& key, void* value)) {
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  Handle* h = base_->Insert(key, value, charge, deleter);
  const int64_t end = NowNs();
  tr_->Add(src, kCacheInsert, charge, end - start);
  tr_->ChildSpan(src, kCacheLayer, start, end);
  return h;
}

acheron::Cache::Handle* TracingCache::Lookup(const Slice& key) {
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  Handle* h = base_->Lookup(key);
  const int64_t end = NowNs();
  tr_->Add(src, kCacheLookup, 0, end - start);
  if (h != nullptr) tr_->Count(src, kCacheHit);
  tr_->ChildSpan(src, kCacheLayer, start, end);
  return h;
}

void TracingFilterPolicy::CreateFilter(const Slice* keys, int n,
                                       std::string* dst) const {
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  base_->CreateFilter(keys, n, dst);
  const int64_t end = NowNs();
  tr_->Add(src, kBloomBuild, static_cast<uint64_t>(n), end - start);
  tr_->ChildSpan(src, kBloomLayer, start, end);
}

bool TracingFilterPolicy::KeyMayMatch(const Slice& key,
                                      const Slice& filter) const {
  const int src = tr_->CurrentSource();
  const int64_t start = NowNs();
  bool match = base_->KeyMayMatch(key, filter);
  const int64_t end = NowNs();
  tr_->Add(src, kBloomProbe, 0, end - start);
  if (!match) tr_->Count(src, kBloomNegative);
  tr_->ChildSpan(src, kBloomLayer, start, end);
  return match;
}

int CountingComparator::Compare(const Slice& a, const Slice& b) const {
  t_compares++;
  return base_->Compare(a, b);
}

}  // namespace perfbench
