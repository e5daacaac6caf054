// Outside-in tracing for the benchmark: decorators around the engine's
// swappable interfaces (Env and its files, Cache, FilterPolicy, Comparator)
// that time and count every call the engine makes into them. Nothing in the
// engine is changed; the decorators forward every call, including the ones
// that select a fast path (PreadFd, SyncDurable, SubmitReads, SubmitSync), so
// the traced engine runs the same code as the untraced one.
//
// Attribution:
//   - the benchmark's client thread wraps each DB call in BeginOp/EndOp;
//     decorated calls made on that thread become child spans of the op;
//   - reads submitted through Env::SubmitReads become child spans from
//     submission to completion, parented to the submitting op even though
//     they complete on an IO thread;
//   - calls made on threads the engine obtained through Env::Schedule or
//     Env::StartThread roll up under "bg".
// An op's time is split exactly into the layers of its children (overlapping
// children share the overlap equally) plus the engine's own self time, so
// per op type the layer times and the self time add up to the op time.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/table/cache.h"
#include "src/util/bloom.h"
#include "src/util/comparator.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum OpType : uint8_t {
  kPut,
  kDelete,
  kDeleteRange,
  kGet,
  kMultiGet,
  kScan,
  kNumOpTypes
};
const char* OpName(OpType t);
inline bool IsWrite(OpType t) { return t <= kDeleteRange; }

// Who made a decorated call: the client thread inside one of the op types,
// the client thread outside any op (set-up, settle, restart check), a
// background thread, or an IO completion thread.
constexpr int kSetupSrc = kNumOpTypes;
constexpr int kBgSrc = kNumOpTypes + 1;
constexpr int kIoSrc = kNumOpTypes + 2;
constexpr int kNumSources = kNumOpTypes + 3;

// File kinds, named by the layer that owns them.
enum FileKind : uint8_t { kWal, kSst, kVlog, kManifest, kOtherFile, kNumKinds };
FileKind KindOf(const std::string& fname);

enum FileCall : uint8_t {
  kAppend,
  kFlush,
  kSync,
  kClose,
  kRead,
  kShortRead,  // Read returned fewer bytes than asked
  kOpenRead,
  kOpenWrite,
  kError,  // any call on a file of this kind returned an error status
  kNumFileCalls
};

// Counter slots; each holds {count, bytes, ns}.
constexpr int kNumFileComps = int{kNumKinds} * int{kNumFileCalls};
enum Comp : uint16_t {
  kCacheLookup = kNumFileComps,
  kCacheHit,
  kCacheInsert,
  kBloomProbe,
  kBloomNegative,
  kBloomBuild,
  kSubmitReads,  // count = calls, bytes = requests submitted
  kAsyncRead,    // one per request: count, bytes read, submit->complete ns
  kSubmitSync,
  kNumComps
};
constexpr int FileComp(FileKind k, FileCall c) {
  return int{k} * int{kNumFileCalls} + int{c};
}

enum Stat : uint8_t { kCount, kBytes, kNs, kNumStats };

// A plain snapshot of every counter, by source.
struct Counters {
  std::array<uint64_t, kNumSources * int{kNumComps} * int{kNumStats}> v{};

  uint64_t get(int src, int comp, Stat s) const {
    return v[(src * kNumComps + comp) * kNumStats + s];
  }
  // Sum over a range of sources [lo, hi).
  uint64_t sum(int lo, int hi, int comp, Stat s) const {
    uint64_t t = 0;
    for (int src = lo; src < hi; src++) t += get(src, comp, s);
    return t;
  }
  uint64_t all(int comp, Stat s) const { return sum(0, kNumSources, comp, s); }
  Counters operator-(const Counters& o) const {
    Counters d;
    for (size_t i = 0; i < v.size(); i++) d.v[i] = v[i] - o.v[i];
    return d;
  }
};

// Layers an op's time is split into.
enum Layer : uint8_t {
  // kWal..kOtherFile reuse the FileKind values.
  kCacheLayer = kNumKinds,
  kBloomLayer,
  kAsyncLayer,
  kNumLayers
};

// Per op type time split, accumulated by the client thread at EndOp.
struct Breakdown {
  uint64_t ops[kNumOpTypes] = {};
  double op_ns[kNumOpTypes] = {};
  double self_ns[kNumOpTypes] = {};
  double layer_ns[kNumOpTypes][kNumLayers] = {};
  uint64_t cmp[kNumOpTypes] = {};  // Comparator::Compare calls
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Marks the calling thread as the client thread.
  void RegisterClientThread();

  // Start/stop recording child spans and the span log (counters always run).
  void BeginOp(OpType type);
  void EndOp();

  Counters Snapshot() const;
  const Breakdown& breakdown() const { return breakdown_; }
  void ResetBreakdown() { breakdown_ = Breakdown(); }

  // Writes the recorded span log as TSV; returns the number written.
  size_t WriteSpans(const std::string& path) const;

  // ---- used by the decorators ----
  // The source of a call made on the current thread.
  int CurrentSource() const;
  void Add(int src, int comp, uint64_t bytes, int64_t ns);
  void Count(int src, int comp) { Add(src, comp, 0, 0); }
  // A finished child span of the op in flight (client sources) or of bg.
  void ChildSpan(int src, Layer layer, int64_t start, int64_t end);
  // A span that completed on another thread on behalf of op |op_id|.
  void AsyncSpan(uint64_t op_id, Layer layer, int64_t start, int64_t end);
  uint64_t current_op_id() const;

 private:
  struct Child {
    Layer layer;
    int64_t start, end;
  };
  struct LoggedSpan {
    uint64_t op_id;  // 0 = bg
    uint8_t name;    // op type for roots, kNumOpTypes + layer for children
    int64_t start, end;
  };
  void Log(uint64_t op_id, uint8_t name, int64_t start, int64_t end);

  const int64_t epoch_ns_;
  mutable std::vector<uint64_t> counters_;  // accessed via std::atomic_ref

  // Client-thread state (touched only by the client thread).
  Breakdown breakdown_;
  OpType op_type_ = kPut;
  bool in_op_ = false;
  uint64_t op_id_ = 0;
  int64_t op_start_ = 0;
  uint64_t op_cmp_start_ = 0;
  std::vector<Child> children_;

  // Completions from IO threads for the op in flight.
  std::mutex async_mu_;
  std::vector<std::pair<uint64_t, Child>> async_children_;  // guarded by
                                                            // async_mu_

  // The span log kept in memory until the end of the run, capped.
  static constexpr size_t kMaxLoggedSpans = 400000;
  mutable std::mutex log_mu_;
  std::vector<LoggedSpan> log_;  // guarded by log_mu_
  uint64_t spans_dropped_ = 0;   // guarded by log_mu_
};

// Decorated Env: every file the engine opens is wrapped so its calls are
// timed and counted by file kind; Schedule/StartThread mark their threads as
// background; SubmitReads/SubmitSync forward to the base after wrapping each
// request's completion hook.
class TracingEnv : public acheron::Env {
 public:
  TracingEnv(acheron::Env* base, Tracer* tracer) : base_(base), tr_(tracer) {}

  void Schedule(void (*function)(void*), void* arg) override;
  void StartThread(void (*function)(void*), void* arg) override;
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }
  acheron::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<acheron::SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  acheron::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<acheron::RandomAccessFile>* result) override;
  acheron::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<acheron::WritableFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  acheron::Status GetChildren(const std::string& dir,
                              std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  acheron::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  acheron::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  acheron::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  acheron::Status GetFileSize(const std::string& fname,
                              uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  acheron::Status RenameFile(const std::string& src,
                             const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  void SubmitReads(acheron::ReadRequest** reqs, size_t count,
                   acheron::CompletionQueue* cq) override;
  void SubmitSync(acheron::SyncRequest* req,
                  acheron::CompletionQueue* cq) override;

 private:
  acheron::Env* const base_;
  Tracer* const tr_;
};

class TracingCache : public acheron::Cache {
 public:
  TracingCache(acheron::Cache* base, Tracer* tracer)
      : base_(base), tr_(tracer) {}

  Handle* Insert(const acheron::Slice& key, void* value, size_t charge,
                 void (*deleter)(const acheron::Slice& key,
                                 void* value)) override;
  Handle* Lookup(const acheron::Slice& key) override;
  void Release(Handle* handle) override { base_->Release(handle); }
  void* Value(Handle* handle) override { return base_->Value(handle); }
  void Erase(const acheron::Slice& key) override { base_->Erase(key); }
  uint64_t NewId() override { return base_->NewId(); }
  void Prune() override { base_->Prune(); }
  size_t TotalCharge() const override { return base_->TotalCharge(); }

 private:
  std::unique_ptr<acheron::Cache> base_;
  Tracer* const tr_;
};

class TracingFilterPolicy : public acheron::FilterPolicy {
 public:
  TracingFilterPolicy(const acheron::FilterPolicy* base, Tracer* tracer)
      : base_(base), tr_(tracer) {}

  const char* Name() const override { return base_->Name(); }
  void CreateFilter(const acheron::Slice* keys, int n,
                    std::string* dst) const override;
  bool KeyMayMatch(const acheron::Slice& key,
                   const acheron::Slice& filter) const override;

 private:
  std::unique_ptr<const acheron::FilterPolicy> base_;
  Tracer* const tr_;
};

// Counts Compare calls per thread; too fine-grained to span.
class CountingComparator : public acheron::Comparator {
 public:
  explicit CountingComparator(const acheron::Comparator* base) : base_(base) {}

  int Compare(const acheron::Slice& a, const acheron::Slice& b) const override;
  const char* Name() const override { return base_->Name(); }
  void FindShortestSeparator(std::string* start,
                             const acheron::Slice& limit) const override {
    base_->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    base_->FindShortSuccessor(key);
  }

 private:
  const acheron::Comparator* const base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
