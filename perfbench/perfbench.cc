// perfbench: the repository benchmark. One single-client closed loop runs a
// named workload against the public acheron::DB API on the default PosixEnv,
// checks every read against an in-benchmark model, and prints metrics. See
// perfbench/WORKLOADS.md for the workloads, the metrics and what each
// per-layer metric is expected to move.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --db-dir <dir> [--spans-out <file>] [--tiny]
//   perfbench --selftest
//
// With --trace 0 the run repeats the timed phase (kPhases) and the
// last stdout line carries the end-to-end metrics; with --trace 1 it runs one
// untraced and one traced phase and carries the traced phase's per-layer
// metrics, plus the untraced phase's latency by op class and its
// workload-specific figures.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/tracer.h"
#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/options.h"
#include "src/lsm/stats.h"
#include "src/lsm/write_batch.h"
#include "src/table/cache.h"
#include "src/util/bloom.h"
#include "src/util/comparator.h"

namespace perfbench {
namespace {

using acheron::DB;
using acheron::DeleteStats;
using acheron::InternalStats;
using acheron::Iterator;
using acheron::Options;
using acheron::ReadOptions;
using acheron::Slice;
using acheron::Status;
using acheron::WriteOptions;

// ---------------- workloads ----------------

struct Mix {
  int put, del, range_del, get, scan;  // percent, sum 100
};

struct Spec {
  const char* name;
  uint64_t key_space;  // keys the ops draw from
  // Keys written at set-up. Every workload preloads some: an empty Open takes
  // 1-3 ms of fsyncs, whose level swung 3x between batches of runs on the
  // 4-vCPU x86 VM used for sizing, too unsteady for setup_s.
  uint64_t preload;
  size_t value_size;
  double zipf_theta;  // 0 = uniform
  Mix mix;
  int absent_get_percent;  // Gets aimed at keys that are never written
  // 16-key MultiGets issued back to back after the timed phase. They are
  // kept out of the timed mix: on a 4-vCPU x86 VM one MultiGet costs 0.3-2
  // ms, 3.5x a Get per key, and its run-to-run time swung by +-20%, so at a
  // 10% share they made 75% of point_read's time and all of its noise.
  int multiget_probe;
  // A run issues ops_per_second * --seconds ops, split evenly over
  // kPhases timed phases: a fixed count, so every engine count repeats
  // exactly for one seed. The rates were sized so the phases take about
  // --seconds together on a 4-vCPU x86 VM.
  uint64_t ops_per_second;
  // D_th = timed-phase writes * dth_per_write. Under the geometric TTL split
  // a tree of depth L gives level 0 about D_th / 1111 ops (L = 4), so a D_th
  // near the phase's write count makes TTL expiry the cause of almost every
  // compaction, while 1000x the writes lets FADE keep its clock without
  // firing. fade_ingest uses 1x: at 0.25x write amplification was 32, and
  // the fdatasync, unlink and write(2) of compaction output took a quarter
  // of the phase and swung with the shared disk, so ops_per_sec spread 0.17
  // (IQR/median) across runs. At 1x, TTL expiry still causes 94% of the
  // compactions, write amplification is 6.5, and that IO is 6% of the phase.
  double dth_per_write;
  size_t value_separation_threshold;
  int setup_repeats;  // set-up runs per timed phase; setup_s is their median
};

// Timed phases per run, each on a fresh database with the same inputs;
// ops_per_sec is the median phase's. The phases of one run differed by up to
// 15% on a 4-vCPU x86 VM with steal time; the median drops the outlier.
constexpr int kPhases = 3;
constexpr int kRangeSpan = 16;
constexpr int kMultiGetKeys = 16;
constexpr int kScanLength = 20;
constexpr size_t kKeySize = 16;

const Spec kSpecs[] = {
    {"fade_ingest", 500000, 20000, 100, 0.0, {55, 25, 2, 18, 0}, 0, 0, 75000,
     1.0, 0, 2},
    {"point_read", 500000, 500000, 100, 0.9, {5, 3, 2, 90, 0}, 20, 2000, 32000,
     1000, 0, 1},
    {"kv_sep_scan", 40000, 40000, 4096, 0.0, {30, 10, 0, 40, 20}, 0, 0, 20000,
     0.125, 1024, 1},
};

// ---------------- deterministic inputs ----------------

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) { s_ = Next(); }
  uint64_t Next() {  // splitmix64
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t s_;
};

// YCSB's Zipfian generator (Gray et al.), with ranks scattered over the key
// space so hot keys do not cluster in one table.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; i++) zetan_ += 1.0 / std::pow(i, theta);
    alpha_ = 1.0 / (1.0 - theta);
    double zeta2 = 1.0 + std::pow(0.5, theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Rng* rng) const {
    double u = rng->Unit();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1, alpha_));
    }
    uint64_t h = (rank + 1) * 0xD6E8FEB86659FD93ull;
    return (h ^ (h >> 32)) % n_;
  }

 private:
  uint64_t n_;
  double theta_, zetan_ = 0, alpha_, eta_;
};

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%015" PRIu64, i);
  return buf;
}

// Sorts between Key(i) and Key(i + 1), inside the tables' key ranges, so a
// lookup for it is answered by the Bloom filters rather than by file bounds.
std::string AbsentKey(uint64_t i) { return Key(i) + "a"; }

std::string ValueFor(uint64_t key, uint32_t tag, size_t size) {
  std::string v(size, ' ');
  char head[24];
  std::snprintf(head, sizeof(head), "%08x%08x", tag,
                static_cast<uint32_t>(key));
  std::memcpy(v.data(), head, std::min<size_t>(16, size));
  uint64_t x = tag * 0x9E3779B97F4A7C15ull + key;
  for (size_t j = 16; j < size; j++) {
    v[j] = static_cast<char>('a' + (x >> 59) % 26);
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return v;
}

struct Op {
  OpType type;
  bool absent;   // Get of a never-written key
  uint32_t key;  // first key; MultiGet keys live in Workload::multiget_keys
};

struct Workload {
  std::vector<Op> ops;    // the timed phase
  std::vector<Op> probe;  // MultiGets after it
  std::vector<uint32_t> multiget_keys;
  std::vector<uint32_t> preload_order;
  uint64_t writes = 0;
};

Workload Generate(const Spec& spec, uint64_t seed, uint64_t num_ops) {
  Workload w;
  Rng rng(seed);
  std::unique_ptr<Zipf> zipf;
  if (spec.zipf_theta > 0) zipf = std::make_unique<Zipf>(spec.key_space, spec.zipf_theta);
  auto pick = [&]() -> uint32_t {
    return static_cast<uint32_t>(zipf ? zipf->Next(&rng)
                                      : rng.Uniform(spec.key_space));
  };
  w.preload_order.resize(spec.preload);
  for (uint64_t i = 0; i < spec.preload; i++) w.preload_order[i] = i;
  for (uint64_t i = spec.preload; i > 1; i--) {
    std::swap(w.preload_order[i - 1], w.preload_order[rng.Uniform(i)]);
  }
  const Mix& m = spec.mix;
  w.ops.reserve(num_ops);
  for (uint64_t i = 0; i < num_ops; i++) {
    int r = static_cast<int>(rng.Uniform(100));
    Op op{kPut, false, 0};
    if ((r -= m.put) < 0) {
      op.type = kPut;
    } else if ((r -= m.del) < 0) {
      op.type = kDelete;
    } else if ((r -= m.range_del) < 0) {
      op.type = kDeleteRange;
    } else if ((r -= m.get) < 0) {
      op.type = kGet;
      op.absent = static_cast<int>(rng.Uniform(100)) < spec.absent_get_percent;
    } else {
      op.type = kScan;
    }
    op.key = pick();
    if (IsWrite(op.type)) w.writes++;
    w.ops.push_back(op);
  }
  for (int i = 0; i < spec.multiget_probe; i++) {
    w.probe.push_back({kMultiGet, false,
                       static_cast<uint32_t>(w.multiget_keys.size())});
    for (int k = 0; k < kMultiGetKeys; k++) w.multiget_keys.push_back(pick());
  }
  return w;
}

// ---------------- the model ----------------

// The expected state: per key, the tag of its live value (0 = absent,
// kUnknown = a write to it failed, so either outcome is accepted).
class Model {
 public:
  static constexpr uint32_t kAbsent = 0;
  static constexpr uint32_t kUnknown = UINT32_MAX;

  Model(uint64_t n, size_t value_size) : tags_(n, kAbsent), vsize_(value_size) {}

  uint64_t size() const { return tags_.size(); }
  uint32_t tag(uint64_t k) const { return tags_[k]; }
  void Set(uint64_t k, uint32_t tag) { tags_[k] = tag; }
  void SetRange(uint64_t b, uint64_t e, uint32_t tag) {
    for (uint64_t k = b; k < std::min<uint64_t>(e, tags_.size()); k++) {
      tags_[k] = tag;
    }
  }
  // Next key >= k that is live or unknown; size() when none.
  uint64_t NextLive(uint64_t k) const {
    while (k < tags_.size() && tags_[k] == kAbsent) k++;
    return k;
  }
  uint64_t LiveBytes() const {
    uint64_t n = 0;
    for (uint32_t t : tags_) n += t != kAbsent;
    return n * (kKeySize + vsize_);
  }
  // Whether a read of key |k| that returned |value| (nullptr = not found) is
  // consistent with the model.
  bool Matches(uint64_t k, const std::string* value) const {
    uint32_t t = tags_[k];
    if (t == kUnknown) return true;
    if (value == nullptr) return t == kAbsent;
    return t != kAbsent && *value == ValueFor(k, t, vsize_);
  }

 private:
  std::vector<uint32_t> tags_;
  size_t vsize_;
};

// ---------------- one engine instance ----------------

struct Engine {
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TracingEnv> env;
  std::unique_ptr<TracingCache> cache;
  std::unique_ptr<TracingFilterPolicy> filter;
  std::unique_ptr<CountingComparator> cmp;
  Options options;
  std::unique_ptr<DB> db;

  Engine(const Spec& spec, uint64_t dth, bool traced) {
    options.background_compactions = true;
    options.delete_persistence_threshold = dth;
    options.value_separation_threshold = spec.value_separation_threshold;
    if (traced) {
      tracer = std::make_unique<Tracer>();
      tracer->RegisterClientThread();
      env = std::make_unique<TracingEnv>(acheron::DefaultEnv(), tracer.get());
      cache = std::make_unique<TracingCache>(acheron::NewLRUCache(8 << 20),
                                             tracer.get());
      filter = std::make_unique<TracingFilterPolicy>(
          acheron::NewBloomFilterPolicy(options.filter_bits_per_key),
          tracer.get());
      cmp = std::make_unique<CountingComparator>(acheron::BytewiseComparator());
      options.env = env.get();
      options.block_cache = cache.get();
      options.filter_policy = filter.get();
      options.comparator = cmp.get();
    }
  }

  Status Open(const std::string& dir) {
    DB* raw = nullptr;
    Status s = DB::Open(options, dir, &raw);
    db.reset(raw);
    return s;
  }
};

// ---------------- measurement ----------------

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double CpuSeconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Nearest-rank percentile in microseconds.
double PercentileUs(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1000.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void SyncFilesystem(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

enum LatencyClass { kWriteLat, kGetLat, kMultiGetLat, kScanLat, kNumLat };

LatencyClass ClassOf(OpType t) {
  switch (t) {
    case kGet:
      return kGetLat;
    case kMultiGet:
      return kMultiGetLat;
    case kScan:
      return kScanLat;
    default:
      return kWriteLat;
  }
}

// Everything one pass (set-up, timed phase, settle, restart check) yields.
struct Pass {
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<double> setup_times;
  double setup_s = 0;
  double phase_s = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t phase_ok = 0;  // successful ops of the timed phase
  uint64_t gets_ok = 0, gets_found = 0;
  uint64_t attempted_by_type[kNumOpTypes] = {};
  // Latencies in ns; a failed op counts as the whole phase.
  std::vector<uint64_t> op_lat;        // every op of the timed phase
  std::vector<uint64_t> lat[kNumLat];  // by class, MultiGets after it too
  InternalStats stats0, stats;         // at phase start; after the settle
  DeleteStats dstats;
  uint64_t live_tombstone_age = 0;  // oldest live tombstone, memtable included
  double write_amp = 0, space_amp = 0;
  double drain_s = 0, bg_cpu_s = 0;
  uint64_t restart_reads = 0, restart_failed = 0;
  uint64_t dth = 0;
  // Traced pass only.
  Counters counters;  // timed phase + settle
  Breakdown breakdown;

  void Problem(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

class Runner {
 public:
  Runner(const Spec& spec, const Workload& w, uint64_t dth, bool traced,
         std::string dir)
      : spec_(spec), w_(w), dth_(dth), traced_(traced), dir_(std::move(dir)),
        model_(spec.key_space, spec.value_size) {}

  Pass Run(int setup_repeats) {
    pass_.dth = dth_;
    if (!Setup(setup_repeats)) return std::move(pass_);
    TimedPhase();
    Settle();
    RestartCheck();
    e_.reset();
    std::filesystem::remove_all(dir_);
    return std::move(pass_);
  }

  void set_spans_path(std::string p) { spans_path_ = std::move(p); }

 private:
  // Open + preload + WaitForCompactions, |repeats| times from scratch; the
  // last instance is kept for the timed phase.
  bool Setup(int repeats) {
    // Let the filesystem finish what earlier runs left behind (writeback,
    // and the discards of their deleted files) before anything is timed.
    std::filesystem::remove_all(dir_);
    SyncFilesystem(std::filesystem::path(dir_).parent_path().string());
    std::vector<double> times;
    for (int r = 0; r < repeats; r++) {
      e_.reset();
      std::filesystem::remove_all(dir_);
      model_ = Model(spec_.key_space, spec_.value_size);
      tag_ = 1;
      e_ = std::make_unique<Engine>(spec_, dth_, traced_);
      const int64_t start = NowNs();
      Status s = e_->Open(dir_);
      if (!s.ok()) {
        pass_.Problem("open: " + s.ToString());
        return false;
      }
      acheron::WriteBatch batch;
      for (uint64_t i = 0; i < w_.preload_order.size(); i++) {
        uint64_t k = w_.preload_order[i];
        uint32_t tag = tag_++;
        batch.Put(Key(k), ValueFor(k, tag, spec_.value_size));
        model_.Set(k, tag);
        if (batch.Count() == 256 || i + 1 == w_.preload_order.size()) {
          s = e_->db->Write(WriteOptions(), &batch);
          if (!s.ok()) {
            pass_.Problem("preload: " + s.ToString());
            return false;
          }
          batch.Clear();
        }
      }
      s = e_->db->WaitForCompactions();
      if (!s.ok()) {
        pass_.Problem("setup settle: " + s.ToString());
        return false;
      }
      times.push_back(Seconds(NowNs() - start));
    }
    pass_.setup_times = times;
    pass_.setup_s = Median(times);
    // Write back the set-up's dirty pages now, so the kernel's writeback
    // does not compete with the timed phase.
    SyncFilesystem(dir_);
    return true;
  }

  void TimedPhase() {
    DB* db = e_->db.get();
    Tracer* tr = e_->tracer.get();
    pass_.stats0 = db->GetStats();
    if (tr != nullptr) {
      counters0_ = tr->Snapshot();
      tr->ResetBreakdown();
    }
    cpu_self0_ = CpuSeconds(RUSAGE_SELF);
    cpu_thread0_ = CpuSeconds(RUSAGE_THREAD);
    pass_.op_lat.reserve(w_.ops.size());

    const int64_t phase_start = NowNs();
    for (const Op& op : w_.ops) RunOp(op);
    const int64_t phase_ns = NowNs() - phase_start;
    pass_.phase_s = Seconds(phase_ns);
    pass_.phase_ok = pass_.attempted - pass_.failed;
    for (const Op& op : w_.probe) RunOp(op);
    // A failed op counts as taking the whole phase: beyond every latency a
    // successful op can have, so fixing a failure never reads as a latency
    // regression.
    auto clamp = [&](std::vector<uint64_t>& l) {
      for (uint64_t& x : l) x = std::min<uint64_t>(x, phase_ns);
    };
    clamp(pass_.op_lat);
    for (auto& l : pass_.lat) clamp(l);
  }

  // Issues one op, times it, checks it and records its latency.
  void RunOp(const Op& op) {
    DB* db = e_->db.get();
    Tracer* tr = e_->tracer.get();
    // Inputs are built outside the timed call.
    std::string key = op.absent ? AbsentKey(op.key) : Key(op.key);
    std::string end_key;
    uint32_t tag = 0;
    if (op.type == kPut) {
      tag = tag_++;
      value_ = ValueFor(op.key, tag, spec_.value_size);
    } else if (op.type == kDeleteRange) {
      end_key = Key(op.key + kRangeSpan);
    } else if (op.type == kMultiGet) {
      for (int k = 0; k < kMultiGetKeys; k++) {
        mg_keys_[k] = Key(w_.multiget_keys[op.key + k]);
        mg_slices_[k] = mg_keys_[k];
      }
    }
    Status s;
    std::vector<Status> mg_status;
    if (tr != nullptr) tr->BeginOp(op.type);
    const int64_t start = NowNs();
    switch (op.type) {
      case kPut:
        s = db->Put(WriteOptions(), key, value_);
        break;
      case kDelete:
        s = db->Delete(WriteOptions(), key);
        break;
      case kDeleteRange:
        s = db->DeleteRange(WriteOptions(), key, end_key);
        break;
      case kGet:
        s = db->Get(ReadOptions(), key, &value_);
        break;
      case kMultiGet:
        mg_status = db->MultiGet(ReadOptions(), mg_slices_, &values_);
        break;
      case kScan: {
        scanned_.clear();
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        it->Seek(key);
        for (int n = 0; n < kScanLength && it->Valid(); n++, it->Next()) {
          scanned_.emplace_back(it->key().ToString(), it->value().ToString());
        }
        s = it->status();
        break;
      }
      default:
        break;
    }
    const int64_t elapsed = NowNs() - start;
    if (tr != nullptr) tr->EndOp();
    bool failed = Check(op, tag, s, mg_status);
    pass_.attempted++;
    pass_.attempted_by_type[op.type]++;
    const uint64_t sample = failed ? UINT64_MAX : elapsed;
    pass_.lat[ClassOf(op.type)].push_back(sample);
    if (op.type != kMultiGet) pass_.op_lat.push_back(sample);
    if (failed) pass_.failed++;
  }

  // Checks one op's outcome against the model and applies writes to it.
  // Returns whether the op failed (an error status). Wrong results are
  // recorded as problems.
  bool Check(const Op& op, uint32_t tag, const Status& s,
             const std::vector<Status>& mg_status) {
    switch (op.type) {
      case kPut:
        model_.Set(op.key, s.ok() ? tag : Model::kUnknown);
        return !s.ok();
      case kDelete:
        model_.Set(op.key, s.ok() ? Model::kAbsent : Model::kUnknown);
        return !s.ok();
      case kDeleteRange:
        model_.SetRange(op.key, op.key + kRangeSpan,
                        s.ok() ? Model::kAbsent : Model::kUnknown);
        return !s.ok();
      case kGet: {
        if (!s.ok() && !s.IsNotFound()) return true;
        pass_.gets_ok++;
        pass_.gets_found += s.ok();
        if (op.absent) {
          if (s.ok()) Wrong("get of a never-written key found", op.key);
        } else if (!model_.Matches(op.key, s.ok() ? &value_ : nullptr)) {
          Wrong(s.ok() ? "get returned a wrong or deleted value"
                       : "get lost a live key",
                op.key);
        }
        return false;
      }
      case kMultiGet: {
        bool failed = false;
        for (int k = 0; k < kMultiGetKeys; k++) {
          const Status& ks = mg_status[k];
          if (!ks.ok() && !ks.IsNotFound()) {
            failed = true;
            continue;
          }
          uint32_t key = w_.multiget_keys[op.key + k];
          if (!model_.Matches(key, ks.ok() ? &values_[k] : nullptr)) {
            Wrong("multiget returned a wrong, deleted or missing value", key);
          }
        }
        return failed;
      }
      case kScan: {
        // Keys the scan returned must be the model's next live keys, in
        // order, with their values; a scan that stopped on an error is
        // checked up to where it stopped.
        uint64_t k = model_.NextLive(op.key);
        for (const auto& [key, val] : scanned_) {
          if (k >= model_.size() || key != Key(k)) {
            Wrong("scan returned a deleted key or skipped a live one", k);
            break;
          }
          if (!model_.Matches(k, &val)) Wrong("scan returned a wrong value", k);
          k = model_.NextLive(k + 1);
        }
        if (s.ok() && scanned_.size() < static_cast<size_t>(kScanLength) &&
            k < model_.size()) {
          Wrong("scan ended before the last live key", k);
        }
        return !s.ok();
      }
      default:
        return false;
    }
  }

  void Wrong(const char* what, uint64_t key) {
    pass_.wrong++;
    pass_.Problem(std::string(what) + " (" + Key(key) + ")");
  }

  void Settle() {
    DB* db = e_->db.get();
    const int64_t start = NowNs();
    Status s = db->WaitForCompactions();
    pass_.drain_s = Seconds(NowNs() - start);
    if (!s.ok()) pass_.Problem("final settle: " + s.ToString());
    pass_.bg_cpu_s = (CpuSeconds(RUSAGE_SELF) - cpu_self0_) -
                     (CpuSeconds(RUSAGE_THREAD) - cpu_thread0_);
    pass_.stats = db->GetStats();
    pass_.dstats = db->GetDeleteStats();
    std::string age;
    if (db->GetProperty("acheron.max-tombstone-age", &age)) {
      pass_.live_tombstone_age = std::stoull(age);
    }
    pass_.write_amp = pass_.stats.WriteAmplification();
    pass_.space_amp = Ratio(DirBytes(dir_), model_.LiveBytes());
    if (Tracer* tr = e_->tracer.get()) {
      Counters total = tr->Snapshot();
      pass_.counters = total - counters0_;
      pass_.breakdown = tr->breakdown();
      CheckAgreement(total);
      if (!spans_path_.empty()) tr->WriteSpans(spans_path_);
    }
  }

  // The traced counts must agree with the engine's own counters.
  void CheckAgreement(const Counters& total) {
    const InternalStats& st = pass_.stats;
    uint64_t traced = total.all(FileComp(kSst, kAppend), kBytes) +
                      total.all(FileComp(kVlog, kAppend), kBytes);
    uint64_t engine = st.flush_bytes_written + st.compaction_bytes_written +
                      st.vlog_bytes_written;
    if (traced != engine) {
      pass_.Problem("traced .sst+.vlog append bytes " + std::to_string(traced) +
                    " != engine flush+compaction+vlog bytes " +
                    std::to_string(engine));
    }
    uint64_t negatives = total.all(kBloomNegative, kCount);
    if (negatives != st.bloom_useful) {
      pass_.Problem("traced Bloom negatives " + std::to_string(negatives) +
                    " != engine bloom_useful " +
                    std::to_string(st.bloom_useful));
    }
  }

  // Close, reopen and scan everything: the acknowledged writes must all be
  // readable after a clean restart. A read error is counted and the scan
  // resumes after the key it was expected to return.
  void RestartCheck() {
    e_->db.reset();
    Status s = e_->Open(dir_);
    if (!s.ok()) {
      pass_.Problem("reopen: " + s.ToString());
      return;
    }
    DB* db = e_->db.get();
    uint64_t k = model_.NextLive(0);
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    it->SeekToFirst();
    while (true) {
      if (!it->Valid()) {
        if (it->status().ok()) {
          if (k < model_.size()) Wrong("restart scan lost a live key", k);
          break;
        }
        pass_.restart_failed++;
        if (k >= model_.size()) break;
        k = model_.NextLive(k + 1);
        it.reset(db->NewIterator(ReadOptions()));
        it->Seek(Key(k));
        continue;
      }
      pass_.restart_reads++;
      std::string val = it->value().ToString();
      if (k >= model_.size() || it->key() != Slice(Key(k))) {
        Wrong("restart scan returned a deleted key or skipped a live one", k);
        break;
      }
      if (!model_.Matches(k, &val)) Wrong("restart scan returned a wrong value", k);
      k = model_.NextLive(k + 1);
      it->Next();
    }
  }

  const Spec& spec_;
  const Workload& w_;
  const uint64_t dth_;
  const bool traced_;
  const std::string dir_;
  std::string spans_path_;
  Model model_;
  uint32_t tag_ = 1;
  std::unique_ptr<Engine> e_;
  Pass pass_;
  Counters counters0_;
  double cpu_self0_ = 0, cpu_thread0_ = 0;
  // Per-op buffers.
  std::string value_;
  std::vector<std::string> values_;
  std::vector<std::string> mg_keys_ = std::vector<std::string>(kMultiGetKeys);
  std::vector<Slice> mg_slices_ = std::vector<Slice>(kMultiGetKeys);
  std::vector<std::pair<std::string, std::string>> scanned_;
};

// ---------------- gates and reporting ----------------

// The longest any delete waited to persist: persisted point and range
// tombstones, and tombstones still live at the end, memtable included (their
// age so far, from "acheron.max-tombstone-age").
double PersistMax(const DeleteStats& d, uint64_t live_age) {
  return std::max({d.persistence_latency_max, d.range_persistence_latency_max,
                   static_cast<double>(live_age)});
}

// FADE's bound: a tombstone persists within D_th ingested ops, plus the
// crossing write; a deleted key's value bytes are purged within D_th.
void CheckFadeGate(const DeleteStats& d, uint64_t live_age, uint64_t dth,
                   bool separated, uint64_t gc_runs, Pass* p) {
  if (PersistMax(d, live_age) > dth + 1) {
    p->Problem("persist_max_ops " + std::to_string(PersistMax(d, live_age)) +
               " > D_th + 1 = " + std::to_string(dth + 1));
  }
  if (d.range_persistence_latency_max > dth + 1) {
    p->Problem("fade.range_persist_max_ops " +
               std::to_string(d.range_persistence_latency_max) +
               " > D_th + 1 = " + std::to_string(dth + 1));
  }
  if (separated && d.value_purge_latency_max > dth) {
    p->Problem("value_purge_max_ops " +
               std::to_string(d.value_purge_latency_max) + " > D_th = " +
               std::to_string(dth));
  }
  if (separated && gc_runs == 0) p->Problem("vlog GC never ran");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Emit(const std::vector<Metric>& metrics, const Pass& p) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += p.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(p.attempted);
  json += ", \"failed\": " + std::to_string(p.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const Pass& p) {
  return {
      {"ops_per_sec", Ratio(p.phase_ok, p.phase_s), "1/s"},
      {"op_p50_us", PercentileUs(p.op_lat, 0.50), "us"},
      {"op_p99_us", PercentileUs(p.op_lat, 0.99), "us"},
      {"write_amp", p.write_amp, "ratio"},
      {"space_amp", p.space_amp, "ratio"},
      {"persist_max_ops", PersistMax(p.dstats, p.live_tombstone_age), "ops"},
      {"setup_s", p.setup_s, "s"},
  };
}

// Latency by op class, and end-to-end figures that exist on only some
// workloads (they would read 0 elsewhere); reported with the per-layer
// metrics. Each class gated on every workload is too noisy: point_read's
// writes, a 10% side load between Gets, spread 0.2-0.27 across seeds.
std::vector<Metric> WorkloadSpecific(const Pass& p) {
  return {
      {"write_p50_us", PercentileUs(p.lat[kWriteLat], 0.50), "us"},
      {"write_p99_us", PercentileUs(p.lat[kWriteLat], 0.99), "us"},
      {"get_p50_us", PercentileUs(p.lat[kGetLat], 0.50), "us"},
      {"get_p99_us", PercentileUs(p.lat[kGetLat], 0.99), "us"},
      {"multiget_p50_us", PercentileUs(p.lat[kMultiGetLat], 0.50), "us"},
      {"multiget_p99_us", PercentileUs(p.lat[kMultiGetLat], 0.99), "us"},
      {"scan_p50_us", PercentileUs(p.lat[kScanLat], 0.50), "us"},
      {"scan_p99_us", PercentileUs(p.lat[kScanLat], 0.99), "us"},
      {"value_purge_max_ops", p.dstats.value_purge_latency_max, "ops"},
      {"failed_op_share", Ratio(p.failed, p.attempted), "ratio"},
      {"samples.write", static_cast<double>(p.lat[kWriteLat].size()), "count"},
      {"samples.get", static_cast<double>(p.lat[kGetLat].size()), "count"},
      {"samples.multiget", static_cast<double>(p.lat[kMultiGetLat].size()),
       "count"},
      {"samples.scan", static_cast<double>(p.lat[kScanLat].size()), "count"},
      {"restart.failed_reads", static_cast<double>(p.restart_failed), "count"},
  };
}

std::vector<Metric> PerLayer(const Pass& t, const Pass& untraced) {
  const Counters& c = t.counters;
  const Breakdown& b = t.breakdown;
  const InternalStats& s = t.stats;
  const InternalStats& s0 = t.stats0;
  const DeleteStats& d = t.dstats;
  const double nw = t.attempted_by_type[kPut] + t.attempted_by_type[kDelete] +
                    t.attempted_by_type[kDeleteRange];
  const double ng = t.attempted_by_type[kGet];
  const double nm = t.attempted_by_type[kMultiGet];
  const double nsc = t.attempted_by_type[kScan];
  const double user_bytes = s.user_bytes_written - s0.user_bytes_written;
  auto writes_sum = [&](auto f) {
    double x = 0;
    for (int op = kPut; op <= kDeleteRange; op++) x += f(op);
    return x;
  };
  auto client = [&](int comp, Stat st) {
    return static_cast<double>(c.sum(0, kNumOpTypes, comp, st) +
                               c.get(kIoSrc, comp, st));
  };
  auto all = [&](int comp, Stat st) { return static_cast<double>(c.all(comp, st)); };
  auto by = [&](int op, int comp, Stat st) {
    return static_cast<double>(c.get(op, comp, st));
  };
  auto us_per = [](double ns, double n) { return Ratio(ns / 1000.0, n); };
  uint64_t errors = 0;
  for (int k = 0; k < kNumKinds; k++) {
    errors += c.all(FileComp(static_cast<FileKind>(k), kError), kCount);
  }
  const uint64_t compactions = s.compaction_count - s0.compaction_count;
  const uint64_t ttl = s.compactions_by_reason[4] - s0.compactions_by_reason[4];
  const double submits = all(kSubmitReads, kCount);

  std::vector<Metric> m = {
      // lsm
      {"lsm.stall_s", (s.stall_micros - s0.stall_micros) / 1e6, "s"},
      {"lsm.stall_share", Ratio((s.stall_micros - s0.stall_micros) / 1e6, t.phase_s), "ratio"},
      {"lsm.memtable_swaps", static_cast<double>(s.memtable_swaps - s0.memtable_swaps), "count"},
      {"write.engine_self_us", us_per(writes_sum([&](int op) { return b.self_ns[op]; }), nw), "us"},
      // wal
      {"wal.appends_per_write", Ratio(all(FileComp(kWal, kAppend), kCount), nw), "ratio"},
      {"wal.bytes_per_user_byte", Ratio(all(FileComp(kWal, kAppend), kBytes), user_bytes), "ratio"},
      {"wal.append_us_per_write", us_per(writes_sum([&](int op) { return b.layer_ns[op][kWal]; }), nw), "us"},
      {"wal.syncs", all(FileComp(kWal, kSync), kCount), "count"},
      // compaction / flush
      {"compaction.count", static_cast<double>(compactions), "count"},
      {"compaction.ttl_share", Ratio(ttl, compactions), "ratio"},
      {"compaction.bytes_read", static_cast<double>(s.compaction_bytes_read - s0.compaction_bytes_read), "B"},
      {"compaction.bytes_written", static_cast<double>(s.compaction_bytes_written - s0.compaction_bytes_written), "B"},
      {"compaction.trivial_moves", static_cast<double>(s.trivial_move_count - s0.trivial_move_count), "count"},
      {"flush.count", static_cast<double>(s.flush_count - s0.flush_count), "count"},
      {"flush.bytes_written", static_cast<double>(s.flush_bytes_written - s0.flush_bytes_written), "B"},
      {"sst.write_s", (all(FileComp(kSst, kAppend), kNs) + all(FileComp(kSst, kFlush), kNs) + all(FileComp(kSst, kClose), kNs)) / 1e9, "s"},
      {"sst.syncs", all(FileComp(kSst, kSync), kCount), "count"},
      {"sst.sync_s", all(FileComp(kSst, kSync), kNs) / 1e9, "s"},
      {"bloom.build_s", all(kBloomBuild, kNs) / 1e9, "s"},
      {"bg.cpu_s", t.bg_cpu_s, "s"},
      {"bg.drain_s", t.drain_s, "s"},
      // core (FADE)
      {"fade.tombstones_persisted", static_cast<double>(d.tombstones_persisted), "count"},
      {"fade.tombstones_superseded", static_cast<double>(d.tombstones_superseded), "count"},
      {"fade.tombstones_live_end", static_cast<double>(d.tombstones_live), "count"},
      {"fade.oldest_tombstone_age_end", static_cast<double>(d.oldest_live_tombstone_age), "ops"},
      {"fade.persist_p99_ops", d.persistence_latency_p99, "ops"},
      {"fade.range_persist_max_ops", d.range_persistence_latency_max, "ops"},
      {"fade.range_tombstones_live_end", static_cast<double>(d.range_deletes_live), "count"},
      {"fade.ttl_stall_waits", static_cast<double>(s.stall_ttl_waits - s0.stall_ttl_waits), "count"},
      // table
      {"sst.reads_per_get", Ratio(by(kGet, FileComp(kSst, kRead), kCount), ng), "ratio"},
      {"sst.read_bytes_per_get", Ratio(by(kGet, FileComp(kSst, kRead), kBytes), ng), "B"},
      {"sst.read_us_per_get", us_per(b.layer_ns[kGet][kSst], ng), "us"},
      {"sst.opens", all(FileComp(kSst, kOpenRead), kCount), "count"},
      {"cache.hit_ratio", Ratio(client(kCacheHit, kCount), client(kCacheLookup, kCount)), "ratio"},
      {"cache.lookups_per_get", Ratio(by(kGet, kCacheLookup, kCount), ng), "ratio"},
      {"cache.lookup_us_per_get", us_per(b.layer_ns[kGet][kCacheLayer], ng), "us"},
      {"bloom.probes_per_get", Ratio(by(kGet, kBloomProbe, kCount), ng), "ratio"},
      {"bloom.useful_ratio", Ratio(all(kBloomNegative, kCount), all(kBloomProbe, kCount)), "ratio"},
      {"bloom.probe_us_per_get", us_per(b.layer_ns[kGet][kBloomLayer], ng), "us"},
      {"cmp.per_get", Ratio(b.cmp[kGet], ng), "ratio"},
      {"cmp.per_write", Ratio(writes_sum([&](int op) { return b.cmp[op]; }), nw), "ratio"},
      {"cmp.per_scan", Ratio(b.cmp[kScan], nsc), "ratio"},
      // read
      {"read.found_ratio", Ratio(t.gets_found, t.gets_ok), "ratio"},
      {"read.iter_tombstones_skipped_per_scan", Ratio(s.iter_tombstones_skipped - s0.iter_tombstones_skipped, nsc), "ratio"},
      {"get.engine_self_us", us_per(b.self_ns[kGet], ng), "us"},
      {"multiget.engine_self_us", us_per(b.self_ns[kMultiGet], nm), "us"},
      {"scan.engine_self_us", us_per(b.self_ns[kScan], nsc), "us"},
      // env (async IO)
      {"env.submit_reads_calls", submits, "count"},
      {"env.reads_per_submit", Ratio(all(kSubmitReads, kBytes), submits), "ratio"},
      {"env.submit_us_per_multiget", us_per(b.layer_ns[kMultiGet][kAsyncLayer], nm), "us"},
      {"env.errors", static_cast<double>(errors), "count"},
      // vlog
      {"vlog.append_bytes_per_user_byte", Ratio(all(FileComp(kVlog, kAppend), kBytes), user_bytes), "ratio"},
      {"vlog.append_us_per_write", us_per(writes_sum([&](int op) { return b.layer_ns[op][kVlog]; }), nw), "us"},
      {"vlog.syncs", all(FileComp(kVlog, kSync), kCount), "count"},
      {"vlog.reads_per_get", Ratio(by(kGet, FileComp(kVlog, kRead), kCount), ng), "ratio"},
      {"vlog.reads_per_scan", Ratio(by(kScan, FileComp(kVlog, kRead), kCount), nsc), "ratio"},
      {"vlog.read_us_per_get", us_per(b.layer_ns[kGet][kVlog], ng), "us"},
      {"vlog.read_us_per_scan", us_per(b.layer_ns[kScan][kVlog], nsc), "us"},
      {"vlog.opens", all(FileComp(kVlog, kOpenRead), kCount), "count"},
      {"vlog.read_errors", all(FileComp(kVlog, kError), kCount) + all(FileComp(kVlog, kShortRead), kCount), "count"},
      {"vlog.gc_runs", static_cast<double>(s.vlog_gc_runs - s0.vlog_gc_runs), "count"},
      {"vlog.gc_bytes_relocated", static_cast<double>(s.vlog_gc_bytes_relocated - s0.vlog_gc_bytes_relocated), "B"},
      {"vlog.values_purged", static_cast<double>(d.values_purged), "count"},
      {"vlog.purge_backlog_end", static_cast<double>(d.value_purge_backlog), "count"},
      // manifest
      {"manifest.appends", all(FileComp(kManifest, kAppend), kCount), "count"},
      {"manifest.sync_s", all(FileComp(kManifest, kSync), kNs) / 1e9, "s"},
      // trace
      {"trace.overhead", Ratio(EndToEnd(t)[0].value, EndToEnd(untraced)[0].value), "ratio"},
  };
  for (const Metric& x : WorkloadSpecific(untraced)) m.push_back(x);
  return m;
}

// Per op type, the layer times and the engine's self time must add up to
// the traced op time; prints the split to stderr.
void CheckBreakdown(Pass* t) {
  static const char* kLayers[] = {"wal", "sst", "vlog", "manifest", "other",
                                  "cache", "bloom", "async_read"};
  const Breakdown& b = t->breakdown;
  for (int op = 0; op < kNumOpTypes; op++) {
    if (b.ops[op] == 0) continue;
    double sum = b.self_ns[op];
    std::fprintf(stderr, "breakdown %-12s n=%-8" PRIu64 " op=%.2fus self=%.2fus",
                 OpName(static_cast<OpType>(op)), b.ops[op],
                 b.op_ns[op] / b.ops[op] / 1000, b.self_ns[op] / b.ops[op] / 1000);
    for (int l = 0; l < kNumLayers; l++) {
      sum += b.layer_ns[op][l];
      if (b.layer_ns[op][l] > 0) {
        std::fprintf(stderr, " %s=%.3fus", kLayers[l],
                     b.layer_ns[op][l] / b.ops[op] / 1000);
      }
    }
    std::fprintf(stderr, "\n");
    if (std::fabs(sum - b.op_ns[op]) > 1e-6 * b.op_ns[op] + 1) {
      t->Problem(std::string("layer times do not add up for ") +
                 OpName(static_cast<OpType>(op)));
    }
  }
}

void Report(const char* label, const Pass& p) {
  std::fprintf(stderr,
               "%s: %" PRIu64 " ops in %.3fs, %" PRIu64 " failed, %" PRIu64
               " wrong; D_th=%" PRIu64 "; restart check read %" PRIu64
               " keys, %" PRIu64 " failed\n",
               label, p.attempted, p.phase_s, p.failed, p.wrong, p.dth,
               p.restart_reads, p.restart_failed);
  static const char* kClasses[] = {"write", "get", "multiget", "scan"};
  std::fprintf(stderr, "%s: time of successful ops by class:", label);
  for (int c = 0; c < kNumLat; c++) {
    double sum = 0;
    for (uint64_t x : p.lat[c]) sum += x < p.phase_s * 1e9 ? x : 0;
    std::fprintf(stderr, " %s=%.2fs", kClasses[c], sum / 1e9);
  }
  std::fprintf(stderr, "\n");
  for (const std::string& s : p.problems) {
    std::fprintf(stderr, "%s: PROBLEM: %s\n", label, s.c_str());
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string db_dir;
  std::string spans_out;
  bool tiny = false;
  bool selftest = false;
};

Pass RunPass(const Spec& spec, const Workload& w, uint64_t dth, bool traced,
             int setup_repeats, const Args& a) {
  Runner r(spec, w, dth, traced, a.db_dir);
  if (traced) r.set_spans_path(a.spans_out);
  Pass p = r.Run(setup_repeats);
  CheckFadeGate(p.dstats, p.live_tombstone_age, dth,
                spec.value_separation_threshold > 0,
                p.stats.vlog_gc_runs - p.stats0.vlog_gc_runs, &p);
  if (traced) CheckBreakdown(&p);
  Report(traced ? "traced pass" : "untraced pass", p);
  return p;
}

// One result from the timed phases of a run: the counts and ops_per_sec of
// the phase with the median time (the phases run the same inputs, so their
// engine counts agree), latency samples and op counts pooled over all
// phases, and setup_s the median of every set-up.
Pass Combine(std::vector<Pass> phases) {
  std::sort(phases.begin(), phases.end(),
            [](const Pass& a, const Pass& b) { return a.phase_s < b.phase_s; });
  const size_t median = (phases.size() - 1) / 2;
  Pass p = std::move(phases[median]);
  for (size_t i = 0; i < phases.size(); i++) {
    if (i == median) continue;
    Pass& q = phases[i];
    p.correct = p.correct && q.correct;
    for (std::string& what : q.problems) {
      if (p.problems.size() < 20) p.problems.push_back(std::move(what));
    }
    p.attempted += q.attempted;
    p.failed += q.failed;
    p.wrong += q.wrong;
    p.op_lat.insert(p.op_lat.end(), q.op_lat.begin(), q.op_lat.end());
    for (int c = 0; c < kNumLat; c++) {
      p.lat[c].insert(p.lat[c].end(), q.lat[c].begin(), q.lat[c].end());
    }
    p.setup_times.insert(p.setup_times.end(), q.setup_times.begin(),
                         q.setup_times.end());
  }
  p.setup_s = Median(p.setup_times);
  return p;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Spec Tiny(Spec s) {
  s.key_space = std::max<uint64_t>(s.key_space / 10, 1000);
  s.preload = std::min(s.preload, s.key_space);
  s.ops_per_second = 5000;
  s.multiget_probe = std::min(s.multiget_probe, 300);
  s.setup_repeats = 1;
  return s;
}

int RunWorkload(const Args& a) {
  const Spec* found = FindSpec(a.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Spec spec = a.tiny ? Tiny(*found) : *found;
  const Workload w = Generate(
      spec, a.seed, spec.ops_per_second * a.seconds / kPhases);
  const uint64_t dth =
      std::max<uint64_t>(static_cast<uint64_t>(w.writes * spec.dth_per_write), 1);
  if (a.trace == 0) {
    std::vector<Pass> phases;
    for (int r = 0; r < kPhases; r++) {
      phases.push_back(RunPass(spec, w, dth, false, spec.setup_repeats, a));
    }
    Pass p = Combine(std::move(phases));
    std::vector<Metric> m = EndToEnd(p);
    for (const Metric& x : WorkloadSpecific(p)) {
      std::printf("%-40s %18.6f %s\n", x.name.c_str(), x.value, x.unit);
    }
    Emit(m, p);
    return 0;
  }
  Pass untraced = RunPass(spec, w, dth, false, 1, a);
  Pass traced = RunPass(spec, w, dth, true, 1, a);
  // Both passes ran the same inputs on the same engine paths.
  if (untraced.write_amp != traced.write_amp) {
    traced.Problem("traced and untraced write_amp differ");
  }
  traced.correct = traced.correct && untraced.correct;
  Emit(PerLayer(traced, untraced), traced);
  return 0;
}

// Checks that the model check and the FADE gate catch what they are meant
// to catch; perfbench/run.py --selftest adds tiny runs of every workload.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "selftest: %s: %s\n", ok ? "ok" : "FAILED", what);
    failures += !ok;
  };
  {
    Model m(4, 100);
    m.Set(1, 7);
    std::string good = ValueFor(1, 7, 100), stale = ValueFor(1, 6, 100);
    expect(m.Matches(1, &good), "model accepts the live value");
    expect(!m.Matches(1, &stale), "model rejects a stale value");
    expect(!m.Matches(1, nullptr), "model rejects a lost key");
    expect(!m.Matches(2, &good), "model rejects a deleted key that comes back");
    m.SetRange(0, 4, Model::kAbsent);
    expect(m.NextLive(0) == 4, "range delete clears the model");
  }
  {
    DeleteStats d;
    Pass p;
    d.persistence_latency_max = 101;
    CheckFadeGate(d, 0, 100, false, 0, &p);
    expect(p.correct, "FADE gate allows D_th + 1");
    d.persistence_latency_max = 102;
    CheckFadeGate(d, 0, 100, false, 0, &p);
    expect(!p.correct, "FADE gate rejects D_th + 2");
    Pass live;
    CheckFadeGate(DeleteStats(), 102, 100, false, 0, &live);
    expect(!live.correct, "FADE gate rejects a live tombstone past D_th + 1");
    Pass q;
    d = DeleteStats();
    d.value_purge_latency_max = 101;
    CheckFadeGate(d, 0, 100, true, 1, &q);
    expect(!q.correct, "FADE gate rejects a late value purge");
    Pass r;
    CheckFadeGate(DeleteStats(), 0, 100, true, 0, &r);
    expect(!r.correct, "FADE gate requires a vLog GC run");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : "";
    if (flag == "--workload") {
      a.workload = val, i++;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10), i++;
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(val), i++;
    } else if (flag == "--trace") {
      a.trace = std::atoi(val), i++;
    } else if (flag == "--db-dir") {
      a.db_dir = val, i++;
    } else if (flag == "--spans-out") {
      a.spans_out = val, i++;
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--selftest") {
      a.selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!a.selftest && (a.db_dir.empty() || a.seconds < 1)) {
    std::fprintf(stderr, "--db-dir and a positive --seconds are required\n");
    return 2;
  }
  // The benchmark always measures the background pipeline.
  unsetenv("ACHERON_BACKGROUND_COMPACTIONS");
  return a.selftest ? perfbench::SelfTest() : perfbench::RunWorkload(a);
}
