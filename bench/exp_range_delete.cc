// E14 -- Range-delete persistence latency vs D_th: range tombstones are
// first-class FADE citizens, so the same guarantee applies to them -- the
// monitor's dedicated range-delete histogram must be non-empty after the
// fill and its max latency must respect the threshold. The bench aborts if
// either check fails (these are the acceptance criteria, not just numbers).
//
// A second table sweeps the cost of the range-coverage test a found Get
// pays while tombstones wait in the memtable for FADE to move them down:
// Get latency and comparator calls per Get at 0, 1k, 4k and 16k live
// memtable range tombstones. The comparator count is deterministic; the
// memtable's coverage index keeps it near-flat as the tombstones grow.
//
// With --json=PATH, appends one schema-gated record (bench="range_delete",
// extra keys registered in tools/check_bench_json.py) for the tightest
// FADE configuration, carrying the coverage sweep as extra keys.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/random.h"

namespace acheron {
namespace bench {

// Granularity slack on the D_th bound, mirroring the crash harness: the
// deadline check runs at write granularity and the triggering write plus
// the tombstone's own entry land after it.
constexpr uint64_t kDthSlack = 2;

struct Result {
  DeleteStats ds;
  InternalStats stats;
  Histogram op_latency;  // per-op wall latency in microseconds
  uint64_t ops = 0;
  double ops_per_sec = 0;
};

static Result Run(uint64_t dth) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  BenchDB db(options);

  workload::WorkloadSpec spec;
  spec.num_ops = 60000 * Scale();
  spec.key_space = 10000;
  spec.value_size = 64;
  spec.update_percent = 20;
  spec.delete_percent = 10;
  spec.range_delete_percent = 10;  // the op this harness exists to exercise
  spec.range_delete_span = 16;
  spec.seed = 41;

  workload::Generator gen(spec);
  WriteOptions wo;
  Result r;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    workload::Op op = gen.Next();
    auto t0 = std::chrono::steady_clock::now();
    switch (op.type) {
      case workload::OpType::kRangeDelete:
        CheckOk(db->DeleteRange(wo, op.key, op.end_key));
        break;
      case workload::OpType::kDelete:
        CheckOk(db->Delete(wo, op.key));
        break;
      default:
        CheckOk(db->Put(wo, op.key, op.value));
        break;
    }
    auto t1 = std::chrono::steady_clock::now();
    r.op_latency.Add(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  CheckOk(db->WaitForCompactions());
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  r.ops = spec.num_ops;
  r.ops_per_sec = secs > 0 ? spec.num_ops / secs : 0;
  r.ds = db->GetDeleteStats();
  r.stats = db->GetStats();
  return r;
}

static void Verify(uint64_t dth, const Result& r) {
  if (r.ds.range_deletes_written == 0) {
    std::fprintf(stderr, "E14: workload produced no range deletes\n");
    std::abort();
  }
  if (dth == 0) return;  // baseline row: no bound to enforce
  if (r.ds.range_deletes_persisted == 0) {
    std::fprintf(stderr,
                 "E14: Dth=%llu produced an empty range-delete latency "
                 "histogram (no range tombstone persisted)\n",
                 static_cast<unsigned long long>(dth));
    std::abort();
  }
  if (r.ds.range_persistence_latency_max >
      static_cast<double>(dth + kDthSlack)) {
    std::fprintf(stderr,
                 "E14: Dth=%llu violated: max range persistence latency "
                 "%.0f logical ops\n",
                 static_cast<unsigned long long>(dth),
                 r.ds.range_persistence_latency_max);
    std::abort();
  }
}

static void PrintRow(uint64_t dth, const Result& r) {
  char label[32];
  if (dth == 0) {
    std::snprintf(label, sizeof(label), "baseline");
  } else {
    std::snprintf(label, sizeof(label), "Dth=%llu",
                  static_cast<unsigned long long>(dth));
  }
  std::printf("%-12s %9llu %10llu %10llu %8.0f %8.0f %10.0f\n", label,
              static_cast<unsigned long long>(r.ds.range_deletes_written),
              static_cast<unsigned long long>(r.ds.range_deletes_persisted),
              static_cast<unsigned long long>(r.ds.range_deletes_live),
              r.ds.range_persistence_latency_p50,
              r.ds.range_persistence_latency_p99,
              r.ds.range_persistence_latency_max);
}

// Counts every user-key comparison the engine makes. Under the bytewise
// name a range-tombstone list takes the bytewise prefix search a default DB
// runs, which compares bytes without the comparator; under any other name
// it takes the comparator-driven search.
class CountingComparator : public Comparator {
 public:
  explicit CountingComparator(const char* name) : name_(name) {}
  int Compare(const Slice& a, const Slice& b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return BytewiseComparator()->Compare(a, b);
  }
  const char* Name() const override { return name_; }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    BytewiseComparator()->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    BytewiseComparator()->FindShortSuccessor(key);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const char* const name_;
  mutable std::atomic<uint64_t> count_{0};
};

struct CoverageCost {
  double cmp_per_get = 0;
  double get_p50_us = 0;
  // Wall time per Get of a pass over all kGets keys without per-Get
  // clocks, the median of kPasses passes: finer than the p50's histogram
  // buckets, so it can tell two builds apart.
  double ns_per_get = 0;
};

// 10,000 Puts spread over a key space of 1M keys, into a memtable large
// enough to hold everything; then |tombstones| range deletes (span 16) at
// random places between the put keys, so none is hidden; then found Gets.
// The tombstones are newer than every entry a Get finds, so no run of the
// memtable's index lies below the coverage floor: each Get searches them
// all, like point_read's Gets of preloaded keys. The tombstones are sparse
// (at 16k they cover a quarter of the space), so most probed keys are
// uncovered. |comparator_name| picks the search (see CountingComparator).
static CoverageCost MeasureCoverage(uint64_t tombstones,
                                    const char* comparator_name) {
  constexpr uint64_t kSpace = 1000000;
  constexpr uint64_t kKeys = 10000;
  constexpr uint64_t kGets = 20000;
  CountingComparator cmp(comparator_name);
  Options options = BenchOptions();
  options.comparator = &cmp;
  options.write_buffer_size = 64 << 20;  // no flush: all stay in memtable
  BenchDB db(options);
  WriteOptions wo;
  auto key = [](uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%08llu",
                  static_cast<unsigned long long>(i));
    return std::string(buf);
  };
  constexpr uint64_t kStride = kSpace / kKeys;
  auto put_key = [&](uint64_t i) { return key(i * kStride); };
  Random rnd(77);
  for (uint64_t i = 0; i < kKeys; i++) CheckOk(db->Put(wo, put_key(i), "v"));
  for (uint64_t i = 0; i < tombstones; i++) {
    // [b, b + 16) holds no multiple of kStride: b sits 1 to kStride - 16
    // past one.
    const uint64_t b =
        rnd.Uniform(kKeys) * kStride + 1 + rnd.Uniform(kStride - 16);
    CheckOk(db->DeleteRange(wo, key(b), key(b + 16)));
  }
  if (db.PropertyU64("acheron.total-bytes") != 0 ||
      db->GetDeleteStats().range_deletes_live != tombstones) {
    std::fprintf(stderr, "E14: coverage sweep left the memtable\n");
    std::abort();
  }

  // The comparator counts every thread's calls: let the memtable linker
  // finish linking the Puts before the Gets are counted.
  CheckOk(db->WaitForCompactions());
  std::vector<std::string> keys;
  keys.reserve(kGets);
  for (uint64_t i = 0; i < kGets; i++) {
    keys.push_back(put_key(rnd.Uniform(kKeys)));
  }
  Histogram latency;
  std::string value;
  const uint64_t before = cmp.count();
  for (const std::string& k : keys) {
    auto t0 = std::chrono::steady_clock::now();
    CheckOk(db->Get(ReadOptions(), k, &value));
    auto t1 = std::chrono::steady_clock::now();
    latency.Add(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  CoverageCost c;
  c.cmp_per_get = static_cast<double>(cmp.count() - before) / kGets;
  c.get_p50_us = latency.Percentile(50);

  constexpr int kPasses = 5;
  std::vector<double> pass_ns;
  for (int pass = 0; pass < kPasses; pass++) {
    auto t0 = std::chrono::steady_clock::now();
    for (const std::string& k : keys) {
      CheckOk(db->Get(ReadOptions(), k, &value));
    }
    auto t1 = std::chrono::steady_clock::now();
    pass_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::sort(pass_ns.begin(), pass_ns.end());
  c.ns_per_get = pass_ns[kPasses / 2] / kGets;
  return c;
}

static void Main(const std::string& json_path) {
  PrintHeader("E14: range-delete persistence latency vs D_th",
              "latencies in logical ops; FADE guarantee: max <= D_th "
              "(range-delete histogram, tracked apart from point deletes)");
  std::printf("%-12s %9s %10s %10s %8s %8s %10s\n", "config", "written",
              "persisted", "live", "p50", "p99", "max");

  Result base = Run(0);
  PrintRow(0, base);
  Verify(0, base);

  uint64_t tightest = 0;
  Result tightest_result;
  for (uint64_t dth : {50000, 20000, 10000}) {
    const uint64_t scaled = dth * Scale();
    Result r = Run(scaled);
    PrintRow(scaled, r);
    Verify(scaled, r);
    tightest = scaled;
    tightest_result = r;
  }

  std::printf("\nE14b: coverage cost of a found Get vs live memtable range "
              "tombstones\n(default: the bytewise prefix search a default DB "
              "runs; fallback: the comparator-driven search)\n");
  std::printf("%-12s %12s %12s %10s %13s %12s %11s\n", "tombstones",
              "cmp/get", "get_p50_us", "ns/get", "fallback_cmp", "fallback_us",
              "fallback_ns");
  // Tombstone counts and the JSON key suffix each is reported under.
  const std::pair<uint64_t, const char*> kSweep[] = {
      {0, "0"}, {1000, "1k"}, {4000, "4k"}, {16000, "16k"}};
  std::vector<CoverageCost> sweep, fallback;
  for (const auto& step : kSweep) {
    sweep.push_back(
        MeasureCoverage(step.first, BytewiseComparator()->Name()));
    fallback.push_back(
        MeasureCoverage(step.first, "bench.CountingComparator"));
    std::printf("%-12llu %12.1f %12.2f %10.0f %13.1f %12.2f %11.0f\n",
                static_cast<unsigned long long>(step.first),
                sweep.back().cmp_per_get, sweep.back().get_p50_us,
                sweep.back().ns_per_get, fallback.back().cmp_per_get,
                fallback.back().get_p50_us, fallback.back().ns_per_get);
  }

  if (!json_path.empty()) {
    std::string extra;
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "\"dth\":%llu,\"range_deletes_written\":%llu,"
        "\"range_deletes_persisted\":%llu,"
        "\"range_persistence_latency_max\":%.0f",
        static_cast<unsigned long long>(tightest),
        static_cast<unsigned long long>(tightest_result.ds.range_deletes_written),
        static_cast<unsigned long long>(
            tightest_result.ds.range_deletes_persisted),
        tightest_result.ds.range_persistence_latency_max);
    extra = buf;
    for (size_t i = 0; i < sweep.size(); i++) {
      const char* tag = kSweep[i].second;
      std::snprintf(buf, sizeof(buf),
                    ",\"cover_cmp_per_get_%s\":%.1f,"
                    "\"cover_get_p50_us_%s\":%.2f,"
                    "\"cover_ns_per_get_%s\":%.0f,"
                    "\"cover_fallback_cmp_per_get_%s\":%.1f",
                    tag, sweep[i].cmp_per_get, tag, sweep[i].get_p50_us, tag,
                    sweep[i].ns_per_get, tag, fallback[i].cmp_per_get);
      extra += buf;
    }
    WriteJsonResult(json_path, "range_delete", /*threads=*/1,
                    tightest_result.ops, tightest_result.ops_per_sec,
                    tightest_result.op_latency, tightest_result.stats, extra);
  }
}

}  // namespace bench
}  // namespace acheron

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  acheron::bench::Main(json_path);
}
