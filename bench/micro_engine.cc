// M5 -- Whole-engine microbenchmarks: Put/Get/scan through the public API
// (in-memory env; measures CPU cost of the full write/read paths).
//
// Two modes:
//   * default: the registered google-benchmark suite below
//       ./micro_engine [--benchmark_filter=...]
//   * multi-threaded engine runs (bypass google-benchmark; measure one
//     N-thread run end to end):
//       ./micro_engine --threads=4 [--mode=fillrandom|readrandom|
//                      readwhilewriting|multiget] [--ops=N] [--value-size=N]
//                      [--sync=0|1] [--db=DIR]
//                      [--json=PATH] [--range-delete-fill=P]
//     fillrandom: N writer threads (group-commit/stall counters).
//     readrandom: N reader threads over a preloaded tree; exercises the
//       lock-free ReadState path (one writer-free Get never touches the DB
//       mutex, so throughput scales with reader threads).
//     readwhilewriting: same readers plus one un-counted writer thread
//       churning the keyspace, so reads race memtable swaps and version
//       installs.
//     multiget: DB::MultiGet batch-size sweep (1/8/64) against a tiny block
//       cache plus a sequential-Get baseline; MultiGet is Get per key under
//       one pinned read state, so this measures what a batch saves over
//       separate calls.
//     --db=DIR uses the real filesystem (fsync + mmap-read costs included)
//     instead of the in-memory env; with --sync=1 each *write group* costs
//     one fsync, which is the configuration where group commit pays off.
#include <benchmark/benchmark.h>
#if defined(__linux__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/table/cache.h"

namespace acheron {
namespace bench {

static void BM_DbPut(benchmark::State& state) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = static_cast<uint64_t>(state.range(0));
  BenchDB db(options);
  Random rnd(1);
  std::string value(64, 'v');
  WriteOptions wo;
  for (auto _ : state) {
    CheckOk(db->Put(wo, "key" + std::to_string(rnd.Uniform(100000)), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbPut)->Arg(0)->Arg(100000);

static void BM_DbGet(benchmark::State& state) {
  BenchDB db(BenchOptions());
  WriteOptions wo;
  const int n = 50000;
  for (int i = 0; i < n; i++) {
    CheckOk(db->Put(wo, "key" + std::to_string(i), std::string(64, 'v')));
  }
  CheckOk(db->WaitForCompactions());
  Random rnd(2);
  ReadOptions ro;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Get(ro, "key" + std::to_string(rnd.Uniform(n)), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGet);

static void BM_DbGetMissing(benchmark::State& state) {
  BenchDB db(BenchOptions());
  WriteOptions wo;
  for (int i = 0; i < 50000; i++) {
    CheckOk(db->Put(wo, "key" + std::to_string(i), std::string(64, 'v')));
  }
  CheckOk(db->WaitForCompactions());
  Random rnd(2);
  ReadOptions ro;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Get(ro, "absent" + std::to_string(rnd.Next()), &value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGetMissing);

static void BM_DbScan100(benchmark::State& state) {
  BenchDB db(BenchOptions());
  WriteOptions wo;
  workload::WorkloadSpec spec;
  workload::Generator gen(spec);
  const int n = 50000;
  for (int i = 0; i < n; i++) {
    CheckOk(db->Put(wo, gen.KeyAt(i), std::string(64, 'v')));
  }
  CheckOk(db->WaitForCompactions());
  Random rnd(3);
  ReadOptions ro;
  for (auto _ : state) {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    int count = 0;
    for (it->Seek(gen.KeyAt(rnd.Uniform(n))); it->Valid() && count < 100;
         it->Next()) {
      count++;
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DbScan100);

static void BM_DbDelete(benchmark::State& state) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = static_cast<uint64_t>(state.range(0));
  BenchDB db(options);
  WriteOptions wo;
  Random rnd(4);
  uint64_t i = 0;
  for (auto _ : state) {
    if ((i & 1) == 0) {
      CheckOk(db->Put(wo, "key" + std::to_string(rnd.Uniform(50000)),
              std::string(64, 'v')));
    } else {
      CheckOk(db->Delete(wo, "key" + std::to_string(rnd.Uniform(50000))));
    }
    i++;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbDelete)->Arg(0)->Arg(100000);

// --------------------------------------------------------------------------
// fillrandom --threads mode (bypasses google-benchmark: it measures one
// multi-threaded run end to end rather than iterating a single op).
// --------------------------------------------------------------------------

struct FillRandomConfig {
  int threads = 0;           // 0 = mode not requested
  std::string mode = "fillrandom";
  uint64_t ops = 200000;     // total across all threads
  int value_size = 100;
  bool sync = false;         // WriteOptions::sync (one fsync per group)
  int range_delete_fill = 0;  // % of keyspace covered by DeleteRange spans
  std::string db_dir;        // empty = in-memory env
  std::string json_path;     // empty = stdout only
};

static int RunFillRandom(const FillRandomConfig& cfg) {
  Options options = BenchOptions();
  options.disable_wal = false;  // group commit batches WAL appends/fsyncs
  std::unique_ptr<Env> mem_env;
  std::string db_path = "/bench";
  if (cfg.db_dir.empty()) {
    mem_env.reset(NewMemEnv());
    options.env = mem_env.get();
  } else {
    options.env = DefaultEnv();
    db_path = cfg.db_dir;
    CheckOk(DestroyDB(db_path, options));  // fresh tree, comparable runs
  }

  DB* raw = nullptr;
  CheckOk(DB::Open(options, db_path, &raw));
  std::unique_ptr<DB> db(raw);

  const uint64_t per_thread = cfg.ops / cfg.threads;
  const uint64_t total_ops = per_thread * cfg.threads;
  std::vector<Histogram> latencies(cfg.threads);
  std::vector<std::thread> writers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.threads; t++) {
    writers.emplace_back([&, t] {
      Random rnd(1000 + t);
      std::string value(cfg.value_size, 'v');
      WriteOptions wo;
      wo.sync = cfg.sync;
      char key[32];
      for (uint64_t i = 0; i < per_thread; i++) {
        std::snprintf(key, sizeof(key), "key%010llu",
                      static_cast<unsigned long long>(rnd.Uniform(1000000)));
        const auto op_start = std::chrono::steady_clock::now();
        CheckOk(db->Put(wo, key, value));
        latencies[t].Add(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - op_start)
                             .count());
      }
    });
  }
  for (auto& w : writers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  CheckOk(db->WaitForCompactions());

  Histogram latency;
  for (const auto& h : latencies) latency.Merge(h);
  const double ops_per_sec = secs > 0 ? total_ops / secs : 0;
  const InternalStats stats = db->GetStats();

  std::printf(
      "fillrandom: threads=%d ops=%llu sync=%d env=%s\n"
      "  %.0f ops/s   p50=%.1fus p99=%.1fus max=%.1fus\n"
      "  wal_syncs=%llu group_commits=%llu writes_grouped=%llu "
      "memtable_swaps=%llu bg_jobs=%llu stall_micros=%llu\n",
      cfg.threads, static_cast<unsigned long long>(total_ops),
      cfg.sync ? 1 : 0,
      cfg.db_dir.empty() ? "mem" : cfg.db_dir.c_str(), ops_per_sec,
      latency.Percentile(50.0), latency.Percentile(99.0), latency.Max(),
      static_cast<unsigned long long>(stats.wal_syncs),
      static_cast<unsigned long long>(stats.group_commits),
      static_cast<unsigned long long>(stats.writes_grouped),
      static_cast<unsigned long long>(stats.memtable_swaps),
      static_cast<unsigned long long>(stats.background_jobs_scheduled),
      static_cast<unsigned long long>(stats.stall_micros));
  PrintEngineStats(db.get());
  if (!cfg.json_path.empty()) {
    WriteJsonResult(cfg.json_path, "fillrandom", cfg.threads, total_ops,
                    ops_per_sec, latency, stats);
  }

  db.reset();
  if (!cfg.db_dir.empty()) CheckOk(DestroyDB(db_path, options));
  return 0;
}

// readrandom / readwhilewriting: N reader threads doing point lookups over
// a preloaded tree; readwhilewriting adds one un-counted writer churning
// the same keyspace so reads race memtable swaps and version installs.
static int RunReadBench(const FillRandomConfig& cfg) {
  const bool with_writer = (cfg.mode == "readwhilewriting");
  constexpr uint64_t kKeySpace = 100000;

  Options options = BenchOptions();
  options.disable_wal = false;
  std::unique_ptr<Env> mem_env;
  std::string db_path = "/bench";
  if (cfg.db_dir.empty()) {
    mem_env.reset(NewMemEnv());
    options.env = mem_env.get();
  } else {
    options.env = DefaultEnv();
    db_path = cfg.db_dir;
    CheckOk(DestroyDB(db_path, options));  // fresh tree, comparable runs
  }

  DB* raw = nullptr;
  CheckOk(DB::Open(options, db_path, &raw));
  std::unique_ptr<DB> db(raw);

  // Preload every key so readrandom is all-hits against a settled tree.
  {
    Random rnd(99);
    std::string value(cfg.value_size, 'v');
    char key[32];
    for (uint64_t i = 0; i < kKeySpace; i++) {
      std::snprintf(key, sizeof(key), "key%010llu",
                    static_cast<unsigned long long>(i));
      CheckOk(db->Put(WriteOptions(), key, value));
    }
    CheckOk(db->WaitForCompactions());
  }

  // Optional range-delete fill: cover --range-delete-fill percent of the
  // keyspace with 100-key DeleteRange spans at a regular stride, then have
  // the readers VERIFY every lookup -- keys inside a span must come back
  // NotFound, everything else must hit. This exercises suppression across
  // the whole read stack (memtable, fragmented SST blocks, compacted tree).
  const uint64_t kSpan = 100;
  uint64_t del_stride = 0;
  if (cfg.range_delete_fill > 0) {
    const int pct = std::min(cfg.range_delete_fill, 100);
    del_stride = std::max<uint64_t>(kSpan, kSpan * 100 / pct);
    char b[32], e[32];
    for (uint64_t s = 0; s + kSpan <= kKeySpace; s += del_stride) {
      std::snprintf(b, sizeof(b), "key%010llu",
                    static_cast<unsigned long long>(s));
      std::snprintf(e, sizeof(e), "key%010llu",
                    static_cast<unsigned long long>(s + kSpan));
      CheckOk(db->DeleteRange(WriteOptions(), b, e));
    }
    CheckOk(db->WaitForCompactions());
  }
  // The churning writer re-inserts deleted keys, so only the pure-reader
  // mode can assert exact expectations.
  const bool verify_deletes = del_stride != 0 && !with_writer;
  std::atomic<uint64_t> verify_failures{0};

  const uint64_t per_thread = cfg.ops / cfg.threads;
  const uint64_t total_ops = per_thread * cfg.threads;
  std::vector<Histogram> latencies(cfg.threads);
  std::atomic<int> readers_done{0};
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.threads; t++) {
    threads.emplace_back([&, t] {
      Random rnd(2000 + t);
      ReadOptions ro;
      std::string value;
      char key[32];
      for (uint64_t i = 0; i < per_thread; i++) {
        const uint64_t idx = rnd.Uniform(kKeySpace);
        std::snprintf(key, sizeof(key), "key%010llu",
                      static_cast<unsigned long long>(idx));
        const auto op_start = std::chrono::steady_clock::now();
        Status s = db->Get(ro, key, &value);
        if (!s.ok() && !s.IsNotFound()) CheckOk(s);
        latencies[t].Add(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - op_start)
                             .count());
        if (verify_deletes) {
          const bool deleted = (idx % del_stride) < kSpan;
          if (deleted ? !s.IsNotFound() : !s.ok()) {
            verify_failures.fetch_add(1);
          }
        }
      }
      readers_done.fetch_add(1);
    });
  }
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      Random rnd(77);
      std::string value(cfg.value_size, 'w');
      char key[32];
      while (readers_done.load() < cfg.threads) {
        std::snprintf(key, sizeof(key), "key%010llu",
                      static_cast<unsigned long long>(rnd.Uniform(kKeySpace)));
        CheckOk(db->Put(WriteOptions(), key, value));
      }
    });
  }
  for (auto& th : threads) th.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (writer.joinable()) writer.join();
  CheckOk(db->WaitForCompactions());

  Histogram latency;
  for (const auto& h : latencies) latency.Merge(h);
  const double ops_per_sec = secs > 0 ? total_ops / secs : 0;
  const InternalStats stats = db->GetStats();

  std::printf(
      "%s: threads=%d ops=%llu env=%s\n"
      "  %.0f ops/s   p50=%.1fus p99=%.1fus max=%.1fus\n"
      "  gets=%llu found=%llu bloom_useful=%llu memtable_swaps=%llu\n",
      cfg.mode.c_str(), cfg.threads,
      static_cast<unsigned long long>(total_ops),
      cfg.db_dir.empty() ? "mem" : cfg.db_dir.c_str(), ops_per_sec,
      latency.Percentile(50.0), latency.Percentile(99.0), latency.Max(),
      static_cast<unsigned long long>(stats.gets),
      static_cast<unsigned long long>(stats.gets_found),
      static_cast<unsigned long long>(stats.bloom_useful),
      static_cast<unsigned long long>(stats.memtable_swaps));
  if (verify_deletes) {
    const uint64_t failures = verify_failures.load();
    std::printf("  range-delete verification: %s (%llu mismatches)\n",
                failures == 0 ? "PASS" : "FAIL",
                static_cast<unsigned long long>(failures));
    if (failures != 0) {
      std::fprintf(stderr, "readrandom: range-delete suppression broken\n");
      std::abort();
    }
  }
  PrintEngineStats(db.get());
  if (!cfg.json_path.empty()) {
    WriteJsonResult(cfg.json_path, cfg.mode, cfg.threads, total_ops,
                    ops_per_sec, latency, stats);
  }

  db.reset();
  if (!cfg.db_dir.empty()) CheckOk(DestroyDB(db_path, options));
  return 0;
}

// Drops the OS page cache for every file under |dir| so a timed pass
// measures device reads instead of page-cache hits (fio's invalidate=1).
// Quietly a no-op where posix_fadvise is unavailable; only effective for
// files read via pread (mmap'd pages stay resident), which is why the
// multiget bench opens its env with the mmap budget set to zero.
static void EvictPageCache(Env* env, const std::string& dir) {
#if defined(__linux__)
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return;
  for (const std::string& c : children) {
    const std::string path = dir + "/" + c;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);  // fadvise only evicts clean pages
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
#else
  (void)env;
  (void)dir;
#endif
}

// multiget: point lookups in batches through DB::MultiGet over a preloaded
// 100k keyspace, swept over batch sizes 1/8/64, plus a sequential-Get
// baseline over the same number of keys. A deliberately tiny block cache
// (64KB against ~10MB of table data) forces nearly every lookup to a block
// read, and in --db mode the page cache is evicted before every timed pass
// (mmap disabled so reads are preads). MultiGet resolves its keys one
// after another like Get, so the sweep measures the per-call savings (one
// read-state pin and one sequence load per batch) against sequential Gets.
// Each leg's keys/second is the median of kPasses passes, the legs
// alternating within each pass, since one pass swings with the machine.
// JSON is emitted for the batch-64 leg with two extra fields: "batch" and
// "speedup_vs_sequential".
static int RunMultiGet(const FillRandomConfig& cfg) {
  constexpr uint64_t kKeySpace = 100000;
  static constexpr size_t kLegs[] = {0, 1, 8, 64};  // 0: sequential Gets
  static constexpr size_t kMaxBatch = 64;
  constexpr int kPasses = 5;

  Options options = BenchOptions();
  options.disable_wal = false;
  std::unique_ptr<Cache> small_cache(NewLRUCache(64 << 10));
  options.block_cache = small_cache.get();
  std::unique_ptr<Env> owned_env;
  std::string db_path = "/bench";
  if (cfg.db_dir.empty()) {
    owned_env.reset(NewMemEnv());
    options.env = owned_env.get();
  } else {
    // Private posix env with mmap disabled: table reads are preads, so
    // EvictPageCache below actually makes the timed passes cold.
    owned_env.reset(NewPosixEnv(/*unbuffered_writes=*/false,
                                /*mmap_budget=*/0));
    options.env = owned_env.get();
    db_path = cfg.db_dir;
    CheckOk(DestroyDB(db_path, options));  // fresh tree, comparable runs
  }

  DB* raw = nullptr;
  CheckOk(DB::Open(options, db_path, &raw));
  std::unique_ptr<DB> db(raw);

  // Preload every key so the lookups are all-hits against a settled tree.
  {
    Random rnd(99);
    std::string value(cfg.value_size, 'v');
    char key[32];
    for (uint64_t i = 0; i < kKeySpace; i++) {
      std::snprintf(key, sizeof(key), "key%010llu",
                    static_cast<unsigned long long>(i));
      CheckOk(db->Put(WriteOptions(), key, value));
    }
    CheckOk(db->WaitForCompactions());
  }

  // One pass over |ops| random keys: batch == 0 is the sequential-Get
  // baseline, otherwise MultiGet in groups of |batch|. In --db mode the
  // pass runs in rounds with an UNTIMED page-cache eviction between them
  // (a round is short relative to the block population, so most block
  // reads in a round are genuinely cold); only the in-round time counts
  // toward the reported keys/second. Per-call latencies land in |latency|.
  const uint64_t total_ops = cfg.ops < kMaxBatch ? kMaxBatch : cfg.ops;
  const uint64_t round_ops =
      cfg.db_dir.empty() ? total_ops : std::min<uint64_t>(total_ops, 1000);
  auto run_pass = [&](size_t batch, int pass, Histogram* latency) -> double {
    Random rnd(2000 + static_cast<int>(batch) + 100 * pass);
    ReadOptions ro;
    char key[32];
    double secs = 0;
    std::string value;
    std::vector<std::string> key_bufs(batch ? batch : 1);
    std::vector<Slice> keys(batch ? batch : 1);
    std::vector<std::string> values;
    for (uint64_t done = 0; done < total_ops; done += round_ops) {
      if (!cfg.db_dir.empty()) EvictPageCache(options.env, db_path);
      const uint64_t this_round = std::min(round_ops, total_ops - done);
      const auto start = std::chrono::steady_clock::now();
      if (batch == 0) {
        for (uint64_t i = 0; i < this_round; i++) {
          std::snprintf(key, sizeof(key), "key%010llu",
                        static_cast<unsigned long long>(
                            rnd.Uniform(kKeySpace)));
          const auto op_start = std::chrono::steady_clock::now();
          Status s = db->Get(ro, key, &value);
          if (!s.ok() && !s.IsNotFound()) CheckOk(s);
          latency->Add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - op_start)
                           .count());
        }
      } else {
        for (uint64_t i = 0; i < this_round; i += batch) {
          const size_t n = static_cast<size_t>(
              std::min<uint64_t>(batch, this_round - i));
          for (size_t k = 0; k < n; k++) {
            std::snprintf(key, sizeof(key), "key%010llu",
                          static_cast<unsigned long long>(
                              rnd.Uniform(kKeySpace)));
            key_bufs[k] = key;
            keys[k] = key_bufs[k];
          }
          const auto op_start = std::chrono::steady_clock::now();
          std::vector<Status> statuses = db->MultiGet(
              ro, std::span<const Slice>(keys.data(), n), &values);
          for (const Status& s : statuses) {
            if (!s.ok() && !s.IsNotFound()) CheckOk(s);
          }
          latency->Add(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - op_start)
                           .count());
        }
      }
      secs += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
    }
    return secs > 0 ? total_ops / secs : 0;
  };

  constexpr size_t kNumLegs = std::size(kLegs);
  std::vector<double> passes[kNumLegs];
  Histogram latency[kNumLegs];  // every pass's calls
  for (int pass = 0; pass < kPasses; pass++) {
    for (size_t leg = 0; leg < kNumLegs; leg++) {
      passes[leg].push_back(run_pass(kLegs[leg], pass, &latency[leg]));
    }
  }
  double median[kNumLegs];
  for (size_t leg = 0; leg < kNumLegs; leg++) {
    std::sort(passes[leg].begin(), passes[leg].end());
    median[leg] = passes[leg][kPasses / 2];
  }
  const double seq_ops_per_sec = median[0];
  const double batch64_ops_per_sec = median[kNumLegs - 1];
  const Histogram& batch64_latency = latency[kNumLegs - 1];
  std::printf("multiget: threads=%d ops=%llu env=%s (keys/s: median of %d "
              "passes)\n",
              cfg.threads, static_cast<unsigned long long>(total_ops),
              cfg.db_dir.empty() ? "mem" : cfg.db_dir.c_str(), kPasses);
  std::printf("  sequential-get baseline: %.0f keys/s (p99=%.1fus)\n",
              seq_ops_per_sec, latency[0].Percentile(99.0));
  for (size_t leg = 1; leg < kNumLegs; leg++) {
    std::printf("  batch=%-3zu %.0f keys/s (%.2fx sequential, "
                "p99=%.1fus/call)\n",
                kLegs[leg], median[leg],
                seq_ops_per_sec > 0 ? median[leg] / seq_ops_per_sec : 0,
                latency[leg].Percentile(99.0));
  }
  const InternalStats stats = db->GetStats();
  PrintEngineStats(db.get());
  if (!cfg.json_path.empty()) {
    char extra[96];
    std::snprintf(extra, sizeof(extra),
                  "\"batch\":%zu,\"speedup_vs_sequential\":%.2f", kMaxBatch,
                  seq_ops_per_sec > 0 ? batch64_ops_per_sec / seq_ops_per_sec
                                      : 0.0);
    WriteJsonResult(cfg.json_path, "multiget", cfg.threads, total_ops,
                    batch64_ops_per_sec, batch64_latency, stats, extra);
  }

  db.reset();
  if (!cfg.db_dir.empty()) CheckOk(DestroyDB(db_path, options));
  return 0;
}

static bool ParseFlag(const char* arg, const char* name, const char** value) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

}  // namespace bench
}  // namespace acheron

int main(int argc, char** argv) {
  acheron::bench::FillRandomConfig cfg;
  const char* v;
  for (int i = 1; i < argc; i++) {
    if (acheron::bench::ParseFlag(argv[i], "--threads", &v)) {
      cfg.threads = std::atoi(v);
    } else if (acheron::bench::ParseFlag(argv[i], "--mode", &v)) {
      cfg.mode = v;
      if (cfg.threads == 0) cfg.threads = 1;
    } else if (acheron::bench::ParseFlag(argv[i], "--ops", &v)) {
      cfg.ops = std::strtoull(v, nullptr, 10);
    } else if (acheron::bench::ParseFlag(argv[i], "--value-size", &v)) {
      cfg.value_size = std::atoi(v);
    } else if (acheron::bench::ParseFlag(argv[i], "--sync", &v)) {
      cfg.sync = std::atoi(v) != 0;
    } else if (acheron::bench::ParseFlag(argv[i], "--range-delete-fill", &v)) {
      cfg.range_delete_fill = std::atoi(v);
    } else if (acheron::bench::ParseFlag(argv[i], "--db", &v)) {
      cfg.db_dir = v;
    } else if (acheron::bench::ParseFlag(argv[i], "--json", &v)) {
      cfg.json_path = v;
    }
  }
  if (cfg.threads > 0) {
    if (cfg.ops < static_cast<uint64_t>(cfg.threads)) cfg.ops = cfg.threads;
    if (cfg.mode == "fillrandom") {
      return acheron::bench::RunFillRandom(cfg);
    }
    if (cfg.mode == "readrandom" || cfg.mode == "readwhilewriting") {
      return acheron::bench::RunReadBench(cfg);
    }
    if (cfg.mode == "multiget") {
      return acheron::bench::RunMultiGet(cfg);
    }
    std::fprintf(stderr, "unknown --mode=%s\n", cfg.mode.c_str());
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
