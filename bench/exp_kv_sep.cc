// E15 -- Key-value separation vs value size: routing large values through
// the FADE-clocked value log keeps compaction rewriting keys+pointers
// instead of value bytes, so write amplification should collapse as values
// grow while point-read cost stays flat. Two tables:
//
//   Table 1 sweeps value size {128 B, 1 KiB, 4 KiB, 16 KiB} x {separation
//   off, on} over an overwrite-heavy fill and reports write amplification
//   (vLog appends included), fill throughput, and readrandom throughput.
//   Acceptance (abort on failure): >=5x write-amp reduction at 4 KiB and
//   >=2x at 128 B, where vLog GC's table rewrites weigh most.
//
//   Table 2 sweeps D_th with separation on over a delete-heavy fill and
//   reports the journaled value-purge latency histogram: key-purge seq ->
//   value-purge seq, in logical ops. Acceptance: the histogram is non-empty
//   and its max respects D_th -- delete-compliant GC, not just space GC.
//
// The readrandom comparison at 128 B (every value a vLog pointer, worst
// relative dereference cost) is printed as a ratio; it is a throughput
// measurement, so the abort threshold is deliberately loose (>= 2/3 of the
// separation-off baseline) to stay robust on shared CI runners.
//
// With --json=PATH, appends one schema-gated record (bench="kv_sep", extra
// keys registered in tools/check_bench_json.py) for the 4 KiB pair plus
// the tightest D_th purge run.
#include <random>

#include "bench/bench_common.h"

namespace acheron {
namespace bench {

// Granularity slack on the D_th bound, mirroring the crash harness: the
// deadline check runs at write granularity and the GC-hosting write lands
// after it.
constexpr uint64_t kDthSlack = 2;

// Every value size in the sweep is >= this, so separation-on rows route all
// values through the vLog.
constexpr size_t kSepThreshold = 128;

struct Result {
  InternalStats stats;
  DeleteStats ds;
  Histogram op_latency;  // per-op wall latency in microseconds, fill phase
  uint64_t ops = 0;
  double fill_ops_per_sec = 0;
  double read_ops_per_sec = 0;
};

static std::string KeyAt(uint64_t idx) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%012llu",
                static_cast<unsigned long long>(idx));
  return std::string(buf);
}

static Options SweepOptions(bool separate, uint64_t dth) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  if (separate) {
    options.value_separation_threshold = kSepThreshold;
    options.vlog_segment_size = 256 << 10;  // several rotations per run
  }
  return options;
}

// Overwrite-heavy fill (~4x churn per key) followed by a readrandom pass.
// |delete_percent| > 0 adds point deletes so the FADE value-purge path runs.
static Result Run(size_t value_size, bool separate, uint64_t dth,
                  uint64_t num_ops, int delete_percent) {
  BenchDB db(SweepOptions(separate, dth));
  const uint64_t key_space = num_ops / 4 < 64 ? 64 : num_ops / 4;
  std::mt19937 rng(static_cast<uint32_t>(0xe15 + value_size + separate));
  const std::string value(value_size, 'v');
  WriteOptions wo;
  Result r;
  r.ops = num_ops;

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < num_ops; i++) {
    const std::string key = KeyAt(rng() % key_space);
    auto t0 = std::chrono::steady_clock::now();
    if (delete_percent > 0 &&
        rng() % 100 < static_cast<uint32_t>(delete_percent)) {
      CheckOk(db->Delete(wo, key));
    } else {
      CheckOk(db->Put(wo, key, value));
    }
    auto t1 = std::chrono::steady_clock::now();
    r.op_latency.Add(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  CheckOk(db->WaitForCompactions());
  auto end = std::chrono::steady_clock::now();
  double secs = std::chrono::duration<double>(end - start).count();
  r.fill_ops_per_sec = secs > 0 ? static_cast<double>(num_ops) / secs : 0;

  // Readrandom over the key space (NotFound for deleted keys is expected).
  const uint64_t reads = num_ops;
  ReadOptions ro;
  std::string v;
  start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < reads; i++) {
    (void)db->Get(ro, KeyAt(rng() % key_space), &v);
  }
  end = std::chrono::steady_clock::now();
  secs = std::chrono::duration<double>(end - start).count();
  r.read_ops_per_sec = secs > 0 ? static_cast<double>(reads) / secs : 0;

  r.stats = db->GetStats();
  r.ds = db->GetDeleteStats();
  return r;
}

// Table 1 op counts: roughly constant user-byte volume across value sizes,
// floored so the 16 KiB row still sees multi-level compaction.
static uint64_t SweepOps(size_t value_size) {
  uint64_t ops = (24ull << 20) / value_size;
  if (ops < 1500) ops = 1500;
  return ops * Scale();
}

static void VerifySweep(size_t value_size, const Result& off,
                        const Result& on) {
  if (on.stats.vlog_values_written == 0 || on.stats.vlog_bytes_written == 0) {
    std::fprintf(stderr,
                 "E15: separation on at %zu B routed no values through the "
                 "vLog\n",
                 value_size);
    std::abort();
  }
  if (off.stats.vlog_values_written != 0) {
    std::fprintf(stderr,
                 "E15: separation off at %zu B wrote to the vLog\n",
                 value_size);
    std::abort();
  }
  const double wa_off = off.stats.WriteAmplification();
  const double wa_on = on.stats.WriteAmplification();
  if (value_size >= 4096 && wa_on * 5.0 > wa_off) {
    std::fprintf(stderr,
                 "E15: at %zu B separation cut write amplification only "
                 "%.2fx (off %.2f, on %.2f); acceptance requires >=5x\n",
                 value_size, wa_on > 0 ? wa_off / wa_on : 0.0, wa_off, wa_on);
    std::abort();
  }
  if (value_size == kSepThreshold && wa_on * 2.0 > wa_off) {
    std::fprintf(stderr,
                 "E15: at %zu B separation cut write amplification only "
                 "%.2fx (off %.2f, on %.2f); acceptance requires >=2x\n",
                 value_size, wa_on > 0 ? wa_off / wa_on : 0.0, wa_off, wa_on);
    std::abort();
  }
  if (value_size == kSepThreshold &&
      on.read_ops_per_sec < off.read_ops_per_sec * 2.0 / 3.0) {
    std::fprintf(stderr,
                 "E15: readrandom at %zu B with separation on fell to "
                 "%.0f ops/s vs %.0f off (limit: 2/3 of baseline)\n",
                 value_size, on.read_ops_per_sec, off.read_ops_per_sec);
    std::abort();
  }
}

static void VerifyPurge(uint64_t dth, const Result& r) {
  if (r.stats.vlog_gc_runs == 0) {
    std::fprintf(stderr,
                 "E15: Dth=%llu collected no vLog segment (GC never ran)\n",
                 static_cast<unsigned long long>(dth));
    std::abort();
  }
  if (r.ds.values_purged == 0) {
    std::fprintf(stderr,
                 "E15: Dth=%llu produced an empty value-purge latency "
                 "histogram (no deleted value left the vLog)\n",
                 static_cast<unsigned long long>(dth));
    std::abort();
  }
  if (r.ds.value_purge_latency_max > static_cast<double>(dth + kDthSlack)) {
    std::fprintf(stderr,
                 "E15: Dth=%llu violated: max value-purge latency %.0f "
                 "logical ops\n",
                 static_cast<unsigned long long>(dth),
                 r.ds.value_purge_latency_max);
    std::abort();
  }
}

static void PrintSweepRow(size_t value_size, const Result& off,
                          const Result& on) {
  const double wa_off = off.stats.WriteAmplification();
  const double wa_on = on.stats.WriteAmplification();
  std::printf("%8zu %8.2f %8.2f %7.1fx %9.0f %9.0f %9.0f %9.0f %7.2f\n",
              value_size, wa_off, wa_on, wa_on > 0 ? wa_off / wa_on : 0.0,
              off.fill_ops_per_sec, on.fill_ops_per_sec,
              off.read_ops_per_sec, on.read_ops_per_sec,
              off.read_ops_per_sec > 0
                  ? on.read_ops_per_sec / off.read_ops_per_sec
                  : 0.0);
}

static void PrintPurgeRow(uint64_t dth, const Result& r) {
  std::printf("Dth=%-8llu %9llu %9llu %8.0f %8.0f %8.0f\n",
              static_cast<unsigned long long>(dth),
              static_cast<unsigned long long>(r.ds.values_purged),
              static_cast<unsigned long long>(r.ds.value_purge_backlog),
              r.ds.value_purge_latency_p50, r.ds.value_purge_latency_p99,
              r.ds.value_purge_latency_max);
}

static void Main(const std::string& json_path) {
  PrintHeader("E15: key-value separation vs value size",
              "wa = write amplification (vLog appends included); "
              "read ratio = readrandom on/off");
  std::printf("%8s %8s %8s %8s %9s %9s %9s %9s %7s\n", "value_B", "wa_off",
              "wa_on", "reduce", "fill_off", "fill_on", "read_off", "read_on",
              "ratio");

  Result off_4k, on_4k, off_small, on_small;
  for (size_t value_size : {size_t{128}, size_t{1024}, size_t{4096},
                            size_t{16384}}) {
    const uint64_t ops = SweepOps(value_size);
    // D_th scaled to the run length so FADE GC is active in steady state.
    const uint64_t dth = ops / 2;
    Result off = Run(value_size, false, dth, ops, /*delete_percent=*/0);
    Result on = Run(value_size, true, dth, ops, /*delete_percent=*/0);
    PrintSweepRow(value_size, off, on);
    VerifySweep(value_size, off, on);
    if (value_size == 4096) {
      off_4k = off;
      on_4k = on;
    }
    if (value_size == kSepThreshold) {
      off_small = off;
      on_small = on;
    }
  }

  std::printf("\nvalue-purge latency vs D_th (1 KiB values, separation on, "
              "10%% deletes; logical ops, journaled histogram)\n");
  std::printf("%-12s %9s %9s %8s %8s %8s\n", "config", "purged", "backlog",
              "p50", "p99", "max");
  uint64_t tightest = 0;
  Result tightest_result;
  for (uint64_t dth : {8000, 3000}) {
    const uint64_t scaled = dth * Scale();
    Result r = Run(1024, true, scaled, 24000 * Scale(),
                   /*delete_percent=*/10);
    PrintPurgeRow(scaled, r);
    VerifyPurge(scaled, r);
    tightest = scaled;
    tightest_result = r;
  }

  if (!json_path.empty()) {
    char extra[512];
    std::snprintf(
        extra, sizeof(extra),
        "\"value_size\":4096,"
        "\"write_amplification_baseline\":%.2f,"
        "\"wa_reduction\":%.2f,"
        "\"readrandom_ops_per_sec\":%.1f,"
        "\"readrandom_baseline_ops_per_sec\":%.1f,"
        "\"vlog_bytes_written\":%llu,"
        "\"vlog_values_written\":%llu,"
        "\"vlog_gc_runs\":%llu,"
        "\"vlog_gc_values_relocated\":%llu,"
        "\"dth\":%llu,"
        "\"values_purged\":%llu,"
        "\"value_purge_latency_max\":%.0f",
        off_4k.stats.WriteAmplification(),
        on_4k.stats.WriteAmplification() > 0
            ? off_4k.stats.WriteAmplification() /
                  on_4k.stats.WriteAmplification()
            : 0.0,
        on_small.read_ops_per_sec, off_small.read_ops_per_sec,
        static_cast<unsigned long long>(on_4k.stats.vlog_bytes_written),
        static_cast<unsigned long long>(on_4k.stats.vlog_values_written),
        static_cast<unsigned long long>(tightest_result.stats.vlog_gc_runs),
        static_cast<unsigned long long>(
            tightest_result.stats.vlog_gc_values_relocated),
        static_cast<unsigned long long>(tightest),
        static_cast<unsigned long long>(tightest_result.ds.values_purged),
        tightest_result.ds.value_purge_latency_max);
    WriteJsonResult(json_path, "kv_sep", /*threads=*/1, on_4k.ops,
                    on_4k.fill_ops_per_sec, on_4k.op_latency, on_4k.stats,
                    extra);
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
