// E5 -- Point lookup throughput vs delete fraction: purged tombstones mean
// fewer runs to probe and fewer wasted comparisons, so FADE reads faster on
// delete-heavy data (Lethe reports 1.17-1.4x).
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

namespace acheron {
namespace bench {

// Timed lookup passes per cell. A single pass swung baseline throughput
// between 410k and 960k op/s across runs of one binary; the median of
// passes alternated between the baseline and FADE databases is the cell.
constexpr int kPasses = 7;

static workload::WorkloadSpec Spec(int delete_percent) {
  workload::WorkloadSpec spec;
  spec.num_ops = 100000 * Scale();
  spec.key_space = 10000;
  spec.value_size = 64;
  spec.update_percent = 20;
  spec.delete_percent = delete_percent;
  spec.seed = 17;
  return spec;
}

static std::unique_ptr<BenchDB> Load(uint64_t dth, int delete_percent) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  auto db = std::make_unique<BenchDB>(options);
  workload::Generator gen(Spec(delete_percent));
  WriteOptions wo;
  for (uint64_t i = 0; i < Spec(delete_percent).num_ops; i++) {
    workload::Op op = gen.Next();
    if (op.type == workload::OpType::kDelete) {
      CheckOk((*db)->Delete(wo, op.key));
    } else {
      CheckOk((*db)->Put(wo, op.key, op.value));
    }
  }
  CheckOk((*db)->WaitForCompactions());
  return db;
}

// One timed pass: uniform point lookups over the key space (a mix of live,
// deleted, and never-written keys). Returns lookups per second.
static double Pass(BenchDB* db, int delete_percent, uint64_t seed) {
  const workload::Generator gen(Spec(delete_percent));
  const uint64_t lookups = 100000 * Scale();
  Random rnd(seed);
  ReadOptions ro;
  std::string value;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < lookups; i++) {
    // NotFound is an expected outcome here.
    (void)(*db)->Get(ro, gen.KeyAt(rnd.Uniform(10000)), &value);
  }
  auto end = std::chrono::steady_clock::now();
  return lookups / std::chrono::duration<double>(end - start).count();
}

static double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

static void Main() {
  PrintHeader("E5: point lookup throughput vs delete fraction",
              "expected shape: FADE >= baseline, gap widens with deletes "
              "(op/s: median of 7 alternating passes)");
  std::printf("%-10s %14s %14s %10s\n", "deletes", "baseline(op/s)",
              "FADE(op/s)", "speedup");
  for (int delete_percent : {2, 10, 25, 40}) {
    std::unique_ptr<BenchDB> base = Load(0, delete_percent);
    std::unique_ptr<BenchDB> fade = Load(20000 * Scale(), delete_percent);
    std::vector<double> base_passes, fade_passes;
    for (int pass = 0; pass < kPasses; pass++) {
      // Both databases probe the same keys in each pass.
      base_passes.push_back(Pass(base.get(), delete_percent, 99 + pass));
      fade_passes.push_back(Pass(fade.get(), delete_percent, 99 + pass));
    }
    const double b = Median(base_passes), f = Median(fade_passes);
    std::printf("%9d%% %14.0f %14.0f %9.2fx\n", delete_percent, b, f, f / b);
  }
}

}  // namespace bench
}  // namespace acheron

int main() { acheron::bench::Main(); }
