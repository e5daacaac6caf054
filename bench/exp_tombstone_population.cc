// E1 -- Live tombstone population over time (the demo's headline plot):
// a vanilla LSM accumulates tombstones with no bound in sight, while FADE
// keeps the population (and the age of the oldest tombstone) bounded.
#include "bench/bench_common.h"

namespace acheron {
namespace bench {

static void Run(uint64_t dth, const char* label) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  BenchDB db(options);

  workload::WorkloadSpec spec;
  spec.num_ops = 200000 * Scale();
  spec.key_space = 20000;
  spec.value_size = 64;
  spec.update_percent = 30;
  spec.delete_percent = 25;
  spec.seed = 7;

  workload::Generator gen(spec);
  WriteOptions wo;
  const uint64_t checkpoint = spec.num_ops / 10;
  std::printf("%-10s", label);
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    workload::Op op = gen.Next();
    if (op.type == workload::OpType::kDelete) {
      CheckOk(db->Delete(wo, op.key));
    } else {
      CheckOk(db->Put(wo, op.key, op.value));
    }
    if ((i + 1) % checkpoint == 0) {
      // Sample a quiescent tree: with a round still in flight the count
      // would depend on when its thread ran.
      CheckOk(db->WaitForCompactions());
      std::printf(" %8llu",
                  static_cast<unsigned long long>(
                      db.PropertyU64("acheron.total-tombstones")));
    }
  }
  std::printf("   | max live age: %llu ops\n",
              static_cast<unsigned long long>(
                  db.PropertyU64("acheron.max-tombstone-age")));
}

static void Main() {
  PrintHeader("E1: live tombstones over time",
              "columns = tombstone count at each 10% of the run; rows = "
              "engine configuration");
  std::printf("%-10s", "config");
  for (int i = 1; i <= 10; i++) std::printf("   %5d%%", i * 10);
  std::printf("\n");
  Run(0, "baseline");
  Run(100000 * Scale(), "Dth=100k");
  Run(20000 * Scale(), "Dth=20k");
}

}  // namespace bench
}  // namespace acheron

int main() { acheron::bench::Main(); }
