// E2 -- Delete persistence latency versus the threshold D_th: FADE keeps
// the maximum observed latency at or below D_th; the baseline's latency is
// workload luck (typically far larger, and unbounded in adversarial cases).
//
// Acceptance (abort on failure): every FADE row persists at least one
// tombstone and its max point-tombstone persistence latency is <= D_th.
#include <cstdlib>

#include "bench/bench_common.h"

namespace acheron {
namespace bench {

static void Run(uint64_t dth) {
  Options options = BenchOptions();
  options.delete_persistence_threshold = dth;
  BenchDB db(options);

  workload::WorkloadSpec spec;
  spec.num_ops = 150000 * Scale();
  spec.key_space = 15000;
  spec.update_percent = 30;
  spec.delete_percent = 25;
  spec.seed = 11;

  workload::Generator gen(spec);
  WriteOptions wo;
  for (uint64_t i = 0; i < spec.num_ops; i++) {
    workload::Op op = gen.Next();
    if (op.type == workload::OpType::kDelete) {
      CheckOk(db->Delete(wo, op.key));
    } else {
      CheckOk(db->Put(wo, op.key, op.value));
    }
  }
  CheckOk(db->WaitForCompactions());
  DeleteStats ds = db->GetDeleteStats();
  char label[32];
  if (dth == 0) {
    std::snprintf(label, sizeof(label), "baseline");
  } else {
    std::snprintf(label, sizeof(label), "Dth=%llu",
                  static_cast<unsigned long long>(dth));
  }
  std::printf("%-12s %10llu %10llu %10.0f %10.0f %10.0f %12.0f\n", label,
              static_cast<unsigned long long>(ds.tombstones_written),
              static_cast<unsigned long long>(ds.tombstones_persisted),
              ds.persistence_latency_p50, ds.persistence_latency_p99,
              ds.persistence_latency_max,
              static_cast<double>(ds.oldest_live_tombstone_age));
  if (dth == 0) return;  // baseline row: no bound to enforce
  if (ds.tombstones_persisted == 0 ||
      ds.persistence_latency_max > static_cast<double>(dth)) {
    std::fflush(stdout);  // keep the rows printed so far
    std::fprintf(stderr,
                 "E2: Dth=%llu violated: %llu tombstones persisted, max "
                 "persistence latency %.0f logical ops\n",
                 static_cast<unsigned long long>(dth),
                 static_cast<unsigned long long>(ds.tombstones_persisted),
                 ds.persistence_latency_max);
    std::abort();
  }
}

static void Main() {
  PrintHeader("E2: delete persistence latency vs D_th",
              "latencies in logical ops; FADE guarantee: max <= D_th");
  std::printf("%-12s %10s %10s %10s %10s %10s %12s\n", "config", "written",
              "persisted", "p50", "p99", "max", "oldest-live");
  Run(0);
  for (uint64_t dth : {200000, 50000, 20000, 5000}) {
    Run(dth * Scale());
  }
}

}  // namespace bench
}  // namespace acheron

int main() { acheron::bench::Main(); }
