// E11 -- Secondary (retention) deletes: purging everything older than a
// timestamp threshold via the KiWi-style secondary-key purge (whole-file
// drops + in-place compactions of the straddling files) versus the naive
// full-tree rewrite. Acceptance (abort on failure): the secondary purge
// writes at most 1/10 of the naive path's bytes.
#include "bench/bench_common.h"

namespace acheron {
namespace bench {

static std::string MakeValue(uint64_t ts, size_t size) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(ts));
  std::string v(buf);
  v.resize(size, 'x');
  return v;
}

static std::string SecondaryExtractor(const Slice&, const Slice& value) {
  return value.size() >= 12 ? std::string(value.data(), 12) : std::string();
}

struct Result {
  double purge_secs;
  uint64_t bytes_written;  // compaction+flush bytes during the purge
};

static Result Run(bool use_secondary_purge) {
  Options options = BenchOptions();
  options.secondary_key_extractor = SecondaryExtractor;
  BenchDB db(options);

  // Ingest data in timestamp order (retention workloads are time-ordered).
  const uint64_t kEntries = 60000 * Scale();
  WriteOptions wo;
  workload::WorkloadSpec key_spec;
  key_spec.key_space = kEntries;
  workload::Generator gen(key_spec);
  for (uint64_t i = 0; i < kEntries; i++) {
    CheckOk(db->Put(wo, gen.KeyAt(i), MakeValue(i, 64)));
  }
  CheckOk(db->WaitForCompactions());

  uint64_t written_before = db->GetStats().flush_bytes_written +
                            db->GetStats().compaction_bytes_written;

  // Purge the oldest half.
  auto start = std::chrono::steady_clock::now();
  if (use_secondary_purge) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%012llu",
                  static_cast<unsigned long long>(kEntries / 2));
    Status s = db->PurgeSecondaryRange(std::string(buf));
    if (!s.ok()) std::fprintf(stderr, "purge: %s\n", s.ToString().c_str());
  } else {
    // Naive alternative: delete each dead key, then rewrite the full tree
    // to make the deletion physical.
    for (uint64_t i = 0; i < kEntries / 2; i++) {
      CheckOk(db->Delete(wo, gen.KeyAt(i)));
    }
    db.db()->CompactRange(nullptr, nullptr);
  }
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  uint64_t written_after = db->GetStats().flush_bytes_written +
                           db->GetStats().compaction_bytes_written;
  return {secs, written_after - written_before};
}

static void Main() {
  PrintHeader("E11: retention purge -- secondary-key drop vs full rewrite",
              "purge oldest 50% by embedded timestamp; expected shape: "
              "secondary purge writes far fewer bytes");
  std::printf("%-22s %12s %16s\n", "method", "seconds", "bytes-written");
  Result naive = Run(false);
  Result kiwi = Run(true);
  std::printf("%-22s %12.3f %16llu\n", "delete+full-rewrite", naive.purge_secs,
              static_cast<unsigned long long>(naive.bytes_written));
  std::printf("%-22s %12.3f %16llu\n", "secondary-purge", kiwi.purge_secs,
              static_cast<unsigned long long>(kiwi.bytes_written));
  if (kiwi.bytes_written > 0) {
    std::printf("write savings: %.1fx\n",
                static_cast<double>(naive.bytes_written) /
                    static_cast<double>(kiwi.bytes_written));
  } else {
    std::printf("write savings: inf (pure whole-file drops)\n");
  }
  if (naive.bytes_written == 0 ||
      kiwi.bytes_written * 10 > naive.bytes_written) {
    std::fprintf(stderr,
                 "E11: secondary purge wrote %llu bytes, more than 1/10 of "
                 "the full rewrite's %llu\n",
                 static_cast<unsigned long long>(kiwi.bytes_written),
                 static_cast<unsigned long long>(naive.bytes_written));
    std::abort();
  }
}

}  // namespace bench
}  // namespace acheron

int main() { acheron::bench::Main(); }
