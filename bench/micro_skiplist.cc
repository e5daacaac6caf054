// M2 -- Memtable skiplist microbenchmarks: insert throughput (linked on the
// calling thread, and prepared here but linked by a MemTableLinker thread),
// point-lookup hits and misses at the default 4 MiB write buffer, and full
// iteration.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/memtable_linker.h"
#include "src/lsm/options.h"
#include "src/memtable/memtable.h"
#include "src/util/random.h"

namespace acheron {

static void BM_MemTableAdd(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp, Options().write_buffer_size);
  mem->Ref();
  Random rnd(1);
  std::string value(value_size, 'v');
  uint64_t seq = 1;
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, "key" + std::to_string(rnd.Next64()), value);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable(icmp, Options().write_buffer_size);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  mem->Unref();
}
BENCHMARK(BM_MemTableAdd)->Arg(16)->Arg(128)->Arg(1024);

// The write path's split insert: this thread prepares each node (arena,
// height, key filter) and pushes it; a kept-armed linker thread does the
// search and link. Time per Add is the writer's share; the linker's runs
// on another core.
static void BM_MemTableAddDeferredLink(benchmark::State& state) {
  const size_t value_size = static_cast<size_t>(state.range(0));
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp, Options().write_buffer_size);
  mem->Ref();
  MemTableLinker linker(DefaultEnv());
  linker.TEST_KeepArmed(true);
  Random rnd(1);
  std::string value(value_size, 'v');
  uint64_t seq = 1;
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, "key" + std::to_string(rnd.Next64()), value,
             &linker);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      linker.Drain();
      mem->Unref();
      mem = new MemTable(icmp, Options().write_buffer_size);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  linker.Drain();
  state.SetItemsProcessed(state.iterations());
  mem->Unref();
}
BENCHMARK(BM_MemTableAddDeferredLink)->Arg(16)->Arg(128)->Arg(1024);

static std::string MemKey(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%013llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// A memtable filled to the default 4 MiB write buffer with 16-byte keys and
// 100-byte values (point_read's shape); the even-numbered keys are present.
static MemTable* FilledMemTable(const InternalKeyComparator& icmp,
                                uint64_t* n) {
  const size_t write_buffer_size = Options().write_buffer_size;
  MemTable* mem = new MemTable(icmp, write_buffer_size);
  mem->Ref();
  const std::string value(100, 'v');
  uint64_t i = 0;
  while (mem->ApproximateMemoryUsage() < write_buffer_size) {
    mem->Add(i + 1, kTypeValue, MemKey(2 * i), value);
    i++;
  }
  *n = i;
  return mem;
}

// Point lookups in random order: |hit| looks up present keys, otherwise
// absent keys that sort between them (the case the key filter answers
// without a skiplist seek).
static void RunMemTableGet(benchmark::State& state, bool hit) {
  InternalKeyComparator icmp(BytewiseComparator());
  uint64_t n = 0;
  MemTable* mem = FilledMemTable(icmp, &n);
  Random rnd(2);
  std::vector<std::unique_ptr<LookupKey>> lookups;
  for (int i = 0; i < 4096; i++) {
    const uint64_t k = 2 * rnd.Uniform(static_cast<int>(n)) + (hit ? 0 : 1);
    lookups.push_back(std::make_unique<LookupKey>(MemKey(k), n + 1));
  }
  std::string value;
  Status s;
  size_t next = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    found += mem->Get(*lookups[next], &value, &s) ? 1 : 0;
    next = (next + 1) % lookups.size();
    benchmark::DoNotOptimize(found);
  }
  if (found != (hit ? static_cast<uint64_t>(state.iterations()) : 0)) {
    state.SkipWithError("lookup answered wrongly");
  }
  state.SetItemsProcessed(state.iterations());
  mem->Unref();
}

static void BM_MemTableGetHit(benchmark::State& state) {
  RunMemTableGet(state, true);
}
BENCHMARK(BM_MemTableGetHit);

static void BM_MemTableGetMiss(benchmark::State& state) {
  RunMemTableGet(state, false);
}
BENCHMARK(BM_MemTableGetMiss);

static void BM_MemTableIterate(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp, Options().write_buffer_size);
  mem->Ref();
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    mem->Add(i + 1, kTypeValue, "key" + std::to_string(i), "value");
  }
  for (auto _ : state) {
    std::unique_ptr<Iterator> it(mem->NewIterator());
    uint64_t count = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
  mem->Unref();
}
BENCHMARK(BM_MemTableIterate);

}  // namespace acheron

BENCHMARK_MAIN();
