// M3 -- SSTable block microbenchmarks: build, sequential scan, and binary-
// search seek across restart intervals, through the block iterator and
// through the point lookup's BlockSearch.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/util/random.h"

namespace acheron {

static std::string BuildBlockContents(int entries, int restart_interval) {
  BlockBuilder builder(restart_interval);
  for (int i = 0; i < entries; i++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "key%010d", i);
    builder.Add(buf, "value_payload_0123456789");
  }
  return builder.Finish().ToString();
}

static void BM_BlockBuild(benchmark::State& state) {
  const int restart = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildBlockContents(1000, restart));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BlockBuild)->Arg(1)->Arg(16)->Arg(64);

static void BM_BlockScan(benchmark::State& state) {
  std::string contents = BuildBlockContents(1000, 16);
  BlockContents bc{Slice(contents), false, false};
  Block block(bc);
  for (auto _ : state) {
    std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
    uint64_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_BlockScan);

static void BM_BlockSeek(benchmark::State& state) {
  const int restart = static_cast<int>(state.range(0));
  std::string contents = BuildBlockContents(1000, restart);
  BlockContents bc{Slice(contents), false, false};
  Block block(bc);
  Random rnd(3);
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  for (auto _ : state) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "key%010d",
                  static_cast<int>(rnd.Uniform(1000)));
    it->Seek(buf);
    benchmark::DoNotOptimize(it->Valid());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockSeek)->Arg(1)->Arg(16)->Arg(64);

// BM_BlockSeek's blocks and targets through BlockSearch, the stack search a
// table's point lookup runs: one search object per lookup, as a Get makes.
static void BM_BlockPointSearch(benchmark::State& state) {
  const int restart = static_cast<int>(state.range(0));
  std::string contents = BuildBlockContents(1000, restart);
  BlockContents bc{Slice(contents), false, false};
  Block block(bc);
  Random rnd(3);
  for (auto _ : state) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "key%010d",
                  static_cast<int>(rnd.Uniform(1000)));
    BlockSearch search;
    benchmark::DoNotOptimize(search.Seek(block, buf, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockPointSearch)->Arg(1)->Arg(16)->Arg(64);

}  // namespace acheron

BENCHMARK_MAIN();
