// M4 -- WAL microbenchmarks: record append and replay throughput.
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {

static void BM_WalAppend(benchmark::State& state) {
  const size_t record_size = static_cast<size_t>(state.range(0));
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<WritableFile> file;
  if (!env->NewWritableFile("/wal", &file).ok()) std::abort();
  wal::Writer writer(file.get());
  std::string record(record_size, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.AddRecord(record).ok());
  }
  state.SetBytesProcessed(state.iterations() * record_size);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(512)->Arg(16384);

// The same appends on the real filesystem: a .log file under PosixEnv is
// the live-WAL writer the engine uses (a memcpy into a mapped, preallocated
// tail; AddRecord's Flush has nothing to do). The file restarts every
// 64 MiB, outside the timed region, so a long run stays small on disk.
static void BM_WalAppendPosix(benchmark::State& state) {
  const size_t record_size = static_cast<size_t>(state.range(0));
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "micro_wal_XXXXXX").string();
  if (::mkdtemp(dir_template.data()) == nullptr) std::abort();
  const std::string fname = dir_template + "/000001.log";
  Env* env = DefaultEnv();
  std::unique_ptr<WritableFile> file;
  std::unique_ptr<wal::Writer> writer;
  auto restart = [&] {
    writer.reset();
    file.reset();
    if (!env->NewWritableFile(fname, &file).ok()) std::abort();
    writer = std::make_unique<wal::Writer>(file.get());
  };
  restart();
  const std::string record(record_size, 'r');
  size_t written = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer->AddRecord(record).ok());
    written += record_size;
    if (written >= (64u << 20)) {
      state.PauseTiming();
      restart();
      written = 0;
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(state.iterations() * record_size);
  writer.reset();
  file.reset();
  (void)env->RemoveFile(fname);
  (void)env->RemoveDir(dir_template);
}
BENCHMARK(BM_WalAppendPosix)->Arg(64)->Arg(512)->Arg(16384);

static void BM_WalReplay(benchmark::State& state) {
  const int kRecords = 10000;
  std::unique_ptr<Env> env(NewMemEnv());
  {
    std::unique_ptr<WritableFile> file;
    if (!env->NewWritableFile("/wal", &file).ok()) std::abort();
    wal::Writer writer(file.get());
    std::string record(128, 'r');
    for (int i = 0; i < kRecords; i++) {
      if (!writer.AddRecord(record).ok()) std::abort();
    }
  }
  for (auto _ : state) {
    std::unique_ptr<SequentialFile> file;
    if (!env->NewSequentialFile("/wal", &file).ok()) std::abort();
    wal::Reader reader(file.get(), nullptr, true);
    Slice record;
    std::string scratch;
    int n = 0;
    while (reader.ReadRecord(&record, &scratch)) n++;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_WalReplay);

}  // namespace acheron

BENCHMARK_MAIN();
