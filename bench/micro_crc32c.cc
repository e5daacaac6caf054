// M6 -- CRC32C kernel microbenchmarks: the portable byte-table kernel and the
// crc32-instruction kernel at a key-sized buffer (16 B), a WAL record (128 B),
// a data block (4 KiB) and a large value (64 KiB). Reports bytes/second.
#include <benchmark/benchmark.h>

#include <string>

#include "src/util/crc32c.h"
#include "src/util/random.h"

namespace acheron {

static std::string RandomBytes(size_t n) {
  Random rnd(301);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rnd.Uniform(256));
  return s;
}

static void RunKernel(benchmark::State& state,
                      uint32_t (*kernel)(uint32_t, const char*, size_t)) {
  const std::string data = RandomBytes(static_cast<size_t>(state.range(0)));
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}

static void BM_Crc32cPortable(benchmark::State& state) {
  RunKernel(state, crc32c::internal::ExtendPortable);
}
BENCHMARK(BM_Crc32cPortable)->Arg(16)->Arg(128)->Arg(4096)->Arg(65536);

static void BM_Crc32cHardware(benchmark::State& state) {
  if (!crc32c::internal::HardwareAvailable()) {
    state.SkipWithError("CPU lacks SSE4.2");
    return;
  }
  RunKernel(state, crc32c::internal::ExtendHardware);
}
BENCHMARK(BM_Crc32cHardware)->Arg(16)->Arg(128)->Arg(4096)->Arg(65536);

}  // namespace acheron

BENCHMARK_MAIN();
