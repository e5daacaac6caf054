#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace acheron {
namespace crc32c {
namespace {

// CRC32C (polynomial 0x1EDC6F41, reflected 0x82F63B78). Extend runs one of
// two kernels that return identical values, chosen by a CPU check made once
// per process:
//
//  * Hardware: on x86-64 CPUs with SSE4.2, the crc32 instruction consumes 8
//    bytes per step (_mm_crc32_u64) and finishes the tail a byte at a time.
//    It is compiled with a per-function target attribute, not a global
//    -msse4.2, so the binary still runs on any x86-64; it is only called
//    after the CPU reports SSE4.2.
//  * Portable: slice-by-1 through a 256-entry table. It is the fallback for
//    other CPUs (and the only kernel built off x86-64) and the oracle the
//    differential test checks the hardware kernel against.
//
// On 4 KiB blocks (bench/micro_crc32c, 4-vCPU Xeon, -O2) the hardware kernel
// runs at about 6.8 GiB/s and the portable one at about 0.32 GiB/s. Every
// block read, table build, WAL/vLog record and manifest record checksums
// through Extend, so the portable kernel is a large share of a Get that reads
// a block from disk.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256> kTable = MakeTable();

bool DetectHardware() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HardwareAvailable() {
  // A function-local static: detection runs once, thread-safely, and cannot
  // be read uninitialised by a namespace-scope initializer in another
  // translation unit that checksums during static init.
  static const bool available = DetectHardware();
  return available;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));  // unaligned load without UB
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) crc32 = _mm_crc32_u8(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}
#else
uint32_t ExtendHardware(uint32_t, const char*, size_t) { __builtin_trap(); }
#endif

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return internal::HardwareAvailable()
             ? internal::ExtendHardware(init_crc, data, n)
             : internal::ExtendPortable(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace acheron
