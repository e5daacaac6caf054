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
//    bytes per step (_mm_crc32_u64). The instruction takes three cycles but
//    a new one can start every cycle, so from 3 x kStride bytes on it runs
//    three independent streams over consecutive kStride-byte spans and
//    folds them together with the shift table below (Mark Adler's crc32c
//    layout); shorter input and the remainder run one stream, and the tail
//    goes a byte at a time. It is compiled with a per-function target
//    attribute, not a global -msse4.2, so the binary still runs on any
//    x86-64; it is only called after the CPU reports SSE4.2.
//  * Portable: slice-by-1 through a 256-entry table. It is the fallback for
//    other CPUs (and the only kernel built off x86-64) and the oracle the
//    differential test checks the hardware kernel against.
//
// On 4 KiB blocks (bench/micro_crc32c, 4-vCPU x86-64 VM, -O2) the hardware
// kernel runs at about 20 GiB/s (one stream alone: 8.8 GiB/s) and the
// portable one at about 0.4 GiB/s. Every block read, table build, WAL/vLog
// record and manifest record checksums through Extend, so the portable
// kernel is a large share of a Get that reads a block from disk.
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

// ---- Shifting a CRC past zero bytes (for joining the three streams) ----
//
// A CRC register is a vector over GF(2), and feeding it zero bits is a
// linear map: a 32x32 bit matrix, stored as its 32 columns (the image of
// each register bit).
using Gf2Matrix = std::array<uint32_t, 32>;

constexpr uint32_t Gf2Times(const Gf2Matrix& mat, uint32_t vec) {
  uint32_t sum = 0;
  for (int i = 0; vec != 0; i++, vec >>= 1) {
    if (vec & 1) sum ^= mat[i];
  }
  return sum;
}

constexpr Gf2Matrix Gf2Square(const Gf2Matrix& mat) {
  Gf2Matrix square{};
  for (int i = 0; i < 32; i++) square[i] = Gf2Times(mat, mat[i]);
  return square;
}

// The CRC state after |crc| is fed |len| zero bytes (|len| a power of two),
// as four byte-indexed tables: shift(crc) is the XOR of one entry per byte
// of crc.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(size_t len) {
  Gf2Matrix op{};
  op[0] = kPoly;  // one zero bit: crc' = (crc >> 1) ^ (crc & 1 ? kPoly : 0)
  for (int i = 1; i < 32; i++) op[i] = uint32_t{1} << (i - 1);
  for (int i = 0; i < 3; i++) op = Gf2Square(op);  // one zero byte
  for (; len > 1; len >>= 1) op = Gf2Square(op);
  ShiftTable table{};
  for (uint32_t b = 0; b < 256; b++) {
    for (int i = 0; i < 4; i++) table[i][b] = Gf2Times(op, b << (8 * i));
  }
  return table;
}

// Stream span of the hardware kernel: a 4 KiB block runs all but its last
// 256 bytes as three streams, and each 768-byte round pays two shifts.
constexpr size_t kStride = 256;
constexpr ShiftTable kShiftStride = MakeShiftTable(kStride);

constexpr uint32_t ShiftStride(uint32_t crc) {
  return kShiftStride[0][crc & 0xFF] ^ kShiftStride[1][(crc >> 8) & 0xFF] ^
         kShiftStride[2][(crc >> 16) & 0xFF] ^ kShiftStride[3][crc >> 24];
}

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
__attribute__((target("sse4.2"))) static inline uint64_t Load64(
    const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));  // unaligned load without UB
  return word;
}

// Three streams over each 3 x kStride-byte round of |*p|; advances |*p|
// and |*n| past the rounds. Streams 1 and 2 start from a zero register:
// the CRC of the whole round is stream 0's register shifted past the next
// span, XOR stream 1's, and so on, since feeding data into the register is
// linear. Out of line: inlined into ExtendHardware it slowed 16- and
// 128-byte inputs by about 15%.
__attribute__((target("sse4.2"), noinline)) static uint64_t ExtendRounds(
    uint64_t crc, const unsigned char** p, size_t* n) {
  const unsigned char* q = *p;
  size_t left = *n;
  for (; left >= 3 * kStride; q += 3 * kStride, left -= 3 * kStride) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kStride; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(q + i));
      crc1 = _mm_crc32_u64(crc1, Load64(q + kStride + i));
      crc2 = _mm_crc32_u64(crc2, Load64(q + 2 * kStride + i));
    }
    crc = ShiftStride(static_cast<uint32_t>(crc)) ^ crc1;
    crc = ShiftStride(static_cast<uint32_t>(crc)) ^ crc2;
  }
  *p = q;
  *n = left;
  return crc;
}

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data,
                                                          size_t n) {
  uint64_t crc = init_crc ^ 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  if (n >= 3 * kStride) crc = ExtendRounds(crc, &p, &n);
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(p));
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
