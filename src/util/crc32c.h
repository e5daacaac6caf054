// CRC32C (Castagnoli) checksums with the LevelDB mask/unmask convention for
// embedding a CRC of data inside that same data stream.
#ifndef ACHERON_UTIL_CRC32C_H_
#define ACHERON_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace acheron {
namespace crc32c {

// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the crc32c of
// some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// Return the crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Return a masked representation of crc. Stored CRCs are masked because
// computing the CRC of a string that already contains its CRC is error-prone.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

// Return the crc whose masked representation is masked_crc.
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

// The two kernels behind Extend, exposed for the differential test and the
// micro benchmark only; callers use Extend/Value.
namespace internal {

// Byte-at-a-time table kernel: runs on every CPU and is the test oracle.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

// True when the CPU has the crc32 instruction (x86-64 SSE4.2). Detected once.
bool HardwareAvailable();

// crc32-instruction kernel. Precondition: HardwareAvailable().
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal

}  // namespace crc32c
}  // namespace acheron

#endif  // ACHERON_UTIL_CRC32C_H_
