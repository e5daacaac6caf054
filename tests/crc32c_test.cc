#include "src/util/crc32c.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace acheron {
namespace crc32c {

using Kernel = uint32_t (*)(uint32_t, const char*, size_t);

// RFC 3720 section B.4 test vectors, checked through `kernel`.
void ExpectStandardResults(Kernel kernel) {
  auto crc = [kernel](const char* data, size_t n) {
    return kernel(0, data, n);
  };
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, crc(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, crc(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = i;
  }
  EXPECT_EQ(0x46dd794eu, crc(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = 31 - i;
  }
  EXPECT_EQ(0x113fdb5cu, crc(buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u, crc(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST(Crc32c, StandardResults) { ExpectStandardResults(Extend); }

TEST(Crc32c, StandardResultsPortableKernel) {
  ExpectStandardResults(internal::ExtendPortable);
}

TEST(Crc32c, StandardResultsHardwareKernel) {
  if (!internal::HardwareAvailable()) GTEST_SKIP() << "CPU lacks SSE4.2";
  ExpectStandardResults(internal::ExtendHardware);
}

// The hardware kernel against the byte-table oracle: every length 0..1024,
// and every length within 16 bytes of a multiple of 768 (the three-stream
// round of 3 x 256 bytes) up to 8 rounds, so rounds, the single-stream
// remainder and the byte tail meet in every combination. Each runs at
// every start offset 0..15 (so the 8-byte loads are misaligned in every
// way), from a zero and a non-zero running CRC.
TEST(Crc32c, HardwareKernelMatchesPortableOracle) {
  if (!internal::HardwareAvailable()) GTEST_SKIP() << "CPU lacks SSE4.2";
  constexpr size_t kRound = 768;
  constexpr size_t kMaxRounds = 8;
  constexpr size_t kSlack = 16;
  constexpr size_t kMaxOffset = 15;
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1024; len++) lengths.push_back(len);
  for (size_t r = 2; r <= kMaxRounds; r++) {
    for (size_t len = r * kRound - kSlack; len <= r * kRound + kSlack; len++) {
      lengths.push_back(len);
    }
  }
  Random rnd(301);
  std::vector<char> buf(kMaxRounds * kRound + kSlack + kMaxOffset);
  for (char& c : buf) c = static_cast<char>(rnd.Uniform(256));
  for (size_t offset = 0; offset <= kMaxOffset; offset++) {
    for (size_t len : lengths) {
      const char* p = buf.data() + offset;
      for (uint32_t init : {0u, 0xdeadbeefu}) {
        ASSERT_EQ(internal::ExtendPortable(init, p, len),
                  internal::ExtendHardware(init, p, len))
            << "offset=" << offset << " len=" << len << " init=" << init;
      }
    }
  }
}

// Chaining Extend across random split points gives the one-shot CRC, with
// either kernel doing each piece.
TEST(Crc32c, RandomSplitsMatchOneShot) {
  Random rnd(17);
  std::vector<Kernel> kernels = {internal::ExtendPortable};
  if (internal::HardwareAvailable()) {
    kernels.push_back(internal::ExtendHardware);
  }
  for (int trial = 0; trial < 200; trial++) {
    std::string data(rnd.Uniform(5000), '\0');
    for (char& c : data) c = static_cast<char>(rnd.Uniform(256));
    const uint32_t expected =
        internal::ExtendPortable(0, data.data(), data.size());
    EXPECT_EQ(expected, Value(data.data(), data.size()));
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t len =
          std::min<size_t>(data.size() - pos, rnd.Uniform(300));
      crc = kernels[rnd.Uniform(kernels.size())](crc, data.data() + pos, len);
      pos += len;
    }
    ASSERT_EQ(expected, crc) << "trial=" << trial;
  }
}

TEST(Crc32c, Values) { EXPECT_NE(Value("a", 1), Value("foo", 3)); }

TEST(Crc32c, Extend) {
  EXPECT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, EmptyInput) { EXPECT_EQ(0u, Value("", 0)); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::string data;
  for (int i = 0; i < 1000; i++) data.push_back(static_cast<char>(i * 37));
  for (size_t split = 0; split <= data.size(); split += 97) {
    uint32_t a = Value(data.data(), data.size());
    uint32_t b = Extend(Value(data.data(), split), data.data() + split,
                        data.size() - split);
    EXPECT_EQ(a, b) << "split=" << split;
  }
}

}  // namespace crc32c
}  // namespace acheron
