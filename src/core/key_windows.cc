#include "src/core/key_windows.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace acheron {

bool OrdersBytewise(const Comparator* ucmp) {
  return ucmp == BytewiseComparator() ||
         std::strcmp(ucmp->Name(), BytewiseComparator()->Name()) == 0;
}

size_t CommonPrefixLength(const Slice& a, const Slice& b) {
  const size_t limit = std::min(a.size(), b.size());
  size_t p = 0;
  while (p < limit && a[p] == b[p]) p++;
  return p;
}

uint64_t KeyWindows::Window(const Slice& key) const {
  const size_t p = prefix_.size();
  const int c =
      std::memcmp(key.data(), prefix_.data(), std::min(key.size(), p));
  // A proper prefix of the prefix sorts below every key that has it.
  if (c < 0 || (c == 0 && key.size() < p)) return 0;
  if (c > 0) return UINT64_MAX;
  if (key.size() >= p + 8) {
    uint64_t w;
    std::memcpy(&w, key.data() + p, sizeof(w));
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  uint64_t w = 0;
  for (size_t i = p; i < p + 8; i++) {
    w = (w << 8) | (i < key.size() ? static_cast<unsigned char>(key[i]) : 0);
  }
  return w;
}

// The first of the |n| ascending windows at |data| that exceeds |w| (with
// or_equal, that is not below |w|). Branch-free: each halving step is a
// conditional move, not a branch the predictor misses half the time.
static size_t FirstAbove(const uint64_t* data, size_t n, uint64_t w,
                         bool or_equal) {
  if (n == 0) return 0;
  const uint64_t* base = data;
  while (n > 1) {
    const size_t half = n / 2;
    const uint64_t v = base[half];
    base = (or_equal ? v < w : v <= w) ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - data) +
         ((or_equal ? *base < w : *base <= w) ? 1 : 0);
}

void KeyWindows::Ties(uint64_t w, size_t* lo, size_t* hi) const {
  *hi = FirstAbove(windows_.data(), windows_.size(), w, false);
  *lo = *hi > 0 && windows_[*hi - 1] == w
            ? FirstAbove(windows_.data(), *hi, w, true)
            : *hi;
}

}  // namespace acheron
