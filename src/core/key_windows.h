// KeyWindows: binary search over sorted keys by integers instead of by
// comparator calls, for comparators that order keys bytewise.
//
// The keys are stripped of a prefix that the bulk of them share, and the
// next 8 bytes of each become one big-endian integer, zero-padded past the
// end of the key: its window. A key below the prefix gets window 0 and one
// above it gets UINT64_MAX. Then a <= b bytewise implies window(a) <=
// window(b), so the windows of sorted keys are sorted and order the keys up
// to ties. A search binary-searches the windows and leaves its caller only
// the keys whose window ties the probe's, which the caller orders with its
// own comparator (an internal key's sequence, say).
//
// The prefix is the one shared by the keys an eighth of the way in from
// each end, so an outlier at either end does not shorten it: an index
// block's last key is a short successor ("l" after "k..." keys) that shares
// no byte with the others. Outliers get window 0 or UINT64_MAX and tie with
// each other; at most n / 8 lie past each of the two keys the prefix comes
// from, so a search among them costs about log2(n / 8) + 1 comparisons.
#ifndef ACHERON_CORE_KEY_WINDOWS_H_
#define ACHERON_CORE_KEY_WINDOWS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/comparator.h"
#include "src/util/slice.h"

namespace acheron {

// True if |ucmp| orders keys bytewise. A comparator's name is the ordering
// the MANIFEST records, so a wrapper that keeps the bytewise name (a
// counting one, say) keeps its order.
bool OrdersBytewise(const Comparator* ucmp);

// Length of the longest common prefix of |a| and |b|.
size_t CommonPrefixLength(const Slice& a, const Slice& b);

class KeyWindows {
 public:
  // Index |n| keys, key_at(0) ... key_at(n - 1). The prefix points into
  // their bytes, which must outlive the index. Ties needs them in
  // ascending bytewise order; the windows alone are right in any order.
  template <typename KeyAt>
  void Build(size_t n, KeyAt key_at) {
    windows_.clear();
    prefix_ = Slice();
    if (n == 0) return;
    const Slice first = key_at(n / 8);
    const Slice last = key_at(n - 1 - n / 8);
    prefix_ = Slice(first.data(), CommonPrefixLength(first, last));
    windows_.reserve(n);
    for (size_t i = 0; i < n; i++) windows_.push_back(Window(key_at(i)));
  }

  bool empty() const { return windows_.empty(); }
  size_t size() const { return windows_.size(); }
  uint64_t operator[](size_t i) const { return windows_[i]; }

  // The window of |key| under this index's prefix.
  uint64_t Window(const Slice& key) const;

  // The indexed keys whose window is |w|, a probe key's Window, are
  // [*lo, *hi): every key before *lo sorts below the probe and every key
  // from *hi on sorts above it. *lo == *hi when none ties.
  void Ties(uint64_t w, size_t* lo, size_t* hi) const;

  // Heap bytes of the windows.
  size_t ApproximateMemoryUsage() const {
    return windows_.capacity() * sizeof(uint64_t);
  }

 private:
  Slice prefix_;
  std::vector<uint64_t> windows_;
};

}  // namespace acheron

#endif  // ACHERON_CORE_KEY_WINDOWS_H_
