// FragmentedRangeTombstoneList against a brute-force oracle: the sweep-line
// Build must emit exactly the fragments of the original quadratic
// fragmenter (kept below as the reference), answer coverage queries like a
// scan of the raw tombstones, and stay within O(n log n) comparator calls.
#include "src/core/range_tombstone.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace acheron {
namespace {

struct OracleFragment {
  std::string begin;
  std::string end;
  std::vector<SequenceNumber> seqs;
};

// The quadratic fragmenter Build replaced: for every pair of adjacent
// distinct bounds, collect the seqs of the tombstones spanning it, and merge
// a fragment into its predecessor when they abut with identical seqs.
std::vector<OracleFragment> OracleFragments(
    const Comparator* ucmp, const std::vector<RangeTombstone>& tombstones) {
  std::vector<RangeTombstone> raw;
  for (const RangeTombstone& t : tombstones) {
    if (ucmp->Compare(t.begin, t.end) < 0) raw.push_back(t);
  }
  std::vector<Slice> bounds;
  for (const RangeTombstone& t : raw) {
    bounds.push_back(t.begin);
    bounds.push_back(t.end);
  }
  std::sort(bounds.begin(), bounds.end(),
            [ucmp](const Slice& a, const Slice& b) {
              return ucmp->Compare(a, b) < 0;
            });
  bounds.erase(std::unique(bounds.begin(), bounds.end(),
                           [ucmp](const Slice& a, const Slice& b) {
                             return ucmp->Compare(a, b) == 0;
                           }),
               bounds.end());
  std::vector<OracleFragment> out;
  for (size_t i = 0; i + 1 < bounds.size(); i++) {
    OracleFragment frag;
    for (const RangeTombstone& t : raw) {
      if (ucmp->Compare(t.begin, bounds[i]) <= 0 &&
          ucmp->Compare(bounds[i + 1], t.end) <= 0) {
        frag.seqs.push_back(t.seq);
      }
    }
    if (frag.seqs.empty()) continue;
    std::sort(frag.seqs.begin(), frag.seqs.end());
    frag.begin = bounds[i].ToString();
    frag.end = bounds[i + 1].ToString();
    if (!out.empty() && out.back().end == frag.begin &&
        out.back().seqs == frag.seqs) {
      out.back().end = frag.end;
    } else {
      out.push_back(std::move(frag));
    }
  }
  return out;
}

SequenceNumber OracleCoveringSeq(const Comparator* ucmp,
                                 const std::vector<RangeTombstone>& tombstones,
                                 const Slice& key, SequenceNumber snapshot) {
  SequenceNumber best = 0;
  for (const RangeTombstone& t : tombstones) {
    if (t.seq <= snapshot && t.seq > best &&
        ucmp->Compare(t.begin, key) <= 0 && ucmp->Compare(key, t.end) < 0) {
      best = t.seq;
    }
  }
  return best;
}

std::string KeyAt(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Random tombstones over a small key space, so nesting, overlap, abutting
// ranges, shared bounds and equal seqs all occur; one in eight is inverted
// or empty and must be dropped.
std::vector<RangeTombstone> RandomTombstones(Random* rnd, int n,
                                             uint64_t key_space) {
  std::vector<RangeTombstone> out;
  std::vector<uint64_t> used_bounds;
  for (int i = 0; i < n; i++) {
    uint64_t b = rnd->Uniform(key_space);
    if (!used_bounds.empty() && rnd->OneIn(3)) {
      b = used_bounds[rnd->Uniform(used_bounds.size())];  // shared bound
    }
    uint64_t e = b + 1 + rnd->Skewed(5);
    if (rnd->OneIn(8)) e = b - std::min<uint64_t>(b, rnd->Uniform(3));
    used_bounds.push_back(b);
    used_bounds.push_back(e);
    const SequenceNumber seq = 1 + rnd->Uniform(rnd->OneIn(2) ? 4 : 1000);
    out.emplace_back(KeyAt(b), KeyAt(e), seq);
  }
  return out;
}

class CountingComparator : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    count_++;
    return BytewiseComparator()->Compare(a, b);
  }
  const char* Name() const override { return "test.CountingComparator"; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}

  uint64_t count() const { return count_; }

 private:
  mutable uint64_t count_ = 0;
};

TEST(RangeTombstoneFragmenterTest, MatchesQuadraticOracle) {
  Random rnd(301);
  const Comparator* ucmp = BytewiseComparator();
  for (int trial = 0; trial < 400; trial++) {
    const int n = static_cast<int>(rnd.Uniform(40));
    const uint64_t key_space = 4 + rnd.Uniform(60);
    std::vector<RangeTombstone> tombstones =
        RandomTombstones(&rnd, n, key_space);
    FragmentedRangeTombstoneList list;
    list.Build(ucmp, tombstones);
    std::vector<OracleFragment> want = OracleFragments(ucmp, tombstones);
    ASSERT_EQ(want.size(), list.fragments().size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); i++) {
      const auto& got = list.fragments()[i];
      ASSERT_EQ(want[i].begin, got.begin.ToString()) << "trial " << trial;
      ASSERT_EQ(want[i].end, got.end.ToString()) << "trial " << trial;
      std::span<const SequenceNumber> seqs = list.seqs(got);
      ASSERT_EQ(want[i].seqs,
                std::vector<SequenceNumber>(seqs.begin(), seqs.end()))
          << "trial " << trial << " fragment " << i;
    }
    for (int probe = 0; probe < 40; probe++) {
      const std::string key = KeyAt(rnd.Uniform(key_space + 40));
      const SequenceNumber snapshot =
          rnd.OneIn(4) ? kMaxSequenceNumber : rnd.Uniform(1001);
      ASSERT_EQ(OracleCoveringSeq(ucmp, tombstones, key, snapshot),
                list.MaxCoveringSeq(key, snapshot))
          << "trial " << trial << " key " << key << " snapshot " << snapshot;
    }
  }
}

// The merge-loop cursor: for ascending keys (with repeats, as a merge
// stream has several versions per user key) queried at random snapshots,
// it answers exactly like the binary-searching MaxCoveringSeq.
TEST(RangeTombstoneFragmenterTest, CursorMatchesMaxCoveringSeq) {
  Random rnd(304);
  const Comparator* ucmp = BytewiseComparator();
  for (int trial = 0; trial < 400; trial++) {
    const int n = static_cast<int>(rnd.Uniform(40));
    const uint64_t key_space = 4 + rnd.Uniform(60);
    FragmentedRangeTombstoneList list;
    list.Build(ucmp, RandomTombstones(&rnd, n, key_space));
    std::vector<std::string> keys;
    for (int i = 0; i < 60; i++) {
      keys.push_back(KeyAt(rnd.Uniform(key_space + 10)));
    }
    std::sort(keys.begin(), keys.end());
    FragmentedRangeTombstoneList::Cursor cursor(&list);
    for (const std::string& key : keys) {
      const SequenceNumber snapshot =
          rnd.OneIn(4) ? kMaxSequenceNumber : rnd.Uniform(1001);
      ASSERT_EQ(list.MaxCoveringSeq(key, snapshot),
                cursor.MaxCoveringSeq(key, snapshot))
          << "trial " << trial << " key " << key << " snapshot " << snapshot;
    }
  }
  // An empty list covers nothing.
  FragmentedRangeTombstoneList empty;
  FragmentedRangeTombstoneList::Cursor cursor(&empty);
  EXPECT_EQ(0u, cursor.MaxCoveringSeq("k000001", kMaxSequenceNumber));
}

TEST(RangeTombstoneFragmenterTest, BuildFromRefsMatchesBuild) {
  Random rnd(302);
  const Comparator* ucmp = BytewiseComparator();
  std::vector<RangeTombstone> tombstones = RandomTombstones(&rnd, 200, 300);
  std::vector<RangeTombstoneRef> refs;
  for (const RangeTombstone& t : tombstones) {
    refs.push_back({Slice(t.begin), Slice(t.end), t.seq});
  }
  FragmentedRangeTombstoneList owned, borrowed;
  owned.Build(ucmp, tombstones);
  borrowed.BuildFromRefs(ucmp, refs);
  ASSERT_EQ(owned.fragments().size(), borrowed.fragments().size());
  for (size_t i = 0; i < owned.fragments().size(); i++) {
    const auto& a = owned.fragments()[i];
    const auto& b = borrowed.fragments()[i];
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_TRUE(std::ranges::equal(owned.seqs(a), borrowed.seqs(b)));
    // A borrowed list points at the caller's bytes, not at a copy.
    const char* base = b.begin.data();
    EXPECT_TRUE(std::any_of(
        tombstones.begin(), tombstones.end(), [base](const RangeTombstone& t) {
          return t.begin.data() == base || t.end.data() == base;
        }));
  }
}

TEST(RangeTombstoneFragmenterTest, BuildComparisonsAreNLogN) {
  Random rnd(303);
  const int n = 16384;
  std::vector<RangeTombstone> tombstones;
  for (int i = 0; i < n; i++) {
    const uint64_t b = rnd.Uniform(4 * n);
    tombstones.emplace_back(KeyAt(b), KeyAt(b + 1 + rnd.Skewed(6)),
                            1 + rnd.Uniform(n));
  }
  CountingComparator cmp;
  FragmentedRangeTombstoneList list;
  list.Build(&cmp, tombstones);
  // Two sorts of n items plus a constant number of comparisons per bound;
  // the quadratic fragmenter made about 2n^2 (over half a billion here).
  const double bound = 4.0 * n * std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(cmp.count()), bound);
  EXPECT_FALSE(list.empty());
}

// ---- The bytewise prefix search ----

class ReverseBytewiseComparator : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    return -a.compare(b);
  }
  const char* Name() const override { return "test.ReverseBytewise"; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}
};

// A key of |prefix| (sometimes cut short or changed in its last byte) plus
// 0..11 bytes drawn mostly from the extremes 0x00, 0x01, 0x7f, 0x80, 0xfe
// and 0xff, so keys shorter than the prefix plus 8 bytes, keys that are
// prefixes of one another, zero bytes against the search's zero padding,
// and ties on the 8 bytes after the prefix all occur.
std::string RandomByteKey(Random* rnd, const std::string& prefix) {
  std::string key = prefix;
  if (rnd->OneIn(8)) key.resize(rnd->Uniform(prefix.size() + 1));
  if (!key.empty() && rnd->OneIn(8)) {
    key.back() = static_cast<char>(key.back() + (rnd->OneIn(2) ? 1 : -1));
  }
  static const unsigned char kBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff};
  const uint64_t len = rnd->OneIn(4) ? 9 + rnd->Uniform(3) : rnd->Uniform(9);
  for (uint64_t i = 0; i < len; i++) {
    key.push_back(static_cast<char>(
        rnd->OneIn(3) ? rnd->Uniform(256) : kBytes[rnd->Uniform(6)]));
  }
  return key;
}

// MaxCoveringSeq against a linear scan of the raw tombstones, under the
// bytewise comparator (the prefix search) and a reverse one (the
// comparator-driven fallback): random byte-string tombstones over a shared
// prefix of 0..12 bytes, queried at every fragment bound and its
// neighbours, at random keys inside and outside [first begin, last end),
// and at snapshots on, between, below and above the tombstones' seqs.
TEST(RangeTombstoneFragmenterTest, PrefixSearchMatchesLinearScan) {
  const ReverseBytewiseComparator reverse;
  Random rnd(305);
  for (const Comparator* ucmp : {BytewiseComparator(),
                                 static_cast<const Comparator*>(&reverse)}) {
    for (int trial = 0; trial < 300; trial++) {
      std::string prefix;
      const uint64_t prefix_len = rnd.Uniform(13);
      for (uint64_t i = 0; i < prefix_len; i++) {
        prefix.push_back(static_cast<char>(rnd.Uniform(256)));
      }
      std::vector<RangeTombstone> tombstones;
      const int n = 1 + static_cast<int>(rnd.Uniform(40));
      for (int i = 0; i < n; i++) {
        std::string a = RandomByteKey(&rnd, prefix);
        std::string b = RandomByteKey(&rnd, prefix);
        if (ucmp->Compare(a, b) > 0) std::swap(a, b);
        tombstones.emplace_back(a, b, 2 * (1 + rnd.Uniform(30)));
      }
      FragmentedRangeTombstoneList list;
      list.Build(ucmp, tombstones);

      std::vector<std::string> queries;
      for (const auto& f : list.fragments()) {
        for (const Slice& bound : {f.begin, f.end}) {
          const std::string b = bound.ToString();
          queries.push_back(b);
          queries.push_back(b + '\0');
          queries.push_back(b + '\xff');
          if (!b.empty()) queries.push_back(b.substr(0, b.size() - 1));
        }
      }
      for (int i = 0; i < 60; i++) {
        queries.push_back(RandomByteKey(&rnd, prefix));
      }
      queries.push_back("");
      queries.push_back(std::string(20, '\xff'));
      for (const std::string& key : queries) {
        // Seqs are even: odd snapshots fall between them.
        for (SequenceNumber snapshot :
             {SequenceNumber{0}, SequenceNumber{1}, 1 + 2 * rnd.Uniform(32),
              2 * rnd.Uniform(32), kMaxSequenceNumber}) {
          ASSERT_EQ(OracleCoveringSeq(ucmp, tombstones, key, snapshot),
                    list.MaxCoveringSeq(key, snapshot))
              << ucmp->Name() << " trial " << trial << " key size "
              << key.size() << " snapshot " << snapshot;
        }
      }
    }
  }
}

// A comparator that wraps the bytewise one under its name (a counting
// wrapper, say) keeps its order, so it gets the prefix search: a query
// then makes no comparator call.
TEST(RangeTombstoneFragmenterTest, BytewiseNamedWrapperTakesPrefixSearch) {
  class CountingBytewise : public CountingComparator {
   public:
    const char* Name() const override { return BytewiseComparator()->Name(); }
  };
  CountingBytewise cmp;
  Random rnd(306);
  std::vector<RangeTombstone> tombstones = RandomTombstones(&rnd, 200, 300);
  FragmentedRangeTombstoneList list;
  list.Build(&cmp, tombstones);
  const uint64_t before = cmp.count();
  for (int i = 0; i < 400; i++) {
    const std::string key = KeyAt(rnd.Uniform(320));
    ASSERT_EQ(OracleCoveringSeq(BytewiseComparator(), tombstones, key,
                                kMaxSequenceNumber),
              list.MaxCoveringSeq(key, kMaxSequenceNumber));
  }
  EXPECT_EQ(before, cmp.count());
}

}  // namespace
}  // namespace acheron
