// KeyWindows against comparator search: the helper over random byte keys,
// and a table's index-block search (Table::InternalGet) with the windows
// against the same table searched by the comparator alone. The level-file
// search is checked through the DB in memtable_test.cc
// (RangeCoverageDbTest).
#include "src/core/key_windows.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/dbformat.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"

namespace acheron {
namespace {

// A key of |prefix| (sometimes cut short, or bumped in its last byte so it
// falls outside the prefix) plus 0..11 bytes drawn mostly from 0x00, 0x01,
// 0x7f, 0x80, 0xfe and 0xff: keys shorter than the prefix, keys outside
// it, embedded zero bytes against the windows' zero padding, and ties on
// the 8 bytes after the prefix all occur.
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

// Every key before the tie range sorts below the probe, every key from its
// end on sorts above it, and the probe's lower and upper bounds among the
// keys both fall inside it.
TEST(KeyWindowsTest, TiesBracketTheComparatorSearch) {
  Random rnd(501);
  for (int trial = 0; trial < 300; trial++) {
    std::string prefix;
    const uint64_t prefix_len = rnd.Uniform(13);
    for (uint64_t i = 0; i < prefix_len; i++) {
      prefix.push_back(static_cast<char>(rnd.Uniform(256)));
    }
    std::vector<std::string> keys;
    const int n = 1 + static_cast<int>(rnd.Uniform(200));
    for (int i = 0; i < n; i++) keys.push_back(RandomByteKey(&rnd, prefix));
    if (rnd.OneIn(4)) keys.push_back("");
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    KeyWindows windows;
    windows.Build(keys.size(), [&keys](size_t i) { return Slice(keys[i]); });
    ASSERT_EQ(keys.size(), windows.size());
    for (size_t i = 1; i < keys.size(); i++) {
      ASSERT_LE(windows[i - 1], windows[i]) << "trial " << trial;
    }

    std::vector<std::string> probes = {"", std::string(20, '\xff'),
                                       std::string(3, '\0')};
    for (const std::string& k : keys) {
      probes.push_back(k);
      probes.push_back(k + '\0');
      probes.push_back(k + '\xff');
      if (!k.empty()) probes.push_back(k.substr(0, k.size() - 1));
    }
    for (int i = 0; i < 50; i++) probes.push_back(RandomByteKey(&rnd, prefix));
    for (const std::string& probe : probes) {
      size_t lo, hi;
      windows.Ties(windows.Window(probe), &lo, &hi);
      ASSERT_LE(lo, hi);
      ASSERT_LE(hi, keys.size());
      const size_t lower = static_cast<size_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      const size_t upper = static_cast<size_t>(
          std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_LE(lo, lower) << "trial " << trial;
      ASSERT_LE(upper, hi) << "trial " << trial;
      for (size_t i = lo; i < hi; i++) {
        ASSERT_EQ(windows.Window(probe), windows[i]);
      }
    }
  }
}

// An index block's last key is the short successor of the table's last
// key: "l" after "k..." keys, sharing no byte with them. It must not
// shorten the prefix the others share, or every key ties with every other.
TEST(KeyWindowsTest, ShortSuccessorKeepsTheBulkPrefix) {
  std::vector<std::string> keys;
  for (int i = 1; i < 1000; i++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%015d", i);
    keys.push_back(buf);
  }
  keys.push_back("l");
  KeyWindows windows;
  windows.Build(keys.size(), [&keys](size_t i) { return Slice(keys[i]); });
  for (size_t i = 0; i < keys.size(); i++) {
    size_t lo, hi;
    windows.Ties(windows.Window(keys[i]), &lo, &hi);
    ASSERT_EQ(i, lo) << keys[i];
    ASSERT_EQ(i + 1, hi) << keys[i];
  }
  // Keys outside the prefix tie only with the outlier at their end.
  size_t lo, hi;
  windows.Ties(windows.Window("k9"), &lo, &hi);
  EXPECT_EQ(keys.size() - 1, lo);
  EXPECT_EQ(keys.size(), hi);
  windows.Ties(windows.Window("a"), &lo, &hi);
  EXPECT_EQ(lo, hi);
  EXPECT_EQ(0u, hi);
}

// Counts every comparison. Under the bytewise name the table searches its
// index by windows; under any other it searches by the comparator alone.
class CountingComparator : public Comparator {
 public:
  explicit CountingComparator(const char* name) : name_(name) {}
  int Compare(const Slice& a, const Slice& b) const override {
    count_++;
    return a.compare(b);
  }
  const char* Name() const override { return name_; }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    BytewiseComparator()->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    BytewiseComparator()->FindShortSuccessor(key);
  }
  uint64_t count() const { return count_; }

 private:
  const char* const name_;
  mutable uint64_t count_ = 0;
};

void SaveEntry(void* arg, const Slice& k, const Slice& v) {
  *static_cast<std::string*>(arg) = k.ToString() + "=" + v.ToString();
}

// A table of internal keys, one entry per data block, so a lookup's cost
// is its index search plus one comparison in the block.
class IndexedTable {
 public:
  IndexedTable(const std::vector<std::pair<std::string, std::string>>& entries,
               const char* comparator_name)
      : env_(NewMemEnv()), ucmp_(comparator_name), icmp_(&ucmp_) {
    options_.env = env_.get();
    options_.comparator = &icmp_;
    options_.block_size = 1;
    options_.filter_bits_per_key = 0;
    std::unique_ptr<WritableFile> sink;
    EXPECT_TRUE(env_->NewWritableFile("/t", &sink).ok());
    TableBuilder builder(options_, sink.get());
    for (const auto& [k, v] : entries) builder.Add(k, v, ExtractUserKey(k));
    EXPECT_TRUE(builder.Finish().ok());
    const uint64_t size = builder.FileSize();
    EXPECT_TRUE(sink->Close().ok());
    EXPECT_TRUE(env_->NewRandomAccessFile("/t", &source_).ok());
    Table* t = nullptr;
    EXPECT_TRUE(Table::Open(options_, source_.get(), size, &t).ok());
    table_.reset(t);
  }

  // The entry InternalGet hands back for |ikey| ("" when none), and the
  // comparisons it made in |*cost|.
  std::string Get(const Slice& ikey, uint64_t* cost) {
    std::string found;
    const uint64_t before = ucmp_.count();
    EXPECT_TRUE(table_
                    ->InternalGet(ReadOptions(), ikey, ExtractUserKey(ikey),
                                  &found, &SaveEntry)
                    .ok());
    *cost = ucmp_.count() - before;
    return found;
  }

 private:
  std::unique_ptr<Env> env_;
  CountingComparator ucmp_;
  InternalKeyComparator icmp_;
  Options options_;
  std::unique_ptr<RandomAccessFile> source_;
  std::unique_ptr<Table> table_;
};

std::string IKey(const std::string& user_key, SequenceNumber seq) {
  std::string k;
  AppendInternalKey(&k, ParsedInternalKey(user_key, seq, kValueTypeForSeek));
  return k;
}

// The window search finds the same data block as the comparator search for
// keys present at several sequences, keys between them, keys outside the
// prefix on either side, keys with an embedded zero byte, and the empty
// key. The last index key is the short successor "l" (see above). With
// the windows a lookup costs one comparison in the block plus at most two
// among tied index keys; the comparator search pays its binary search over
// all 1,400 index keys.
TEST(IndexWindowsTest, InternalGetMatchesComparatorSearch) {
  std::vector<std::pair<std::string, std::string>> entries;
  std::vector<std::string> user_keys;
  for (int i = 1; i <= 1000; i++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "k%015d", i * 3);
    user_keys.push_back(buf);
    // Every fifth key has three versions, newest first.
    const std::vector<SequenceNumber> seqs =
        i % 5 == 0 ? std::vector<SequenceNumber>{90, 60, 30}
                   : std::vector<SequenceNumber>{50};
    for (SequenceNumber seq : seqs) {
      std::string k;
      AppendInternalKey(&k, ParsedInternalKey(buf, seq, kTypeValue));
      entries.emplace_back(k, "v" + std::to_string(i) + "@" +
                                  std::to_string(seq));
    }
  }
  IndexedTable windowed(entries, BytewiseComparator()->Name());
  IndexedTable searched(entries, "test.CountingComparator");

  std::vector<std::string> probes;
  for (const std::string& u : user_keys) {
    for (SequenceNumber seq : {100, 70, 60, 40, 10}) {
      probes.push_back(IKey(u, seq));
    }
    probes.push_back(IKey(u + std::string(1, '\0'), 100));
    probes.push_back(IKey(u.substr(0, u.size() - 1), 100));
  }
  for (const char* outside : {"", "a", "k", "k1", "k9", "l", "l0", "zz"}) {
    probes.push_back(IKey(outside, 100));
  }
  probes.push_back(IKey(std::string("k\0", 2), 100));
  probes.push_back(IKey(std::string(4, '\xff'), 100));

  uint64_t searched_total = 0;
  for (const std::string& probe : probes) {
    uint64_t windowed_cost, searched_cost;
    const std::string got = windowed.Get(probe, &windowed_cost);
    ASSERT_EQ(searched.Get(probe, &searched_cost), got)
        << ExtractUserKey(probe).ToString();
    ASSERT_LE(windowed_cost, 3u) << ExtractUserKey(probe).ToString();
    searched_total += searched_cost;
  }
  EXPECT_GE(searched_total, 10 * probes.size());
}

// A comparator that does not order keys bytewise gets no windows: a table
// built in its order is searched by it.
TEST(IndexWindowsTest, NonBytewiseComparatorSearchesByComparator) {
  class Reverse : public Comparator {
   public:
    int Compare(const Slice& a, const Slice& b) const override {
      return -a.compare(b);
    }
    const char* Name() const override { return "test.Reverse"; }
    void FindShortestSeparator(std::string*, const Slice&) const override {}
    void FindShortSuccessor(std::string*) const override {}
  };
  Reverse reverse;
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.comparator = &reverse;
  options.block_size = 1;
  options.filter_bits_per_key = 0;
  std::vector<std::string> keys;
  for (int i = 999; i >= 0; i--) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i * 2);
    keys.push_back(buf);
  }
  std::unique_ptr<WritableFile> sink;
  ASSERT_TRUE(env->NewWritableFile("/t", &sink).ok());
  TableBuilder builder(options, sink.get());
  for (const std::string& k : keys) builder.Add(k, "v" + k, k);
  ASSERT_TRUE(builder.Finish().ok());
  const uint64_t size = builder.FileSize();
  ASSERT_TRUE(sink->Close().ok());
  std::unique_ptr<RandomAccessFile> source;
  ASSERT_TRUE(env->NewRandomAccessFile("/t", &source).ok());
  Table* raw = nullptr;
  ASSERT_TRUE(Table::Open(options, source.get(), size, &raw).ok());
  std::unique_ptr<Table> table(raw);
  for (int i = 0; i < 2000; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    std::string found;
    ASSERT_TRUE(
        table->InternalGet(ReadOptions(), buf, buf, &found, &SaveEntry).ok());
    // The first key at or past |buf| in reverse order: |buf| itself when
    // even, else the even key below it.
    char want[16];
    std::snprintf(want, sizeof(want), "k%06d", i - i % 2);
    EXPECT_EQ(std::string(want) + "=v" + want, found);
  }
}

}  // namespace
}  // namespace acheron
