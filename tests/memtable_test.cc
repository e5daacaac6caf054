#include "src/memtable/memtable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/random.h"

namespace acheron {

class MemTableTest : public ::testing::Test {
 protected:
  MemTableTest() : icmp_(BytewiseComparator()), mem_(new MemTable(icmp_)) {
    mem_->Ref();
  }
  ~MemTableTest() override { mem_->Unref(); }

  bool Get(const Slice& key, SequenceNumber seq, std::string* value,
           Status* s) {
    LookupKey lkey(key, seq);
    return mem_->Get(lkey, value, s);
  }

  InternalKeyComparator icmp_;
  MemTable* mem_;
};

TEST_F(MemTableTest, AddAndGet) {
  mem_->Add(1, kTypeValue, "key1", "value1");
  mem_->Add(2, kTypeValue, "key2", "value2");

  std::string value;
  Status s;
  ASSERT_TRUE(Get("key1", 10, &value, &s));
  EXPECT_EQ("value1", value);
  ASSERT_TRUE(Get("key2", 10, &value, &s));
  EXPECT_EQ("value2", value);
  EXPECT_FALSE(Get("key3", 10, &value, &s));
}

TEST_F(MemTableTest, DeleteHidesValue) {
  mem_->Add(1, kTypeValue, "k", "v");
  mem_->Add(2, kTypeDeletion, "k", "");

  std::string value;
  Status s;
  ASSERT_TRUE(Get("k", 10, &value, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(MemTableTest, SnapshotReads) {
  mem_->Add(1, kTypeValue, "k", "v1");
  mem_->Add(5, kTypeValue, "k", "v2");

  std::string value;
  Status s = Status::OK();
  // Read as of seq 3: sees v1.
  ASSERT_TRUE(Get("k", 3, &value, &s));
  EXPECT_EQ("v1", value);
  // Read as of seq 10: sees v2.
  ASSERT_TRUE(Get("k", 10, &value, &s));
  EXPECT_EQ("v2", value);
  // Read as of seq 0: sees nothing.
  EXPECT_FALSE(Get("k", 0, &value, &s));
}

TEST_F(MemTableTest, TombstoneStats) {
  EXPECT_EQ(0u, mem_->num_tombstones());
  EXPECT_EQ(kMaxSequenceNumber, mem_->earliest_tombstone_seq());

  mem_->Add(1, kTypeValue, "a", "x");
  mem_->Add(7, kTypeDeletion, "a", "");
  mem_->Add(9, kTypeDeletion, "b", "");

  EXPECT_EQ(2u, mem_->num_tombstones());
  EXPECT_EQ(7u, mem_->earliest_tombstone_seq());
  EXPECT_EQ(3u, mem_->num_entries());
}

TEST_F(MemTableTest, IteratorYieldsSortedInternalKeys) {
  mem_->Add(3, kTypeValue, "b", "vb");
  mem_->Add(1, kTypeValue, "a", "va");
  mem_->Add(2, kTypeValue, "c", "vc");
  mem_->Add(4, kTypeValue, "a", "va2");  // newer version of "a"

  std::unique_ptr<Iterator> it(mem_->NewIterator());
  it->SeekToFirst();
  // "a" seq 4 comes before "a" seq 1 (desc seq within same user key).
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", ExtractUserKey(it->key()).ToString());
  EXPECT_EQ(4u, ExtractSequence(it->key()));
  EXPECT_EQ("va2", it->value().ToString());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", ExtractUserKey(it->key()).ToString());
  EXPECT_EQ(1u, ExtractSequence(it->key()));
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("b", ExtractUserKey(it->key()).ToString());
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("c", ExtractUserKey(it->key()).ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST_F(MemTableTest, IteratorSeek) {
  for (int i = 0; i < 100; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", i);
    mem_->Add(i + 1, kTypeValue, buf, "v");
  }
  std::unique_ptr<Iterator> it(mem_->NewIterator());
  std::string target;
  AppendInternalKey(&target, ParsedInternalKey("key050", kMaxSequenceNumber,
                                               kValueTypeForSeek));
  it->Seek(target);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("key050", ExtractUserKey(it->key()).ToString());
}

TEST_F(MemTableTest, MemoryUsageGrows) {
  size_t before = mem_->ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    mem_->Add(i + 1, kTypeValue, "key" + std::to_string(i),
              std::string(100, 'v'));
  }
  EXPECT_GT(mem_->ApproximateMemoryUsage(), before + 100 * 1000);
}

TEST_F(MemTableTest, EmptyValueAndBinaryKeys) {
  std::string key_with_nul("k\0x", 3);
  mem_->Add(1, kTypeValue, key_with_nul, "");
  std::string value = "sentinel";
  Status s;
  ASSERT_TRUE(Get(key_with_nul, 5, &value, &s));
  EXPECT_EQ("", value);
}

// ---- Range-tombstone coverage index ----

namespace {

std::string RangeKey(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "r%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// Short random ranges with seqs in insertion order, as the write path adds
// them.
std::vector<RangeTombstone> RandomRanges(uint64_t seed, int n,
                                         uint64_t key_space) {
  Random rnd(seed);
  std::vector<RangeTombstone> out;
  for (int i = 0; i < n; i++) {
    const uint64_t b = rnd.Uniform(key_space);
    out.emplace_back(RangeKey(b), RangeKey(b + 1 + rnd.Skewed(5)), i + 1);
  }
  return out;
}

// Linear scan of the first |n| tombstones: the pre-index answer.
SequenceNumber LinearCoveringSeq(const std::vector<RangeTombstone>& ts,
                                 size_t n, const Slice& key,
                                 SequenceNumber snapshot) {
  SequenceNumber best = 0;
  for (size_t i = 0; i < n; i++) {
    const RangeTombstone& t = ts[i];
    if (t.seq <= snapshot && t.seq > best && Slice(t.begin).compare(key) <= 0 &&
        key.compare(Slice(t.end)) < 0) {
      best = t.seq;
    }
  }
  return best;
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

}  // namespace

TEST_F(MemTableTest, RangeCoverageMatchesLinearOracleAcrossRebuilds) {
  // Probe after every insert, so every tail length from 0 to
  // kRangeIndexTail - 1 and every run-merge shape is queried.
  const int n = 1500;
  const uint64_t key_space = 2000;
  std::vector<RangeTombstone> ts = RandomRanges(11, n, key_space);
  Random rnd(12);
  for (int i = 0; i < n; i++) {
    mem_->AddRange(ts[i].seq, ts[i].begin, ts[i].end);
    for (int probe = 0; probe < 4; probe++) {
      const std::string key = RangeKey(rnd.Uniform(key_space + 40));
      const SequenceNumber snapshot =
          rnd.OneIn(3) ? kMaxSequenceNumber : rnd.Uniform(i + 2);
      ASSERT_EQ(LinearCoveringSeq(ts, i + 1, key, snapshot),
                mem_->MaxRangeCoveringSeq(key, snapshot))
          << "after " << i + 1 << " tombstones, key " << key << " snapshot "
          << snapshot;
    }
  }
  // Inverted and empty ranges are dropped before they reach the index.
  mem_->AddRange(n + 1, "r000009", "r000001");
  mem_->AddRange(n + 2, "r000005", "r000005");
  EXPECT_EQ(static_cast<uint64_t>(n), mem_->num_range_tombstones());
}

TEST_F(MemTableTest, RangeCoverageConcurrentWithIndexRebuilds) {
  // One writer (as the write-group leader) adds tombstones, rebuilding the
  // index every kRangeIndexTail of them; three readers query concurrently.
  // A reader that saw tombstone s published must see every tombstone up to
  // s, whether it is still in the tail or already indexed.
  const int n = 3000;
  const uint64_t key_space = 4000;
  const std::vector<RangeTombstone> ts = RandomRanges(21, n, key_space);
  std::atomic<uint64_t> published{0};
  std::atomic<int> mismatches{0};
  std::thread writer([&] {
    for (int i = 0; i < n; i++) {
      mem_->AddRange(ts[i].seq, ts[i].begin, ts[i].end);
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random rnd(100 + r);
      uint64_t seen;
      do {
        seen = published.load(std::memory_order_acquire);
        const std::string key = RangeKey(rnd.Uniform(key_space));
        // The oracle runs first, so the writer has usually published newer
        // runs by the time the query reads them.
        const SequenceNumber want = LinearCoveringSeq(ts, seen, key, seen);
        if (mem_->MaxRangeCoveringSeq(key, seen) != want) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      } while (seen < static_cast<uint64_t>(n));
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(0, mismatches.load());
}

TEST(MemTableRangeIndexTest, CoverageQueryComparisonsAreLogarithmic) {
  // 16000 tombstones: a stack of six runs and an empty tail. One query is
  // a binary search per run plus a walk of the tail, against the ~24000
  // comparisons of a linear scan.
  const int n = 16000;
  CountingComparator ucmp;
  InternalKeyComparator icmp(&ucmp);
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  std::vector<RangeTombstone> ts = RandomRanges(31, n, 4 * n);
  for (const RangeTombstone& t : ts) mem->AddRange(t.seq, t.begin, t.end);

  const double log_runs = std::log2(n / double{MemTable::kRangeIndexTail});
  const double per_run = std::log2(2.0 * n) + 2;  // one search + begin test
  const double bound =
      (log_runs + 2) * per_run + 2.0 * MemTable::kRangeIndexTail;
  Random rnd(32);
  for (int probe = 0; probe < 200; probe++) {
    const std::string key = RangeKey(rnd.Uniform(4 * n));
    const uint64_t before = ucmp.count();
    const SequenceNumber got =
        mem->MaxRangeCoveringSeq(key, kMaxSequenceNumber);
    const uint64_t cost = ucmp.count() - before;
    ASSERT_LE(static_cast<double>(cost), bound) << "key " << key;
    ASSERT_EQ(LinearCoveringSeq(ts, n, key, kMaxSequenceNumber), got);
  }
  mem->Unref();
}

TEST_F(MemTableTest, RangeIndexMemoryStaysWithinBound) {
  // Every tombstone has been indexed at most log2(n / kRangeIndexTail) + 1
  // times, so all runs ever built, live or retired, stay within that many
  // times the live index.
  const int n = 16000;
  std::vector<RangeTombstone> ts = RandomRanges(41, n, 4 * n);
  for (int i = 0; i < n; i++) {
    mem_->AddRange(ts[i].seq, ts[i].begin, ts[i].end);
    if ((i + 1) % 500 != 0) continue;
    size_t live = 0, total = 0;
    mem_->RangeIndexMemoryUsage(&live, &total);
    const double multiple =
        std::floor(std::log2((i + 1) / double{MemTable::kRangeIndexTail})) +
        1;
    ASSERT_GT(live, 0u);
    ASSERT_LE(static_cast<double>(total), multiple * live)
        << "after " << i + 1 << " tombstones";
  }
}

}  // namespace acheron
