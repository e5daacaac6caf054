#include "src/memtable/memtable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/key_windows.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/memtable_linker.h"
#include "src/lsm/options.h"
#include "src/lsm/write_batch.h"
#include "src/lsm/write_batch_internal.h"
#include "src/util/random.h"

namespace acheron {

class MemTableTest : public ::testing::Test {
 protected:
  MemTableTest()
      : icmp_(BytewiseComparator()),
        mem_(new MemTable(icmp_, Options().write_buffer_size)) {
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
  explicit CountingComparator(const char* name) : name_(name) {}
  int Compare(const Slice& a, const Slice& b) const override {
    count_.fetch_add(1, std::memory_order_relaxed);
    return BytewiseComparator()->Compare(a, b);
  }
  const char* Name() const override { return name_; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}

  // Every thread's calls: a DB's background threads compare too.
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  const char* const name_;
  mutable std::atomic<uint64_t> count_{0};
};

// RangeCovered(key, floor, snapshot) against the oracle's largest covering
// seq m: covered iff m > floor. Floors 0, m - 1 and m pin m exactly; a
// random one covers the run skipping.
::testing::AssertionResult CoverageMatchesOracle(
    const MemTable* mem, const std::vector<RangeTombstone>& ts, size_t n,
    const Slice& key, SequenceNumber snapshot, SequenceNumber random_floor) {
  const SequenceNumber m = LinearCoveringSeq(ts, n, key, snapshot);
  for (SequenceNumber floor :
       {SequenceNumber{0}, m > 0 ? m - 1 : 0, m, random_floor}) {
    if (mem->RangeCovered(key, floor, snapshot) != (m > floor)) {
      return ::testing::AssertionFailure()
             << "key " << key.ToString() << " snapshot " << snapshot
             << " floor " << floor << " oracle " << m;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

TEST_F(MemTableTest, RangeCoverageMatchesLinearOracleAcrossRebuilds) {
  // Probe after every insert, so every run-merge shape is queried.
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
      ASSERT_TRUE(CoverageMatchesOracle(mem_, ts, i + 1, key, snapshot,
                                        rnd.Uniform(i + 2)))
          << "after " << i + 1 << " tombstones";
    }
  }
  // Inverted and empty ranges are dropped before they reach the index.
  mem_->AddRange(n + 1, "r000009", "r000001");
  mem_->AddRange(n + 2, "r000005", "r000005");
  EXPECT_EQ(static_cast<uint64_t>(n), mem_->num_range_tombstones());
}

TEST_F(MemTableTest, RangeCoverageConcurrentWithIndexRebuilds) {
  // One writer (as the write-group leader) adds tombstones, each of which
  // rebuilds the index; three readers query concurrently. A reader that
  // saw tombstone s published must see every tombstone up to s.
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
        if (!CoverageMatchesOracle(mem_, ts, seen, key, seen,
                                   rnd.Uniform(seen + 1))) {
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
  // 16000 tombstones: a stack of one run per set bit of 16000 (six). One
  // query is at most a binary search and a begin test per run, against the
  // ~24000 comparisons of a linear scan. Under a comparator with the
  // bytewise name the searches compare windows and bytes and call it not
  // at all.
  const int n = 16000;
  const double runs = std::floor(std::log2(n)) + 1;
  const double per_run = std::log2(2.0 * n) + 2;  // one search + begin test
  std::vector<RangeTombstone> ts = RandomRanges(31, n, 4 * n);
  for (const char* name :
       {"test.CountingComparator", BytewiseComparator()->Name()}) {
    CountingComparator ucmp(name);
    InternalKeyComparator icmp(&ucmp);
    MemTable* mem = new MemTable(icmp, Options().write_buffer_size);
    mem->Ref();
    for (const RangeTombstone& t : ts) mem->AddRange(t.seq, t.begin, t.end);
    const double bound =
        OrdersBytewise(&ucmp) ? 0 : runs * per_run;
    Random rnd(32);
    for (int probe = 0; probe < 200; probe++) {
      const std::string key = RangeKey(rnd.Uniform(4 * n));
      const uint64_t before = ucmp.count();
      const bool covered = mem->RangeCovered(key, 0, kMaxSequenceNumber);
      const uint64_t cost = ucmp.count() - before;
      ASSERT_LE(static_cast<double>(cost), bound) << name << " key " << key;
      ASSERT_EQ(LinearCoveringSeq(ts, n, key, kMaxSequenceNumber) > 0,
                covered);
    }
    mem->Unref();
  }
}

TEST_F(MemTableTest, RangeIndexMemoryStaysWithinBound) {
  // The m-th tombstone builds a run of 2^(trailing zeros of m) tombstones,
  // so all runs ever built, live or retired, hold about (log2(n) + 2) / 2
  // times the tombstones of the live index. With each run's fixed size
  // that stays within 9 times the live index's bytes up to 16000.
  const int n = 16000;
  std::vector<RangeTombstone> ts = RandomRanges(41, n, 4 * n);
  for (int i = 0; i < n; i++) {
    mem_->AddRange(ts[i].seq, ts[i].begin, ts[i].end);
    if ((i + 1) % 500 != 0) continue;
    size_t live = 0, total = 0;
    mem_->RangeIndexMemoryUsage(&live, &total);
    ASSERT_GT(live, 0u);
    ASSERT_LE(static_cast<double>(total), 9.0 * live)
        << "after " << i + 1 << " tombstones";
  }
}

// ---- The key filter in front of the skiplist ----

// A random byte string of 0..24 bytes, 0x00 and 0xff included.
std::string RandomBytesKey(Random* rnd) {
  std::string key(rnd->Uniform(25), '\0');
  for (char& c : key) {
    const uint64_t r = rnd->Uniform(8);
    c = static_cast<char>(r == 0 ? 0x00 : r == 1 ? 0xff : rnd->Uniform(256));
  }
  return key;
}

// Every added key is found with its own type, whatever the filter's size:
// a 4 KiB write buffer gives a two-line filter that saturates, the default
// one a 128 KiB filter that stays sparse. Keys reach the memtable through
// Add and through a batch re-read from its encoded contents, as WAL replay
// inserts them.
TEST(MemTableFilterTest, NoFalseNegatives) {
  for (size_t write_buffer_size :
       {size_t{4} << 10, Options().write_buffer_size}) {
    InternalKeyComparator icmp(BytewiseComparator());
    MemTable* mem = new MemTable(icmp, write_buffer_size);
    mem->Ref();
    Random rnd(static_cast<uint32_t>(write_buffer_size));
    std::map<std::string, ValueType> added;
    SequenceNumber seq = 0;
    WriteBatch batch;
    for (int i = 0; i < 20000; i++) {
      const std::string key = RandomBytesKey(&rnd);
      const uint64_t r = rnd.Uniform(3);
      const ValueType type = r == 0   ? kTypeDeletion
                             : r == 1 ? kTypeValuePointer
                                      : kTypeValue;
      if (rnd.OneIn(2)) {
        mem->Add(++seq, type, key, type == kTypeDeletion ? "" : "v");
      } else {
        // Replay path: one-entry batches, encoded and decoded.
        batch.Clear();
        if (type == kTypeDeletion) {
          batch.Delete(key);
        } else if (type == kTypeValuePointer) {
          batch.PutPointer(key, "v");
        } else {
          batch.Put(key, "v");
        }
        WriteBatchInternal::SetSequence(&batch, ++seq);
        WriteBatch replayed;
        WriteBatchInternal::SetContents(&replayed,
                                        WriteBatchInternal::Contents(&batch));
        ASSERT_TRUE(WriteBatchInternal::InsertInto(&replayed, mem).ok());
      }
      added[key] = type;
    }
    for (const auto& [key, type] : added) {
      std::string value;
      Status s;
      bool is_pointer = false;
      LookupKey lkey(key, seq);
      ASSERT_TRUE(mem->Get(lkey, &value, &s, nullptr, &is_pointer))
          << "write_buffer_size " << write_buffer_size << " key size "
          << key.size();
      EXPECT_EQ(type == kTypeDeletion, s.IsNotFound());
      EXPECT_EQ(type == kTypeValuePointer, is_pointer);
    }
    mem->Unref();
  }
}

// Runs background rounds only while not held: a memtable the writer swaps
// out stays the immutable memtable until Release.
class HeldRoundEnv : public FaultInjectionEnv {
 public:
  explicit HeldRoundEnv(Env* base) : FaultInjectionEnv(base) {}

  void Schedule(void (*function)(void*), void* arg) override {
    {
      std::lock_guard<std::mutex> l(mu_);
      if (held_) {
        jobs_.emplace_back(function, arg);
        return;
      }
    }
    FaultInjectionEnv::Schedule(function, arg);
  }

  void Hold() {
    std::lock_guard<std::mutex> l(mu_);
    held_ = true;
  }

  void Release() {
    std::deque<std::pair<void (*)(void*), void*>> jobs;
    {
      std::lock_guard<std::mutex> l(mu_);
      held_ = false;
      jobs.swap(jobs_);
    }
    for (const auto& [function, arg] : jobs) {
      FaultInjectionEnv::Schedule(function, arg);
    }
  }

 private:
  std::mutex mu_;
  bool held_ = false;
  std::deque<std::pair<void (*)(void*), void*>> jobs_;
};

// Through the DB: puts, deletes and separated values (vLog pointers in the
// memtable) are all found in the immutable memtable while its flush is
// held, in the active memtable, and after a reopen replays the WAL.
TEST(MemTableFilterTest, DbFindsKeysInMemImmAndAfterReplay) {
  std::unique_ptr<Env> mem_env(NewMemEnv());
  HeldRoundEnv env(mem_env.get());
  Options options;
  options.env = &env;
  options.write_buffer_size = 16 << 10;
  options.value_separation_threshold = 256;
  std::unique_ptr<DB> db;
  auto open = [&] {
    db.reset();
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
    db.reset(raw);
  };
  open();
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  // Key i holds a small value (i % 3 == 0), a separated one (1), or a
  // value and then its delete (2).
  auto value_of = [](int i) {
    return std::string(i % 3 == 1 ? 300 : 20, static_cast<char>('a' + i % 26));
  };
  auto write = [&](int i) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), value_of(i)).ok());
    if (i % 3 == 2) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key(i)).ok());
    }
  };
  auto check = [&](int n, const char* where) {
    std::string value;
    for (int i = 0; i < n; i++) {
      Status s = db->Get(ReadOptions(), key(i), &value);
      if (i % 3 == 2) {
        ASSERT_TRUE(s.IsNotFound()) << where << " " << key(i);
      } else {
        ASSERT_TRUE(s.ok()) << where << " " << key(i) << " " << s.ToString();
        ASSERT_EQ(value, value_of(i)) << where << " " << key(i);
      }
      // Never-written keys between the written ones stay absent.
      ASSERT_TRUE(db->Get(ReadOptions(), key(i) + "x", &value).IsNotFound());
    }
  };

  env.Hold();
  const uint64_t swaps = db->GetStats().memtable_swaps;
  int n = 0;
  while (db->GetStats().memtable_swaps == swaps) write(n++);
  // The swapped-out memtable is the immutable one: nothing has flushed.
  std::string files;
  ASSERT_TRUE(db->GetProperty("acheron.num-files-at-level0", &files));
  ASSERT_EQ(files, "0");
  for (int end = n + 20; n < end; n++) write(n);
  check(n, "mem+imm");

  env.Release();
  check(n, "after flush");
  for (int end = n + 50; n < end; n++) write(n);
  open();  // the last writes come back from the WAL
  check(n, "after replay");
  db.reset();
}

// MultiGet at an explicit older snapshot returns, key for key, what Get
// returns at that snapshot. The batch reaches every place a version can
// live: tables, the immutable memtable (its flush held), the active
// memtable with its nodes still in the linker's ring, and vLog pointers in
// all three. It also holds range-covered keys, keys overwritten or deleted
// after the snapshot, absent keys and one key twice.
TEST(MultiGetSnapshotTest, MatchesGetAtAnOlderSnapshot) {
  std::unique_ptr<Env> mem_env(NewMemEnv());
  HeldRoundEnv env(mem_env.get());
  Options options;
  options.env = &env;
  options.write_buffer_size = 16 << 10;
  options.value_separation_threshold = 256;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  MemTableLinker* linker = static_cast<DBImpl*>(db.get())->TEST_linker();

  // Key i of a tier gets a small value, a separated one, or a value and
  // then its delete.
  std::map<std::string, std::string> model;
  auto write = [&](const std::string& tier, int i, const std::string& tag) {
    const std::string key = tier + std::to_string(1000 + i);
    const std::string value =
        tag + std::string(i % 3 == 1 ? 300 : 20,
                          static_cast<char>('a' + i % 26));
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
    model[key] = value;
    if (i % 3 == 2) {
      ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
      model.erase(key);
    }
  };
  auto delete_range = [&](const std::string& begin, const std::string& end) {
    ASSERT_TRUE(db->DeleteRange(WriteOptions(), begin, end).ok());
    model.erase(model.lower_bound(begin), model.lower_bound(end));
  };

  // Tables: written, then flushed.
  for (int i = 0; i < 60; i++) write("t", i, "v1");
  delete_range("t1010", "t1020");
  ASSERT_TRUE(db->FlushMemTable().ok());

  // The immutable memtable: fill one until it swaps, with its flush held.
  env.Hold();
  const uint64_t swaps = db->GetStats().memtable_swaps;
  int n = 0;
  while (db->GetStats().memtable_swaps == swaps) write("i", n++, "v1");
  std::string files;
  ASSERT_TRUE(db->GetProperty("acheron.num-files-at-level0", &files));
  ASSERT_EQ(files, "1");  // the first flush only; imm is not flushed

  // The active memtable, with its nodes pending in the linker's ring.
  linker->TEST_Hold(true);
  for (int i = 0; i < 30; i++) write("m", i, "v1");
  delete_range("i1003", "i1007");
  delete_range("m1020", "m1024");
  ASSERT_GT(linker->TEST_Pending(), 0u);
  const Snapshot* snapshot = db->GetSnapshot();
  const std::map<std::string, std::string> at_snapshot = model;

  // After the snapshot: overwrite, delete and range-delete in every tier.
  for (const char* tier : {"t", "i", "m"}) {
    for (int i = 0; i < 30; i += 4) write(tier, i, "v2");
    ASSERT_TRUE(db->Delete(WriteOptions(), std::string(tier) + "1005").ok());
  }
  delete_range("t1030", "t1040");
  delete_range("m1000", "m1003");

  std::vector<std::string> keys;
  for (const char* tier : {"t", "i", "m"}) {
    for (int i = 0; i < 60; i++) {
      keys.push_back(tier + std::to_string(1000 + i));
    }
  }
  keys.push_back("absent");
  keys.push_back("m1001");  // twice in one batch
  std::vector<Slice> slices(keys.begin(), keys.end());

  ReadOptions ro;
  ro.snapshot = snapshot;
  std::vector<std::string> values;
  std::vector<Status> statuses = db->MultiGet(ro, slices, &values);
  ASSERT_EQ(keys.size(), statuses.size());
  ASSERT_EQ(keys.size(), values.size());
  ASSERT_GT(linker->TEST_Pending(), 0u);  // nothing waited on the linker
  size_t found = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    std::string value;
    Status s = db->Get(ro, keys[i], &value);
    ASSERT_EQ(s.ToString(), statuses[i].ToString()) << keys[i];
    ASSERT_EQ(value, values[i]) << keys[i];
    auto it = at_snapshot.find(keys[i]);
    if (it == at_snapshot.end()) {
      ASSERT_TRUE(statuses[i].IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE(statuses[i].ok())
          << keys[i] << " " << statuses[i].ToString();
      ASSERT_EQ(it->second, values[i]) << keys[i];
      found++;
    }
  }
  EXPECT_GT(found, 60u);

  db->ReleaseSnapshot(snapshot);
  linker->TEST_Hold(false);
  env.Release();
  db.reset();
}

// ---- Range coverage through the DB: the floor, the sources, the budget ----

namespace {

// One write of a model history; the i-th write takes the i-th sequence.
struct ModelOp {
  enum Kind { kPut, kDelete, kRange } kind;
  std::string key;  // the range's begin for kRange
  std::string end;  // kRange only
  std::string value;
};

std::string CoverKey(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "c%05llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// What a Get of |key| at a snapshot that sees the first |visible| writes
// returns: the newest put or delete of the key, unless a range delete
// written after it covers the key. A linear scan of the history.
std::string ModelGet(const std::vector<ModelOp>& ops, size_t visible,
                     const std::string& key) {
  for (size_t i = visible; i-- > 0;) {
    const ModelOp& op = ops[i];
    if (op.kind == ModelOp::kRange || op.key != key) continue;
    if (op.kind == ModelOp::kDelete) return "NOT_FOUND";
    for (size_t j = i + 1; j < visible; j++) {
      if (ops[j].kind == ModelOp::kRange && ops[j].key <= key &&
          key < ops[j].end) {
        return "NOT_FOUND";
      }
    }
    return op.value;
  }
  return "NOT_FOUND";
}

// A DB whose range tombstones sit in every place a Get tests: tables at
// levels 0, 1 and 2 (16 KiB write buffers and a size ratio of 2 deepen the
// tree quickly), the immutable memtable (its flush held) and the active
// memtable, with snapshots taken along the way so compactions keep every
// tombstone. Entries written at every stage give the deciding entry of a
// Get -- the coverage floor -- every age.
class CoverageDb {
 public:
  explicit CoverageDb(const Comparator* ucmp)
      : mem_env_(NewMemEnv()), env_(mem_env_.get()) {
    options_.env = &env_;
    options_.comparator = ucmp;
    options_.write_buffer_size = 16 << 10;
    options_.size_ratio = 2;
    DB* raw = nullptr;
    EXPECT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
    Random rnd(2024);
    snapshots_.emplace_back(db_->GetSnapshot(), 0);
    Write(&rnd, 3000);
    EXPECT_TRUE(db_->WaitForCompactions().ok());
    // L0's files go to L1 above the deepest level, and a last flush leaves
    // one in L0.
    impl()->TEST_CompactRange(0, nullptr, nullptr);
    Write(&rnd, 40);
    EXPECT_TRUE(db_->FlushMemTable().ok());
    env_.Hold();
    const uint64_t swaps = db_->GetStats().memtable_swaps;
    while (db_->GetStats().memtable_swaps == swaps) Write(&rnd, 1);
    Write(&rnd, 40);
    // Let the linker link every node, so nothing races a count.
    while (impl()->TEST_linker()->TEST_Pending() > 0) {
      std::this_thread::yield();
    }
  }

  ~CoverageDb() {
    for (const auto& [snapshot, visible] : snapshots_) {
      db_->ReleaseSnapshot(snapshot);
    }
    env_.Release();
    db_.reset();
  }

  DB* db() const { return db_.get(); }
  const std::vector<ModelOp>& ops() const { return ops_; }
  const std::vector<std::pair<const Snapshot*, size_t>>& snapshots() const {
    return snapshots_;
  }
  int FilesAtLevel(int level) const {
    std::string files;
    EXPECT_TRUE(db_->GetProperty(
        "acheron.num-files-at-level" + std::to_string(level), &files));
    return std::stoi(files);
  }

  std::string Get(const std::string& key, const Snapshot* snapshot) const {
    ReadOptions ro;
    ro.snapshot = snapshot;
    std::string value;
    Status s = db_->Get(ro, key, &value);
    if (s.IsNotFound()) return "NOT_FOUND";
    return s.ok() ? value : s.ToString();
  }

  static constexpr uint64_t kKeys = 600;

 private:
  DBImpl* impl() const { return static_cast<DBImpl*>(db_.get()); }

  // |n| random writes: 60% puts, 15% deletes, 25% range deletes of 1 to 8
  // keys; a snapshot every 100 writes.
  void Write(Random* rnd, int n) {
    for (int i = 0; i < n; i++) {
      ModelOp op;
      const uint64_t r = rnd->Uniform(100);
      const uint64_t k = rnd->Uniform(kKeys);
      op.key = CoverKey(k);
      if (r < 60) {
        op.kind = ModelOp::kPut;
        op.value = "v" + std::to_string(ops_.size());
        EXPECT_TRUE(db_->Put(WriteOptions(), op.key, op.value).ok());
      } else if (r < 75) {
        op.kind = ModelOp::kDelete;
        EXPECT_TRUE(db_->Delete(WriteOptions(), op.key).ok());
      } else {
        op.kind = ModelOp::kRange;
        op.end = CoverKey(k + 1 + rnd->Uniform(8));
        EXPECT_TRUE(db_->DeleteRange(WriteOptions(), op.key, op.end).ok());
      }
      ops_.push_back(op);
      if (ops_.size() % 100 == 0) {
        snapshots_.emplace_back(db_->GetSnapshot(), ops_.size());
      }
    }
  }

  std::unique_ptr<Env> mem_env_;
  HeldRoundEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
  std::vector<ModelOp> ops_;
  std::vector<std::pair<const Snapshot*, size_t>> snapshots_;
};

}  // namespace

// Every Get, at every snapshot and at the latest sequence, matches the
// linear model: range coverage with the deciding entry's sequence as its
// floor, over the memtable's runs, the immutable memtable and the version.
// Under the bytewise name the tables' index blocks and the levels' file
// bounds are searched by windows; under another name, by the comparator.
TEST(RangeCoverageDbTest, GetMatchesLinearOracleAcrossSources) {
  for (const char* name :
       {BytewiseComparator()->Name(), "test.CountingComparator"}) {
    CountingComparator ucmp(name);
    CoverageDb cdb(&ucmp);
    ASSERT_GT(cdb.FilesAtLevel(0), 0) << name;
    ASSERT_GT(cdb.FilesAtLevel(1), 0) << name;
    ASSERT_GT(cdb.FilesAtLevel(2), 0) << name;
    std::vector<std::pair<const Snapshot*, size_t>> reads = cdb.snapshots();
    reads.emplace_back(nullptr, cdb.ops().size());
    for (const auto& [snapshot, visible] : reads) {
      for (uint64_t k = 0; k <= CoverageDb::kKeys; k++) {
        for (const std::string& key : {CoverKey(k), CoverKey(k) + "x"}) {
          ASSERT_EQ(ModelGet(cdb.ops(), visible, key), cdb.Get(key, snapshot))
              << name << " key " << key << " after " << visible << " writes";
        }
      }
    }
  }
}

// With range tombstones in the active and immutable memtables and in three
// levels, no Get at the latest sequence makes more than kBudget comparator
// calls under the bytewise name. Coverage makes none (it compares windows
// and bytes), and finding a file at a level or a block in a table's index
// makes one only on a window tie. What is left is the point search: a
// skiplist search in each memtable whose filter admits the key (about
// 2 log2(n) at n entries, under 20 here) and, in each table probed, a
// data-block search (log2 of its restart count plus at most 16).
TEST(RangeCoverageDbTest, GetStaysWithinComparisonBudget) {
  constexpr uint64_t kBudget = 48;
  CountingComparator ucmp(BytewiseComparator()->Name());
  CoverageDb cdb(&ucmp);
  // The first Get after the last flush too: the flush's thread fragmented
  // the new version's tombstones, so no read does.
  for (uint64_t k = 0; k <= CoverageDb::kKeys; k++) {
    for (const std::string& key : {CoverKey(k), CoverKey(k) + "x"}) {
      const uint64_t before = ucmp.count();
      ASSERT_EQ(ModelGet(cdb.ops(), cdb.ops().size(), key),
                cdb.Get(key, nullptr));
      ASSERT_LE(ucmp.count() - before, kBudget) << key;
    }
  }
}

}  // namespace acheron
