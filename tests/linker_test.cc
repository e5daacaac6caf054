// The memtable linker (src/lsm/memtable_linker.h): MemTable::Add prepares a
// node and pushes it onto the linker's ring; a linker thread links it.
// These tests pin down what readers see while nodes are pending, that the
// flush points do not depend on who links, and read-your-writes across
// threads while the linker runs. The hooks hold the linker (nodes stay in
// the ring until a drain or a full ring links them), keep it armed, or
// pause a reader right after it loads its window of the ring.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/memtable_linker.h"
#include "src/memtable/memtable.h"
#include "src/util/random.h"

namespace acheron {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%06llu",
                static_cast<unsigned long long>(i));
  return buf;
}

// A one-shot gate: the first Pause() blocks until Open(); later calls pass.
class Gate {
 public:
  void Pause() {
    std::unique_lock<std::mutex> l(mu_);
    if (used_) return;
    used_ = true;
    paused_ = true;
    cv_.notify_all();
    cv_.wait(l, [&] { return open_; });
  }
  void WaitPaused() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return paused_; });
  }
  void Open() {
    std::lock_guard<std::mutex> l(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool used_ = false;
  bool paused_ = false;
  bool open_ = false;
};

// ---------------- MemTable + linker, no DB ----------------

class MemTableLinkerTest : public ::testing::Test {
 protected:
  MemTableLinkerTest()
      : icmp_(BytewiseComparator()),
        mem_(new MemTable(icmp_, 4 << 20)),
        linker_(std::make_unique<MemTableLinker>(DefaultEnv())) {
    mem_->Ref();
  }
  ~MemTableLinkerTest() override {
    linker_.reset();  // drains into mem_ first
    mem_->Unref();
  }

  // The value Get answers for |key| at |seq|, "NotFound", or "absent".
  std::string Lookup(const std::string& key, SequenceNumber seq,
                     const MemTable::LinkQueue* pending) {
    LookupKey lkey(key, seq);
    std::string value;
    Status s;
    if (!mem_->Get(lkey, &value, &s, nullptr, nullptr, pending)) {
      return "absent";
    }
    return s.ok() ? value : "NotFound";
  }

  InternalKeyComparator icmp_;
  MemTable* mem_;
  std::unique_ptr<MemTableLinker> linker_;
};

TEST_F(MemTableLinkerTest, PendingNodesAnswerLookups) {
  linker_->TEST_Hold(true);
  mem_->Add(1, kTypeValue, "a", "a1", linker_.get());
  mem_->Add(2, kTypeValue, "b", "b2", linker_.get());
  mem_->Add(3, kTypeDeletion, "a", "", linker_.get());
  mem_->Add(4, kTypeValue, "a", "a4", linker_.get());
  EXPECT_EQ(4u, linker_->TEST_Pending());

  // Only the ring knows them: the skiplist alone answers nothing.
  EXPECT_EQ("absent", Lookup("a", 10, nullptr));
  EXPECT_EQ("a4", Lookup("a", 10, linker_.get()));
  EXPECT_EQ("NotFound", Lookup("a", 3, linker_.get()));
  EXPECT_EQ("a1", Lookup("a", 2, linker_.get()));
  EXPECT_EQ("b2", Lookup("b", 10, linker_.get()));
  EXPECT_EQ("absent", Lookup("b", 1, linker_.get()));
  EXPECT_EQ("absent", Lookup("c", 10, linker_.get()));

  linker_->Drain();
  EXPECT_EQ(0u, linker_->TEST_Pending());
  EXPECT_EQ("a4", Lookup("a", 10, nullptr));
  EXPECT_EQ("a4", Lookup("a", 10, linker_.get()));
  EXPECT_EQ("a1", Lookup("a", 2, linker_.get()));
}

// MemTable::Get's contract with FindPending: the ring may answer with an
// entry older than one already linked, and the larger sequence must win.
// Here the newer version is linked by a plain Add while the older one
// waits in the held ring; an early return on the ring hit reads "old".
TEST_F(MemTableLinkerTest, PendingHitDoesNotEndTheLookup) {
  linker_->TEST_Hold(true);
  mem_->Add(1, kTypeValue, "k", "old", linker_.get());
  mem_->Add(2, kTypeValue, "k", "new");  // linked here, not pushed
  EXPECT_EQ(1u, linker_->TEST_Pending());
  EXPECT_EQ("new", Lookup("k", 10, linker_.get()));
  EXPECT_EQ("old", Lookup("k", 1, linker_.get()));
  mem_->Add(3, kTypeDeletion, "k", "");
  EXPECT_EQ("NotFound", Lookup("k", 10, linker_.get()));
}

// The arena calls of Add do not depend on who links, so neither does
// ApproximateMemoryUsage -- the flush trigger.
TEST_F(MemTableLinkerTest, MemoryUsageSequenceIsTheSameHeldAndRunning) {
  auto usage_sequence = [&](int mode) {
    std::vector<size_t> usage;
    MemTable* mem = new MemTable(icmp_, 4 << 20);
    mem->Ref();
    {
      MemTableLinker linker(DefaultEnv());
      if (mode == 1) linker.TEST_Hold(true);
      if (mode == 2) linker.TEST_KeepArmed(true);
      Random rnd(7);
      for (int i = 0; i < 5000; i++) {
        const std::string value(rnd.Uniform(300), 'v');
        mem->Add(i + 1, i % 5 == 4 ? kTypeDeletion : kTypeValue,
                 Key(rnd.Uniform(2000)), value,
                 mode == 0 ? nullptr : &linker);
        usage.push_back(mem->ApproximateMemoryUsage());
      }
    }
    mem->Unref();
    return usage;
  };
  const std::vector<size_t> plain = usage_sequence(0);
  EXPECT_EQ(plain, usage_sequence(1));
  EXPECT_EQ(plain, usage_sequence(2));
}

// The rate rule: writes slower than kArmLinks per kArmMicros link inline
// and leave the linker parked; fast ones arm it; an idle linker parks.
TEST_F(MemTableLinkerTest, ArmsOnFastWritesAndParksWhenIdle) {
  uint64_t seq = 1;
  for (int i = 0; i < 3 * static_cast<int>(MemTableLinker::kArmLinks); i++) {
    mem_->Add(seq, kTypeValue, Key(seq), "v", linker_.get());
    seq++;
    DefaultEnv()->SleepForMicroseconds(MemTableLinker::kArmMicros / 2);
  }
  EXPECT_FALSE(linker_->TEST_Armed());
  EXPECT_EQ(0u, linker_->TEST_Pending());

  while (!linker_->TEST_Armed() && seq < 100000) {
    mem_->Add(seq, kTypeValue, Key(seq), "v", linker_.get());
    seq++;
  }
  EXPECT_TRUE(linker_->TEST_Armed());

  for (int i = 0; i < 1000 && linker_->TEST_Armed(); i++) {
    DefaultEnv()->SleepForMicroseconds(1000);
  }
  EXPECT_FALSE(linker_->TEST_Armed());
  EXPECT_EQ(0u, linker_->TEST_Pending());
  for (uint64_t i = 1; i < seq; i += 101) {
    EXPECT_EQ("v", Lookup(Key(i), seq, nullptr));
  }
}

// Read-your-writes across threads with the linker thread linking: once the
// writer publishes a sequence, every node at or below it is found, whether
// it still waits in the ring or is already linked.
TEST_F(MemTableLinkerTest, ReadersSeePublishedNodesWhileTheLinkerRuns) {
  linker_->TEST_KeepArmed(true);
  constexpr int kWrites = 20000;
  std::atomic<uint64_t> published{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; t++) {
    readers.emplace_back([&, t] {
      Random rnd(11 + t);
      while (published.load(std::memory_order_acquire) < kWrites) {
        const uint64_t last = published.load(std::memory_order_acquire);
        if (last == 0) continue;
        const uint64_t i = 1 + rnd.Uniform(static_cast<int>(last));
        if (Lookup(Key(i), last, linker_.get()) != "v" + Key(i)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t i = 1; i <= kWrites; i++) {
    mem_->Add(i, kTypeValue, Key(i), "v" + Key(i), linker_.get());
    published.store(i, std::memory_order_release);
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(0, errors.load());
  linker_->Drain();
  for (uint64_t i = 1; i <= kWrites; i += 97) {
    EXPECT_EQ("v" + Key(i), Lookup(Key(i), kWrites, nullptr));
  }
}

// ---------------- Through the DB ----------------

class LinkerDBTest : public ::testing::Test {
 protected:
  LinkerDBTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.write_buffer_size = 64 << 10;
  }
  ~LinkerDBTest() override { delete db_; }

  void Open() {
    delete db_;
    db_ = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }
  MemTableLinker* linker() {
    return static_cast<DBImpl*>(db_)->TEST_linker();
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_ = nullptr;
};

// The stale-read regression for a slot recycled mid-scan: a Get loads its
// window of the ring while its key's only version is pending, then stops
// (scan hook) while the ring is linked and turned over, so every slot it
// is about to read holds a later push. The version must come from the
// skiplist. A reader that searched the skiplist before loading the window
// would find it in neither place.
TEST_F(LinkerDBTest, RecycledSlotMidScanIsReadFromTheSkiplist) {
  Open();
  linker()->TEST_Hold(true);
  ASSERT_TRUE(db_->Put(WriteOptions(), "key", "v1").ok());
  ASSERT_EQ(1u, linker()->TEST_Pending());

  Gate gate;
  linker()->TEST_SetScanHook([&] { gate.Pause(); });
  std::string got;
  Status got_status;
  std::thread reader([&] { got_status = db_->Get(ReadOptions(), "key", &got); });
  gate.WaitPaused();
  // Invisible to the paused reader (its snapshot is older), and enough
  // pushes to reuse every slot: the full ring links itself as it turns.
  ASSERT_TRUE(db_->Put(WriteOptions(), "key", "v2").ok());
  for (uint64_t i = 0; i < MemTableLinker::kRingSize + 8; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "x").ok());
  }
  gate.Open();
  reader.join();
  linker()->TEST_SetScanHook(nullptr);

  ASSERT_TRUE(got_status.ok()) << got_status.ToString();
  EXPECT_EQ("v1", got);
  std::string now;
  ASSERT_TRUE(db_->Get(ReadOptions(), "key", &now).ok());
  EXPECT_EQ("v2", now);
}

// Gets and MultiGets answered from the ring stay off the DB mutex, like
// every other lookup (ConcurrencyTest.GetTakesNoMutex).
TEST_F(LinkerDBTest, RingLookupsTakeNoMutex) {
  Open();
  linker()->TEST_Hold(true);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v" + Key(i)).ok());
  }
  ASSERT_EQ(100u, linker()->TEST_Pending());

  std::string c0, c1, value;
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c0));
  for (int i = 0; i < 120; i++) {
    Status s = db_->Get(ReadOptions(), Key(i), &value);
    if (i < 100) {
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ("v" + Key(i), value);
    } else {
      ASSERT_TRUE(s.IsNotFound());
    }
  }
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 90; i < 106; i++) keys.push_back(Key(i));
  for (const std::string& k : keys) slices.push_back(k);
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(
      ReadOptions(), std::span<const Slice>(slices.data(), slices.size()),
      &values);
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(i < 10, statuses[i].ok()) << keys[i];
  }
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c1));
  EXPECT_EQ(std::stoull(c0) + 1, std::stoull(c1));
  // The lookups waited for nothing: the nodes are still pending.
  EXPECT_EQ(100u, linker()->TEST_Pending());
}

// An iterator links what its snapshot admits before it reads the skiplist.
TEST_F(LinkerDBTest, IteratorDrainsTheRing) {
  Open();
  linker()->TEST_Hold(true);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->Delete(WriteOptions(), Key(7)).ok());
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  EXPECT_EQ(0u, linker()->TEST_Pending());
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(49, n);
}

// The flush points: the same single-threaded history swaps its memtables
// after the same writes whether the linker is held, kept armed or left to
// its rate rule.
TEST_F(LinkerDBTest, FlushPointsDoNotDependOnTheLinker) {
  auto swap_points = [&](int mode) {
    delete db_;
    db_ = nullptr;
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    Open();
    if (mode == 1) linker()->TEST_Hold(true);
    if (mode == 2) linker()->TEST_KeepArmed(true);
    std::vector<uint64_t> swaps;
    Random rnd(3);
    for (int i = 0; i < 6000; i++) {
      const std::string k = Key(rnd.Uniform(3000));
      Status s = rnd.Uniform(4) == 0
                     ? db_->Delete(WriteOptions(), k)
                     : db_->Put(WriteOptions(), k,
                                std::string(rnd.Uniform(200), 'v'));
      EXPECT_TRUE(s.ok());
      swaps.push_back(db_->GetStats().memtable_swaps);
    }
    return swaps;
  };
  const std::vector<uint64_t> default_mode = swap_points(0);
  EXPECT_GT(default_mode.back(), 5u);
  EXPECT_EQ(default_mode, swap_points(1));
  EXPECT_EQ(default_mode, swap_points(2));
}

// Read-your-writes across threads while the linker links: writers check
// their own writes with Get, MultiGet and iterators right after each ack,
// readers check writes other threads published, and the small write
// buffer swaps memtables underneath (each swap drains the ring).
TEST_F(LinkerDBTest, CrossThreadReadYourWrites) {
  options_.write_buffer_size = 16 << 10;
  Open();
  linker()->TEST_KeepArmed(true);
  constexpr int kWriters = 2;
  constexpr int kPerWriter = 3000;
  std::atomic<int> published[kWriters];
  for (auto& p : published) p.store(-1);
  std::atomic<int> errors{0};
  auto wkey = [](int w, int i) { return "w" + std::to_string(w) + Key(i); };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; i++) {
        const std::string k = wkey(w, i);
        if (!db_->Put(WriteOptions(), k, "v" + k).ok()) errors.fetch_add(1);
        std::string v;
        if (!db_->Get(ReadOptions(), k, &v).ok() || v != "v" + k) {
          errors.fetch_add(1);
        }
        if (i % 50 == 0) {
          Slice one[1] = {k};
          std::vector<std::string> values;
          std::vector<Status> st = db_->MultiGet(
              ReadOptions(), std::span<const Slice>(one, 1), &values);
          if (!st[0].ok() || values[0] != "v" + k) errors.fetch_add(1);
        }
        if (i % 200 == 0) {
          std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
          it->Seek(k);
          if (!it->Valid() || it->key() != k || it->value() != "v" + k) {
            errors.fetch_add(1);
          }
        }
        published[w].store(i, std::memory_order_release);
      }
    });
  }
  threads.emplace_back([&] {
    Random rnd(5);
    std::string v;
    while (published[0].load(std::memory_order_acquire) < kPerWriter - 1 ||
           published[1].load(std::memory_order_acquire) < kPerWriter - 1) {
      const int w = static_cast<int>(rnd.Uniform(kWriters));
      const int last = published[w].load(std::memory_order_acquire);
      if (last < 0) continue;
      const std::string k = wkey(w, static_cast<int>(rnd.Uniform(last + 1)));
      if (!db_->Get(ReadOptions(), k, &v).ok() || v != "v" + k) {
        errors.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(0, errors.load());
  EXPECT_GT(db_->GetStats().memtable_swaps, 3u);
}

}  // namespace
}  // namespace acheron
