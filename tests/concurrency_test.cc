// Concurrency: readers (Gets, iterators, snapshots) race a writer thread.
// The engine serializes writers behind the DB mutex; readers pin state and
// proceed outside it. These tests verify absence of crashes/corruption and
// basic read-your-writes visibility under contention.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/util/random.h"

namespace acheron {

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 16 << 10;
    options_.delete_persistence_threshold = 20000;
    EXPECT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }
  ~ConcurrencyTest() override { delete db_; }

  static std::string Key(uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06llu",
                  static_cast<unsigned long long>(i));
    return buf;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_F(ConcurrencyTest, ReadersDuringWrites) {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};

  // Values encode the key so readers can verify integrity whenever a key is
  // found: value must be "val_<key>_<anything>".
  std::thread writer([&] {
    Random rnd(1);
    for (int i = 0; i < 30000; i++) {
      uint64_t k = rnd.Uniform(2000);
      if (rnd.Uniform(10) < 8) {
        ASSERT_TRUE(db_->Put(WriteOptions(), Key(k),
                             "val_" + Key(k) + "_" + std::to_string(i))
                        .ok());
      } else {
        ASSERT_TRUE(db_->Delete(WriteOptions(), Key(k)).ok());
      }
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      Random rnd(100 + t);
      std::string value;
      while (!done.load()) {
        uint64_t k = rnd.Uniform(2000);
        Status s = db_->Get(ReadOptions(), Key(k), &value);
        if (s.ok()) {
          if (value.rfind("val_" + Key(k) + "_", 0) != 0) {
            read_errors.fetch_add(1);
          }
        } else if (!s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
      }
    });
  }

  std::thread scanner([&] {
    while (!done.load()) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        if (!prev.empty() && key <= prev) {
          read_errors.fetch_add(1);  // ordering violation
        }
        prev = key;
      }
      if (!it->status().ok()) read_errors.fetch_add(1);
    }
  });

  writer.join();
  for (auto& r : readers) r.join();
  scanner.join();
  EXPECT_EQ(0u, read_errors.load());
}

TEST_F(ConcurrencyTest, ConcurrentWriters) {
  // Multiple writer threads serialize correctly: each writes a disjoint key
  // range; all writes must be present at the end.
  const int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(db_->Put(WriteOptions(),
                             Key(t * 1000000 + i),
                             std::to_string(t) + ":" + std::to_string(i))
                        .ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  std::string value;
  Random rnd(7);
  for (int probe = 0; probe < 2000; probe++) {
    int t = static_cast<int>(rnd.Uniform(kThreads));
    int i = static_cast<int>(rnd.Uniform(kPerThread));
    ASSERT_TRUE(db_->Get(ReadOptions(), Key(t * 1000000 + i), &value).ok());
    EXPECT_EQ(std::to_string(t) + ":" + std::to_string(i), value);
  }
}

TEST_F(ConcurrencyTest, SnapshotsUnderConcurrentChurn) {
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "original").ok());
  }
  const Snapshot* snap = db_->GetSnapshot();

  std::atomic<bool> done{false};
  std::thread churn([&] {
    Random rnd(3);
    for (int i = 0; i < 20000; i++) {
      uint64_t k = rnd.Uniform(500);
      if (rnd.OneIn(2)) {
        EXPECT_TRUE(db_->Put(WriteOptions(), Key(k), "mutated").ok());
      } else {
        EXPECT_TRUE(db_->Delete(WriteOptions(), Key(k)).ok());
      }
    }
    done.store(true);
  });

  ReadOptions ropts;
  ropts.snapshot = snap;
  std::string value;
  Random rnd(4);
  uint64_t violations = 0;
  while (!done.load()) {
    uint64_t k = rnd.Uniform(500);
    Status s = db_->Get(ropts, Key(k), &value);
    if (!s.ok() || value != "original") violations++;
  }
  churn.join();
  EXPECT_EQ(0u, violations);
  db_->ReleaseSnapshot(snap);
}

// --------------------------------------------------------------------------
// Background-compaction pipeline. These tests open their own DB so they can
// choose its options and Env.
// --------------------------------------------------------------------------

// Starts every background round |delay_micros| late: Schedule queues the
// job and hands the base Env a trampoline that sleeps on the worker thread
// before running it, so writers race far ahead of each round.
class DelayedRoundEnv : public FaultInjectionEnv {
 public:
  DelayedRoundEnv(Env* base, int delay_micros)
      : FaultInjectionEnv(base), delay_micros_(delay_micros) {}

  void Schedule(void (*function)(void*), void* arg) override {
    {
      std::lock_guard<std::mutex> l(mu_);
      jobs_.emplace_back(function, arg);
    }
    FaultInjectionEnv::Schedule(&DelayedRoundEnv::RunNext, this);
  }

 private:
  static void RunNext(void* env) {
    auto* self = static_cast<DelayedRoundEnv*>(env);
    self->SleepForMicroseconds(self->delay_micros_);
    std::pair<void (*)(void*), void*> job;
    {
      std::lock_guard<std::mutex> l(self->mu_);
      job = self->jobs_.front();  // the base worker runs FIFO
      self->jobs_.pop_front();
    }
    job.first(job.second);
  }

  const int delay_micros_;
  std::mutex mu_;
  std::deque<std::pair<void (*)(void*), void*>> jobs_;
};

class BackgroundConcurrencyTest : public ::testing::Test {
 protected:
  static std::string Key(uint64_t i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06llu",
                  static_cast<unsigned long long>(i));
    return buf;
  }

  // A fresh DB in a fresh mem env; a positive |round_delay_micros| starts
  // every background round that late (DelayedRoundEnv).
  struct TestDB {
    explicit TestDB(uint64_t d_th = 0, int round_delay_micros = 0)
        : env(NewMemEnv()) {
      options.env = env.get();
      if (round_delay_micros > 0) {
        delayed = std::make_unique<DelayedRoundEnv>(env.get(),
                                                    round_delay_micros);
        options.env = delayed.get();
      }
      options.write_buffer_size = 16 << 10;
      options.delete_persistence_threshold = d_th;
      DB* raw = nullptr;
      EXPECT_TRUE(DB::Open(options, "/db", &raw).ok());
      db.reset(raw);
    }
    std::unique_ptr<Env> env;
    std::unique_ptr<DelayedRoundEnv> delayed;
    Options options;
    std::unique_ptr<DB> db;
  };
};

TEST_F(BackgroundConcurrencyTest, WritersAndReadersUnderBackground) {
  TestDB t;
  const int kWriters = 3, kReaders = 2, kPerThread = 6000;
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(t.db->Put(WriteOptions(), Key(w * 1000000 + i),
                              std::to_string(w) + ":" + std::to_string(i))
                        .ok());
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rnd(50 + r);
      std::string value;
      while (writers_done.load() < kWriters) {
        int w = static_cast<int>(rnd.Uniform(kWriters));
        int i = static_cast<int>(rnd.Uniform(kPerThread));
        Status s = t.db->Get(ReadOptions(), Key(w * 1000000 + i), &value);
        if (s.ok()) {
          if (value != std::to_string(w) + ":" + std::to_string(i)) {
            read_errors.fetch_add(1);
          }
        } else if (!s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0u, read_errors.load());

  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  std::string value;
  Random rnd(9);
  for (int probe = 0; probe < 2000; probe++) {
    int w = static_cast<int>(rnd.Uniform(kWriters));
    int i = static_cast<int>(rnd.Uniform(kPerThread));
    ASSERT_TRUE(t.db->Get(ReadOptions(), Key(w * 1000000 + i), &value).ok());
    EXPECT_EQ(std::to_string(w) + ":" + std::to_string(i), value);
  }
  // The load was large enough that flushes really did run in the background.
  EXPECT_GT(t.db->GetStats().background_jobs_scheduled, 0u);
}

TEST_F(BackgroundConcurrencyTest, WaitForCompactionsQuiesces) {
  TestDB t;
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(i % 3000), "v" + Key(i)).ok());
  }
  ASSERT_TRUE(t.db->WaitForCompactions().ok());

  // Quiescent means: no immutable memtable, no pending compaction work.
  // Observable: L0 is below the compaction trigger and a second wait is a
  // no-op (engine counters do not move).
  std::string l0;
  ASSERT_TRUE(t.db->GetProperty("acheron.num-files-at-level0", &l0));
  EXPECT_LT(std::stoi(l0), t.options.level0_compaction_trigger);
  const InternalStats before = t.db->GetStats();
  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  const InternalStats after = t.db->GetStats();
  EXPECT_EQ(before.flush_count, after.flush_count);
  EXPECT_EQ(before.compaction_count, after.compaction_count);
}

TEST_F(BackgroundConcurrencyTest, DeleteBoundsIndependentOfRoundTiming) {
  // The determinism machinery (horizon captured at swap, flushes only at
  // round boundaries, horizon-stamped purge times, inline TTL expiry) makes
  // a round's result independent of when its thread runs: a
  // single-threaded workload must leave an identical tree -- same level
  // files, same live tombstones, same oldest tombstone age -- and identical
  // delete-persistence counts and latencies whether rounds start at once or
  // several ms late. This is the regression gate for FADE's D_th bound
  // under background execution.
  auto run = [](int round_delay_micros) {
    TestDB t(/*d_th=*/8000, round_delay_micros);
    Random rnd(11);
    for (int i = 0; i < 25000; i++) {
      uint64_t k = rnd.Uniform(2500);
      if (rnd.Uniform(10) < 7) {
        EXPECT_TRUE(
            t.db->Put(WriteOptions(), Key(k), "v" + std::to_string(i)).ok());
      } else {
        EXPECT_TRUE(t.db->Delete(WriteOptions(), Key(k)).ok());
      }
    }
    EXPECT_TRUE(t.db->WaitForCompactions().ok());
    std::string summary, tombstones, age, deletes;
    EXPECT_TRUE(t.db->GetProperty("acheron.level-summary", &summary));
    EXPECT_TRUE(t.db->GetProperty("acheron.total-tombstones", &tombstones));
    EXPECT_TRUE(t.db->GetProperty("acheron.max-tombstone-age", &age));
    EXPECT_TRUE(t.db->GetProperty("acheron.delete-stats", &deletes));
    // The workload must actually persist tombstones for this to gate D_th.
    EXPECT_GT(t.db->GetDeleteStats().tombstones_persisted, 0u);
    return summary + "|ts=" + tombstones + "|age=" + age + "|" + deletes;
  };
  EXPECT_EQ(run(0), run(/*round_delay_micros=*/3000));
}

// --------------------------------------------------------------------------
// Lock-free point-lookup hot path (DESIGN.md "Read path"): Gets and
// iterators pin an atomically published ReadState and never touch the DB
// mutex. The tests below pin down the zero-mutex property and race reads
// against every ReadState publish site -- memtable swaps, flush/compaction
// version installs, and manual CompactRange.
// --------------------------------------------------------------------------

TEST_F(ConcurrencyTest, GetTakesNoMutex) {
  // Spread data across memtable and table files so Gets walk every layer.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v" + Key(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  std::string c0, c1, value;
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c0));
  Random rnd(21);
  for (int i = 0; i < 5000; i++) {
    // ~25% misses so the not-found path is exercised too.
    Status s = db_->Get(ReadOptions(), Key(rnd.Uniform(4000)), &value);
    ASSERT_TRUE(s.ok() || s.IsNotFound());
  }
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c1));
  // On a quiesced DB the only acquisition between the two samples is the
  // second property call's own lock: N Gets contribute exactly zero.
  EXPECT_EQ(std::stoull(c0) + 1, std::stoull(c1));
}

TEST_F(ConcurrencyTest, IteratorTakesNoMutex) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  std::string c0, c1;
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c0));
  {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    uint64_t n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(2000u, n);
  }  // destruction = lock-free unref; the writer-side drain cleans up later
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c1));
  EXPECT_EQ(std::stoull(c0) + 1, std::stoull(c1));
}

TEST_F(ConcurrencyTest, StatsReadsRaceGets) {
  // TSan regression: GetProperty("acheron.stats")/GetStats() snapshot the
  // lock-free read counters (gets, gets_found, bloom_useful) while reader
  // threads bump them. Any non-atomic access is a reportable race.
  std::atomic<bool> done{false};
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v").ok());
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      Random rnd(60 + t);
      std::string value;
      while (!done.load()) {
        (void)db_->Get(ReadOptions(), Key(rnd.Uniform(600)), &value);
      }
    });
  }

  uint64_t prev_gets = 0;
  for (int i = 0; i < 2000; i++) {
    std::string text;
    ASSERT_TRUE(db_->GetProperty("acheron.stats", &text));
    const InternalStats stats = db_->GetStats();
    // The merged snapshot must be internally sane and monotone.
    EXPECT_GE(stats.gets, stats.gets_found);
    EXPECT_GE(stats.gets, prev_gets);
    prev_gets = stats.gets;
  }
  done.store(true);
  for (auto& th : threads) th.join();
}

TEST_F(BackgroundConcurrencyTest, GetsRaceMemtableSwaps) {
  // Readers hammer Gets while the writer forces frequent mem_ -> imm_
  // rotations (16KiB buffer): every swap republishes the ReadState under
  // the readers' feet. Values encode their key for integrity checking.
  TestDB t;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random rnd(80 + r);
      std::string value;
      while (!done.load()) {
        uint64_t k = rnd.Uniform(1500);
        Status s = t.db->Get(ReadOptions(), Key(k), &value);
        if (s.ok()) {
          if (value.rfind("val_" + Key(k) + "_", 0) != 0) {
            read_errors.fetch_add(1);
          }
        } else if (!s.IsNotFound()) {
          read_errors.fetch_add(1);
        }
      }
    });
  }

  Random rnd(17);
  for (int i = 0; i < 20000; i++) {
    uint64_t k = rnd.Uniform(1500);
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(k),
                          "val_" + Key(k) + "_" + std::to_string(i))
                    .ok());
  }
  done.store(true);
  for (auto& r : readers) r.join();
  ASSERT_TRUE(t.db->WaitForCompactions().ok());

  EXPECT_EQ(0u, read_errors.load());
  // The workload really did rotate memtables (and install the flushed
  // results as new versions) while readers were live.
  EXPECT_GT(t.db->GetStats().memtable_swaps, 10u);
  EXPECT_GT(t.db->GetStats().flush_count, 0u);
}

TEST_F(BackgroundConcurrencyTest, GetsRaceCompactRange) {
  // Manual full-range compactions rewrite every level and republish the
  // ReadState once per installed output; readers must never observe a
  // missing or stale value for the stable key range.
  TestDB t;
  const int kStable = 400;
  for (int i = 0; i < kStable; i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(i), "stable").ok());
  }
  // Churn a disjoint range so compactions have real work.
  Random rnd(23);
  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(
        t.db->Put(WriteOptions(), Key(1000 + rnd.Uniform(1000)), "x").ok());
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random rr(90 + r);
      std::string value;
      while (!done.load()) {
        uint64_t k = rr.Uniform(kStable);
        Status s = t.db->Get(ReadOptions(), Key(k), &value);
        if (!s.ok() || value != "stable") read_errors.fetch_add(1);
      }
    });
  }

  for (int round = 0; round < 4; round++) {
    t.db->CompactRange(nullptr, nullptr);
  }
  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  done.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(0u, read_errors.load());
  EXPECT_GT(t.db->GetStats().compaction_count, 0u);
}

TEST_F(BackgroundConcurrencyTest, ReadersRaceTableSinkOutputs) {
  // Flush and compaction outputs are built, written and synced on the
  // table-output worker while writers keep the tree churning. Gets,
  // iterators and GetProperty race those jobs; every output must be
  // complete and durable before a reader can see it.
  TestDB t;
  const int kStable = 300;
  for (int i = 0; i < kStable; i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(i), "stable").ok());
  }
  std::atomic<bool> done{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    Random rr(31);
    std::string value;
    while (!done.load()) {
      Status s = t.db->Get(ReadOptions(), Key(rr.Uniform(kStable)), &value);
      if (!s.ok() || value != "stable") errors.fetch_add(1);
    }
  });
  readers.emplace_back([&] {
    while (!done.load()) {
      std::unique_ptr<Iterator> it(t.db->NewIterator(ReadOptions()));
      int seen = 0;
      for (it->SeekToFirst();
           it->Valid() && it->key().compare(Key(kStable)) < 0; it->Next()) {
        if (it->value() != Slice("stable")) errors.fetch_add(1);
        seen++;
      }
      if (!it->status().ok() || seen != kStable) errors.fetch_add(1);
    }
  });
  readers.emplace_back([&] {
    std::string v;
    while (!done.load()) {
      if (!t.db->GetProperty("acheron.stats", &v) ||
          !t.db->GetProperty("acheron.num-files-at-level0", &v)) {
        errors.fetch_add(1);
      }
    }
  });

  Random rnd(37);
  for (int i = 0; i < 12000; i++) {
    const uint64_t k = 1000 + rnd.Uniform(2000);
    Status s = (i % 5 == 0) ? t.db->Delete(WriteOptions(), Key(k))
                            : t.db->Put(WriteOptions(), Key(k),
                                        std::string(60, 'x'));
    ASSERT_TRUE(s.ok());
    if (i % 3000 == 2999) t.db->CompactRange(nullptr, nullptr);
  }
  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  done.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(0u, errors.load());
  EXPECT_GT(t.db->GetStats().compaction_count, 0u);
}

TEST_F(ConcurrencyTest, MultiGetTakesNoMutex) {
  // MultiGet rides the same pinned-ReadState hot path as Get: a batch of
  // lookups on a quiesced DB must not touch the DB mutex at all.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), "v" + Key(i)).ok());
  }
  ASSERT_TRUE(db_->WaitForCompactions().ok());

  std::string c0, c1;
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c0));
  Random rnd(31);
  for (int round = 0; round < 200; round++) {
    const size_t n = 1 + rnd.Uniform(16);
    std::vector<std::string> keys(n);
    std::vector<Slice> slices(n);
    for (size_t i = 0; i < n; i++) {
      keys[i] = Key(rnd.Uniform(4000));  // ~25% misses
      slices[i] = keys[i];
    }
    std::vector<std::string> values;
    std::vector<Status> statuses = db_->MultiGet(
        ReadOptions(), std::span<const Slice>(slices.data(), n), &values);
    for (const Status& s : statuses) {
      ASSERT_TRUE(s.ok() || s.IsNotFound());
    }
  }
  ASSERT_TRUE(db_->GetProperty("acheron.mutex-acquisitions", &c1));
  EXPECT_EQ(std::stoull(c0) + 1, std::stoull(c1));
}

TEST_F(BackgroundConcurrencyTest, MultiGetsRaceWrites) {
  // Batched readers race a writer through memtable swaps and version
  // installs; every returned value must encode its
  // key, and every batch must be internally consistent (one snapshot).
  TestDB t;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      Random rnd(70 + r);
      while (!done.load()) {
        const size_t n = 1 + rnd.Uniform(8);
        std::vector<std::string> keys(n);
        std::vector<Slice> slices(n);
        for (size_t i = 0; i < n; i++) {
          keys[i] = Key(rnd.Uniform(1500));
          slices[i] = keys[i];
        }
        std::vector<std::string> values;
        std::vector<Status> statuses = t.db->MultiGet(
            ReadOptions(), std::span<const Slice>(slices.data(), n),
            &values);
        for (size_t i = 0; i < n; i++) {
          if (statuses[i].ok()) {
            if (values[i].rfind("val_" + keys[i] + "_", 0) != 0) {
              read_errors.fetch_add(1);
            }
          } else if (!statuses[i].IsNotFound()) {
            read_errors.fetch_add(1);
          }
        }
      }
    });
  }

  Random rnd(19);
  for (int i = 0; i < 20000; i++) {
    uint64_t k = rnd.Uniform(1500);
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(k),
                          "val_" + Key(k) + "_" + std::to_string(i))
                    .ok());
  }
  done.store(true);
  for (auto& r : readers) r.join();
  ASSERT_TRUE(t.db->WaitForCompactions().ok());

  EXPECT_EQ(0u, read_errors.load());
  EXPECT_GT(t.db->GetStats().memtable_swaps, 10u);
}

TEST_F(BackgroundConcurrencyTest, GroupCommitBatchesWalSyncs) {
  TestDB t;
  const int kWriters = 4, kPerThread = 4000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      WriteOptions wo;
      wo.sync = true;  // every *group* costs one WAL fsync
      for (int i = 0; i < kPerThread; i++) {
        ASSERT_TRUE(t.db->Put(wo, Key(w * 1000000 + i), "v").ok());
      }
    });
  }
  for (auto& w : writers) w.join();

  const InternalStats stats = t.db->GetStats();
  const uint64_t total = static_cast<uint64_t>(kWriters) * kPerThread;
  // Some writes must have ridden a leader's group, and every grouped write
  // saves a sync: strictly fewer fsyncs than logical writes.
  EXPECT_GT(stats.writes_grouped, 0u);
  EXPECT_GT(stats.group_commits, 0u);
  EXPECT_LT(stats.wal_syncs, total);

  // Grouping must not lose writes.
  std::string value;
  Random rnd(13);
  for (int probe = 0; probe < 1000; probe++) {
    int w = static_cast<int>(rnd.Uniform(kWriters));
    int i = static_cast<int>(rnd.Uniform(kPerThread));
    ASSERT_TRUE(t.db->Get(ReadOptions(), Key(w * 1000000 + i), &value).ok());
  }
}

}  // namespace acheron
