// Concurrency: readers (Gets, iterators, snapshots) race a writer thread.
// The engine serializes writers behind the DB mutex; readers pin state and
// proceed outside it. These tests verify absence of crashes/corruption and
// basic read-your-writes visibility under contention.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/table_cache.h"
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

  // Jobs scheduled whose delay has not yet run out.
  size_t held() {
    std::lock_guard<std::mutex> l(mu_);
    return jobs_.size();
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
    char buf[24];  // room for any uint64_t, so -Wformat-truncation holds
    std::snprintf(buf, sizeof(buf), "k%06llu",
                  static_cast<unsigned long long>(i));
    return buf;
  }

  // A fresh DB in a fresh mem env; a positive |round_delay_micros| starts
  // every background round that late (DelayedRoundEnv). |tune| adjusts the
  // options before the open.
  struct TestDB {
    explicit TestDB(uint64_t d_th = 0, int round_delay_micros = 0,
                    const std::function<void(Options*)>& tune = nullptr)
        : env(NewMemEnv()) {
      options.env = env.get();
      if (round_delay_micros > 0) {
        delayed = std::make_unique<DelayedRoundEnv>(env.get(),
                                                    round_delay_micros);
        options.env = delayed.get();
      }
      options.write_buffer_size = 16 << 10;
      options.delete_persistence_threshold = d_th;
      if (tune) tune(&options);
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

// The same gate over a TTL-dominated grid: D_th is a small share of the
// history, so most compactions are TTL rounds that crossing writes queue
// (leveling) or run (tiering), and 8 KiB buffers deepen the tree mid-run --
// where a floor without the depth bound would let a writer race past a
// deadline the pending rounds create.
struct TimingGridPoint {
  const char* name;
  CompactionStyle style;
  size_t value_separation_threshold;  // 0: values stay inline
  int size_ratio;
  uint64_t d_th;
  int ops;
};

class RoundTimingGridTest
    : public BackgroundConcurrencyTest,
      public ::testing::WithParamInterface<TimingGridPoint> {};

TEST_P(RoundTimingGridTest, TtlRoundsIndependentOfRoundTiming) {
  const TimingGridPoint& point = GetParam();
  auto run = [&](int round_delay_micros) {
    TestDB t(point.d_th, round_delay_micros, [&](Options* o) {
      o->write_buffer_size = 8 << 10;
      o->size_ratio = point.size_ratio;
      o->compaction_style = point.style;
      o->value_separation_threshold = point.value_separation_threshold;
    });
    Random rnd(29);
    for (int i = 0; i < point.ops; i++) {
      const uint64_t k = rnd.Uniform(6000);
      const uint32_t op = rnd.Uniform(100);
      Status s;
      if (op < 68) {
        s = t.db->Put(WriteOptions(), Key(k),
                      std::string(40, 'v') + std::to_string(i));
      } else if (op < 98) {
        s = t.db->Delete(WriteOptions(), Key(k));
      } else {
        s = t.db->DeleteRange(WriteOptions(), Key(k), Key(k + 8));
      }
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_TRUE(t.db->WaitForCompactions().ok());
    std::string summary, tombstones, age, deletes, vlog;
    EXPECT_TRUE(t.db->GetProperty("acheron.level-summary", &summary));
    EXPECT_TRUE(t.db->GetProperty("acheron.total-tombstones", &tombstones));
    EXPECT_TRUE(t.db->GetProperty("acheron.max-tombstone-age", &age));
    EXPECT_TRUE(t.db->GetProperty("acheron.delete-stats", &deletes));
    EXPECT_TRUE(t.db->GetProperty("acheron.vlog-stats", &vlog));
    const InternalStats stats = t.db->GetStats();
    // The grid must exercise what it gates: persisted tombstones, a tree
    // at least three levels deep, and (under leveling) queued TTL rounds.
    EXPECT_GT(t.db->GetDeleteStats().tombstones_persisted, 0u);
    const size_t last_line = summary.rfind('\n', summary.size() - 2);
    const int deepest = std::stoi(
        summary.substr(last_line == std::string::npos ? 0 : last_line + 1));
    EXPECT_GE(deepest, 2) << summary;
    if (point.style == CompactionStyle::kLeveling) {
      EXPECT_GT(stats.ttl_rounds_queued, 0u);
    }
    char counts[160];
    std::snprintf(counts, sizeof(counts),
                  "|flushes=%llu compactions=%llu trivial=%llu written=%llu",
                  static_cast<unsigned long long>(stats.flush_count),
                  static_cast<unsigned long long>(stats.compaction_count),
                  static_cast<unsigned long long>(stats.trivial_move_count),
                  static_cast<unsigned long long>(
                      stats.compaction_bytes_written));
    return summary + "|ts=" + tombstones + "|age=" + age + "|" + deletes +
           "|" + vlog + counts;
  };
  EXPECT_EQ(run(0), run(/*round_delay_micros=*/3000));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundTimingGridTest,
    ::testing::Values(
        TimingGridPoint{"LevelingInline", CompactionStyle::kLeveling, 0, 4,
                        3000, 20000},
        TimingGridPoint{"LevelingSeparated", CompactionStyle::kLeveling, 32,
                        4, 3000, 20000},
        // Tiering runs every TTL round inline and swaps a memtable per
        // expired tombstone at this depth; a longer D_th and a shorter
        // history keep its rounds (and the vLog's per-swap segments) few.
        TimingGridPoint{"TieringInline", CompactionStyle::kTiering, 0, 10,
                        12000, 12000},
        TimingGridPoint{"TieringSeparated", CompactionStyle::kTiering, 32,
                        10, 12000, 12000}),
    [](const ::testing::TestParamInfo<TimingGridPoint>& info) {
      return std::string(info.param.name);
    });

TEST_F(BackgroundConcurrencyTest, DeepeningRoundHoldsWritersAtItsFloor) {
  // A flush round whose L0 -> L1 merge overfills L1 deepens the tree,
  // which shortens L1's TTL budget: tombstones that merge carries into L1
  // could fall due soon after the round's horizon, so while the round is
  // held the floor stops writers there (PendingDepthBound) -- racing on
  // would fix the next TTL round's horizon by when the round ran. Rounds
  // start at once, 50 ms late, or run to completion after every write (the
  // schedule every round at its horizon defines), and nothing may move.
  auto run = [](int round_delay_micros, bool settle, uint64_t* ttl_waits) {
    TestDB t(/*d_th=*/2000, round_delay_micros, [](Options* o) {
      o->write_buffer_size = 64 << 10;
      o->max_file_size = 16 << 10;
    });
    const std::string value(100, 'x');
    uint64_t next_key = 0;
    auto put = [&](const std::string& key) {
      EXPECT_TRUE(t.db->Put(WriteOptions(), key, value).ok());
      if (settle) {
        EXPECT_TRUE(t.db->WaitForCompactions().ok());
      }
    };
    auto put_until_swap = [&](uint64_t swaps, uint64_t max_puts) {
      uint64_t n = 0;
      while (t.db->GetStats().memtable_swaps < swaps && n < max_puts) {
        put(Key(next_key++));
        n++;
      }
      return n;
    };
    // Four-flush merges grow L1. Before each group's last memtable, settle
    // the rounds: once that group's merge will overfill L1 (capacity
    // 10 x 64 KiB), its memtable ends with deletes spread over the keys.
    auto will_deepen = [&] {
      std::string summary;
      EXPECT_TRUE(t.db->GetProperty("acheron.level-summary", &summary));
      std::istringstream lines(summary);
      int level = 0, files = 0;
      int64_t bytes = 0, total = 0, l0 = 0;
      uint64_t tombstones = 0;
      while (lines >> level >> files >> bytes >> tombstones) {
        total += bytes;
        if (level == 0) l0 = bytes;
      }
      return total + l0 / 3 > int64_t{64 << 10} * 10;
    };
    const uint64_t per_memtable = put_until_swap(1, 100000);
    uint64_t group = 0;
    for (; group < 20; group++) {
      put_until_swap(4 * group + 3, 100000);
      EXPECT_TRUE(t.db->WaitForCompactions().ok());
      if (will_deepen()) break;
      put_until_swap(4 * group + 4, 100000);
    }
    EXPECT_LT(group, 20u);
    put_until_swap(4 * group + 4, per_memtable - 60);
    for (uint64_t k = 0; k < 40; k++) {
      EXPECT_TRUE(
          t.db->Delete(WriteOptions(), Key(k * next_key / 40)).ok());
      if (settle) {
        EXPECT_TRUE(t.db->WaitForCompactions().ok());
      }
    }
    put_until_swap(4 * group + 4, 100000);
    // Puts only from here: no memtable tombstone can drain the round.
    for (int i = 0; i < 2000; i++) put(Key(next_key++));
    EXPECT_TRUE(t.db->WaitForCompactions().ok());
    *ttl_waits = t.db->GetStats().stall_ttl_waits;
    std::string summary, deletes;
    EXPECT_TRUE(t.db->GetProperty("acheron.level-summary", &summary));
    EXPECT_TRUE(t.db->GetProperty("acheron.delete-stats", &deletes));
    EXPECT_GT(t.db->GetDeleteStats().tombstones_persisted, 0u);
    return summary + "|" + deletes;
  };
  uint64_t settled_waits = 0, prompt_waits = 0, held_waits = 0;
  const std::string settled = run(0, /*settle=*/true, &settled_waits);
  EXPECT_EQ(settled, run(0, /*settle=*/false, &prompt_waits));
  EXPECT_EQ(settled,
            run(/*round_delay_micros=*/50000, /*settle=*/false, &held_waits));
  // The held run shows the floor at work: its writer waited there. (That
  // merge drops the tombstones at the bottom, so the wait guards a
  // deadline that never comes; a floor without the depth bound keeps the
  // schedule here and fails only this check.)
  EXPECT_GT(held_waits, 0u);
}

TEST_F(BackgroundConcurrencyTest, CrossingWriteReturnsBeforeItsRound) {
  // Every round starts 300 ms late. The write that crosses a TTL deadline
  // queues its round and returns while the round is still held, and the
  // writes after it run on below the floor without waiting.
  TestDB t(/*d_th=*/2200, /*round_delay_micros=*/300000,
           [](Options* o) { o->write_buffer_size = 1 << 20; });
  const int options_l0_trigger = t.options.level0_compaction_trigger;
  // Four flushes reach L0's file-count trigger and merge into L1; a fifth
  // leaves tombstones in L0 above it.
  for (int f = 0; f < options_l0_trigger; f++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(t.db->Put(WriteOptions(), Key(f * 100 + i), "v").ok());
    }
    ASSERT_TRUE(t.db->FlushMemTable().ok());
  }
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(t.db->Delete(WriteOptions(), Key(i)).ok());
  }
  ASSERT_TRUE(t.db->FlushMemTable().ok());
  std::string l0, l1;
  ASSERT_TRUE(t.db->GetProperty("acheron.num-files-at-level0", &l0));
  ASSERT_TRUE(t.db->GetProperty("acheron.num-files-at-level1", &l1));
  ASSERT_EQ("1", l0);
  ASSERT_NE("0", l1);

  // Puts only: the memtable holds no tombstone, so only the L0 file's
  // deadline can fire.
  const InternalStats before = t.db->GetStats();
  ASSERT_EQ(0u, t.delayed->held());
  for (int i = 0; i < 3000 && t.db->GetStats().ttl_rounds_queued ==
                                  before.ttl_rounds_queued;
       i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(1000 + i), "v").ok());
  }
  EXPECT_EQ(1u, t.delayed->held());
  EXPECT_EQ(before.ttl_rounds_queued + 1, t.db->GetStats().ttl_rounds_queued);
  ASSERT_TRUE(t.db->GetProperty("acheron.num-files-at-level0", &l0));
  EXPECT_EQ("1", l0);
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), Key(5000 + i), "v").ok());
  }
  EXPECT_EQ(1u, t.delayed->held());
  const InternalStats after = t.db->GetStats();
  EXPECT_EQ(before.stall_ttl_waits, after.stall_ttl_waits);
  EXPECT_EQ(before.ttl_rounds_inline, after.ttl_rounds_inline);

  // Once the round runs, the expired file has left L0.
  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  ASSERT_TRUE(t.db->GetProperty("acheron.num-files-at-level0", &l0));
  EXPECT_EQ("0", l0);
}

TEST_F(BackgroundConcurrencyTest, TombstoneAgeWithinDthAfterEveryWrite) {
  // Physical D_th: however late the rounds run, no tombstone is older than
  // D_th + 1 when a write returns. A queued round's writers stop at its
  // floor, and a bottom-level purge runs inline in its crossing write.
  constexpr uint64_t kDth = 3000;
  for (CompactionStyle style :
       {CompactionStyle::kLeveling, CompactionStyle::kTiering}) {
    for (int delay : {0, 3000}) {
      TestDB t(kDth, delay, [&](Options* o) {
        o->write_buffer_size = 32 << 10;
        o->size_ratio = 4;
        o->compaction_style = style;
      });
      Random rnd(37);
      uint64_t worst = 0;
      for (int i = 0; i < 12000; i++) {
        const uint64_t k = rnd.Uniform(5000);
        Status s = rnd.Uniform(10) < 6
                       ? t.db->Put(WriteOptions(), Key(k), "v" + Key(i))
                       : t.db->Delete(WriteOptions(), Key(k));
        ASSERT_TRUE(s.ok()) << s.ToString();
        std::string age;
        ASSERT_TRUE(t.db->GetProperty("acheron.max-tombstone-age", &age));
        worst = std::max<uint64_t>(worst, std::stoull(age));
      }
      EXPECT_LE(worst, kDth + 1) << "style " << static_cast<int>(style)
                                 << " delay " << delay;
      // The bound is approached, so the check has teeth.
      EXPECT_GT(worst, kDth / 2);
    }
  }
}

// --------------------------------------------------------------------------
// Lock-free point-lookup hot path (DESIGN.md "Read path"): Gets and
// iterators pin an atomically published ReadState and never touch the DB
// mutex. The tests below pin down the zero-mutex property and race reads
// against every ReadState publish site -- memtable swaps, flush/compaction
// version installs, and manual CompactRange.
// --------------------------------------------------------------------------

// The tombstone census runs under the DB mutex while a write-group leader
// adds its batch to the memtable with the mutex released: a memtable
// tombstone newer than the published sequence must not read as an age that
// wrapped below zero.
TEST_F(ConcurrencyTest, TombstoneAgeReadsRaceDeletes) {
  const uint64_t kOps = 20000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (uint64_t i = 0; i < kOps; i++) {
      if (i % 2 == 0) {
        ASSERT_TRUE(db_->Put(WriteOptions(), Key(i % 500), "v").ok());
      } else {
        ASSERT_TRUE(db_->Delete(WriteOptions(), Key(i % 500)).ok());
      }
    }
    done = true;
  });
  uint64_t worst = 0;
  std::string age;
  while (!done) {
    ASSERT_TRUE(db_->GetProperty("acheron.max-tombstone-age", &age));
    worst = std::max<uint64_t>(worst, std::stoull(age));
    worst = std::max(worst, db_->GetDeleteStats().oldest_live_tombstone_age);
  }
  writer.join();
  EXPECT_LE(worst, kOps);
}

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

TEST_F(BackgroundConcurrencyTest, GetsOfHotKeysRaceTheirInsert) {
  // The writer sets a key's memtable filter bits with plain relaxed stores;
  // a reader sees them through the last-sequence release/acquire, as it
  // sees the skiplist node. Readers chase the writer: every key it has
  // acknowledged must be found with its value (read-your-writes, also for
  // the writer itself), and the key it is adding right now is found whole
  // or not at all. Keys land scattered, and the 16 KiB buffer swaps
  // memtables under the readers.
  TestDB t;
  constexpr int kKeys = 20000;
  auto key_at = [](int i) { return Key((uint64_t{7919} * i) % kKeys); };
  auto value_at = [&](int i) { return "val_" + key_at(i); };
  std::atomic<int> acked{0};  // keys [0, acked) are written
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&] {
      std::string value;
      for (int n = 0; n < kKeys; n = acked.load(std::memory_order_acquire)) {
        for (int i = std::max(0, n - 3); i <= n && i < kKeys; i++) {
          Status s = t.db->Get(ReadOptions(), key_at(i), &value);
          const bool must_exist = i < n;
          if (s.ok() ? value != value_at(i)
                     : (must_exist || !s.IsNotFound())) {
            read_errors.fetch_add(1);
          }
        }
      }
    });
  }

  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(t.db->Put(WriteOptions(), key_at(i), value_at(i)).ok());
    ASSERT_TRUE(t.db->Get(ReadOptions(), key_at(i), &value).ok());
    ASSERT_EQ(value, value_at(i));
    acked.store(i + 1, std::memory_order_release);
  }
  for (auto& r : readers) r.join();
  ASSERT_TRUE(t.db->WaitForCompactions().ok());
  EXPECT_EQ(0u, read_errors.load());
  EXPECT_GT(t.db->GetStats().memtable_swaps, 10u);
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

TEST_F(BackgroundConcurrencyTest, GetsRaceVersionInstallsThroughPins) {
  // Readers probe tables through each version's pins (taken on a file's
  // first probe, published by CAS) while flushes and compactions install
  // new versions and release the pins of dead ones. Six open files leave
  // most probes to TableCache::Get's fallback; a thousand pin every file.
  for (int max_open_files : {1000, 6}) {
    TestDB t(0, 0, [max_open_files](Options* o) {
      o->max_open_files = max_open_files;
    });
    const TableCache* cache =
        static_cast<DBImpl*>(t.db.get())->TEST_table_cache();
    const int kStable = 400;
    for (int i = 0; i < kStable; i++) {
      ASSERT_TRUE(t.db->Put(WriteOptions(), Key(i), "stable").ok());
    }
    ASSERT_TRUE(t.db->FlushMemTable().ok());

    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_errors{0};
    std::atomic<int> max_pinned{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; r++) {
      readers.emplace_back([&, r] {
        Random rr(70 + r);
        std::string value;
        while (!done.load()) {
          Status s = t.db->Get(ReadOptions(), Key(rr.Uniform(kStable)), &value);
          if (!s.ok() || value != "stable") read_errors.fetch_add(1);
          // Keys the churn below never writes, and the range it deletes.
          s = t.db->Get(ReadOptions(), Key(5000 + rr.Uniform(100)), &value);
          if (!s.IsNotFound()) read_errors.fetch_add(1);
          s = t.db->Get(ReadOptions(), Key(1000 + rr.Uniform(10)), &value);
          if (!s.IsNotFound()) read_errors.fetch_add(1);
          int seen = max_pinned.load();
          const int now = cache->pinned();
          while (now > seen && !max_pinned.compare_exchange_weak(seen, now)) {
          }
          reads.fetch_add(3);
        }
      });
    }

    Random rnd(29);
    const std::string churn(100, 'c');
    for (int i = 0; i < 20000; i++) {
      ASSERT_TRUE(t.db->Put(WriteOptions(), Key(1010 + rnd.Uniform(1000)),
                            churn)
                      .ok());
      if (i % 500 == 0) {
        ASSERT_TRUE(
            t.db->DeleteRange(WriteOptions(), Key(1000), Key(1010)).ok());
      }
      if (i % 5000 == 0) t.db->CompactRange(nullptr, nullptr);
    }
    ASSERT_TRUE(t.db->WaitForCompactions().ok());
    done.store(true);
    for (auto& r : readers) r.join();

    EXPECT_EQ(0u, read_errors.load()) << max_open_files;
    EXPECT_GT(reads.load(), 0u);
    EXPECT_GT(max_pinned.load(), 0);
    EXPECT_LE(max_pinned.load(), max_open_files);
    EXPECT_GT(t.db->GetStats().compaction_count, 0u);
  }
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
