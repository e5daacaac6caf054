// The core Acheron property: with delete_persistence_threshold = D_th, no
// tombstone outlives D_th ingested operations -- across compaction styles,
// TTL allocations, and workloads -- while the vanilla baseline lets
// tombstones linger indefinitely.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/version_set.h"
#include "src/util/random.h"

namespace acheron {

namespace {

struct Config {
  CompactionStyle style;
  TtlAllocation alloc;
  uint64_t dth;
  bool delete_aware_picking;
  const char* name;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return info.param.name;
}

}  // namespace

class DeletePersistenceTest : public ::testing::TestWithParam<Config> {
 protected:
  DeletePersistenceTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 16 << 10;
    options_.size_ratio = 4;
    options_.num_levels = 4;
    options_.level0_compaction_trigger = 4;
  }
  ~DeletePersistenceTest() override { delete db_; }

  void Open(const Config& cfg) {
    options_.compaction_style = cfg.style;
    options_.ttl_allocation = cfg.alloc;
    options_.delete_persistence_threshold = cfg.dth;
    options_.delete_aware_picking = cfg.delete_aware_picking;
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  uint64_t MaxTombstoneAge() {
    std::string v;
    EXPECT_TRUE(db_->GetProperty("acheron.max-tombstone-age", &v));
    return std::stoull(v);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_P(DeletePersistenceTest, TombstoneAgeNeverExceedsThreshold) {
  const Config& cfg = GetParam();
  Open(cfg);
  Random rnd(42);
  std::map<std::string, bool> alive;

  const int kOps = 30000;
  for (int i = 0; i < kOps; i++) {
    std::string key = "user" + std::to_string(rnd.Uniform(600));
    if (rnd.Uniform(100) < 25) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      alive[key] = false;
    } else {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), key, "payload" + std::to_string(i)).ok());
      alive[key] = true;
    }

    if (i % 500 == 499) {
      // THE invariant: no live tombstone older than D_th (+1 op of slack
      // for the write that crosses the deadline).
      uint64_t age = MaxTombstoneAge();
      ASSERT_LE(age, cfg.dth + 2)
          << "tombstone overdue at op " << i << " (style "
          << static_cast<int>(cfg.style) << ")";
    }
  }

  // Deletes were actually persisted, not just shuffled.
  DeleteStats ds = db_->GetDeleteStats();
  EXPECT_GT(ds.tombstones_written, 1000u);
  EXPECT_GT(ds.tombstones_persisted + ds.tombstones_superseded, 0u);
  EXPECT_LE(ds.persistence_latency_max, static_cast<double>(cfg.dth) + 2);

  // Reads still correct after all the delete-driven reorganisation.
  for (const auto& [key, is_alive] : alive) {
    std::string value;
    Status s = db_->Get(ReadOptions(), key, &value);
    if (is_alive) {
      EXPECT_TRUE(s.ok()) << key << ": " << s.ToString();
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
  }

  // Note: whether TTL-expiry compactions fire depends on the config --
  // structural triggers may persist everything ahead of the clock. The
  // dedicated ForcedTtlExpiry test below pins down the mechanism itself.
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeletePersistenceTest,
    ::testing::Values(
        Config{CompactionStyle::kLeveling, TtlAllocation::kGeometric, 8000,
               false, "LevelingGeometric"},
        Config{CompactionStyle::kLeveling, TtlAllocation::kUniform, 8000,
               false, "LevelingUniform"},
        Config{CompactionStyle::kLeveling, TtlAllocation::kGeometric, 8000,
               true, "LevelingDeleteAwarePicking"},
        Config{CompactionStyle::kTiering, TtlAllocation::kGeometric, 8000,
               false, "TieringGeometric"},
        Config{CompactionStyle::kLeveling, TtlAllocation::kGeometric, 2000,
               false, "TightThreshold"},
        Config{CompactionStyle::kLeveling, TtlAllocation::kGeometric, 25000,
               false, "LooseThreshold"}),
    ConfigName);

namespace {

// Runs the same delete-then-churn workload and returns the *peak* live
// tombstone age observed. The tree is deep enough (payloaded values, many
// distinct keys) that tombstones must traverse intermediate levels.
uint64_t PeakTombstoneAge(uint64_t dth, uint64_t* ttl_compactions) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 16 << 10;
  options.size_ratio = 4;
  options.num_levels = 4;
  options.delete_persistence_threshold = dth;
  DB* db = nullptr;
  EXPECT_TRUE(DB::Open(options, "/db", &db).ok());

  // Build a multi-level tree of cold data first.
  const std::string payload(100, 'p');
  for (int i = 0; i < 3000; i++) {
    EXPECT_TRUE(
        db->Put(WriteOptions(), "cold" + std::to_string(i), payload).ok());
  }
  // Delete a slice of cold keys; these tombstones are what we track.
  for (int i = 0; i < 300; i++) {
    EXPECT_TRUE(db->Delete(WriteOptions(), "cold" + std::to_string(i)).ok());
  }
  // Hot churn in a disjoint key range: the cold tombstones only move when
  // either round-robin size compactions happen to reach them (baseline) or
  // their TTL expires (FADE).
  uint64_t peak = 0;
  for (int i = 0; i < 40000; i++) {
    EXPECT_TRUE(
        db->Put(WriteOptions(), "hot" + std::to_string(i % 800), payload).ok());
    if (i % 250 == 249) {
      std::string v;
      EXPECT_TRUE(db->GetProperty("acheron.max-tombstone-age", &v));
      peak = std::max<uint64_t>(peak, std::stoull(v));
    }
  }
  if (ttl_compactions != nullptr) {
    *ttl_compactions = db->GetStats().compactions_by_reason[static_cast<size_t>(
        CompactionReason::kTtlExpiry)];
  }
  delete db;
  return peak;
}

}  // namespace

// Baseline contrast: without FADE the same workload leaves tombstones
// lingering far beyond what FADE allows, and the FADE run visibly uses
// TTL-expiry compactions to meet its bound.
TEST(DeletePersistenceBaselineTest, FadeBoundsWhatBaselineDoesNot) {
  const uint64_t dth = 5000;
  uint64_t fade_ttl_compactions = 0;
  uint64_t fade_peak = PeakTombstoneAge(dth, &fade_ttl_compactions);
  uint64_t baseline_peak = PeakTombstoneAge(0, nullptr);

  EXPECT_LE(fade_peak, dth + 2);
  EXPECT_GT(baseline_peak, fade_peak * 2)
      << "baseline should retain tombstones much longer than FADE";
  EXPECT_GT(fade_ttl_compactions, 0u)
      << "FADE should have needed TTL-expiry compactions in this workload";
}

// A snapshot pins tombstones: ages may exceed D_th while pinned, but the
// engine must not livelock, and persistence resumes after release.
TEST(DeletePersistenceSnapshotTest, SnapshotPinsWithoutLivelock) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.write_buffer_size = 8 << 10;
  options.delete_persistence_threshold = 3000;
  options.size_ratio = 4;
  DB* db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  const Snapshot* snap = db->GetSnapshot();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Delete(WriteOptions(), "k" + std::to_string(i)).ok());
  }

  // Churn well past D_th with the snapshot held: must not hang or error.
  for (int i = 0; i < 10000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "other" + std::to_string(i % 300), "x").ok());
  }
  // Snapshot still sees pre-delete values.
  ReadOptions ropts;
  ropts.snapshot = snap;
  std::string value;
  EXPECT_TRUE(db->Get(ropts, "k5", &value).ok());
  EXPECT_EQ("v", value);

  db->ReleaseSnapshot(snap);
  // After release, further churn lets the tombstones persist again.
  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "other" + std::to_string(i % 300), "y").ok());
  }
  std::string age_str;
  ASSERT_TRUE(db->GetProperty("acheron.max-tombstone-age", &age_str));
  EXPECT_LE(std::stoull(age_str), 3000u + 2);
  delete db;
}

namespace {

// Preloads 2,000 keys x 100 B, runs 20,000 ops (60% Put, 20% Delete, 20%
// Get) drawn from |seed|, and checks every Get against a std::map; then
// reopens and checks a full scan position by position.
void CheckAgainstModel(const Options& base, uint64_t seed) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options = base;
  options.env = env.get();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  constexpr int kKeys = 2000;
  auto key = [](uint64_t i) {
    std::string k = std::to_string(i);
    return "key" + std::string(6 - k.size(), '0') + k;
  };
  auto value = [](int version) {
    std::string v = "v" + std::to_string(version);
    v.resize(100, '.');
    return v;
  };
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), value(i)).ok());
    model[key(i)] = value(i);
  }

  Random rnd(seed);
  int wrong_gets = 0;
  std::string first_wrong;
  for (int op = 0; op < 20000; op++) {
    const std::string k = key(rnd.Uniform(kKeys));
    const uint64_t dice = rnd.Uniform(100);
    if (dice < 60) {
      const std::string v = value(kKeys + op);
      ASSERT_TRUE(db->Put(WriteOptions(), k, v).ok());
      model[k] = v;
    } else if (dice < 80) {
      ASSERT_TRUE(db->Delete(WriteOptions(), k).ok());
      model.erase(k);
    } else {
      std::string got;
      const Status s = db->Get(ReadOptions(), k, &got);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      const auto it = model.find(k);
      const bool right = it == model.end() ? s.IsNotFound()
                                           : (s.ok() && got == it->second);
      if (!right && wrong_gets++ == 0) {
        first_wrong = "op " + std::to_string(op) + " key " + k + " got " +
                      (s.ok() ? got.substr(0, 8) : s.ToString());
      }
    }
  }
  EXPECT_EQ(0, wrong_gets) << "first: " << first_wrong;

  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  db.reset(raw);
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  auto expected = model.begin();
  int wrong_positions = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    if (expected == model.end() || it->key().ToString() != expected->first ||
        it->value().ToString() != expected->second) {
      wrong_positions++;
    }
    if (expected != model.end()) ++expected;
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(0, wrong_positions);
  EXPECT_TRUE(expected == model.end()) << "scan ended early";
}

struct ModelConfig {
  uint64_t dth;
  uint64_t seed;
};

std::string ModelName(const ModelConfig& cfg) {
  return "Dth" + std::to_string(cfg.dth) + "Seed" + std::to_string(cfg.seed);
}

std::string ModelTestName(
    const ::testing::TestParamInfo<ModelConfig>& info) {
  return ModelName(info.param);
}

// Names the parameter in ctest's discovered test names (GoogleTest would
// otherwise print the struct's raw bytes).
void PrintTo(const ModelConfig& cfg, std::ostream* os) {
  *os << ModelName(cfg);
}

}  // namespace

// With default Options the 4 MiB memtable keeps this whole workload in L0:
// only FADE's TTL flushes cut runs, so L0 is the deepest level throughout.
// An expired L0 run must then move to L1 with every run it overlaps; a
// rewrite of that one run in place would drop its point tombstones while an
// older run still holds the deleted value, and the next Get would return it.
class DeletePersistenceL0Test : public ::testing::TestWithParam<ModelConfig> {
};

TEST_P(DeletePersistenceL0Test, DeletedKeysStayDeletedWhenL0IsDeepest) {
  Options options;
  options.delete_persistence_threshold = GetParam().dth;
  CheckAgainstModel(options, GetParam().seed);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, DeletePersistenceL0Test,
    ::testing::Values(ModelConfig{500, 1}, ModelConfig{500, 2},
                      ModelConfig{2000, 1}, ModelConfig{2000, 2},
                      ModelConfig{5000, 1}, ModelConfig{5000, 2}),
    ModelTestName);

// Under tiering a run's recency is its run_id. A TTL expiry at a level
// holding one run moves that run down without rewriting it, and it must
// land as the newest run of its new level: keeping its old run_id could
// rank it below a run that an in-place rewrite produced from older data,
// whose stale values would then win every Get.
class DeletePersistenceTieringTest
    : public ::testing::TestWithParam<ModelConfig> {};

TEST_P(DeletePersistenceTieringTest, MovedRunsStayNewest) {
  Options options;
  options.compaction_style = CompactionStyle::kTiering;
  options.write_buffer_size = 16 << 10;
  options.delete_persistence_threshold = GetParam().dth;
  CheckAgainstModel(options, GetParam().seed);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DeletePersistenceTieringTest,
                         ::testing::Values(ModelConfig{100, 2},
                                           ModelConfig{100, 4},
                                           ModelConfig{100, 5},
                                           ModelConfig{100, 6}),
                         ModelTestName);

// Delete persistence state must survive restarts: tombstone metadata is in
// the MANIFEST, so a reopened DB keeps enforcing deadlines for old
// tombstones.
TEST(DeletePersistenceRecoveryTest, TtlStateSurvivesReopen) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.write_buffer_size = 8 << 10;
  options.delete_persistence_threshold = 5000;
  options.size_ratio = 4;
  DB* db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db->Delete(WriteOptions(), "k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  delete db;

  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  // Churn past the threshold: recovered tombstones must still expire.
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "new" + std::to_string(i % 400), "x").ok());
  }
  std::string age_str;
  ASSERT_TRUE(db->GetProperty("acheron.max-tombstone-age", &age_str));
  EXPECT_LE(std::stoull(age_str), 5000u + 2);
  delete db;
}

// Each population's journaled clock lands in its own DeleteStats fields:
// the three latency ranges are disjoint, so a crossed wire shows.
TEST(DeleteStatsTest, JournalClocksLandInTheirFields) {
  DeleteClocks journal;
  auto fill = [&](DeletePopulation p, double base, uint64_t superseded) {
    for (int i = 1; i <= 100; i++) journal[p].latency.Add(base + i);
    journal[p].persisted = 100;
    journal[p].superseded = superseded;
  };
  fill(kPointDeletes, 0, 7);
  fill(kRangeDeletes, 10000, 3);
  fill(kValuePurges, 1000000, 0);
  const DeleteStats ds = DeleteStatsFromJournal(journal);

  struct Expect {
    DeletePopulation p;
    double p50, p90, p99, max, avg;
  };
  const Expect expects[] = {
      {kPointDeletes, ds.persistence_latency_p50, ds.persistence_latency_p90,
       ds.persistence_latency_p99, ds.persistence_latency_max,
       ds.persistence_latency_avg},
      {kRangeDeletes, ds.range_persistence_latency_p50,
       ds.range_persistence_latency_p90, ds.range_persistence_latency_p99,
       ds.range_persistence_latency_max, ds.range_persistence_latency_avg},
      {kValuePurges, ds.value_purge_latency_p50, ds.value_purge_latency_p90,
       ds.value_purge_latency_p99, ds.value_purge_latency_max,
       ds.value_purge_latency_avg},
  };
  for (const Expect& e : expects) {
    SCOPED_TRACE(e.p);
    const Histogram& h = journal[e.p].latency;
    const double base = h.Min() - 1;
    EXPECT_EQ(h.Percentile(50), e.p50);
    EXPECT_EQ(h.Percentile(90), e.p90);
    EXPECT_EQ(h.Percentile(99), e.p99);
    EXPECT_EQ(base + 100, e.max);
    EXPECT_EQ(base + 50.5, e.avg);
    EXPECT_GT(e.p50, base);
    EXPECT_LE(e.p50, e.p90);
    EXPECT_LE(e.p90, e.p99);
    EXPECT_LE(e.p99, e.max);
  }
  EXPECT_EQ(100u, ds.tombstones_persisted);
  EXPECT_EQ(7u, ds.tombstones_superseded);
  EXPECT_EQ(100u, ds.range_deletes_persisted);
  EXPECT_EQ(3u, ds.range_deletes_superseded);
  EXPECT_EQ(100u, ds.values_purged);
  // The live half is not the journal's to fill.
  EXPECT_EQ(0u, ds.tombstones_written);
  EXPECT_EQ(0u, ds.range_deletes_written);
  EXPECT_EQ(0u, ds.tombstones_live);
  EXPECT_FALSE(ds.dth_at_risk);
}

}  // namespace acheron
