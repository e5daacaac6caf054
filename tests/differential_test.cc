// Differential test: drive the DB and a trivially-correct in-memory model
// (std::map plus a deleted-key set, with range deletes erasing whole map
// intervals) through the same randomized op stream and require identical
// visible state at every checkpoint. The stream mixes puts, point and RANGE
// deletes, overwrites, point reads (single and MultiGet batches),
// full scans, explicit flushes and
// compactions, and full close/reopen cycles; the PRNG is seeded with a
// fixed constant so a failure reproduces exactly, and the seed is printed
// in every assertion for when someone changes it.
//
// DifferentialTest's one history runs FADE off, leveling, with key-value
// separation ON and value lengths randomized across the threshold: roughly
// half the puts route their value through the value log and half stay
// inline, so every read path (Get, MultiGet, scans), every overwrite/delete,
// and every reopen continuously crosses the pointer/inline boundary while
// the value-log GC churns underneath. DifferentialGridTest runs the same
// history over the rest of the grid D_th x compaction style x separation,
// which puts FADE's TTL compactions under the model. Every history starts
// from an empty DB, so each passes through a tree that is L0 alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"

namespace acheron {
namespace {

constexpr uint32_t kSeed = 0xac4e207;
constexpr int kSteps = 10000;
constexpr int kKeySpace = 400;  // small enough to force overwrite/delete churn
// Separation threshold; random value lengths are drawn from
// [1, 2 * kSepThreshold], so puts land on both sides of it.
constexpr size_t kSepThreshold = 64;

struct DiffConfig {
  uint64_t dth;  // delete_persistence_threshold; 0 turns FADE off
  CompactionStyle style;
  bool separation;
};

std::string DiffName(const DiffConfig& cfg) {
  return "Dth" + std::to_string(cfg.dth) +
         (cfg.style == CompactionStyle::kLeveling ? "Leveling" : "Tiering") +
         (cfg.separation ? "Separated" : "Inline");
}

// Names the parameter in ctest's discovered test names (GoogleTest would
// otherwise print the struct's raw bytes, padding included).
void PrintTo(const DiffConfig& cfg, std::ostream* os) { *os << DiffName(cfg); }

class DifferentialTest : public ::testing::Test {
 protected:
  DifferentialTest() : env_(NewMemEnv()) {}
  ~DifferentialTest() override { delete db_; }

  Options DbOptions() const {
    Options o;
    o.env = env_.get();
    o.create_if_missing = true;
    o.write_buffer_size = 16 << 10;  // small: steady flush/compaction churn
    o.compaction_style = cfg_.style;
    o.delete_persistence_threshold = cfg_.dth;
    if (cfg_.separation) {
      o.value_separation_threshold = kSepThreshold;
      o.vlog_segment_size = 64 << 10;  // small segments: rotation + GC churn
    }
    return o;
  }

  void Open() {
    ASSERT_TRUE(DB::Open(DbOptions(), "/diffdb", &db_).ok()) << Ctx();
  }

  void Reopen() {
    delete db_;
    db_ = nullptr;
    Open();
  }

  std::string Ctx() const {
    return "[differential " + DiffName(cfg_) + " seed=" +
           std::to_string(seed_) + " step=" + std::to_string(step_) + "]";
  }

  static std::string KeyAt(int idx) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", idx);
    return std::string(buf);
  }

  std::string Key(std::mt19937& rng) {
    return KeyAt(static_cast<int>(rng() % kKeySpace));
  }

  // Point-read every key the model knows about (live or deleted) and
  // compare. Deleted keys must be NotFound -- the model's tombstone view.
  void CheckPointReads() {
    for (const auto& kv : model_) {
      std::string v;
      Status s = db_->Get(ReadOptions(), kv.first, &v);
      ASSERT_TRUE(s.ok()) << Ctx() << " Get(" << kv.first
                          << "): " << s.ToString();
      ASSERT_EQ(kv.second, v) << Ctx() << " Get(" << kv.first << ")";
    }
    for (const std::string& k : deleted_) {
      if (model_.count(k)) continue;  // re-put since the delete
      std::string v;
      Status s = db_->Get(ReadOptions(), k, &v);
      ASSERT_TRUE(s.IsNotFound())
          << Ctx() << " deleted key " << k << " visible: "
          << (s.ok() ? "value " + v : s.ToString());
    }
  }

  // Full forward scan must reproduce the model exactly: same keys, same
  // values, sorted order, no tombstone leak-through.
  void CheckScan() {
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    auto expect = model_.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_NE(expect, model_.end())
          << Ctx() << " scan found extra key " << it->key().ToString();
      ASSERT_EQ(expect->first, it->key().ToString()) << Ctx();
      ASSERT_EQ(expect->second, it->value().ToString()) << Ctx();
      ++expect;
    }
    ASSERT_TRUE(it->status().ok()) << Ctx() << ": " << it->status().ToString();
    ASSERT_EQ(expect, model_.end())
        << Ctx() << " scan ended early; missing key " << expect->first;
  }

  // Runs the randomized history for both seeds under |cfg|.
  void RunHistory(const DiffConfig& cfg);

  DiffConfig cfg_{0, CompactionStyle::kLeveling, true};
  std::unique_ptr<Env> env_;
  DB* db_ = nullptr;
  uint32_t seed_ = kSeed;
  std::map<std::string, std::string> model_;
  std::set<std::string> deleted_;  // every key ever deleted
  int step_ = 0;
};

void DifferentialTest::RunHistory(const DiffConfig& cfg) {
  cfg_ = cfg;
  for (uint32_t seed : {kSeed, kSeed + 1}) {
    seed_ = seed;
    delete db_;
    db_ = nullptr;
    env_.reset(NewMemEnv());
    model_.clear();
    deleted_.clear();
    Open();

    std::mt19937 rng(seed);
    for (step_ = 0; step_ < kSteps; step_++) {
      const uint32_t roll = rng() % 1000;
      if (roll < 550) {
        // Put (overwrites included by construction of the small key space).
        // The length straddles the separation threshold, so this randomly
        // alternates inline values and vLog pointers on the same keys.
        std::string k = Key(rng);
        std::string v = "v" + std::to_string(step_) + "-" +
                        std::string(1 + rng() % (2 * kSepThreshold),
                                    'a' + rng() % 26);
        ASSERT_TRUE(db_->Put(WriteOptions(), k, v).ok()) << Ctx();
        model_[k] = v;
      } else if (roll < 750) {
        // Delete (often of a key that exists; sometimes a no-op delete).
        std::string k = Key(rng);
        ASSERT_TRUE(db_->Delete(WriteOptions(), k).ok()) << Ctx();
        model_.erase(k);
        deleted_.insert(k);
      } else if (roll < 800) {
        // Range delete over [start, start+span): the model erases the whole
        // interval and remembers every covered index as deleted, so later
        // checks also prove that a durable range delete never resurrects.
        const int start = static_cast<int>(rng() % kKeySpace);
        const int span = 1 + static_cast<int>(rng() % 8);
        const std::string b = KeyAt(start);
        const std::string e = KeyAt(start + span);
        ASSERT_TRUE(db_->DeleteRange(WriteOptions(), b, e).ok()) << Ctx();
        model_.erase(model_.lower_bound(b), model_.lower_bound(e));
        for (int i = start; i < start + span && i < kKeySpace; i++) {
          deleted_.insert(KeyAt(i));
        }
      } else if (roll < 875) {
        // Point-read a random key and compare against the model.
        std::string k = Key(rng);
        std::string v;
        Status s = db_->Get(ReadOptions(), k, &v);
        auto it = model_.find(k);
        if (it == model_.end()) {
          ASSERT_TRUE(s.IsNotFound()) << Ctx() << " Get(" << k << ")";
        } else {
          ASSERT_TRUE(s.ok()) << Ctx() << " Get(" << k << ")";
          ASSERT_EQ(it->second, v) << Ctx() << " Get(" << k << ")";
        }
      } else if (roll < 950) {
        // Batched point reads: MultiGet must agree with the model per key,
        // under one snapshot, duplicates included.
        const size_t n = 1 + rng() % 8;
        std::vector<std::string> keys(n);
        std::vector<Slice> slices(n);
        for (size_t i = 0; i < n; i++) {
          keys[i] = Key(rng);
          slices[i] = keys[i];
        }
        std::vector<std::string> values;
        std::vector<Status> statuses = db_->MultiGet(
            ReadOptions(), std::span<const Slice>(slices.data(), n), &values);
        ASSERT_EQ(n, statuses.size()) << Ctx();
        ASSERT_EQ(n, values.size()) << Ctx();
        for (size_t i = 0; i < n; i++) {
          auto it = model_.find(keys[i]);
          if (it == model_.end()) {
            ASSERT_TRUE(statuses[i].IsNotFound())
                << Ctx() << " MultiGet[" << i << "](" << keys[i] << "): "
                << statuses[i].ToString();
          } else {
            ASSERT_TRUE(statuses[i].ok())
                << Ctx() << " MultiGet[" << i << "](" << keys[i] << "): "
                << statuses[i].ToString();
            ASSERT_EQ(it->second, values[i])
                << Ctx() << " MultiGet[" << i << "](" << keys[i] << ")";
          }
        }
      } else if (roll < 970) {
        ASSERT_TRUE(db_->FlushMemTable().ok()) << Ctx();
      } else if (roll < 985) {
        db_->CompactRange(nullptr, nullptr);
      } else {
        // Close and reopen: recovery must reconstruct the same state.
        ASSERT_NO_FATAL_FAILURE(Reopen());
      }

      if (step_ % 1000 == 999) {
        ASSERT_NO_FATAL_FAILURE(CheckScan());
        ASSERT_NO_FATAL_FAILURE(CheckPointReads());
      }
    }

    // Final sweep: as-is, after reopen, and after a full compaction.
    ASSERT_NO_FATAL_FAILURE(CheckScan());
    ASSERT_NO_FATAL_FAILURE(CheckPointReads());
    ASSERT_NO_FATAL_FAILURE(Reopen());
    ASSERT_NO_FATAL_FAILURE(CheckScan());
    ASSERT_NO_FATAL_FAILURE(CheckPointReads());
    db_->CompactRange(nullptr, nullptr);
    ASSERT_TRUE(db_->WaitForCompactions().ok()) << Ctx();
    ASSERT_NO_FATAL_FAILURE(CheckScan());
    ASSERT_NO_FATAL_FAILURE(CheckPointReads());
  }
}

TEST_F(DifferentialTest, DbMatchesModelOverRandomHistory) {
  RunHistory(DiffConfig{0, CompactionStyle::kLeveling, true});
}

class DifferentialGridTest : public DifferentialTest,
                             public ::testing::WithParamInterface<DiffConfig> {
};

TEST_P(DifferentialGridTest, DbMatchesModelOverRandomHistory) {
  RunHistory(GetParam());
}

// Every other point of D_th {0, 200, 2000} x {leveling, tiering} x
// {inline, separated}; DifferentialTest covers D_th 0, leveling, separated.
std::vector<DiffConfig> GridConfigs() {
  std::vector<DiffConfig> configs;
  for (uint64_t dth : {0, 200, 2000}) {
    for (CompactionStyle style :
         {CompactionStyle::kLeveling, CompactionStyle::kTiering}) {
      for (bool separation : {false, true}) {
        if (dth == 0 && style == CompactionStyle::kLeveling && separation) {
          continue;
        }
        configs.push_back(DiffConfig{dth, style, separation});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DifferentialGridTest, ::testing::ValuesIn(GridConfigs()),
    [](const ::testing::TestParamInfo<DiffConfig>& info) {
      return DiffName(info.param);
    });

}  // namespace
}  // namespace acheron
