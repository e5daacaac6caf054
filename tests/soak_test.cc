// Cross-configuration soak: a longer randomized workload (puts, deletes,
// reopens, manual flushes, scans) model-checked against std::map, with the
// delete-persistence invariant asserted throughout, across the full matrix
// of compaction style x delete-awareness.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/util/random.h"

namespace acheron {

// GoogleTest prints a parameter type that has no PrintTo as its raw bytes,
// and gtest_discover_tests puts that dump into each ctest name. So every byte
// here is a value the config sets: the padding is spelled out as zeroed
// members (left implicit, it held stack garbage), and the case name is
// derived from the fields instead of stored as a pointer (whose address moves
// with ASLR). Otherwise the discovered names change from build to build.
struct SoakConfig {
  SoakConfig(CompactionStyle s, uint64_t d, bool picking)
      : style(s), dth(d), delete_aware_picking(picking) {}

  CompactionStyle style;
  uint32_t reserved0 = 0;
  uint64_t dth;
  bool delete_aware_picking;
  char reserved1[7] = {};
  uint64_t seed = 20260704;
};
static_assert(sizeof(SoakConfig) == 32, "SoakConfig must have no padding");

static std::string SoakName(const ::testing::TestParamInfo<SoakConfig>& info) {
  const SoakConfig& cfg = info.param;
  std::string name =
      cfg.style == CompactionStyle::kLeveling ? "Leveling" : "Tiering";
  name += cfg.dth == 0 ? "Vanilla" : "Fade";
  if (cfg.delete_aware_picking) name += "Picking";
  return name;
}

class SoakTest : public ::testing::TestWithParam<SoakConfig> {
 protected:
  SoakTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 16 << 10;
    options_.size_ratio = 3;
    options_.level0_compaction_trigger = 3;
  }
  ~SoakTest() override { delete db_; }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_P(SoakTest, LongRandomizedRun) {
  const SoakConfig& cfg = GetParam();
  options_.compaction_style = cfg.style;
  options_.delete_persistence_threshold = cfg.dth;
  options_.delete_aware_picking = cfg.delete_aware_picking;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());

  Random rnd(cfg.seed);
  std::map<std::string, std::string> model;
  const int kOps = 25000;
  for (int step = 0; step < kOps; step++) {
    std::string key = "key" + std::to_string(rnd.Uniform(700));
    switch (rnd.Uniform(20)) {
      default: {  // put (weight 13)
        std::string value = "v" + std::to_string(step);
        model[key] = value;
        ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
        break;
      }
      case 13:
      case 14:
      case 15:
      case 16: {  // delete (weight 4)
        model.erase(key);
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        break;
      }
      case 17: {  // point read (weight 1)
        std::string value;
        Status s = db_->Get(ReadOptions(), key, &value);
        auto it = model.find(key);
        if (it == model.end()) {
          ASSERT_TRUE(s.IsNotFound()) << key << " step " << step;
        } else {
          ASSERT_TRUE(s.ok()) << key << " step " << step;
          ASSERT_EQ(it->second, value);
        }
        break;
      }
      case 18: {  // short scan vs model (weight 1)
        std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
        it->Seek(key);
        auto mit = model.lower_bound(key);
        for (int i = 0; i < 5 && mit != model.end(); i++, ++mit) {
          ASSERT_TRUE(it->Valid()) << "step " << step;
          ASSERT_EQ(mit->first, it->key().ToString());
          ASSERT_EQ(mit->second, it->value().ToString());
          it->Next();
        }
        break;
      }
      case 19: {  // structural event (weight 1)
        if (step % 1000 < 300) {
          ASSERT_TRUE(db_->FlushMemTable().ok());
        } else if (step % 1000 < 400) {
          delete db_;
          db_ = nullptr;
          ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
        }
        break;
      }
    }

    // The headline invariant, sampled.
    if (cfg.dth > 0 && step % 1000 == 999) {
      std::string age;
      ASSERT_TRUE(db_->GetProperty("acheron.max-tombstone-age", &age));
      ASSERT_LE(std::stoull(age), cfg.dth + 2) << "step " << step;
    }
  }

  // Final exhaustive comparison.
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(model.end(), mit);
    EXPECT_EQ(mit->first, it->key().ToString());
    EXPECT_EQ(mit->second, it->value().ToString());
  }
  EXPECT_EQ(model.end(), mit);
  EXPECT_TRUE(it->status().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SoakTest,
    ::testing::Values(SoakConfig(CompactionStyle::kLeveling, 0, false),
                      SoakConfig(CompactionStyle::kLeveling, 6000, false),
                      SoakConfig(CompactionStyle::kLeveling, 6000, true),
                      SoakConfig(CompactionStyle::kTiering, 0, false),
                      SoakConfig(CompactionStyle::kTiering, 6000, false)),
    SoakName);

}  // namespace acheron
