// KiWi-lite retention purge: physical deletion on a secondary attribute
// (e.g. a creation timestamp embedded in values) via wholesale file drops
// and straddling-file rewrites.
#include <gtest/gtest.h>

#include <memory>

#include "src/env/env.h"
#include "src/lsm/db.h"

namespace acheron {

namespace {

// Values are "TTTTTTTT|payload" where T is a zero-padded timestamp; the
// extractor returns that prefix.
std::string MakeValue(uint64_t timestamp, const std::string& payload) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(timestamp));
  return std::string(buf) + "|" + payload;
}

std::string TimestampExtractor(const Slice&, const Slice& value) {
  if (value.size() < 8) return std::string();
  return std::string(value.data(), 8);
}

std::string Threshold(uint64_t timestamp) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(timestamp));
  return std::string(buf);
}

}  // namespace

class SecondaryPurgeTest : public ::testing::Test {
 protected:
  SecondaryPurgeTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 16 << 10;
    options_.secondary_key_extractor = TimestampExtractor;
  }
  ~SecondaryPurgeTest() override { delete db_; }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  std::string Get(const std::string& k) {
    std::string v;
    Status s = db_->Get(ReadOptions(), k, &v);
    return s.ok() ? v : (s.IsNotFound() ? "NOT_FOUND" : s.ToString());
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_F(SecondaryPurgeTest, RequiresExtractor) {
  options_.secondary_key_extractor = nullptr;
  Open();
  EXPECT_TRUE(db_->PurgeSecondaryRange("x").IsNotSupported());
}

TEST_F(SecondaryPurgeTest, PurgesOldEntriesOnly) {
  Open();
  // Two generations of data: timestamps 1000..1999 and 2000..2999.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "old" + std::to_string(i),
                         MakeValue(1000 + i, "stale"))
                    .ok());
  }
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "new" + std::to_string(i),
                         MakeValue(2000 + i, "fresh"))
                    .ok());
  }
  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(2000)).ok());

  for (int i = 0; i < 500; i++) {
    EXPECT_EQ("NOT_FOUND", Get("old" + std::to_string(i))) << i;
    EXPECT_EQ(MakeValue(2000 + i, "fresh"), Get("new" + std::to_string(i)))
        << i;
  }
}

TEST_F(SecondaryPurgeTest, PurgeIsPhysicalNotLogical) {
  Open();
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         MakeValue(100 + i, std::string(100, 'z')))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string sst_before;
  ASSERT_TRUE(db_->GetProperty("acheron.sstables", &sst_before));

  // Purge everything: no tombstones may be written -- files must go away.
  DeleteStats before = db_->GetDeleteStats();
  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(100000)).ok());
  DeleteStats after = db_->GetDeleteStats();
  EXPECT_EQ(before.tombstones_written, after.tombstones_written);

  for (int i = 0; i < 1000; i += 97) {
    EXPECT_EQ("NOT_FOUND", Get("k" + std::to_string(i)));
  }
  // Tree is empty (or nearly): no data files remain with live entries.
  std::string total;
  int files = 0;
  for (int level = 0; level < 12; level++) {
    std::string v;
    db_->GetProperty("acheron.num-files-at-level" + std::to_string(level), &v);
    files += std::stoi(v);
  }
  EXPECT_EQ(0, files);
}

TEST_F(SecondaryPurgeTest, StraddlingFileIsRewritten) {
  Open();
  // One file holding both halves of the threshold.
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         MakeValue(i < 50 ? 10 + i : 5000 + i, "p"))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(1000)).ok());
  for (int i = 0; i < 100; i++) {
    if (i < 50) {
      EXPECT_EQ("NOT_FOUND", Get("k" + std::to_string(i)));
    } else {
      EXPECT_EQ(MakeValue(5000 + i, "p"), Get("k" + std::to_string(i)));
    }
  }
}

// The purge rewrites a straddling L0 file in place. A tombstone in it
// hides an older L0 sibling's value; with nothing below, only that sibling
// keeps the tombstone from dropping.
TEST_F(SecondaryPurgeTest, L0RewriteKeepsTombstoneOverOlderSibling) {
  options_.write_buffer_size = 1 << 20;  // flush only where the test does
  options_.level0_compaction_trigger = 64;  // L0 files stay in L0
  options_.level0_slowdown_writes_trigger = 1 << 20;
  options_.level0_stop_writes_trigger = 1 << 20;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", MakeValue(5000, "old")).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "a").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "x", MakeValue(10, "expired")).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "y", MakeValue(6000, "fresh")).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string l0;
  ASSERT_TRUE(db_->GetProperty("acheron.num-files-at-level0", &l0));
  ASSERT_EQ(l0, "2");

  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(1000)).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("NOT_FOUND", Get("x"));
  EXPECT_EQ(MakeValue(6000, "fresh"), Get("y"));
}

TEST_F(SecondaryPurgeTest, SurvivesReopen) {
  Open();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         MakeValue(i, "gen1"))
                    .ok());
  }
  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(100)).ok());
  delete db_;
  db_ = nullptr;
  Open();
  for (int i = 0; i < 200; i++) {
    if (i < 100) {
      EXPECT_EQ("NOT_FOUND", Get("k" + std::to_string(i)));
    } else {
      EXPECT_EQ(MakeValue(i, "gen1"), Get("k" + std::to_string(i)));
    }
  }
}

TEST_F(SecondaryPurgeTest, PurgeInteractsWithCompactions) {
  options_.delete_persistence_threshold = 4000;
  Open();
  // Enough data to reach multiple levels, then purge mid-stream.
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < 800; i++) {
      uint64_t ts = round * 1000 + i;
      ASSERT_TRUE(db_->Put(WriteOptions(),
                           "r" + std::to_string(round) + "k" +
                               std::to_string(i),
                           MakeValue(ts, std::string(60, 'q')))
                      .ok());
    }
  }
  ASSERT_TRUE(db_->PurgeSecondaryRange(Threshold(2000)).ok());
  // Rounds 0 and 1 gone; rounds 2 and 3 intact.
  for (int i = 0; i < 800; i += 101) {
    EXPECT_EQ("NOT_FOUND", Get("r0k" + std::to_string(i)));
    EXPECT_EQ("NOT_FOUND", Get("r1k" + std::to_string(i)));
    EXPECT_NE("NOT_FOUND", Get("r2k" + std::to_string(i)));
    EXPECT_NE("NOT_FOUND", Get("r3k" + std::to_string(i)));
  }
  // Engine still healthy for further writes.
  ASSERT_TRUE(db_->Put(WriteOptions(), "post", MakeValue(9999, "ok")).ok());
  EXPECT_EQ(MakeValue(9999, "ok"), Get("post"));
}

}  // namespace acheron
