// End-to-end tests of the Acheron DB: CRUD, iterators, snapshots, flush,
// compaction (leveling + tiering), recovery, and properties.
#include "src/lsm/db.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/filename.h"
#include "src/lsm/table_cache.h"
#include "src/util/random.h"

namespace acheron {

class DBTest : public ::testing::Test {
 protected:
  DBTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 16 << 10;  // small, to force flushes
    options_.max_file_size = 32 << 10;
    options_.level0_compaction_trigger = 4;
    options_.size_ratio = 4;
  }

  ~DBTest() override { delete db_; }

  Status Open() {
    delete db_;
    db_ = nullptr;
    return DB::Open(options_, "/db", &db_);
  }

  Status Reopen() { return Open(); }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }
  Status Delete(const std::string& k) { return db_->Delete(WriteOptions(), k); }
  std::string Get(const std::string& k, const Snapshot* snapshot = nullptr) {
    ReadOptions options;
    options.snapshot = snapshot;
    std::string result;
    Status s = db_->Get(options, k, &result);
    if (s.IsNotFound()) {
      result = "NOT_FOUND";
    } else if (!s.ok()) {
      result = s.ToString();
    }
    return result;
  }

  int NumFilesAtLevel(int level) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(
        "acheron.num-files-at-level" + std::to_string(level), &value));
    return std::stoi(value);
  }

  int TotalFiles() {
    int total = 0;
    for (int i = 0; i < kNumLevels; i++) total += NumFilesAtLevel(i);
    return total;
  }

  uint64_t TotalTombstones() {
    std::string value;
    EXPECT_TRUE(db_->GetProperty("acheron.total-tombstones", &value));
    return std::stoull(value);
  }

  uint64_t MaxTombstoneAge() {
    std::string value;
    EXPECT_TRUE(db_->GetProperty("acheron.max-tombstone-age", &value));
    return std::stoull(value);
  }

  // Full user-visible contents via an iterator, as "k1->v1,k2->v2,".
  std::string Contents() {
    std::string result;
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      result += it->key().ToString() + "->" + it->value().ToString() + ",";
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return result;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_F(DBTest, OpenAndReopenEmpty) {
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("NOT_FOUND", Get("missing"));
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ("NOT_FOUND", Get("missing"));
}

TEST_F(DBTest, OpenFailsWithoutCreateIfMissing) {
  options_.create_if_missing = false;
  Status s = Open();
  EXPECT_FALSE(s.ok());
}

TEST_F(DBTest, ErrorIfExists) {
  ASSERT_TRUE(Open().ok());
  options_.error_if_exists = true;
  Status s = Open();
  EXPECT_FALSE(s.ok());
}

TEST_F(DBTest, PutGetDelete) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("foo", "v1").ok());
  EXPECT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("foo", "v2").ok());
  EXPECT_EQ("v2", Get("foo"));
  ASSERT_TRUE(Delete("foo").ok());
  EXPECT_EQ("NOT_FOUND", Get("foo"));
  // Deleting a non-existent key succeeds.
  ASSERT_TRUE(Delete("nothing").ok());
}

TEST_F(DBTest, EmptyKeyAndValue) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("", "empty-key-value").ok());
  EXPECT_EQ("empty-key-value", Get(""));
  ASSERT_TRUE(Put("empty-value", "").ok());
  EXPECT_EQ("", Get("empty-value"));
}

TEST_F(DBTest, BinaryKeys) {
  ASSERT_TRUE(Open().ok());
  std::string k1("a\0b", 3), k2("a\0c", 3);
  ASSERT_TRUE(Put(k1, "1").ok());
  ASSERT_TRUE(Put(k2, "2").ok());
  EXPECT_EQ("1", Get(k1));
  EXPECT_EQ("2", Get(k2));
}

TEST_F(DBTest, GetFromSSTAfterFlush) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("persisted", "on-disk").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_GE(NumFilesAtLevel(0), 1);
  EXPECT_EQ("on-disk", Get("persisted"));
}

TEST_F(DBTest, DeleteShadowsOlderSST) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("k", "old").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Delete("k").ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ("NOT_FOUND", Get("k"));
}

TEST_F(DBTest, WriteBatchAtomicity) {
  ASSERT_TRUE(Open().ok());
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
  EXPECT_EQ("3", Get("c"));
}

TEST_F(DBTest, RecoveryFromWAL) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("alpha", "1").ok());
  ASSERT_TRUE(Put("beta", "2").ok());
  ASSERT_TRUE(Delete("alpha").ok());
  // No flush: everything lives in the WAL + memtable.
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ("NOT_FOUND", Get("alpha"));
  EXPECT_EQ("2", Get("beta"));
}

TEST_F(DBTest, RecoveryWithFlushedData) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 100; i < 150; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(Reopen().ok());
  for (int i = 0; i < 150; i++) {
    EXPECT_EQ("v" + std::to_string(i), Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTest, RepeatedReopens) {
  ASSERT_TRUE(Open().ok());
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(
          Put("r" + std::to_string(round) + "k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE(Reopen().ok());
  }
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 50; i++) {
      EXPECT_EQ("v", Get("r" + std::to_string(round) + "k" + std::to_string(i)));
    }
  }
}

TEST_F(DBTest, IteratorBasics) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("b", "2").ok());
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("c", "3").ok());
  EXPECT_EQ("a->1,b->2,c->3,", Contents());

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->Seek("b");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("b", it->key().ToString());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("a", it->key().ToString());
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("c", it->key().ToString());
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, IteratorHidesDeletedAndOldVersions) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("a", "old").ok());
  ASSERT_TRUE(Put("b", "keep").ok());
  ASSERT_TRUE(Put("a", "new").ok());
  ASSERT_TRUE(Put("c", "dead").ok());
  ASSERT_TRUE(Delete("c").ok());
  EXPECT_EQ("a->new,b->keep,", Contents());
}

TEST_F(DBTest, IteratorAcrossMemtableAndSSTs) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("disk1", "d1").ok());
  ASSERT_TRUE(Put("disk2", "d2").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Put("mem1", "m1").ok());
  ASSERT_TRUE(Delete("disk2").ok());
  EXPECT_EQ("disk1->d1,mem1->m1,", Contents());
}

TEST_F(DBTest, IteratorReverseScan) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 20; i++) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%02d", i);
    ASSERT_TRUE(Put(buf, std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  for (int i = 20; i < 40; i++) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%02d", i);
    ASSERT_TRUE(Put(buf, std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  it->SeekToLast();
  for (int i = 39; i >= 0; i--) {
    ASSERT_TRUE(it->Valid()) << i;
    EXPECT_EQ(std::to_string(i), it->value().ToString());
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, SnapshotIsolation) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("k", "v1").ok());
  const Snapshot* s1 = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "v2").ok());
  const Snapshot* s2 = db_->GetSnapshot();
  ASSERT_TRUE(Delete("k").ok());

  EXPECT_EQ("v1", Get("k", s1));
  EXPECT_EQ("v2", Get("k", s2));
  EXPECT_EQ("NOT_FOUND", Get("k"));

  // Survives flush + compaction while pinned.
  ASSERT_TRUE(db_->FlushMemTable().ok());
  db_->CompactRange(nullptr, nullptr);
  EXPECT_EQ("v1", Get("k", s1));
  EXPECT_EQ("v2", Get("k", s2));
  EXPECT_EQ("NOT_FOUND", Get("k"));

  db_->ReleaseSnapshot(s1);
  db_->ReleaseSnapshot(s2);
}

TEST_F(DBTest, SnapshotIterator) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Delete("a").ok());
  ASSERT_TRUE(Put("c", "3").ok());

  ReadOptions ropts;
  ropts.snapshot = snap;
  std::unique_ptr<Iterator> it(db_->NewIterator(ropts));
  std::string contents;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    contents += it->key().ToString() + "->" + it->value().ToString() + ",";
  }
  EXPECT_EQ("a->1,b->2,", contents);
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, CompactionsKeepDataCorrect) {
  ASSERT_TRUE(Open().ok());
  // Write enough data (with overwrites) to push through several levels.
  Random rnd(301);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; i++) {
    std::string key = "key" + std::to_string(rnd.Uniform(500));
    std::string value = "v" + std::to_string(i) + std::string(100, 'x');
    model[key] = value;
    ASSERT_TRUE(Put(key, value).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_GT(TotalFiles(), 0);
  // There must be files beyond L0 by now.
  int deeper = 0;
  for (int level = 1; level < kNumLevels; level++)
    deeper += NumFilesAtLevel(level);
  EXPECT_GT(deeper, 0);

  for (const auto& [k, v] : model) {
    ASSERT_EQ(v, Get(k)) << k;
  }
}

TEST_F(DBTest, CompactRangeSquashesTree) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        Put("key" + std::to_string(i % 300), std::string(200, 'a' + i % 26))
            .ok());
  }
  db_->CompactRange(nullptr, nullptr);
  // After a full manual compaction all data lives in one level.
  int populated_levels = 0;
  for (int level = 0; level < kNumLevels; level++) {
    if (NumFilesAtLevel(level) > 0) populated_levels++;
  }
  EXPECT_EQ(1, populated_levels);
  for (int i = 0; i < 300; i++) {
    EXPECT_NE("NOT_FOUND", Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTest, ModelCheckWithReopens) {
  // Randomized property test: DB == std::map under a random op trace with
  // periodic reopens and flushes.
  ASSERT_TRUE(Open().ok());
  Random rnd(7);
  std::map<std::string, std::string> model;
  for (int step = 0; step < 8000; step++) {
    int op = rnd.Uniform(10);
    std::string key = "k" + std::to_string(rnd.Uniform(400));
    if (op < 6) {  // put
      std::string value = "v" + std::to_string(step);
      model[key] = value;
      ASSERT_TRUE(Put(key, value).ok());
    } else if (op < 9) {  // delete
      model.erase(key);
      ASSERT_TRUE(Delete(key).ok());
    } else if (op == 9 && step % 100 == 99) {
      if (rnd.OneIn(3)) {
        ASSERT_TRUE(Reopen().ok());
      } else {
        ASSERT_TRUE(db_->FlushMemTable().ok());
      }
    }
    if (step % 1000 == 999) {
      // Full comparison.
      std::string expected;
      for (const auto& [k, v] : model) {
        expected += k + "->" + v + ",";
      }
      ASSERT_EQ(expected, Contents()) << "step " << step;
    }
  }
  // Point-read comparison at the end.
  for (int i = 0; i < 400; i++) {
    std::string key = "k" + std::to_string(i);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ("NOT_FOUND", Get(key));
    } else {
      EXPECT_EQ(it->second, Get(key));
    }
  }
}

// Range-tombstone coverage is global: a tombstone written into a table with
// point entries does not widen that table's key bounds, so it can hide a key
// that the point lookup never probes the table for. When that table cannot
// be opened, the Get must fail rather than read the key as uncovered.
TEST_F(DBTest, RangeCoverageFailsOnUnopenableTable) {
  options_.write_buffer_size = 1 << 20;  // flush only where the test does
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("m", "old").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Put("a", "x").ok());
  ASSERT_TRUE(Put("b", "y").ok());
  ASSERT_TRUE(db_->DeleteRange(WriteOptions(), "c", "z").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_EQ(Get("m"), "NOT_FOUND");

  // Reopen so that no table is open, then overwrite the newest table --
  // points a, b; tombstone [c, z) -- with bytes that do not parse.
  ASSERT_TRUE(Reopen().ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  uint64_t newest = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == kTableFile) {
      newest = std::max(newest, number);
    }
  }
  ASSERT_NE(newest, 0u);
  const std::string fname = TableFileName("/db", newest);
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &size).ok());
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    ASSERT_TRUE(file->Append(std::string(size, '\xff')).ok());
    ASSERT_TRUE(file->Close().ok());
  }

  // "m" lies outside the damaged table's bounds [a, b], so the point lookup
  // finds the old value in the other table; only coverage needs the
  // damaged one.
  const std::string result = Get("m");
  EXPECT_NE(result, "old");
  EXPECT_NE(result, "NOT_FOUND");
  EXPECT_NE(result.find("Corruption"), std::string::npos) << result;
}

TEST_F(DBTest, GetPropertySurface) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Delete("b").ok());
  std::string value;
  EXPECT_TRUE(db_->GetProperty("acheron.stats", &value));
  EXPECT_FALSE(value.empty());
  EXPECT_TRUE(db_->GetProperty("acheron.sstables", &value));
  EXPECT_TRUE(db_->GetProperty("acheron.total-tombstones", &value));
  EXPECT_EQ("1", value);
  EXPECT_TRUE(db_->GetProperty("acheron.delete-stats", &value));
  EXPECT_FALSE(db_->GetProperty("acheron.bogus", &value));
  EXPECT_FALSE(db_->GetProperty("unknown.prefix", &value));
}

TEST_F(DBTest, DeleteStatsPropertyMatchesApiWithMemtableTombstone) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Delete("gone").ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), "v").ok());
  }
  // The tombstone is still in the memtable, 100 writes old.
  const DeleteStats stats = db_->GetDeleteStats();
  EXPECT_EQ(1u, stats.tombstones_live);
  EXPECT_EQ(100u, stats.oldest_live_tombstone_age);
  std::string value;
  ASSERT_TRUE(db_->GetProperty("acheron.delete-stats", &value));
  EXPECT_EQ(stats.ToString(), value);
}

TEST_F(DBTest, StatsTrackWrites) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(Put("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  InternalStats stats = db_->GetStats();
  EXPECT_GT(stats.user_bytes_written, 100u * 1000);
  EXPECT_GT(stats.flush_count, 0u);
  EXPECT_GT(stats.flush_bytes_written, 0u);
  EXPECT_GE(stats.WriteAmplification(), 1.0);
}

TEST_F(DBTest, DestroyDBRemovesEverything) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("k", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  delete db_;
  db_ = nullptr;
  ASSERT_TRUE(DestroyDB("/db", options_).ok());
  options_.create_if_missing = false;
  EXPECT_FALSE(Open().ok());
}

TEST_F(DBTest, DisableWalStillWorksUntilReopen) {
  options_.disable_wal = true;
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("k", "v").ok());
  EXPECT_EQ("v", Get("k"));
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ("v", Get("k"));  // flushed data survives even without WAL
}

TEST_F(DBTest, LargeValues) {
  ASSERT_TRUE(Open().ok());
  std::string big(500000, 'B');
  ASSERT_TRUE(Put("big", big).ok());
  ASSERT_TRUE(Put("small", "s").ok());
  EXPECT_EQ(big, Get("big"));
  ASSERT_TRUE(db_->FlushMemTable().ok());
  EXPECT_EQ(big, Get("big"));
  EXPECT_EQ("s", Get("small"));
  ASSERT_TRUE(Reopen().ok());
  EXPECT_EQ(big, Get("big"));
}

// ---- Tiering ----

class DBTieringTest : public DBTest {
 protected:
  DBTieringTest() { options_.compaction_style = CompactionStyle::kTiering; }
};

TEST_F(DBTieringTest, BasicCrud) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(Put("a", "1").ok());
  ASSERT_TRUE(Delete("a").ok());
  ASSERT_TRUE(Put("b", "2").ok());
  EXPECT_EQ("NOT_FOUND", Get("a"));
  EXPECT_EQ("2", Get("b"));
}

TEST_F(DBTieringTest, MergesRunsAtSizeRatio) {
  options_.size_ratio = 3;
  ASSERT_TRUE(Open().ok());
  // Force several flushes; L0 must never exceed the run trigger after
  // settle.
  for (int batch = 0; batch < 10; batch++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          Put("key" + std::to_string(batch * 100 + i), std::string(300, 'x'))
              .ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    EXPECT_LT(NumFilesAtLevel(0), 3 + 1);
  }
  for (int i = 0; i < 1000; i++) {
    EXPECT_NE("NOT_FOUND", Get("key" + std::to_string(i)));
  }
}

TEST_F(DBTieringTest, ModelCheck) {
  options_.size_ratio = 3;
  ASSERT_TRUE(Open().ok());
  Random rnd(99);
  std::map<std::string, std::string> model;
  for (int step = 0; step < 6000; step++) {
    std::string key = "k" + std::to_string(rnd.Uniform(300));
    if (rnd.Uniform(10) < 7) {
      std::string value = "v" + std::to_string(step) + std::string(50, 'y');
      model[key] = value;
      ASSERT_TRUE(Put(key, value).ok());
    } else {
      model.erase(key);
      ASSERT_TRUE(Delete(key).ok());
    }
    if (step % 1500 == 1499) {
      std::string expected;
      for (const auto& [k, v] : model) expected += k + "->" + v + ",";
      ASSERT_EQ(expected, Contents()) << "step " << step;
      ASSERT_TRUE(Reopen().ok());
    }
  }
  for (int i = 0; i < 300; i++) {
    std::string key = "k" + std::to_string(i);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ("NOT_FOUND", Get(key));
    } else {
      EXPECT_EQ(it->second, Get(key));
    }
  }
}

namespace {

// Counts the live random-access files of each name: a table's file (and,
// under PosixEnv, its mapping) stays open as long as its reader lives.
class OpenFileCountingEnv : public FaultInjectionEnv {
 public:
  explicit OpenFileCountingEnv(Env* base) : FaultInjectionEnv(base) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    Status s = FaultInjectionEnv::NewRandomAccessFile(fname, result);
    if (s.ok()) {
      *result = std::make_unique<Counted>(std::move(*result), this, fname);
    }
    return s;
  }

  // The table files open now.
  std::set<std::string> OpenTables() const {
    std::lock_guard<std::mutex> l(mu_);
    std::set<std::string> tables;
    for (const auto& [fname, n] : open_) {
      uint64_t number;
      FileType type;
      const std::string base = fname.substr(fname.rfind('/') + 1);
      if (n > 0 && ParseFileName(base, &number, &type) &&
          type == kTableFile) {
        tables.insert(fname);
      }
    }
    return tables;
  }

 private:
  class Counted : public RandomAccessFile {
   public:
    Counted(std::unique_ptr<RandomAccessFile> file, OpenFileCountingEnv* env,
            std::string fname)
        : file_(std::move(file)), env_(env), fname_(std::move(fname)) {
      env_->Add(fname_, 1);
    }
    ~Counted() override { env_->Add(fname_, -1); }
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      return file_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> file_;
    OpenFileCountingEnv* const env_;
    const std::string fname_;
  };

  void Add(const std::string& fname, int delta) {
    std::lock_guard<std::mutex> l(mu_);
    open_[fname] += delta;
  }

  mutable std::mutex mu_;
  std::map<std::string, int> open_;
};

class PinnedTableTest : public ::testing::Test {
 protected:
  PinnedTableTest() : mem_env_(NewMemEnv()), env_(mem_env_.get()) {
    options_.env = &env_;
    options_.write_buffer_size = 16 << 10;
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  DBImpl* impl() const { return static_cast<DBImpl*>(db_.get()); }
  const TableCache* table_cache() const { return impl()->TEST_table_cache(); }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  // Put keys [0, n) with values tagged |round|.
  void Fill(int n, int round) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i),
                           "v" + std::to_string(round) + "_" +
                               std::to_string(i) + std::string(40, 'x'))
                      .ok());
    }
  }

  // Every key of [0, n) reads its round-|round| value, and keys past n are
  // absent.
  void ExpectContents(int n, int round) {
    std::string value;
    for (int i = 0; i < n + 50; i++) {
      Status s = db_->Get(ReadOptions(), Key(i), &value);
      if (i >= n) {
        ASSERT_TRUE(s.IsNotFound()) << Key(i) << " " << s.ToString();
        continue;
      }
      ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
      ASSERT_EQ("v" + std::to_string(round) + "_" + std::to_string(i) +
                    std::string(40, 'x'),
                value);
    }
  }

  int TotalFiles() {
    int total = 0;
    for (int level = 0; level < kNumLevels; level++) {
      std::string files;
      EXPECT_TRUE(db_->GetProperty(
          "acheron.num-files-at-level" + std::to_string(level), &files));
      total += std::stoi(files);
    }
    return total;
  }

  std::unique_ptr<Env> mem_env_;
  OpenFileCountingEnv env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

}  // namespace

// A version's first probe of a file pins its table; from then on its Gets
// (hits, misses and range-tombstone coverage) make no table cache lookup.
TEST_F(PinnedTableTest, WarmedVersionMakesNoTableCacheLookups) {
  Open();
  Fill(3000, 1);
  ASSERT_TRUE(
      db_->DeleteRange(WriteOptions(), Key(3010), Key(3020)).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_GT(TotalFiles(), 2);
  ExpectContents(3000, 1);
  const uint64_t lookups = table_cache()->TEST_lookups();
  ASSERT_GT(table_cache()->pinned(), 0);
  ExpectContents(3000, 1);
  EXPECT_EQ(lookups, table_cache()->TEST_lookups());
}

// A dead version's pins are released, so the tables a compaction made
// obsolete are closed and removed by RemoveObsoleteFiles.
TEST_F(PinnedTableTest, DeadVersionReleasesItsPins) {
  options_.write_buffer_size = 1 << 20;
  Open();
  Fill(200, 1);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  // Overwrite the first half, so Gets of the second probe both tables.
  Fill(100, 2);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  auto expect_both_rounds = [this] {
    std::string value;
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(db_->Get(ReadOptions(), Key(i), &value).ok()) << Key(i);
      ASSERT_EQ("v" + std::to_string(i < 100 ? 2 : 1) + "_" +
                    std::to_string(i) + std::string(40, 'x'),
                value);
    }
  };
  expect_both_rounds();
  const std::set<std::string> pinned = env_.OpenTables();
  ASSERT_EQ(2u, pinned.size());
  EXPECT_EQ(2, table_cache()->pinned());

  // Both overlapping L0 files merge into one.
  impl()->TEST_CompactRange(0, nullptr, nullptr);
  ASSERT_EQ(1, TotalFiles());
  EXPECT_EQ(0, table_cache()->pinned());
  for (const std::string& fname : pinned) {
    EXPECT_EQ(0u, env_.OpenTables().count(fname)) << fname;
    EXPECT_FALSE(env_.FileExists(fname)) << fname;
  }
  expect_both_rounds();
  EXPECT_EQ(1, table_cache()->pinned());
}

// With fewer open files allowed than tables, pins stop at the cache's
// capacity and the other probes go through TableCache::Get.
TEST_F(PinnedTableTest, FewerOpenFilesThanTables) {
  options_.max_open_files = 3;
  Open();
  Fill(3000, 1);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Fill(1500, 2);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_GT(TotalFiles(), 3);
  for (int pass = 0; pass < 2; pass++) {
    std::string value;
    for (int i = 0; i < 3050; i++) {
      Status s = db_->Get(ReadOptions(), Key(i), &value);
      if (i >= 3000) {
        ASSERT_TRUE(s.IsNotFound()) << Key(i);
        continue;
      }
      ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
      ASSERT_EQ("v" + std::to_string(i < 1500 ? 2 : 1) + "_" +
                    std::to_string(i) + std::string(40, 'x'),
                value);
      ASSERT_LE(table_cache()->pinned(), 3);
    }
  }
  EXPECT_EQ(3, table_cache()->pinned());
}

namespace {

// Under PosixEnv every table is mapped, so its data blocks are read in
// place and each is CRC-checked on its first use by an open Table (see
// Table::FetchBlock). MemEnv copies every read and never takes that path.
// Each test keeps its DB in its own build-directory-relative folder.
class MappedTableTest : public ::testing::Test {
 protected:
  MappedTableTest()
      : dbname_(std::string("mapped_table_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()) {
    std::filesystem::remove_all(dbname_);
    options_.env = DefaultEnv();
    options_.write_buffer_size = 4 << 20;  // one flush makes one table
  }

  ~MappedTableTest() override {
    db_.reset();
    std::filesystem::remove_all(dbname_);
  }

  Status Open() {
    db_.reset();
    DB* raw = nullptr;
    Status s = DB::Open(options_, dbname_, &raw);
    db_.reset(raw);
    return s;
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  // Unique in the table file: its first 11 bytes name the key.
  static std::string Value(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "value%06d", i);
    return buf + std::string(80, 'v');
  }

  // Put keys [0, n) and flush them into one table. The DB is then closed,
  // so the next Open's tables have checked no block yet.
  void FillOneTable(int n) {
    ASSERT_TRUE(Open().ok());
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
    ASSERT_TRUE(db_->FlushMemTable().ok());
    db_.reset();
  }

  // The path of the DB's only table file.
  std::string TablePath() {
    std::vector<std::string> tables;
    for (const auto& entry : std::filesystem::directory_iterator(dbname_)) {
      uint64_t number;
      FileType type;
      if (ParseFileName(entry.path().filename().string(), &number, &type) &&
          type == kTableFile) {
        tables.push_back(entry.path().string());
      }
    }
    EXPECT_EQ(1u, tables.size());
    return tables.empty() ? std::string() : tables[0];
  }

  // Complement one byte in the middle of Value(i) in the table file,
  // through pwrite: a table already mapped (MAP_SHARED) sees the change.
  void FlipValueByte(int i) {
    const std::string path = TablePath();
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    const size_t at = bytes.find(Value(i));
    ASSERT_NE(std::string::npos, at);
    ASSERT_EQ(std::string::npos, bytes.find(Value(i), at + 1));
    const size_t offset = at + Value(i).size() / 2;
    const char flipped = static_cast<char>(~bytes[offset]);
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(1, ::pwrite(fd, &flipped, 1, static_cast<off_t>(offset)));
    ::close(fd);
  }

  const std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

}  // namespace

// A byte flipped in a mapped table's data block is caught by the block's
// CRC: a Get of a key in the block and a scan over it both fail with
// Corruption, while keys in other blocks still read.
TEST_F(MappedTableTest, CorruptDataBlockFailsGetAndScan) {
  const int kKeys = 2000;
  const int kVictim = 1000;
  FillOneTable(kKeys);
  FlipValueByte(kVictim);
  ASSERT_TRUE(Open().ok());

  std::string value;
  Status s = db_->Get(ReadOptions(), Key(kVictim), &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(0), &value).ok());
  EXPECT_EQ(Value(0), value);
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(kKeys - 1), &value).ok());
  EXPECT_EQ(Value(kKeys - 1), value);

  // A second Get re-reads the block and fails again: a block that failed
  // its check is not marked checked.
  s = db_->Get(ReadOptions(), Key(kVictim), &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  int seen = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_NE(Key(kVictim), it->key().ToString());
    seen++;
  }
  // The scan skips the bad block's keys and reports its error at the end.
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  EXPECT_LT(seen, kKeys);
}

// A block is checked on its first use only, as a cached block is;
// ReadOptions::verify_checksums re-checks it on every read. A byte flipped
// after the first probe is seen by the mapping: a plain Get returns the
// changed value, a verifying Get fails with Corruption.
TEST_F(MappedTableTest, VerifyChecksumsRechecksAfterFirstProbe) {
  const int kVictim = 700;
  FillOneTable(1500);
  ASSERT_TRUE(Open().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(kVictim), &value).ok());
  ASSERT_EQ(Value(kVictim), value);

  FlipValueByte(kVictim);
  ReadOptions verify;
  verify.verify_checksums = true;
  Status s = db_->Get(verify, Key(kVictim), &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  s = db_->Get(ReadOptions(), Key(kVictim), &value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(Value(kVictim), value);
  EXPECT_EQ(Value(kVictim).size(), value.size());

  std::unique_ptr<Iterator> it(db_->NewIterator(verify));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
  }
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
}

// Many threads make the first probes of a freshly opened table's blocks at
// once, so they race on the same checked-bit words (run it under TSan).
// Every Get reads its value.
TEST_F(MappedTableTest, ConcurrentFirstProbes) {
  const int kKeys = 6000;
  const int kThreads = 8;
  FillOneTable(kKeys);
  ASSERT_TRUE(Open().ok());
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t, &failures] {
      // Each thread starts at its own key and strides through all blocks.
      std::string value;
      for (int n = 0; n < kKeys; n++) {
        const int i = (t * 997 + n * 61) % kKeys;
        if (!db_->Get(ReadOptions(), Key(i), &value).ok() ||
            value != Value(i)) {
          failures[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; t++) EXPECT_EQ(0, failures[t]) << t;
}

}  // namespace acheron
