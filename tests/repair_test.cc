// RepairDB: resurrecting a database after MANIFEST/CURRENT loss and other
// mishaps, preserving data and the delete-persistence clock.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
  }
  ~RepairTest() override { delete db_; }

  Status Open() {
    delete db_;
    db_ = nullptr;
    return DB::Open(options_, "/db", &db_);
  }

  void Close() {
    delete db_;
    db_ = nullptr;
  }

  std::string Get(const std::string& k) {
    std::string v;
    Status s = db_->Get(ReadOptions(), k, &v);
    return s.ok() ? v : (s.IsNotFound() ? "NOT_FOUND" : "ERR:" + s.ToString());
  }

  void RemoveManifestAndCurrent() {
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
    for (const auto& c : children) {
      if (c == "CURRENT" || c.rfind("MANIFEST-", 0) == 0) {
        ASSERT_TRUE(env_->RemoveFile("/db/" + c).ok());
      }
    }
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_F(RepairTest, RecoversFlushedDataWithoutManifest) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();
  RemoveManifestAndCurrent();

  // Open (without implicit creation) now fails...
  options_.create_if_missing = false;
  EXPECT_FALSE(Open().ok());
  options_.create_if_missing = true;
  // ...repair brings it back. (NOTE: opening with create_if_missing=true
  // instead would silently create a fresh DB and garbage-collect the
  // orphaned tables -- repair must run first.)
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 500; i++) {
    EXPECT_EQ("v" + std::to_string(i), Get("k" + std::to_string(i))) << i;
  }
}

TEST_F(RepairTest, SalvagesUnflushedWalRecords) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "flushed", "yes").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "wal-only", "salvage-me").ok());
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("yes", Get("flushed"));
  EXPECT_EQ("salvage-me", Get("wal-only"));
}

TEST_F(RepairTest, PreservesDeletesAndVersionOrder) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "old").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "a", "new").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b", "reborn").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  // Sequence numbers survived, so versions still resolve correctly.
  EXPECT_EQ("new", Get("a"));
  EXPECT_EQ("reborn", Get("b"));
}

TEST_F(RepairTest, PreservesTombstoneClock) {
  options_.delete_persistence_threshold = 5000;
  ASSERT_TRUE(Open().ok());
  // Base data pushed below L0, so fresh tombstones stay *pending* (they
  // shadow deeper values and cannot be dropped at flush time).
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  db_->CompactRange(nullptr, nullptr);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  {
    std::string v;
    ASSERT_TRUE(db_->GetProperty("acheron.total-tombstones", &v));
    ASSERT_GT(std::stoull(v), 0u) << "test premise: tombstones pending";
  }
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  // Repaired metadata still carries the tombstones and their ages...
  std::string v;
  ASSERT_TRUE(db_->GetProperty("acheron.total-tombstones", &v));
  EXPECT_GT(std::stoull(v), 0u);
  // ...and FADE still enforces the bound over continued churn.
  for (int i = 0; i < 12000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "new" + std::to_string(i % 300), "x").ok());
  }
  ASSERT_TRUE(db_->GetProperty("acheron.max-tombstone-age", &v));
  EXPECT_LE(std::stoull(v), 5000u + 2);
}

TEST_F(RepairTest, SkipsCorruptTable) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "good", "data").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();

  // Corrupt the table file beyond recognition and drop the manifest.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  for (const auto& c : children) {
    if (c.size() > 4 && c.substr(c.size() - 4) == ".sst") {
      ASSERT_TRUE(
          env_->WriteStringToFile(std::string(100, 'X'), "/db/" + c).ok());
    }
  }
  RemoveManifestAndCurrent();

  // Repair succeeds (with data loss) and the DB opens empty-but-healthy.
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("NOT_FOUND", Get("good"));
  ASSERT_TRUE(db_->Put(WriteOptions(), "fresh", "write").ok());
  EXPECT_EQ("write", Get("fresh"));
}

TEST_F(RepairTest, RepairOfMissingDirectoryFails) {
  EXPECT_FALSE(RepairDB("/nonexistent", options_).ok());
}

TEST_F(RepairTest, RecoversWhenOnlyCurrentIsMissing) {
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();

  // The MANIFEST survives; only the CURRENT pointer is gone (the classic
  // window of a crash between manifest creation and CURRENT repoint).
  ASSERT_TRUE(env_->RemoveFile("/db/CURRENT").ok());
  options_.create_if_missing = false;
  EXPECT_FALSE(Open().ok());

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("v", Get("k"));
}

TEST_F(RepairTest, RecoversFromManifestTruncatedMidRecord) {
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();

  // Tear the MANIFEST mid-record: keep a prefix that ends inside the last
  // version-edit record (torn metadata write at machine-crash time).
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  std::string manifest;
  for (const auto& c : children) {
    if (c.rfind("MANIFEST-", 0) == 0) manifest = "/db/" + c;
  }
  ASSERT_FALSE(manifest.empty());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(manifest, &contents).ok());
  ASSERT_GT(contents.size(), 8u);
  ASSERT_TRUE(
      env_->WriteStringToFile(contents.substr(0, contents.size() - 5), manifest)
          .ok());

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ("v", Get("k" + std::to_string(i))) << i;
  }
}

namespace {
// True if the "acheron.level-summary" text lists any populated level > 0.
bool HasDeepLevel(const std::string& summary) {
  for (size_t pos = 0; pos < summary.size();) {
    size_t eol = summary.find('\n', pos);
    if (eol == std::string::npos) eol = summary.size();
    if (summary[pos] != '0') return true;
    pos = eol + 1;
  }
  return false;
}
}  // namespace

TEST_F(RepairTest, TornTailSnapshotFallsBackToPreviousSnapshot) {
  // A MANIFEST whose newest snapshot record is torn must repair from the
  // *previous* snapshot plus the edit suffix (bounded tier), not by
  // salvaging every table back into level 0.
  options_.manifest_snapshot_interval = 0;  // keep one manifest all run
  ASSERT_TRUE(Open().ok());
  // Enough volume (vs the 8KiB write buffer) that natural compactions push
  // data below L0; the manual compaction then squashes into that deepest
  // level. (CompactRange on an L0-only tree rewrites L0 in place.)
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         "deep" + std::string(100, 'd'))
                    .ok());
  }
  db_->CompactRange(nullptr, nullptr);  // push the base data below L0
  for (int i = 600; i < 650; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i), "top").ok());
  }
  ASSERT_TRUE(db_->FlushMemTable().ok());
  {
    std::string premise;
    ASSERT_TRUE(db_->GetProperty("acheron.level-summary", &premise));
    ASSERT_TRUE(HasDeepLevel(premise))
        << "test premise: base data below L0:\n" << premise;
  }
  Close();  // appends the clean-close snapshot as the manifest's tail record

  // Corrupt one byte inside the tail snapshot's body, re-framing the log
  // records so the WAL-layer checksum still passes: only the snapshot's
  // inner CRC can reject it, which is the fallback path under test.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  std::string manifest;
  for (const auto& c : children) {
    if (c.rfind("MANIFEST-", 0) == 0) manifest = "/db/" + c;
  }
  ASSERT_FALSE(manifest.empty());
  struct Silent : public wal::Reader::Reporter {
    void Corruption(size_t, const Status&) override {}
  };
  std::vector<std::string> records;
  {
    std::unique_ptr<SequentialFile> f;
    ASSERT_TRUE(env_->NewSequentialFile(manifest, &f).ok());
    Silent rep;
    wal::Reader reader(f.get(), &rep, true);
    std::string scratch;
    Slice rec;
    while (reader.ReadRecord(&rec, &scratch)) records.push_back(rec.ToString());
  }
  ASSERT_GE(records.size(), 2u);  // head snapshot + edits + tail snapshot
  records.back()[records.back().size() / 2] ^= 0x01;
  {
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(env_->NewWritableFile(manifest, &w).ok());
    wal::Writer writer(w.get());
    for (const auto& r : records) ASSERT_TRUE(writer.AddRecord(r).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  ASSERT_TRUE(env_->RemoveFile("/db/CURRENT").ok());

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < 650; i++) {
    EXPECT_EQ(i < 600 ? "deep" + std::string(100, 'd') : "top",
              Get("k" + std::to_string(i)))
        << i;
  }
  // The bounded tier preserved the level structure: the compacted base
  // data is still below L0. (The salvage tier would have rehomed every
  // table to level 0.)
  std::string summary;
  ASSERT_TRUE(db_->GetProperty("acheron.level-summary", &summary));
  EXPECT_TRUE(HasDeepLevel(summary))
      << "expected a level > 0 after bounded repair:\n" << summary;
}

TEST_F(RepairTest, SalvagedTablesKeepSecondaryKeyRange) {
  // Values carry an 8-digit timestamp prefix, the secondary key. The
  // timestamps are a permutation of the key order, so every table and the
  // WAL-only tail straddle the purge threshold.
  options_.secondary_key_extractor = [](const Slice&, const Slice& value) {
    return value.size() < 8 ? std::string() : std::string(value.data(), 8);
  };
  auto timestamp = [](int t) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08d", t);
    return std::string(buf);
  };
  const int kKeys = 200;
  const int kFlushed = 160;
  ASSERT_TRUE(Open().ok());
  for (int i = 0; i < kKeys; i++) {
    if (i == kFlushed) {
      ASSERT_TRUE(db_->FlushMemTable().ok());
    }
    ASSERT_TRUE(db_->Put(WriteOptions(), "k" + std::to_string(i),
                         timestamp(i * 37 % kKeys) + "|v")
                    .ok());
  }
  Close();
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  {
    std::string files;
    ASSERT_TRUE(db_->GetProperty("acheron.num-files-at-level0", &files));
    ASSERT_LT(std::stoi(files), options_.level0_compaction_trigger)
        << "test premise: the salvaged tables are not compacted";
  }
  ASSERT_TRUE(db_->PurgeSecondaryRange(timestamp(kKeys / 2)).ok());
  for (int i = 0; i < kKeys; i++) {
    const int t = i * 37 % kKeys;
    EXPECT_EQ(t < kKeys / 2 ? "NOT_FOUND" : timestamp(t) + "|v",
              Get("k" + std::to_string(i)))
        << "key " << i << " timestamp " << t;
  }
}

TEST_F(RepairTest, SalvagesOrphanedTable) {
  // An SSTable that no manifest ever referenced (e.g. a flush output whose
  // version-edit install crashed) must still be picked up by repair.
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "tracked", "yes").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();

  // Fabricate the orphan from a scratch DB, then copy its table file in
  // under a file number the victim DB has never allocated.
  {
    Options scratch_opts = options_;
    DB* scratch = nullptr;
    ASSERT_TRUE(DB::Open(scratch_opts, "/scratch", &scratch).ok());
    ASSERT_TRUE(scratch->Put(WriteOptions(), "orphan", "rescued").ok());
    ASSERT_TRUE(scratch->FlushMemTable().ok());
    delete scratch;
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren("/scratch", &children).ok());
    std::string table;
    for (const auto& c : children) {
      if (c.size() > 4 && c.substr(c.size() - 4) == ".sst") table = c;
    }
    ASSERT_FALSE(table.empty());
    std::string contents;
    ASSERT_TRUE(env_->ReadFileToString("/scratch/" + table, &contents).ok());
    ASSERT_TRUE(env_->WriteStringToFile(contents, "/db/000099.sst").ok());
  }
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("yes", Get("tracked"));
  EXPECT_EQ("rescued", Get("orphan"));
}

TEST_F(RepairTest, LeavesOutTableWithUnreadableValuePointers) {
  // A table whose value pointers reach no salvaged vLog bytes never went
  // live (e.g. a vLog-GC rewrite whose relocation segment was lost in the
  // crash); the salvage must leave it out rather than let its pointers
  // shadow the live copy of its keys.
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "live").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  Close();
  {
    // The orphan comes from a value-separating scratch DB and holds "k" at
    // a higher sequence; only its table is copied, so its pointer names a
    // segment /db lacks.
    Options scratch_opts = options_;
    scratch_opts.value_separation_threshold = 16;
    DB* scratch = nullptr;
    ASSERT_TRUE(DB::Open(scratch_opts, "/scratch", &scratch).ok());
    for (int i = 0; i < 5; i++) {
      ASSERT_TRUE(scratch->Put(WriteOptions(), "pad" + std::to_string(i),
                               "p").ok());
    }
    ASSERT_TRUE(
        scratch->Put(WriteOptions(), "k", std::string(100, 'o')).ok());
    ASSERT_TRUE(scratch->FlushMemTable().ok());
    delete scratch;
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren("/scratch", &children).ok());
    std::string table;
    for (const auto& c : children) {
      if (c.size() > 4 && c.substr(c.size() - 4) == ".sst") table = c;
    }
    ASSERT_FALSE(table.empty());
    std::string contents;
    ASSERT_TRUE(env_->ReadFileToString("/scratch/" + table, &contents).ok());
    ASSERT_TRUE(env_->WriteStringToFile(contents, "/db/000099.sst").ok());
  }
  RemoveManifestAndCurrent();

  ASSERT_TRUE(RepairDB("/db", options_).ok());
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("live", Get("k"));
  EXPECT_EQ("NOT_FOUND", Get("pad0"));
}

}  // namespace acheron
