// Tests for MANIFEST snapshot records and bounded replay: the snapshot
// record wire format (inner CRC32C), descriptor rotation and its GC, the
// edit-replay counter that proves recovery seeks to the last valid
// snapshot, and the torn-tail-snapshot fallback in DB::Open.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/version_edit.h"
#include "src/util/histogram.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {
namespace {

// ---------------- Wire-format unit tests ----------------

TEST(SnapshotRecord, RoundTripsAllFields) {
  VersionEdit e;
  e.SetSnapshot();
  e.SetComparatorName("acheron.BytewiseComparator");
  e.SetLogNumber(7);
  e.SetNextFile(9);
  e.SetLastSequence(42);
  DeleteClock clock;
  clock.persisted = 4;
  clock.superseded = 2;
  clock.latency.Add(3.0);
  clock.latency.Add(700.0);
  e.SetDeletesWritten(kPointDeletes, 11);
  e.SetClockDelta(kPointDeletes, clock);
  FileMetaData f;
  f.number = 5;
  f.file_size = 123;
  f.smallest = InternalKey("a", 1, kTypeValue);
  f.largest = InternalKey("z", 40, kTypeValue);
  f.num_entries = 17;
  f.num_tombstones = 3;
  f.earliest_tombstone_seq = 12;
  f.run_id = 5;
  e.AddFile(2, f);

  std::string rec;
  e.EncodeTo(&rec);

  VersionEdit d;
  ASSERT_TRUE(d.DecodeFrom(rec).ok());
  EXPECT_TRUE(d.IsSnapshot());
  EXPECT_TRUE(d.has_deletes_written(kPointDeletes));
  EXPECT_EQ(11u, d.deletes_written(kPointDeletes));
  ASSERT_TRUE(d.has_clock_delta(kPointDeletes));
  EXPECT_EQ(4u, d.clock_delta(kPointDeletes).persisted);
  EXPECT_EQ(2u, d.clock_delta(kPointDeletes).superseded);
  // The latency histogram must survive bit-for-bit (it feeds the recovered
  // percentiles, which the journal contract says are exact).
  std::string h_bytes, d_bytes;
  clock.latency.EncodeTo(&h_bytes);
  d.clock_delta(kPointDeletes).latency.EncodeTo(&d_bytes);
  EXPECT_EQ(h_bytes, d_bytes);
  ASSERT_EQ(1u, d.new_files().size());
  EXPECT_EQ(2, d.new_files()[0].first);
  EXPECT_EQ(5u, d.new_files()[0].second.number);
  EXPECT_EQ(3u, d.new_files()[0].second.num_tombstones);
}

TEST(SnapshotRecord, InnerCrcRejectsCorruptionButKeepsSnapshotTag) {
  VersionEdit e;
  e.SetSnapshot();
  e.SetComparatorName("c");
  e.SetLogNumber(1);
  e.SetNextFile(2);
  e.SetLastSequence(3);
  std::string rec;
  e.EncodeTo(&rec);

  std::string bad = rec;
  bad[bad.size() - 1] ^= 0x01;  // body byte: tag + CRC prefix untouched
  VersionEdit d;
  Status s = d.DecodeFrom(bad);
  EXPECT_FALSE(s.ok());
  // Recovery relies on this: a failed snapshot is still *identifiable* as
  // a snapshot, so it can be skipped (torn) instead of aborting the replay
  // the way a corrupt ordinary edit must.
  EXPECT_TRUE(d.IsSnapshot());
}

TEST(SnapshotRecord, OrdinaryEditHasNoEnvelope) {
  VersionEdit e;
  e.SetLogNumber(1);
  std::string rec;
  e.EncodeTo(&rec);
  VersionEdit d;
  ASSERT_TRUE(d.DecodeFrom(rec).ok());
  EXPECT_FALSE(d.IsSnapshot());
}

TEST(HistogramCodec, RoundTripsBitForBit) {
  Histogram h;
  for (int i = 0; i < 1000; i++) h.Add(static_cast<double>(i * i % 977));
  std::string enc;
  h.EncodeTo(&enc);
  Histogram d;
  Slice in(enc);
  ASSERT_TRUE(d.DecodeFrom(&in));
  EXPECT_TRUE(in.empty());
  std::string re;
  d.EncodeTo(&re);
  EXPECT_EQ(enc, re);
  EXPECT_EQ(h.Average(), d.Average());
  EXPECT_EQ(h.Percentile(99), d.Percentile(99));
}

// ---------------- Engine-level tests ----------------

class ManifestSnapshotTest : public ::testing::Test {
 protected:
  ManifestSnapshotTest() : base_(NewMemEnv()), fault_(base_.get()) {}

  Options Opts(uint32_t interval) {
    Options o;
    o.env = &fault_;
    o.create_if_missing = true;
    o.write_buffer_size = 256 << 10;
    o.manifest_snapshot_interval = interval;
    return o;
  }

  // Simulate kill -9: every further file op fails, then restart keeping
  // all written bytes (process crash, not machine crash).
  void Kill(DB** db) {
    fault_.CrashAfterOp(static_cast<int64_t>(fault_.FileOpCount()));
    delete *db;
    *db = nullptr;
    ASSERT_TRUE(
        fault_.CrashAndRestart(FaultInjectionEnv::CrashDataPolicy::kKeepWritten)
            .ok());
  }

  uint64_t Prop(DB* db, const std::string& name) {
    std::string v;
    EXPECT_TRUE(db->GetProperty(name, &v)) << name;
    return std::stoull(v);
  }

  int CountManifests() {
    std::vector<std::string> children;
    EXPECT_TRUE(fault_.GetChildren(dbname_, &children).ok());
    int n = 0;
    for (const std::string& c : children) {
      if (c.rfind("MANIFEST-", 0) == 0) n++;
    }
    return n;
  }

  const std::string dbname_ = "/snapdb";
  std::unique_ptr<Env> base_;
  FaultInjectionEnv fault_;
};

TEST_F(ManifestSnapshotTest, CleanCloseReplaysZeroEdits) {
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(64), dbname_, &db).ok());
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    if (i % 10 == 9) {
      ASSERT_TRUE(db->FlushMemTable().ok());
    }
  }
  delete db;  // writes the clean-close snapshot

  ASSERT_TRUE(DB::Open(Opts(64), dbname_, &db).ok());
  // The close-time snapshot is the last record: nothing after it to replay.
  EXPECT_EQ(0u, Prop(db, "acheron.manifest-edits-replayed"));
  std::string v;
  EXPECT_TRUE(db->Get(ReadOptions(), "k29", &v).ok());
  delete db;
}

TEST_F(ManifestSnapshotTest, ReplayAfterKillIsBoundedByInterval) {
  constexpr uint32_t kInterval = 4;
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(kInterval), dbname_, &db).ok());
  // Each flush is one manifest edit; push well past several rotations.
  for (int i = 0; i < 23; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  const uint64_t rotations_before = db->GetStats().manifest_rotations;
  EXPECT_GE(rotations_before, 4u);
  Kill(&db);

  ASSERT_TRUE(DB::Open(Opts(kInterval), dbname_, &db).ok());
  // Bounded replay: only the edit suffix after the rotation-head snapshot,
  // never the whole history.
  EXPECT_LE(Prop(db, "acheron.manifest-edits-replayed"), kInterval);
  for (int i = 0; i < 23; i++) {
    std::string v;
    EXPECT_TRUE(db->Get(ReadOptions(), "k" + std::to_string(i), &v).ok())
        << "k" << i;
  }
  delete db;
}

TEST_F(ManifestSnapshotTest, RotationGarbageCollectsOldManifests) {
  constexpr uint32_t kInterval = 4;
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(kInterval), dbname_, &db).ok());
  for (int i = 0; i < 23; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  EXPECT_GE(db->GetStats().manifest_rotations, 4u);
  // RemoveObsoleteFiles runs after every flush: superseded descriptors are
  // gone, only the live incarnation remains.
  EXPECT_EQ(1, CountManifests());
  delete db;
  EXPECT_EQ(1, CountManifests());
}

TEST_F(ManifestSnapshotTest, IntervalZeroDisablesRotation) {
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(0), dbname_, &db).ok());
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(db->FlushMemTable().ok());
  }
  EXPECT_EQ(0u, db->GetStats().manifest_rotations);
  delete db;
}

// Rewrites |fname|'s log records verbatim except for one flipped byte in
// the middle of the last record's body. The WAL framing checksum is
// recomputed over the corrupted payload, so only the record's *inner* CRC
// can catch it -- exactly the situation the snapshot envelope exists for.
void CorruptLastRecordBody(Env* env, const std::string& fname) {
  struct Silent : public wal::Reader::Reporter {
    void Corruption(size_t, const Status&) override {}
  };
  std::vector<std::string> records;
  {
    std::unique_ptr<SequentialFile> f;
    ASSERT_TRUE(env->NewSequentialFile(fname, &f).ok());
    Silent rep;
    wal::Reader reader(f.get(), &rep, true);
    std::string scratch;
    Slice rec;
    while (reader.ReadRecord(&rec, &scratch)) {
      records.push_back(rec.ToString());
    }
  }
  ASSERT_GE(records.size(), 2u) << "need a head record plus a tail snapshot";
  std::string& last = records.back();
  ASSERT_GT(last.size(), 10u);
  last[last.size() / 2] ^= 0x01;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(fname, &w).ok());
  wal::Writer writer(w.get());
  for (const std::string& r : records) {
    ASSERT_TRUE(writer.AddRecord(r).ok());
  }
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());
}

std::string LiveManifestPath(Env* env, const std::string& dbname) {
  std::string current;
  EXPECT_TRUE(env->ReadFileToString(CurrentFileName(dbname), &current).ok());
  EXPECT_FALSE(current.empty());
  if (!current.empty() && current.back() == '\n') current.pop_back();
  return dbname + "/" + current;
}

TEST_F(ManifestSnapshotTest, TornTailSnapshotFallsBackToEditReplay) {
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(0), dbname_, &db).ok());  // no rotation
  for (int i = 0; i < 12; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    if (i % 4 == 3) {
      ASSERT_TRUE(db->FlushMemTable().ok());
    }
  }
  delete db;  // manifest tail = clean-close snapshot

  CorruptLastRecordBody(&fault_, LiveManifestPath(&fault_, dbname_));

  ASSERT_TRUE(DB::Open(Opts(0), dbname_, &db).ok());
  InternalStats stats = db->GetStats();
  EXPECT_EQ(1u, stats.torn_snapshots_skipped)
      << "open must skip the corrupt snapshot, not fail on it";
  // Fallback path: the pre-snapshot edits were replayed instead.
  EXPECT_GT(Prop(db, "acheron.manifest-edits-replayed"), 0u);
  for (int i = 0; i < 12; i++) {
    std::string v;
    EXPECT_TRUE(db->Get(ReadOptions(), "k" + std::to_string(i), &v).ok())
        << "k" << i;
  }
  delete db;
}

}  // namespace
}  // namespace acheron
