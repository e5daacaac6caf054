// Key-value separation: large values live in the vLog, the LSM carries
// pointers, and FADE-driven GC reclaims value bytes of persisted deletes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/filename.h"
#include "src/lsm/snapshot.h"
#include "src/lsm/version_set.h"
#include "src/util/random.h"
#include "src/vlog/vlog_format.h"
#include "src/vlog/vlog_reader.h"
#include "src/vlog/vlog_writer.h"

namespace acheron {

// ---------------- Format / writer / reader units ----------------

TEST(VlogFormatTest, PointerRoundTrip) {
  vlog::ValuePointer ptr;
  ptr.segment = 7;
  ptr.offset = 123456;
  ptr.size = 4096;
  std::string encoded;
  vlog::EncodeValuePointer(&encoded, ptr);
  vlog::ValuePointer decoded;
  ASSERT_TRUE(vlog::DecodeValuePointerStrict(encoded, &decoded));
  EXPECT_TRUE(ptr == decoded);
  // Trailing garbage must be rejected (strict decode).
  encoded.push_back('x');
  EXPECT_FALSE(vlog::DecodeValuePointerStrict(encoded, &decoded));
}

TEST(VlogWriterTest, AppendScanAndReadBack) {
  std::unique_ptr<Env> env(NewMemEnv());
  ASSERT_TRUE(env->CreateDir("/db").ok());
  const std::string fname = VlogFileName("/db", 9);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  vlog::Writer writer(std::move(file), 9);

  std::vector<vlog::ValuePointer> ptrs;
  std::vector<std::string> values;
  for (int i = 0; i < 100; i++) {
    std::string key = "key" + std::to_string(i);
    std::string value(100 + i * 7, static_cast<char>('a' + i % 26));
    vlog::ValuePointer ptr;
    ASSERT_TRUE(writer.Add(key, value, &ptr).ok());
    EXPECT_EQ(ptr.segment, 9u);
    ptrs.push_back(ptr);
    values.push_back(value);
  }
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.value_count(), 100u);

  // The CRC scan sees every record and agrees with the writer's extent.
  uint64_t valid_bytes = 0;
  uint64_t value_count = 0;
  ASSERT_TRUE(
      vlog::ScanSegment(env.get(), fname, &valid_bytes, &value_count).ok());
  EXPECT_EQ(valid_bytes, writer.offset());
  EXPECT_EQ(value_count, 100u);

  vlog::ReaderCache cache(env.get(), "/db");
  for (int i = 0; i < 100; i++) {
    std::string out;
    ASSERT_TRUE(
        cache.Get(ptrs[i], "key" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, values[i]);
  }
  // Keyed back-check: the right address with the wrong key is a stale
  // pointer, not a value.
  std::string out;
  EXPECT_TRUE(cache.Get(ptrs[0], "not-the-key", &out).IsCorruption());

  // Resolve takes the encoded pointer an LSM entry carries: it decodes
  // strictly, back-checks the key, and counts only successful reads.
  std::string encoded;
  vlog::EncodeValuePointer(&encoded, ptrs[1]);
  ASSERT_TRUE(cache.Resolve(encoded, "key1", &out).ok());
  EXPECT_EQ(out, values[1]);
  EXPECT_EQ(cache.reads(), 1u);
  EXPECT_TRUE(cache.Resolve(encoded, "key2", &out).IsCorruption());
  EXPECT_TRUE(cache.Resolve(encoded + "x", "key1", &out).IsCorruption());
  EXPECT_TRUE(
      cache.Resolve(Slice(encoded.data(), encoded.size() - 1), "key1", &out)
          .IsCorruption());
  EXPECT_EQ(cache.reads(), 1u);
}

// PosixEnv maps a file at its open-time length, and the head segment keeps
// growing after the reader cached its handle. Records appended later must
// still read back, whichever handle is cached when they are read; a pointer
// past the end of the file stays Corruption.
TEST(VlogReaderTest, PosixHeadSegmentReadsRecordsAppendedAfterOpen) {
  Env* env = DefaultEnv();
  const std::string dir = "vlog_posix_scratch_db";
  auto wipe = [&] {
    std::vector<std::string> children;
    if (env->GetChildren(dir, &children).ok()) {
      for (const std::string& c : children) {
        ASSERT_TRUE(env->RemoveFile(dir + "/" + c).ok());
      }
      ASSERT_TRUE(env->RemoveDir(dir).ok());
    }
  };
  wipe();
  ASSERT_TRUE(env->CreateDir(dir).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(VlogFileName(dir, 5), &file).ok());
  vlog::Writer writer(std::move(file), 5);
  vlog::ReaderCache cache(env, dir);

  const std::string v1(300, 'a'), v2(5000, 'b'), v3(200, 'c');
  vlog::ValuePointer p1, p2, p3;
  ASSERT_TRUE(writer.Add("k1", v1, &p1).ok());
  ASSERT_TRUE(writer.Flush().ok());
  std::string out;
  ASSERT_TRUE(cache.Get(p1, "k1", &out).ok());  // caches the handle
  EXPECT_EQ(out, v1);

  ASSERT_TRUE(writer.Add("k2", v2, &p2).ok());
  ASSERT_TRUE(writer.Flush().ok());
  Status s = cache.Get(p2, "k2", &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out, v2);

  ASSERT_TRUE(writer.Add("k3", v3, &p3).ok());
  ASSERT_TRUE(writer.Flush().ok());
  std::string o1, o3;
  s = cache.Get(p1, "k1", &o1);
  ASSERT_TRUE(s.ok()) << s.ToString();
  s = cache.Get(p3, "k3", &o3);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(o1, v1);
  EXPECT_EQ(o3, v3);

  vlog::ValuePointer past = p3;
  past.offset = writer.offset();
  EXPECT_TRUE(cache.Get(past, "k3", &out).IsCorruption());

  ASSERT_TRUE(writer.Close().ok());
  wipe();
}

TEST(VlogWriterTest, TornTailScanStopsAtValidPrefix) {
  std::unique_ptr<Env> env(NewMemEnv());
  ASSERT_TRUE(env->CreateDir("/db").ok());
  const std::string fname = VlogFileName("/db", 3);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  vlog::Writer writer(std::move(file), 3);
  vlog::ValuePointer ptr;
  ASSERT_TRUE(writer.Add("k1", std::string(500, 'v'), &ptr).ok());
  const uint64_t first_extent = writer.offset();
  ASSERT_TRUE(writer.Add("k2", std::string(500, 'w'), &ptr).ok());
  ASSERT_TRUE(writer.Sync().ok());
  ASSERT_TRUE(writer.Close().ok());

  // Tear the second record: rewrite the file as a truncated copy.
  std::string contents;
  ASSERT_TRUE(env->ReadFileToString(fname, &contents).ok());
  contents.resize(first_extent + 20);
  ASSERT_TRUE(env->RemoveFile(fname).ok());
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  ASSERT_TRUE(file->Append(contents).ok());
  ASSERT_TRUE(file->Close().ok());

  uint64_t valid_bytes = 0;
  uint64_t value_count = 0;
  ASSERT_TRUE(
      vlog::ScanSegment(env.get(), fname, &valid_bytes, &value_count).ok());
  EXPECT_EQ(valid_bytes, first_extent);
  EXPECT_EQ(value_count, 1u);
}

// ---------------- End-to-end DB behaviour ----------------

class VlogDBTest : public ::testing::Test {
 protected:
  VlogDBTest() : env_(NewMemEnv()), db_(nullptr) {
    options_.env = env_.get();
    options_.write_buffer_size = 32 << 10;
    options_.max_file_size = 32 << 10;
    options_.value_separation_threshold = 256;
    options_.vlog_segment_size = 64 << 10;  // clamp floor; rotate often
  }
  ~VlogDBTest() override { delete db_; }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }
  void Reopen() {
    delete db_;
    db_ = nullptr;
    Open();
  }

  std::string Property(const std::string& name) {
    std::string v;
    EXPECT_TRUE(db_->GetProperty(name, &v)) << name;
    return v;
  }

  int CountVlogFiles() {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren("/db", &children).ok());
    int n = 0;
    uint64_t number;
    FileType type;
    for (const std::string& c : children) {
      if (ParseFileName(c, &number, &type) && type == kVlogFile) n++;
    }
    return n;
  }

  // Table number -> size for every table in the current version, parsed
  // from "acheron.sstables" (" <number>:<size>[<smallest> .. <largest>]").
  std::map<uint64_t, uint64_t> LiveTables() {
    std::map<uint64_t, uint64_t> tables;
    std::istringstream lines(Property("acheron.sstables"));
    std::string line;
    while (std::getline(lines, line)) {
      unsigned long long number = 0, size = 0;
      if (std::sscanf(line.c_str(), " %llu:%llu[", &number, &size) == 2) {
        tables[number] = size;
      }
    }
    return tables;
  }

  // The engine's current sequence number.
  SequenceNumber LastSequence() {
    const Snapshot* snap = db_->GetSnapshot();
    const SequenceNumber seq =
        static_cast<const SnapshotImpl*>(snap)->sequence_number();
    db_->ReleaseSnapshot(snap);
    return seq;
  }

  // The next_gc_deadline field of "acheron.vlog-stats".
  uint64_t NextGcDeadline() {
    const std::string stats = Property("acheron.vlog-stats");
    const size_t pos = stats.find("next_gc_deadline=");
    EXPECT_NE(pos, std::string::npos) << stats;
    if (pos == std::string::npos) return 0;
    return std::stoull(stats.substr(pos + strlen("next_gc_deadline=")));
  }

  // Small inline puts advance the logical clock until a GC pass runs;
  // returns the stats from just before and just after the write that ran
  // it.
  std::pair<InternalStats, InternalStats> WriteUntilGc() {
    InternalStats before = db_->GetStats();
    for (int i = 0; i < 100000; i++) {
      EXPECT_TRUE(
          db_->Put(WriteOptions(), "pad" + std::to_string(i), "x").ok());
      InternalStats after = db_->GetStats();
      if (after.vlog_gc_runs != before.vlog_gc_runs) return {before, after};
      before = after;
    }
    ADD_FAILURE() << "no GC pass ran";
    return {before, before};
  }

  std::unique_ptr<Env> env_;
  Options options_;
  DB* db_;
};

TEST_F(VlogDBTest, ThresholdRoutesLargeValuesOnly) {
  Open();
  const std::string small(255, 's');   // below threshold: stays inline
  const std::string exact(256, 'e');   // at threshold: separated
  const std::string large(4096, 'L');  // far above: separated
  ASSERT_TRUE(db_->Put(WriteOptions(), "small", small).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "exact", exact).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "large", large).ok());

  std::string v;
  ASSERT_TRUE(db_->Get(ReadOptions(), "small", &v).ok());
  EXPECT_EQ(v, small);
  ASSERT_TRUE(db_->Get(ReadOptions(), "exact", &v).ok());
  EXPECT_EQ(v, exact);
  ASSERT_TRUE(db_->Get(ReadOptions(), "large", &v).ok());
  EXPECT_EQ(v, large);

  InternalStats stats = db_->GetStats();
  EXPECT_EQ(stats.vlog_values_written, 2u);
  EXPECT_GE(stats.vlog_reads, 2u);
}

TEST_F(VlogDBTest, ValuesSurviveFlushCompactionAndReopen) {
  Open();
  Random rnd(301);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; i++) {
    std::string key = "key" + std::to_string(rnd.Uniform(400));
    // Mixed sizes straddling the threshold, and overwrites.
    const size_t len = 1 + rnd.Uniform(1500);
    std::string value(len, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    model[key] = value;
    if (rnd.Uniform(10) == 0) {
      std::string dead = "key" + std::to_string(rnd.Uniform(400));
      ASSERT_TRUE(db_->Delete(WriteOptions(), dead).ok());
      model.erase(dead);
    }
  }

  auto check_all = [&] {
    for (const auto& [key, expect] : model) {
      std::string v;
      Status s = db_->Get(ReadOptions(), key, &v);
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      ASSERT_EQ(v, expect) << key;
    }
    // Forward scan sees the same world.
    std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
    size_t seen = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      auto mit = model.find(it->key().ToString());
      ASSERT_TRUE(mit != model.end()) << it->key().ToString();
      ASSERT_EQ(it->value().ToString(), mit->second);
      seen++;
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    ASSERT_EQ(seen, model.size());
    // Reverse scan too (pointers resolve once per accepted key).
    seen = 0;
    for (it->SeekToLast(); it->Valid(); it->Prev()) seen++;
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    ASSERT_EQ(seen, model.size());
  };
  check_all();

  // MultiGet dereferences every pointer like Get does.
  std::vector<Slice> keys;
  std::vector<std::string> owned;
  owned.reserve(model.size());
  for (const auto& [key, expect] : model) owned.push_back(key);
  for (const std::string& k : owned) keys.emplace_back(k);
  std::vector<std::string> values;
  std::vector<Status> statuses =
      db_->MultiGet(ReadOptions(), keys, &values);
  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << owned[i];
    ASSERT_EQ(values[i], model[owned[i]]) << owned[i];
  }

  Reopen();
  check_all();

  // The workload spans several segments and the registry survived reopen.
  std::string vs = Property("acheron.vlog-stats");
  EXPECT_NE(vs.find("segments="), std::string::npos);
  EXPECT_GT(CountVlogFiles(), 1);
}

TEST_F(VlogDBTest, SnapshotReadsOldValueThroughPointer) {
  Open();
  const std::string v1(1000, '1');
  const std::string v2(1000, '2');
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", v1).ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", v2).ok());
  std::string v;
  ReadOptions ro;
  ro.snapshot = snap;
  ASSERT_TRUE(db_->Get(ro, "k", &v).ok());
  EXPECT_EQ(v, v1);
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &v).ok());
  EXPECT_EQ(v, v2);
  db_->ReleaseSnapshot(snap);
}

TEST_F(VlogDBTest, GcReclaimsDeletedValuesWithinDth) {
  const uint64_t kDth = 4000;
  options_.delete_persistence_threshold = kDth;
  options_.write_buffer_size = 8 << 10;
  Open();

  const std::string large(2048, 'G');
  // Fill, then delete every separated value: all vLog bytes become
  // deletion-driven garbage once the tombstones persist.
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "gone" + std::to_string(i), large).ok());
  }
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "gone" + std::to_string(i)).ok());
  }
  // Keep one live separated value around: GC must relocate, not lose it.
  ASSERT_TRUE(db_->Put(WriteOptions(), "keeper", large).ok());

  // Drive the logical clock well past D_th so the key purges and then the
  // value purges both come due.
  for (uint64_t i = 0; i < 3 * kDth; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "filler" + std::to_string(i % 512),
                 "small")
            .ok());
  }

  DeleteStats ds = db_->GetDeleteStats();
  EXPECT_GT(ds.values_purged, 0u) << Property("acheron.vlog-stats");
  EXPECT_EQ(ds.value_purge_backlog, 0u) << Property("acheron.vlog-stats");
  // Delete-compliant GC: value bytes reclaimed within D_th of the key
  // purge (slack for the op that crosses the deadline).
  EXPECT_LE(ds.value_purge_latency_max, static_cast<double>(kDth) + 2);

  InternalStats stats = db_->GetStats();
  EXPECT_GT(stats.vlog_gc_runs, 0u);

  std::string v;
  ASSERT_TRUE(db_->Get(ReadOptions(), "keeper", &v).ok());
  EXPECT_EQ(v, large);
  for (int i = 0; i < 64; i++) {
    EXPECT_TRUE(
        db_->Get(ReadOptions(), "gone" + std::to_string(i), &v).IsNotFound());
  }
}

TEST_F(VlogDBTest, SpaceGcRewritesLowLiveRatioSegments) {
  options_.vlog_gc_live_ratio = 0.5;
  options_.write_buffer_size = 8 << 10;
  Open();

  const std::string large(2048, 'S');
  // Overwrite the same keys repeatedly: old versions become plain (non-
  // deletion) garbage, driving live ratios down without any tombstones.
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 32; i++) {
      ASSERT_TRUE(
          db_->Put(WriteOptions(), "ow" + std::to_string(i), large).ok());
    }
  }
  // Push everything through flush + compaction so the garbage is charged.
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "pad" + std::to_string(i % 256), "x").ok());
  }

  InternalStats stats = db_->GetStats();
  EXPECT_GT(stats.vlog_gc_runs, 0u) << Property("acheron.vlog-stats");

  std::string v;
  for (int i = 0; i < 32; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), "ow" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, large);
  }
}

TEST_F(VlogDBTest, DueSegmentsShareOneGcPass) {
  options_.delete_persistence_threshold = 2000;
  options_.write_buffer_size = 1 << 20;  // flush only where the test does
  options_.vlog_gc_live_ratio = 0.0;     // deadline-driven GC only
  Open();
  const std::string large(1024, 'v');
  // Two sealed segments, each holding a doomed value and a keeper.
  for (const std::string seg : {"a", "b"}) {
    ASSERT_TRUE(db_->Put(WriteOptions(), seg + "-doomed", large).ok());
    ASSERT_TRUE(db_->Put(WriteOptions(), seg + "-keeper", large).ok());
    ASSERT_TRUE(db_->FlushMemTable().ok());
  }
  ASSERT_TRUE(db_->Delete(WriteOptions(), "a-doomed").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b-doomed").ok());
  // One compaction purges both keys, so both segments owe a value purge
  // with the same deadline, and every table left points into both.
  db_->CompactRange(nullptr, nullptr);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 2u)
      << Property("acheron.vlog-stats");
  const std::map<uint64_t, uint64_t> spanning = LiveTables();
  ASSERT_FALSE(spanning.empty());

  auto [before, after] = WriteUntilGc();
  EXPECT_EQ(after.vlog_gc_runs - before.vlog_gc_runs, 1u);
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u)
      << Property("acheron.vlog-stats");
  // Each spanning table was rewritten once: the pass wrote exactly the
  // bytes of the tables that replaced them.
  uint64_t replacement_bytes = 0;
  for (const auto& [number, size] : LiveTables()) {
    EXPECT_EQ(spanning.count(number), 0u) << number;
    replacement_bytes += size;
  }
  EXPECT_EQ(after.compaction_bytes_written - before.compaction_bytes_written,
            replacement_bytes);

  std::string v;
  for (const char* key : {"a-keeper", "b-keeper"}) {
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &v).ok()) << key;
    EXPECT_EQ(v, large);
  }
  for (const char* key : {"a-doomed", "b-doomed"}) {
    EXPECT_TRUE(db_->Get(ReadOptions(), key, &v).IsNotFound()) << key;
  }
}

// A manual compaction that charges a value purge arms the vLog GC clock:
// the pass runs on the write that reaches the D_th/2 deadline, not at
// whatever later round next happens to look at the registry.
TEST_F(VlogDBTest, CompactRangeArmsGcDeadline) {
  options_.delete_persistence_threshold = 2000;
  options_.write_buffer_size = 1 << 20;  // flush only where the test does
  options_.vlog_gc_live_ratio = 0.0;     // deadline-driven GC only
  Open();
  const std::string large(1024, 'v');
  ASSERT_TRUE(db_->Put(WriteOptions(), "doomed", large).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "keeper", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "doomed").ok());
  db_->CompactRange(nullptr, nullptr);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  // The key purge happened at the current sequence, so the value purge is
  // due D_th/2 later.
  const uint64_t deadline = NextGcDeadline();
  ASSERT_EQ(deadline,
            LastSequence() + options_.delete_persistence_threshold / 2)
      << Property("acheron.vlog-stats");

  auto [before, after] = WriteUntilGc();
  EXPECT_EQ(after.vlog_gc_runs - before.vlog_gc_runs, 1u);
  EXPECT_EQ(LastSequence(), deadline);
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u)
      << Property("acheron.vlog-stats");
}

TEST_F(VlogDBTest, GcKeepsTablesWithoutVictimPointers) {
  options_.delete_persistence_threshold = 2000;
  options_.write_buffer_size = 1 << 20;  // flush only where the test does
  options_.vlog_gc_live_ratio = 0.0;     // deadline-driven GC only
  Open();
  const std::string large(1024, 'v');
  // Three segments, one flush each: a1 | b1 b2 | a2.
  ASSERT_TRUE(db_->Put(WriteOptions(), "a1", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b1", large).ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "b2", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "a2", large).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  // Merge the a-tables alone: their table spans the first through the
  // third segment but holds no pointer into the second.
  const std::string a_begin = "a", a_end = "a9";
  const Slice a_begin_slice(a_begin), a_end_slice(a_end);
  db_->CompactRange(&a_begin_slice, &a_end_slice);
  const std::map<uint64_t, uint64_t> after_a = LiveTables();
  // Purging b1 makes the second segment owe a value purge.
  ASSERT_TRUE(db_->Delete(WriteOptions(), "b1").ok());
  const std::string b_begin = "b", b_end = "b9";
  const Slice b_begin_slice(b_begin), b_end_slice(b_end);
  db_->CompactRange(&b_begin_slice, &b_end_slice);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  const std::map<uint64_t, uint64_t> before_gc = LiveTables();
  std::vector<uint64_t> a_tables;
  for (const auto& [number, size] : before_gc) {
    if (after_a.count(number) > 0) a_tables.push_back(number);
  }
  ASSERT_EQ(a_tables.size(), 1u) << Property("acheron.sstables");
  ASSERT_EQ(before_gc.size(), 2u) << Property("acheron.sstables");

  WriteUntilGc();
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u);
  const std::map<uint64_t, uint64_t> after_gc = LiveTables();
  // The a-table kept its file; the b-table, which points into the victim,
  // was rewritten.
  EXPECT_EQ(after_gc.count(a_tables[0]), 1u) << Property("acheron.sstables");
  EXPECT_EQ(after_gc.size(), 2u) << Property("acheron.sstables");

  std::string v;
  for (const char* key : {"a1", "a2", "b2"}) {
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &v).ok()) << key;
    EXPECT_EQ(v, large);
  }
  EXPECT_TRUE(db_->Get(ReadOptions(), "b1", &v).IsNotFound());
}

// GC rewrites each table in place through the compaction merge loop. Where
// a level's runs overlap, each rewrite must keep its run's place in the
// recency order and keep every tombstone that still hides a sibling run's
// older entry.
class VlogInPlaceGcTest : public VlogDBTest {
 protected:
  VlogInPlaceGcTest() {
    options_.delete_persistence_threshold = 4000;
    options_.write_buffer_size = 1 << 20;  // flush only where the test does
    options_.vlog_gc_live_ratio = 0.0;     // deadline-driven GC only
  }

  int FilesAtLevel(int level) {
    return std::stoi(Property("acheron.num-files-at-level" +
                              std::to_string(level)));
  }

  std::string Get(const std::string& key) {
    std::string v;
    Status s = db_->Get(ReadOptions(), key, &v);
    return s.ok() ? v : (s.IsNotFound() ? "NOT_FOUND" : s.ToString());
  }

  void Put(const std::string& key, const std::string& value) {
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
  }
  void Delete(const std::string& key) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
  }
  void Flush() { ASSERT_TRUE(db_->FlushMemTable().ok()); }

  // Tiering at size ratio 3: every third flush merges L0 into one new L1
  // run. Each call flushes three memtables; the first holds |first|'s
  // entries, the second |second|'s (a null value is a delete).
  using Entries = std::vector<std::pair<std::string, const char*>>;
  void TierRun(const Entries& first, const Entries& second, int id) {
    for (const Entries* e : {&first, &second}) {
      for (const auto& [key, value] : *e) {
        if (value == nullptr) {
          Delete(key);
        } else {
          Put(key, value);
        }
      }
      Flush();
    }
    Put("filler" + std::to_string(id), "x");
    Flush();
    ASSERT_EQ(FilesAtLevel(0), 0) << Property("acheron.sstables");
  }

  const std::string large_old_ = std::string(1024, 'o');
  const std::string large_new_ = std::string(1024, 'n');
};

// Leveling, L0: an in-place L0 compaction leaves an older L0 file pointing
// into a segment that owes a purge; a newer sibling then overwrites one of
// its keys. Rewritten with a fresh run_id, the old file would read as the
// newest run and serve the stale value.
TEST_F(VlogInPlaceGcTest, L0RewriteKeepsOlderFileBelowNewerSibling) {
  options_.level0_compaction_trigger = 64;  // L0 files stay in L0
  options_.level0_slowdown_writes_trigger = 1 << 20;
  options_.level0_stop_writes_trigger = 1 << 20;
  Open();
  Put("doomed", large_old_);
  Put("k", large_old_);
  Flush();
  Delete("doomed");
  Flush();
  // With L0 the deepest level, the manual compaction merges both files in
  // place; dropping the doomed pointer makes its segment owe a purge.
  const std::string begin = "doomed", end = "doomed";
  const Slice begin_slice(begin), end_slice(end);
  db_->CompactRange(&begin_slice, &end_slice);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  const std::map<uint64_t, uint64_t> old_file = LiveTables();
  ASSERT_EQ(old_file.size(), 1u) << Property("acheron.sstables");
  Put("k", large_new_);
  Flush();
  ASSERT_EQ(FilesAtLevel(0), 2) << Property("acheron.sstables");

  WriteUntilGc();
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u);
  // The old file was rewritten in place, beside its sibling.
  EXPECT_EQ(LiveTables().count(old_file.begin()->first), 0u);
  EXPECT_EQ(FilesAtLevel(0), 2) << Property("acheron.sstables");
  EXPECT_EQ(Get("k"), large_new_);
  EXPECT_EQ(Get("doomed"), "NOT_FOUND");
}

// Tiering: an older L1 run points into a segment that owes a purge; a
// newer sibling run overwrites one of its keys.
TEST_F(VlogInPlaceGcTest, TieringRewriteKeepsOlderRunBelowNewerSibling) {
  options_.compaction_style = CompactionStyle::kTiering;
  options_.size_ratio = 3;
  Open();
  TierRun({{"doomed", large_old_.c_str()}, {"k", large_old_.c_str()}},
          {{"doomed", nullptr}}, 1);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  const std::map<uint64_t, uint64_t> old_run = LiveTables();
  ASSERT_EQ(old_run.size(), 1u) << Property("acheron.sstables");
  TierRun({{"k", large_new_.c_str()}}, {{"other", "y"}}, 2);
  ASSERT_EQ(FilesAtLevel(1), 2) << Property("acheron.sstables");

  WriteUntilGc();
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u);
  EXPECT_EQ(LiveTables().count(old_run.begin()->first), 0u);
  EXPECT_EQ(FilesAtLevel(1), 2) << Property("acheron.sstables");
  EXPECT_EQ(Get("k"), large_new_);
}

// Tiering: a newer L1 run holds a tombstone over an older sibling run's
// value and points into a segment that owes a purge. Its rewrite has
// nothing below it, but the tombstone must stay: the sibling still holds
// the value it hides.
TEST_F(VlogInPlaceGcTest, TieringRewriteKeepsTombstoneOverOlderSibling) {
  options_.compaction_style = CompactionStyle::kTiering;
  options_.size_ratio = 3;
  Open();
  TierRun({{"a", "old"}}, {{"b", "y"}}, 1);
  TierRun({{"doomed", large_old_.c_str()}, {"m", large_old_.c_str()}},
          {{"doomed", nullptr}, {"a", nullptr}}, 2);
  ASSERT_EQ(FilesAtLevel(1), 2) << Property("acheron.sstables");
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  ASSERT_EQ(Get("a"), "NOT_FOUND");
  const std::map<uint64_t, uint64_t> before = LiveTables();

  WriteUntilGc();
  EXPECT_EQ(db_->GetDeleteStats().value_purge_backlog, 0u);
  // The newer run was rewritten; the older one kept its file.
  const std::map<uint64_t, uint64_t> after = LiveTables();
  EXPECT_EQ(after.size(), 2u) << Property("acheron.sstables");
  size_t kept = 0;
  for (const auto& [number, size] : before) kept += after.count(number);
  EXPECT_EQ(kept, 1u) << Property("acheron.sstables");
  EXPECT_EQ(Get("a"), "NOT_FOUND");
  EXPECT_EQ(Get("m"), large_old_);
}

// GC and purge rewrites are compactions: counted by reason, their input
// bytes read.
TEST_F(VlogInPlaceGcTest, GcAndPurgeCountAsCompactions) {
  options_.secondary_key_extractor = [](const Slice&, const Slice& value) {
    return value.size() < 8 ? std::string()
                            : std::string(value.data(), 8);
  };
  Open();
  Put("doomed", large_old_);
  Put("keeper", large_old_);
  Put("expired", "00000010|value");
  Put("fresh", "00009000|value");
  Flush();
  Delete("doomed");
  db_->CompactRange(nullptr, nullptr);
  ASSERT_EQ(db_->GetDeleteStats().value_purge_backlog, 1u)
      << Property("acheron.vlog-stats");
  auto by = [](const InternalStats& s, CompactionReason r) {
    return s.compactions_by_reason[static_cast<size_t>(r)];
  };

  auto [before, after] = WriteUntilGc();
  EXPECT_GT(by(after, CompactionReason::kVlogGc),
            by(before, CompactionReason::kVlogGc));
  EXPECT_GT(after.compaction_count, before.compaction_count);
  EXPECT_GT(after.compaction_bytes_read, before.compaction_bytes_read);
  EXPECT_GT(after.vlog_gc_values_relocated, before.vlog_gc_values_relocated);

  before = db_->GetStats();
  ASSERT_TRUE(db_->PurgeSecondaryRange("00001000").ok());
  after = db_->GetStats();
  EXPECT_EQ(by(after, CompactionReason::kSecondaryPurge),
            by(before, CompactionReason::kSecondaryPurge) + 1);
  EXPECT_GT(after.compaction_bytes_read, before.compaction_bytes_read);
  EXPECT_EQ(after.blocks_purged_secondary, before.blocks_purged_secondary + 1);
  EXPECT_EQ(Get("expired"), "NOT_FOUND");
  EXPECT_EQ(Get("fresh"), "00009000|value");
  EXPECT_EQ(Get("keeper"), large_old_);
}

TEST_F(VlogDBTest, SeparationOffNeverCreatesSegments) {
  options_.value_separation_threshold = 0;
  Open();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", std::string(64 << 10, 'v')).ok());
  std::string v;
  ASSERT_TRUE(db_->Get(ReadOptions(), "k", &v).ok());
  EXPECT_EQ(v.size(), static_cast<size_t>(64 << 10));
  EXPECT_EQ(CountVlogFiles(), 0);
  InternalStats stats = db_->GetStats();
  EXPECT_EQ(stats.vlog_values_written, 0u);
}

TEST_F(VlogDBTest, ObsoleteSegmentsAreCollectedNotLeaked) {
  options_.delete_persistence_threshold = 2000;
  options_.write_buffer_size = 8 << 10;
  Open();
  const std::string large(2048, 'D');
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "del" + std::to_string(i), large).ok());
  }
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), "del" + std::to_string(i)).ok());
  }
  const int before = CountVlogFiles();
  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), "pad" + std::to_string(i % 128), "x").ok());
  }
  // Every all-garbage segment died; only the head and (possibly) a couple
  // of relocation/live segments remain.
  EXPECT_LT(CountVlogFiles(), before);
}

}  // namespace acheron
