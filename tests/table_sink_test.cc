// TableSink: byte and FileMetaData identity against a plain TableBuilder
// that cuts outputs at the same size, the range-tombstone-only last output,
// empty runs, failure cleanup, and fault legs through the DB's flush and
// compaction paths (a one-shot fault on a sink output's append and on its
// async sync: nothing installs, the retry succeeds, the output numbers
// drain and the worker goes idle).
#include "src/lsm/table_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/db_impl.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/table/table_builder.h"
#include "src/util/random.h"
#include "src/vlog/vlog_format.h"

namespace acheron {
namespace {

struct Entry {
  std::string key;  // internal key
  std::string value;
};

std::string UserKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// A sorted internal-key stream with values, point tombstones and vLog
// pointers, up to three versions per user key.
std::vector<Entry> MakeStream(int users, Random* rnd) {
  std::vector<Entry> out;
  SequenceNumber seq = 1000000;
  for (int u = 0; u < users; u++) {
    const int versions = 1 + static_cast<int>(rnd->Uniform(3));
    for (int v = 0; v < versions; v++) {
      Entry e;
      const uint32_t pick = rnd->Uniform(10);
      ValueType type = kTypeValue;
      if (pick < 2) {
        type = kTypeDeletion;
      } else if (pick < 3) {
        type = kTypeValuePointer;
        vlog::ValuePointer ptr;
        ptr.segment = 3 + rnd->Uniform(7);
        ptr.offset = rnd->Uniform(1 << 20);
        ptr.size = 100 + rnd->Uniform(4000);
        vlog::EncodeValuePointer(&e.value, ptr);
      } else {
        // The first four bytes double as the secondary key.
        char sec[8];
        std::snprintf(sec, sizeof(sec), "%04u",
                      static_cast<unsigned>(rnd->Uniform(10000)));
        e.value = std::string(sec) + std::string(20 + rnd->Uniform(100), 'v');
      }
      AppendInternalKey(&e.key, ParsedInternalKey(UserKey(u), seq - v, type));
      out.push_back(std::move(e));
    }
    seq -= 10;
  }
  return out;
}

class SinkTest : public ::testing::TestWithParam<bool> {
 protected:
  SinkTest()
      : env_(NewMemEnv()),
        icmp_(BytewiseComparator()),
        worker_(env_.get()) {
    options_.env = env_.get();
    options_.comparator = &icmp_;
    options_.block_size = 1024;
    options_.secondary_key_extractor = [](const Slice&, const Slice& value) {
      return value.size() >= 4 ? std::string(value.data(), 4) : std::string();
    };
  }

  std::unique_ptr<TableSink> NewSink() {
    return std::make_unique<TableSink>(
        options_, BytewiseComparator(), env_.get(), "/sink",
        [this] {
          allocations_++;
          return next_number_++;
        },
        GetParam() ? &worker_ : nullptr);
  }

  std::string Contents(const std::string& fname) {
    std::string data;
    EXPECT_TRUE(env_->ReadFileToString(fname, &data).ok()) << fname;
    return data;
  }

  size_t TableFiles(const std::string& dir) {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren(dir, &children).ok());
    return static_cast<size_t>(
        std::count_if(children.begin(), children.end(), [](const auto& c) {
          return c.size() > 4 && c.compare(c.size() - 4, 4, ".sst") == 0;
        }));
  }

  // The per-output code the sink replaced: one plain TableBuilder per
  // output, cut once the file reaches |run.max_output_size|, metadata
  // tracked by hand and mirrored into the properties block.
  std::vector<FileMetaData> ReferenceBuild(const std::vector<Entry>& entries,
                                           const TableSink::Run& run,
                                           uint64_t first_number) {
    std::vector<FileMetaData> outs;
    std::unique_ptr<WritableFile> file;
    std::unique_ptr<TableBuilder> builder;
    uint64_t number = first_number;
    auto open = [&] {
      FileMetaData meta;
      meta.number = number++;
      outs.push_back(meta);
      EXPECT_TRUE(
          env_->NewWritableFile(TableFileName("/ref", meta.number), &file)
              .ok());
      builder = std::make_unique<TableBuilder>(options_, file.get());
    };
    auto finish = [&] {
      FileMetaData& m = outs.back();
      if (m.num_tombstones > 0) {
        m.earliest_tombstone_wall_micros = run.tombstone_wall_micros;
      }
      TableProperties* props = builder->mutable_properties();
      props->num_tombstones = m.num_tombstones;
      props->earliest_tombstone_time = m.earliest_tombstone_seq;
      props->earliest_tombstone_wall_micros = m.earliest_tombstone_wall_micros;
      props->earliest_range_tombstone_wall_micros =
          m.earliest_range_tombstone_wall_micros;
      props->min_secondary_key = m.min_secondary_key;
      props->max_secondary_key = m.max_secondary_key;
      EXPECT_TRUE(builder->Finish().ok());
      m.file_size = builder->FileSize();
      m.num_entries = builder->NumEntries();
      builder.reset();
      EXPECT_TRUE(file->Sync().ok());
      EXPECT_TRUE(file->Close().ok());
      file.reset();
    };
    for (const Entry& e : entries) {
      if (builder == nullptr) open();
      FileMetaData& m = outs.back();
      if (builder->NumEntries() == 0) m.smallest.DecodeFrom(e.key);
      m.largest.DecodeFrom(e.key);
      builder->Add(e.key, e.value, ExtractUserKey(e.key));
      ParsedInternalKey ikey;
      EXPECT_TRUE(ParseInternalKey(e.key, &ikey));
      if (ikey.type == kTypeDeletion) {
        m.num_tombstones++;
        m.earliest_tombstone_seq =
            std::min(m.earliest_tombstone_seq, ikey.sequence);
      } else if (ikey.type == kTypeValuePointer) {
        vlog::FoldVlogSpan(e.value, &m.min_vlog_segment, &m.max_vlog_segment);
      } else {
        std::string sec = options_.secondary_key_extractor(ikey.user_key,
                                                            e.value);
        if (m.min_secondary_key.empty() || sec < m.min_secondary_key) {
          m.min_secondary_key = sec;
        }
        if (m.max_secondary_key.empty() || sec > m.max_secondary_key) {
          m.max_secondary_key = sec;
        }
      }
      if (builder->FileSize() >= run.max_output_size) finish();
    }
    if (!run.range_tombstones.empty()) {
      const bool fresh = builder == nullptr;
      if (fresh) open();
      FileMetaData& m = outs.back();
      for (const RangeTombstone& t : run.range_tombstones) {
        builder->AddRangeTombstone(t.begin, t.end, t.seq, BytewiseComparator());
        m.num_range_tombstones++;
        m.earliest_range_tombstone_seq =
            std::min(m.earliest_range_tombstone_seq, t.seq);
        if (m.range_del_begin.empty() || t.begin < m.range_del_begin) {
          m.range_del_begin = t.begin;
        }
        if (m.range_del_end.empty() || t.end > m.range_del_end) {
          m.range_del_end = t.end;
        }
      }
      m.earliest_range_tombstone_wall_micros = run.range_tombstone_wall_micros;
      if (fresh) {
        InternalKey lo = run.range_only_smallest;
        InternalKey hi = run.range_only_largest;
        if (outs.size() > 1) {
          ParsedInternalKey pk;
          EXPECT_TRUE(ParseInternalKey(outs[outs.size() - 2].largest.Encode(),
                                       &pk));
          lo = InternalKey(pk.user_key, pk.sequence - 1, pk.type);
          if (icmp_.Compare(hi.Encode(), lo.Encode()) < 0) hi = lo;
        }
        m.smallest = lo;
        m.largest = hi;
      }
    }
    if (builder != nullptr) finish();
    return outs;
  }

  void ExpectSameMeta(const FileMetaData& want, const FileMetaData& got) {
    EXPECT_EQ(want.number, got.number);
    EXPECT_EQ(want.file_size, got.file_size);
    EXPECT_EQ(want.smallest.Encode().ToString(),
              got.smallest.Encode().ToString());
    EXPECT_EQ(want.largest.Encode().ToString(),
              got.largest.Encode().ToString());
    EXPECT_EQ(want.num_entries, got.num_entries);
    EXPECT_EQ(want.num_tombstones, got.num_tombstones);
    EXPECT_EQ(want.earliest_tombstone_seq, got.earliest_tombstone_seq);
    EXPECT_EQ(want.earliest_tombstone_wall_micros,
              got.earliest_tombstone_wall_micros);
    EXPECT_EQ(want.min_secondary_key, got.min_secondary_key);
    EXPECT_EQ(want.max_secondary_key, got.max_secondary_key);
    EXPECT_EQ(want.num_range_tombstones, got.num_range_tombstones);
    EXPECT_EQ(want.earliest_range_tombstone_seq,
              got.earliest_range_tombstone_seq);
    EXPECT_EQ(want.earliest_range_tombstone_wall_micros,
              got.earliest_range_tombstone_wall_micros);
    EXPECT_EQ(want.range_del_begin, got.range_del_begin);
    EXPECT_EQ(want.range_del_end, got.range_del_end);
    EXPECT_EQ(want.min_vlog_segment, got.min_vlog_segment);
    EXPECT_EQ(want.max_vlog_segment, got.max_vlog_segment);
  }

  // Streams |entries| through one run of a fresh sink and checks every
  // output against ReferenceBuild, bytes and metadata.
  void ExpectIdentical(const std::vector<Entry>& entries,
                       const TableSink::Run& run) {
    const uint64_t first = next_number_;
    std::vector<FileMetaData> want = ReferenceBuild(entries, run, first);
    std::unique_ptr<TableSink> sink = NewSink();
    sink->BeginRun(run);
    for (const Entry& e : entries) sink->Add(e.key, e.value);
    sink->EndRun();
    ASSERT_TRUE(sink->Finish().ok());
    ASSERT_EQ(want.size(), sink->outputs().size());
    for (size_t i = 0; i < want.size(); i++) {
      const FileMetaData& got = sink->outputs()[i].meta;
      ExpectSameMeta(want[i], got);
      EXPECT_EQ(Contents(TableFileName("/ref", want[i].number)),
                Contents(TableFileName("/sink", got.number)))
          << "output " << i;
    }
  }

  TableSink::Run MakeRun(uint64_t max_output_size) {
    TableSink::Run run;
    run.max_output_size = max_output_size;
    run.tombstone_wall_micros = 1234567;
    run.range_tombstone_wall_micros = 7654321;
    run.range_only_smallest = InternalKey(UserKey(0), 900, kTypeValue);
    run.range_only_largest = InternalKey(UserKey(99999), 1, kTypeDeletion);
    return run;
  }

  std::unique_ptr<Env> env_;
  InternalKeyComparator icmp_;
  Options options_;
  TableSinkWorker worker_;
  uint64_t next_number_ = 100;
  int allocations_ = 0;
};

TEST_P(SinkTest, MultiOutputCutsAreByteIdentical) {
  Random rnd(7);
  std::vector<Entry> entries = MakeStream(3000, &rnd);
  TableSink::Run run = MakeRun(16 << 10);
  run.range_tombstones.emplace_back(UserKey(40), UserKey(90), 5);
  run.range_tombstones.emplace_back(UserKey(10), UserKey(50), 3);
  ExpectIdentical(entries, run);
  // Several outputs were cut and the tombstones rode in the last one.
  EXPECT_GT(next_number_, 104u);
}

TEST_P(SinkTest, SingleUncutOutputIsByteIdentical) {
  Random rnd(8);
  ExpectIdentical(MakeStream(500, &rnd), MakeRun(UINT64_MAX));
}

TEST_P(SinkTest, RangeTombstoneOnlyLastOutput) {
  Random rnd(9);
  std::vector<Entry> entries = MakeStream(2000, &rnd);
  // Trim the stream so its last entry closes an output exactly: the range
  // tombstones then need a fresh output whose lower bound starts just past
  // the previous output's largest key.
  const TableSink::Run sizing = MakeRun(8 << 10);
  std::vector<FileMetaData> cuts = ReferenceBuild(entries, sizing, 1000000);
  ASSERT_GT(cuts.size(), 2u);
  uint64_t kept = 0;
  for (size_t i = 0; i + 1 < cuts.size(); i++) kept += cuts[i].num_entries;
  entries.resize(kept);

  TableSink::Run run = MakeRun(8 << 10);
  run.range_tombstones.emplace_back(UserKey(5), UserKey(7), 11);
  ExpectIdentical(entries, run);

  // A run of only range tombstones takes the caller's bounds as given.
  TableSink::Run only = MakeRun(8 << 10);
  only.range_tombstones.emplace_back(UserKey(1), UserKey(3), 2);
  ExpectIdentical({}, only);
}

TEST_P(SinkTest, EmptyRunLeavesNoOutput) {
  std::unique_ptr<TableSink> sink = NewSink();
  sink->BeginRun(MakeRun(UINT64_MAX));
  sink->EndRun();
  ASSERT_TRUE(sink->Finish().ok());
  EXPECT_TRUE(sink->outputs().empty());
  EXPECT_EQ(0, allocations_);
  EXPECT_EQ(0u, TableFiles("/sink"));
}

TEST_P(SinkTest, OutputsAreTaggedWithTheirRun) {
  Random rnd(10);
  std::vector<Entry> entries = MakeStream(300, &rnd);
  std::unique_ptr<TableSink> sink = NewSink();
  for (int run = 0; run < 3; run++) {
    sink->BeginRun(MakeRun(UINT64_MAX));
    if (run != 1) {  // the middle run is empty
      for (const Entry& e : entries) sink->Add(e.key, e.value);
    }
    sink->EndRun();
  }
  ASSERT_TRUE(sink->Finish().ok());
  ASSERT_EQ(2u, sink->outputs().size());
  EXPECT_EQ(0u, sink->outputs()[0].run);
  EXPECT_EQ(2u, sink->outputs()[1].run);
  EXPECT_EQ(2u, TableFiles("/sink"));
}

TEST_P(SinkTest, FailedInputAbandonsAndRemovesOutputs) {
  Random rnd(11);
  std::vector<Entry> entries = MakeStream(2000, &rnd);
  std::unique_ptr<TableSink> sink = NewSink();
  sink->BeginRun(MakeRun(8 << 10));
  for (const Entry& e : entries) sink->Add(e.key, e.value);
  Status s = sink->Finish(Status::Corruption("input iterator failed"));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(sink->outputs().empty());
  EXPECT_EQ(0u, TableFiles("/sink"));
}

// One-shot faults on the sink's own file ops: the first output's append
// and its async sync. The job fails, every output file is gone, and every
// allocated number is still reported for the caller to release.
TEST_P(SinkTest, FaultedAppendOrSyncFailsTheJob) {
  Random rnd(12);
  const std::vector<Entry> entries = MakeStream(1500, &rnd);
  // Dry run: a single-output job numbers create, appends, sync, close.
  uint64_t sync_offset = 0;
  {
    FaultInjectionEnv fault(env_.get());
    TableSink dry(options_, BytewiseComparator(), &fault, "/dry",
                  [this] { return next_number_++; },
                  GetParam() ? &worker_ : nullptr);
    dry.BeginRun(MakeRun(UINT64_MAX));
    for (const Entry& e : entries) dry.Add(e.key, e.value);
    ASSERT_TRUE(dry.Finish().ok());
    ASSERT_EQ(1u, dry.outputs().size());
    sync_offset = fault.FileOpCount() - 2;  // the close follows the sync
    ASSERT_GT(sync_offset, 1u);
  }
  for (const uint64_t offset : {uint64_t{1}, sync_offset}) {
    FaultInjectionEnv fault(env_.get());
    fault.FailOpOnce(static_cast<int64_t>(offset));
    const std::string dir = "/faulted" + std::to_string(offset);
    TableSink sink(options_, BytewiseComparator(), &fault, dir,
                   [this] { return next_number_++; },
                   GetParam() ? &worker_ : nullptr);
    sink.BeginRun(MakeRun(UINT64_MAX));
    for (const Entry& e : entries) sink.Add(e.key, e.value);
    Status s = sink.Finish();
    EXPECT_TRUE(s.IsIOError()) << "op " << offset << ": " << s.ToString();
    EXPECT_EQ(1u, fault.SoftFaultsInjected()) << "op " << offset;
    ASSERT_EQ(1u, sink.outputs().size()) << "op " << offset;
    EXPECT_EQ(0u, TableFiles(dir)) << "op " << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Builder, SinkTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Worker" : "Inline";
                         });

// ---- Fault legs through the DB: flush and compaction outputs ----

struct SinkOp {
  uint64_t index;
  std::string kind;
};

class SinkFaultTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 600;

  SinkFaultTest() : base_(NewMemEnv()) {}

  Options DbOptions(Env* env) {
    Options o;
    o.env = env;
    o.write_buffer_size = 64 << 10;
    o.max_file_size = 16 << 10;
    o.retry_backoff_base_micros = 10;
    o.space_probe_interval_micros = 0;
    return o;
  }

  // Writes a batch, flushes it, writes an overlapping batch, flushes and
  // compacts everything to the bottom. Returns the op count before the
  // flushes (the region that holds table outputs).
  Status Script(DB* db, uint64_t* ops_before_flush, FaultInjectionEnv* env) {
    for (int i = 0; i < kKeys; i++) {
      Status s = db->Put(WriteOptions(), UserKey(i), std::string(40, 'a'));
      if (!s.ok()) return s;
    }
    *ops_before_flush = env->FileOpCount();
    Status s = db->FlushMemTable();
    if (!s.ok()) return s;
    for (int i = 0; i < kKeys; i += 3) {
      s = db->Delete(WriteOptions(), UserKey(i));
      if (!s.ok()) return s;
    }
    s = db->FlushMemTable();
    if (!s.ok()) return s;
    db->CompactRange(nullptr, nullptr);
    return Status::OK();
  }

  // Learns the kind of every mutating op inside the output region by
  // crashing a fresh run at each index.
  std::vector<SinkOp> ProbeTableOps() {
    uint64_t begin = 0, end = 0;
    {
      std::unique_ptr<Env> mem(NewMemEnv());
      FaultInjectionEnv env(mem.get());
      DB* db = nullptr;
      EXPECT_TRUE(DB::Open(DbOptions(&env), "/db", &db).ok());
      EXPECT_TRUE(Script(db, &begin, &env).ok());
      end = env.FileOpCount();
      delete db;
    }
    std::vector<SinkOp> ops;
    for (uint64_t k = begin; k < end; k++) {
      std::unique_ptr<Env> mem(NewMemEnv());
      FaultInjectionEnv env(mem.get());
      env.CrashAfterOp(static_cast<int64_t>(k));
      DB* db = nullptr;
      EXPECT_TRUE(DB::Open(DbOptions(&env), "/db", &db).ok());
      uint64_t unused = 0;
      (void)Script(db, &unused, &env);
      if (env.crashed()) {
        const auto op = env.crashed_op();
        if (op.fname.size() > 4 &&
            op.fname.compare(op.fname.size() - 4, 4, ".sst") == 0) {
          ops.push_back({k, op.kind});
        }
      }
      delete db;
    }
    return ops;
  }

  std::unique_ptr<Env> base_;
};

TEST_F(SinkFaultTest, OneShotFaultOnOutputAppendOrSyncRetries) {
  const std::vector<SinkOp> ops = ProbeTableOps();
  // Two flush outputs and a compaction cut into several outputs.
  ASSERT_GE(std::count_if(ops.begin(), ops.end(),
                          [](const SinkOp& op) { return op.kind == "sync"; }),
            4);
  // Fault the first flush output's append and sync, and the compaction
  // outputs' (the last .sst append and sync of the script).
  std::vector<uint64_t> targets;
  for (const char* kind : {"append", "sync"}) {
    auto is_kind = [&](const SinkOp& op) { return op.kind == kind; };
    auto first = std::find_if(ops.begin(), ops.end(), is_kind);
    auto last = std::find_if(ops.rbegin(), ops.rend(), is_kind);
    ASSERT_NE(first, ops.end()) << kind;
    targets.push_back(first->index);
    targets.push_back(last->index);
  }

  for (uint64_t k : targets) {
    std::unique_ptr<Env> mem(NewMemEnv());
    FaultInjectionEnv env(mem.get());
    env.FailOpOnce(static_cast<int64_t>(k));
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(DbOptions(&env), "/db", &db).ok());
    uint64_t unused = 0;
    ASSERT_TRUE(Script(db, &unused, &env).ok()) << "op " << k;
    EXPECT_EQ(1u, env.SoftFaultsInjected()) << "op " << k;

    auto* impl = static_cast<DBImpl*>(db);
    EXPECT_EQ(0u, impl->TEST_PendingOutputs()) << "op " << k;
    // The worker finishes its last hand-off just after the job's waiter
    // wakes; it must go idle promptly.
    bool idle = false;
    for (int i = 0; i < 5000 && !(idle = impl->TEST_OutputWorkerIdle()); i++) {
      env.SleepForMicroseconds(1000);
    }
    EXPECT_TRUE(idle) << "op " << k;
    // Every key reads back as the script left it.
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      Status s = db->Get(ReadOptions(), UserKey(i), &value);
      if (i % 3 == 0) {
        EXPECT_TRUE(s.IsNotFound()) << "op " << k << " key " << i;
      } else {
        EXPECT_TRUE(s.ok()) << "op " << k << " key " << i;
      }
    }
    // Nothing from the failed attempt was installed or left behind: every
    // table file on disk is live.
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren("/db", &children).ok());
    size_t on_disk = 0;
    for (const std::string& c : children) {
      if (c.size() > 4 && c.compare(c.size() - 4, 4, ".sst") == 0) on_disk++;
    }
    size_t live = 0;
    for (int level = 0; level < kNumLevels; level++) {
      std::string v;
      ASSERT_TRUE(db->GetProperty(
          "acheron.num-files-at-level" + std::to_string(level), &v));
      live += std::stoul(v);
    }
    EXPECT_EQ(live, on_disk) << "op " << k;
    delete db;
  }
}

}  // namespace
}  // namespace acheron
