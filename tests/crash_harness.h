// Shared helpers for the crash-recovery matrix (crash_recovery_test.cc):
// fixed scripted workloads (point-op, range-delete, and key-value-separated
// variants), a per-run wrapper around MemEnv + FaultInjectionEnv, an
// in-memory model of the workload's visible state, and the
// recovery-invariant checks. The invariants the matrix enforces (the five
// point-op ones, "a durable range delete never resurrects a covered key",
// and "an acked write whose value went to the vLog survives restart; a
// persisted delete's value bytes never resurrect") are documented in
// DESIGN.md ("Recovery invariants"); how to run the matrix and read a
// repro line is in TESTING.md.
#ifndef ACHERON_TESTS_CRASH_HARNESS_H_
#define ACHERON_TESTS_CRASH_HARNESS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/write_batch.h"

namespace acheron {
namespace crash {

// Delete-persistence threshold the harness runs with, in logical ops.
constexpr uint64_t kDth = 600;
// Slack on the D_th bound: the deadline check runs at write granularity and
// the triggering write plus the tombstone's own entry land after it.
constexpr uint64_t kDthSlack = 2;

// Separation threshold the key-value-separated workload runs with: values
// of at least this many bytes route through the value log, smaller ones
// stay inline. Chosen well clear of both the workload's small values
// (~16 B) and its separated ones (kVlogValueSize).
constexpr size_t kVlogThreshold = 256;
constexpr size_t kVlogValueSize = 400;

// A deterministic separated-size value: a distinctive tag followed by
// filler up to kVlogValueSize bytes. Byte-for-byte reproducible, so the
// invariant checks can compare exact contents through the pointer
// dereference path.
inline std::string BigValue(const std::string& tag) {
  std::string v = tag;
  v.push_back(':');
  while (v.size() < kVlogValueSize) {
    v.push_back(static_cast<char>('a' + (v.size() % 23)));
  }
  return v;
}

struct Entry {
  bool is_delete = false;
  bool is_range = false;   // range delete [key, end_key)
  std::string key;
  std::string value;    // empty for deletes
  std::string end_key;  // exclusive end for range deletes
};

// One scripted logical operation. A kWrite with several entries is issued
// as a single WriteBatch, i.e. one WAL record (the atomicity unit that
// invariant 2 is checked against).
struct LogicalOp {
  enum Kind { kWrite, kFlush, kCompact };
  Kind kind = kWrite;
  std::vector<Entry> entries;
  bool sync = false;   // WriteOptions::sync for kWrite
  bool acked = false;  // filled in by RunWorkload
};

inline LogicalOp Put(const std::string& k, const std::string& v,
                     bool sync = false) {
  LogicalOp op;
  op.entries.push_back(Entry{false, false, k, v, ""});
  op.sync = sync;
  return op;
}

inline LogicalOp Del(const std::string& k, bool sync = false) {
  LogicalOp op;
  op.entries.push_back(Entry{true, false, k, std::string(), ""});
  op.sync = sync;
  return op;
}

inline LogicalOp RangeDel(const std::string& begin, const std::string& end,
                          bool sync = false) {
  LogicalOp op;
  Entry e;
  e.is_delete = true;
  e.is_range = true;
  e.key = begin;
  e.end_key = end;
  op.entries.push_back(e);
  op.sync = sync;
  return op;
}

inline LogicalOp Flush() {
  LogicalOp op;
  op.kind = LogicalOp::kFlush;
  return op;
}

inline LogicalOp Compact() {
  LogicalOp op;
  op.kind = LogicalOp::kCompact;
  return op;
}

// The fixed workload. It is deterministic by construction (no randomness,
// no wall-clock dependence), which is what makes "crash at file-op k"
// reproducible: the repro line needs only the mode and k. The script walks
// the engine through every structure a crash can tear: WAL-only data,
// synced and unsynced writes, multi-entry batches, flushed L0 tables,
// tombstones shadowing deeper data, re-puts over tombstones, a compaction
// that persists deletes at the bottom level, and an unsynced tail.
inline std::vector<LogicalOp> ScriptedWorkload() {
  std::vector<LogicalOp> ops;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };

  // Phase 1: base data, ending on a synced write (ack barrier).
  for (int i = 0; i < 18; i++) ops.push_back(Put(key(i), "v1-" + key(i)));
  ops.push_back(Put(key(18), "v1-sync", /*sync=*/true));
  // Phase 2: into L0, then to the bottom of the tree.
  ops.push_back(Flush());
  ops.push_back(Compact());
  // Phase 3: tombstones over the deep data, one batch mixing both kinds.
  for (int i = 0; i < 8; i++) ops.push_back(Del(key(i)));
  {
    LogicalOp batch;  // one WAL record: all-or-nothing after a crash
    batch.entries.push_back(Entry{true, false, key(8), std::string(), ""});
    batch.entries.push_back(Entry{false, false, key(19), "v1-batch", ""});
    batch.entries.push_back(Entry{true, false, key(9), std::string(), ""});
    ops.push_back(batch);
  }
  ops.push_back(Del(key(10), /*sync=*/true));
  // Phase 4: tombstones become L0 tables, then meet their values at the
  // bottom level, where FADE drops them as persisted.
  ops.push_back(Flush());
  for (int i = 5; i < 12; i++) ops.push_back(Put(key(i), "v2-" + key(i)));
  ops.push_back(Put(key(20), "v2-sync", /*sync=*/true));
  ops.push_back(Flush());
  ops.push_back(Compact());
  // Phase 5: an unsynced tail straddling one last ack barrier.
  for (int i = 30; i < 34; i++) ops.push_back(Put(key(i), "tail-" + key(i)));
  ops.push_back(Del(key(11)));
  ops.push_back(Put(key(34), "tail-sync", /*sync=*/true));
  ops.push_back(Put(key(35), "tail-unsynced"));
  ops.push_back(Del(key(12)));
  return ops;
}

// Range-delete variant of the scripted workload: the same phase structure,
// but the tombstones over the deep data are range tombstones, including a
// batch that mixes a put, a range delete, and a point delete in one WAL
// record, a range-only flush, re-puts inside a deleted span, and an
// unsynced range-delete tail. Exercises every structure the kRangeDelete
// path adds: WAL records, memtable range lists, range-tombstone blocks in
// L0, and compactions that persist or carry the ranges.
inline std::vector<LogicalOp> ScriptedRangeDeleteWorkload() {
  std::vector<LogicalOp> ops;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };

  // Phase 1: base data, ending on a synced write (ack barrier).
  for (int i = 0; i < 18; i++) ops.push_back(Put(key(i), "v1-" + key(i)));
  ops.push_back(Put(key(18), "v1-sync", /*sync=*/true));
  // Phase 2: into L0, then to the bottom of the tree.
  ops.push_back(Flush());
  ops.push_back(Compact());
  // Phase 3: range tombstones over the deep data. One batch mixes a put, a
  // range delete, and a point delete: all-or-nothing after a crash.
  ops.push_back(RangeDel(key(0), key(4)));
  {
    LogicalOp batch;
    batch.entries.push_back(Entry{false, false, key(19), "v1-batch", ""});
    batch.entries.push_back(Entry{true, true, key(4), "", key(7)});
    batch.entries.push_back(Entry{true, false, key(7), "", ""});
    ops.push_back(batch);
  }
  ops.push_back(RangeDel(key(8), key(11), /*sync=*/true));
  // Phase 4: the range tombstones become an L0 table, re-puts land inside
  // a deleted span, and a compaction persists the ranges at the bottom.
  ops.push_back(Flush());
  for (int i = 2; i < 6; i++) ops.push_back(Put(key(i), "v2-" + key(i)));
  ops.push_back(Put(key(20), "v2-sync", /*sync=*/true));
  ops.push_back(Flush());
  ops.push_back(Compact());
  // Phase 5: an unsynced tail straddling one last ack barrier, with range
  // deletes on both sides of it.
  for (int i = 30; i < 33; i++) ops.push_back(Put(key(i), "tail-" + key(i)));
  ops.push_back(RangeDel(key(11), key(14)));
  ops.push_back(Put(key(34), "tail-sync", /*sync=*/true));
  ops.push_back(RangeDel(key(14), key(17)));
  ops.push_back(Put(key(35), "tail-unsynced"));
  return ops;
}

// Key-value-separated variant of the scripted workload (run with
// set_value_separation(kVlogThreshold)): the same phase structure, but most
// values are large enough to route through the value log, so every crash
// point also lands inside vLog appends, syncs, head rotations, seals, and
// -- because phase 4 deliberately sinks segment 1's live ratio below the
// GC floor -- a GC relocation rewriting tables and sealing a relocation
// segment. Exercises every structure key-value separation adds: pointer
// WAL records, pointer memtable entries, pointer-bearing L0/bottom tables,
// sealed segments, the per-segment FADE purge ledger, and the registry
// edits in the MANIFEST.
inline std::vector<LogicalOp> ScriptedVlogWorkload() {
  std::vector<LogicalOp> ops;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%03d", i);
    return std::string(buf);
  };

  // Phase 1: 12 separated values plus inline ones, ending on a synced
  // separated write (ack barrier). All 13 separated values land in the
  // first vLog head segment.
  for (int i = 0; i < 12; i++) ops.push_back(Put(key(i), BigValue("v1-" + key(i))));
  for (int i = 12; i < 16; i++) ops.push_back(Put(key(i), "v1-small-" + key(i)));
  ops.push_back(Put(key(16), BigValue("v1-sync"), /*sync=*/true));
  // Phase 2: pointers into L0, then the bottom; the flush's memtable swap
  // rotates the vLog head, sealing segment 1.
  ops.push_back(Flush());
  ops.push_back(Compact());
  // Phase 3: tombstones over 11 of the 13 separated values, one batch
  // mixing deletes with an inline put (one WAL record: all-or-nothing),
  // and a synced delete of an inline value.
  for (int i = 0; i < 9; i++) ops.push_back(Del(key(i)));
  {
    LogicalOp batch;
    batch.entries.push_back(Entry{true, false, key(9), std::string(), ""});
    batch.entries.push_back(Entry{false, false, key(17), "v1-batch", ""});
    batch.entries.push_back(Entry{true, false, key(10), std::string(), ""});
    ops.push_back(batch);
  }
  ops.push_back(Del(key(12), /*sync=*/true));
  // Phase 4: the tombstones flush to L0, separated re-puts land over
  // deleted keys (a fresh segment), and the compaction persists the
  // deletes at the bottom -- charging their value bytes as garbage on
  // segment 1, whose live ratio (2 of 13 values) drops below the GC
  // floor. The trailing put+flush drives one more compaction round, and
  // the value-log GC riding it relocates segment 1's live values and
  // counts its pending purges persisted.
  ops.push_back(Flush());
  for (int i = 5; i < 9; i++) ops.push_back(Put(key(i), BigValue("v2-" + key(i))));
  ops.push_back(Put(key(18), BigValue("v2-sync"), /*sync=*/true));
  ops.push_back(Flush());
  ops.push_back(Compact());
  ops.push_back(Put(key(19), "gc-tick"));
  ops.push_back(Flush());
  // Phase 5: an unsynced tail straddling one last ack barrier, with
  // separated values on both sides and a delete of a relocated value.
  ops.push_back(Put(key(30), BigValue("tail-" + key(30))));
  ops.push_back(Del(key(11)));  // its value was just GC-relocated
  ops.push_back(Put(key(31), "tail-small"));
  ops.push_back(Put(key(32), BigValue("tail-sync"), /*sync=*/true));
  ops.push_back(Put(key(33), BigValue("tail-unsynced")));
  ops.push_back(Del(key(5)));
  return ops;
}

// The result of one workload execution against a (possibly crashing) env.
struct RunResult {
  std::vector<LogicalOp> ops;  // acked flags filled in
  // ops[0..durable_lb) are guaranteed durable: every index below the last
  // acked sync-write, and every write issued before an acked flush.
  size_t durable_lb = 0;
  Status open_status;  // initial DB::Open of the workload run
};

// Owns the MemEnv + FaultInjectionEnv pair for one deterministic execution
// of the scripted workload.
class CrashRun {
 public:
  CrashRun() : CrashRun(std::unique_ptr<Env>(NewMemEnv()), "/crashdb") {}

  // For shards that crash-simulate against a different base env (e.g. the
  // unbuffered PosixEnv): the caller supplies the base env and a dbname
  // rooted wherever that env can write. The base env must apply Append()
  // immediately (see the FaultInjectionEnv header contract).
  CrashRun(std::unique_ptr<Env> base, std::string dbname)
      : dbname_(std::move(dbname)),
        base_(std::move(base)),
        fault_(new FaultInjectionEnv(base_.get())) {}

  FaultInjectionEnv* env() { return fault_.get(); }
  const std::string& dbname() const { return dbname_; }

  // Replace the default scripted workload (e.g. with
  // ScriptedRangeDeleteWorkload()). Must be called before RunWorkload.
  void set_script(std::vector<LogicalOp> script) {
    script_ = std::move(script);
  }

  // The soft-error matrix (see soft_error_matrix_test.cc) re-enables
  // background retries to exercise the recovery machinery; the crash matrix
  // leaves them off so a crash-boundary IOError stays immediately fatal.
  void set_max_background_retries(int n) { max_background_retries_ = n; }

  // Route values of at least |threshold| bytes through the value log for
  // this run (0, the default, disables separation). Used with
  // ScriptedVlogWorkload() + kVlogThreshold.
  void set_value_separation(size_t threshold) {
    value_separation_ = threshold;
  }

  Options DbOptions() const {
    Options o;
    o.env = fault_.get();
    o.create_if_missing = true;
    // Large enough that the script never swaps the memtable on its own:
    // flush points are explicit, so the file-op schedule is a pure
    // function of the script.
    o.write_buffer_size = 256 << 10;
    o.delete_persistence_threshold = kDth;
    // Crash simulation turns the crash boundary into an injected IOError;
    // retrying it would re-run file ops past the boundary and desync the
    // op schedule, so the state machine is disabled by default here.
    o.max_background_retries = max_background_retries_;
    if (value_separation_ > 0) {
      o.value_separation_threshold = value_separation_;
      // The minimum segment size; rotation is flush-driven anyway (the head
      // rotates at every non-empty memtable swap), this just keeps the
      // size-based rotation path armed too.
      o.vlog_segment_size = 64 << 10;
    }
    return o;
  }

  // Executes the scripted workload, arming a crash at absolute file-op
  // index |crash_at| first (crash_at < 0: never crash). Always returns with
  // the DB closed; per-op statuses land in result().
  void RunWorkload(int64_t crash_at) {
    if (crash_at >= 0) fault_->CrashAfterOp(crash_at);
    result_ = RunResult();
    result_.ops = script_;
    DB* db = nullptr;
    result_.open_status = DB::Open(DbOptions(), dbname_, &db);
    if (result_.open_status.ok()) {
      for (size_t i = 0; i < result_.ops.size(); i++) {
        LogicalOp& op = result_.ops[i];
        switch (op.kind) {
          case LogicalOp::kWrite: {
            WriteBatch batch;
            for (const Entry& e : op.entries) {
              if (e.is_range) {
                batch.DeleteRange(e.key, e.end_key);
              } else if (e.is_delete) {
                batch.Delete(e.key);
              } else {
                batch.Put(e.key, e.value);
              }
            }
            WriteOptions w;
            w.sync = op.sync;
            op.acked = db->Write(w, &batch).ok();
            // A synced ack covers the whole WAL prefix, not just this op.
            if (op.acked && op.sync) result_.durable_lb = i + 1;
            break;
          }
          case LogicalOp::kFlush:
            op.acked = db->FlushMemTable().ok();
            // Every write issued before the flush is durable once it acks.
            if (op.acked) {
              result_.durable_lb = std::max(result_.durable_lb, i);
            }
            break;
          case LogicalOp::kCompact:
            // CompactRange is void; it contributes no durability promise.
            db->CompactRange(nullptr, nullptr);
            op.acked = true;
            break;
        }
      }
    }
    // Closing a crashed DB exercises the poisoned-write teardown path; the
    // ops it attempts past the crash point fail and are not part of the
    // enumerated space (FileOpCount is sampled before this in the driver).
    delete db;
  }

  const RunResult& result() const { return result_; }

 private:
  int max_background_retries_ = 0;
  size_t value_separation_ = 0;
  std::vector<LogicalOp> script_ = ScriptedWorkload();
  const std::string dbname_;
  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  RunResult result_;
};

// Visible state after applying the first |n| logical ops.
inline std::map<std::string, std::string> ApplyPrefix(
    const std::vector<LogicalOp>& ops, size_t n) {
  std::map<std::string, std::string> m;
  for (size_t i = 0; i < n && i < ops.size(); i++) {
    if (ops[i].kind != LogicalOp::kWrite) continue;
    for (const Entry& e : ops[i].entries) {
      if (e.is_range) {
        m.erase(m.lower_bound(e.key), m.lower_bound(e.end_key));
      } else if (e.is_delete) {
        m.erase(e.key);
      } else {
        m[e.key] = e.value;
      }
    }
  }
  return m;
}

// Full forward scan of |db| into a map. Iterator errors surface as gtest
// failures tagged with |repro|.
inline std::map<std::string, std::string> ScanAll(
    DB* db, const std::string& repro) {
  std::map<std::string, std::string> m;
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    m[it->key().ToString()] = it->value().ToString();
  }
  EXPECT_TRUE(it->status().ok())
      << repro << " iterator error: " << it->status().ToString();
  return m;
}

inline std::string DescribeState(const std::map<std::string, std::string>& m) {
  std::ostringstream out;
  out << m.size() << " keys {";
  for (const auto& kv : m) out << " " << kv.first;
  out << " }";
  return out.str();
}

// Invariants 1-3: the recovered visible state must equal the model replayed
// to some prefix N with durable_lb <= N <= ops issued (1: nothing acked
// durable is missing; 2: unacked writes are all-or-nothing per WAL record);
// Get must agree with the iterator for every key the workload touched; and
// the state must survive a forced full compaction unchanged (3: persisted
// tombstones never resurrect their values). Reports via gtest, prefixed
// with |repro|.
inline void CheckRecoveredState(DB* db, const RunResult& run,
                                const std::string& repro) {
  const std::map<std::string, std::string> scan = ScanAll(db, repro);

  bool prefix_found = false;
  size_t matched_n = 0;
  for (size_t n = run.durable_lb; n <= run.ops.size(); n++) {
    if (ApplyPrefix(run.ops, n) == scan) {
      prefix_found = true;
      matched_n = n;
      break;
    }
  }
  EXPECT_TRUE(prefix_found)
      << repro << " recovered state is not a workload prefix >= durable_lb="
      << run.durable_lb << "; got " << DescribeState(scan)
      << " want-at-least " << DescribeState(ApplyPrefix(run.ops, run.durable_lb));
  if (!prefix_found) return;

  // Get/iterator agreement over every key the workload ever touched.
  for (const LogicalOp& op : run.ops) {
    for (const Entry& e : op.entries) {
      std::string v;
      Status s = db->Get(ReadOptions(), e.key, &v);
      auto it = scan.find(e.key);
      if (it == scan.end()) {
        EXPECT_TRUE(s.IsNotFound())
            << repro << " Get(" << e.key << ") disagrees with scan: expected "
            << "NotFound, got " << (s.ok() ? "value " + v : s.ToString());
      } else {
        EXPECT_TRUE(s.ok() && v == it->second)
            << repro << " Get(" << e.key << ") disagrees with scan: expected "
            << it->second << ", got " << (s.ok() ? v : s.ToString());
      }
    }
  }

  // Invariant 3, stated directly: a key whose delete is inside the durable
  // prefix and never re-put afterwards in the matched prefix must be gone.
  // For range deletes the same statement quantifies over every key the
  // workload ever wrote inside [begin, end): a durable range delete never
  // resurrects a covered key.
  const std::map<std::string, std::string> durable_state =
      ApplyPrefix(run.ops, matched_n);
  std::set<std::string> written_keys;
  for (const LogicalOp& op : run.ops) {
    for (const Entry& e : op.entries) {
      if (!e.is_delete) written_keys.insert(e.key);
    }
  }
  for (size_t i = 0; i < run.durable_lb; i++) {
    for (const Entry& e : run.ops[i].entries) {
      if (!e.is_delete) continue;
      if (e.is_range) {
        for (auto it = written_keys.lower_bound(e.key);
             it != written_keys.end() && *it < e.end_key; ++it) {
          if (durable_state.count(*it)) continue;  // re-put later
          std::string v;
          EXPECT_TRUE(db->Get(ReadOptions(), *it, &v).IsNotFound())
              << repro << " durable range delete [" << e.key << ","
              << e.end_key << ") resurrected covered key " << *it;
        }
        continue;
      }
      if (durable_state.count(e.key)) continue;  // re-put later
      std::string v;
      EXPECT_TRUE(db->Get(ReadOptions(), e.key, &v).IsNotFound())
          << repro << " acked-durable delete of " << e.key
          << " resurrected after recovery";
    }
  }

  // ...and after forcing every tombstone through the tree: a full
  // compaction must not change the visible state.
  db->CompactRange(nullptr, nullptr);
  const std::map<std::string, std::string> after = ScanAll(db, repro);
  EXPECT_EQ(scan, after)
      << repro << " visible state changed across a full compaction: before "
      << DescribeState(scan) << " after " << DescribeState(after);
}

// Invariant 4: the FADE bound survives the restart. Churns 2.5 * D_th
// fresh inserts through the recovered DB and asserts no live tombstone's
// age exceeds D_th (+slack) -- i.e. the tombstone-age clock reconstructed
// from table metadata still drives timely persistence.
inline void CheckDeletePersistenceBound(DB* db, const std::string& repro) {
  for (uint64_t i = 0; i < kDth * 5 / 2; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "churn" + std::to_string(i % 400), "x").ok())
        << repro << " churn write " << i << " failed";
  }
  ASSERT_TRUE(db->WaitForCompactions().ok()) << repro;
  std::string v;
  ASSERT_TRUE(db->GetProperty("acheron.max-tombstone-age", &v)) << repro;
  EXPECT_LE(std::stoull(v), kDth + kDthSlack)
      << repro << " FADE D_th bound violated after restart";
}

// Invariant 7 (key-value-separated runs): an acked write whose value went
// to the value log survives restart byte-for-byte, and a persisted
// delete's value bytes never resurrect -- neither at reopen nor after the
// compaction + value-log GC machinery runs over the recovered tree.
// CheckRecoveredState already proves the visible state is a consistent
// workload prefix (dereferencing every pointer along the way); this states
// the vLog half directly, pinned to keys whose outcome is prefix-
// independent: if every op touching a key lies inside the durable prefix,
// the last of them fixes the key's state no matter which prefix recovery
// matched.
inline void CheckVlogRecoveredState(DB* db, const RunResult& run,
                                    const std::string& repro) {
  std::string prop;
  EXPECT_TRUE(db->GetProperty("acheron.vlog-stats", &prop))
      << repro << " vlog-stats property missing after recovery";

  std::map<std::string, const Entry*> final_durable_op;
  std::set<std::string> touched_after_lb;
  for (size_t i = 0; i < run.ops.size(); i++) {
    for (const Entry& e : run.ops[i].entries) {
      if (e.is_range) continue;  // the vLog script is point-op only
      if (i < run.durable_lb) {
        final_durable_op[e.key] = &e;
      } else {
        touched_after_lb.insert(e.key);
      }
    }
  }
  auto check = [&](const char* when) {
    for (const auto& kv : final_durable_op) {
      if (touched_after_lb.count(kv.first)) continue;
      std::string v;
      Status s = db->Get(ReadOptions(), kv.first, &v);
      if (kv.second->is_delete) {
        EXPECT_TRUE(s.IsNotFound())
            << repro << " " << when << ": durable delete of " << kv.first
            << " resurrected (value bytes came back: "
            << (s.ok() ? std::to_string(v.size()) + "B" : s.ToString())
            << ")";
      } else {
        EXPECT_TRUE(s.ok() && v == kv.second->value)
            << repro << " " << when << ": durable value of " << kv.first
            << " did not survive ("
            << (s.ok() ? "bytes differ, got " + std::to_string(v.size()) +
                             "B want " +
                             std::to_string(kv.second->value.size()) + "B"
                       : s.ToString())
            << ")";
      }
    }
  };
  check("at reopen");
  // ...and after the persistence machinery runs over the recovered tree:
  // compactions persist the tombstones and the value-log GC purges or
  // relocates their value bytes; neither may disturb a live value or
  // resurrect a purged one.
  db->CompactRange(nullptr, nullptr);
  ASSERT_TRUE(db->WaitForCompactions().ok()) << repro;
  check("after compaction+GC");
}

}  // namespace crash
}  // namespace acheron

#endif  // ACHERON_TESTS_CRASH_HARNESS_H_
