// Monitor-journal replay tests: the FADE clock recovered from the
// MANIFEST journal plus WAL recount must be *exact*, not conservative.
// The workload is killed (simulated kill -9, synced data kept) at every
// WAL rotation boundary and at mid-WAL points; after reopen the
// tombstone-age counters -- the full delete-stats line, including the
// latency percentiles, and the next TTL deadline -- must be bit-identical
// to the uncrashed run at the same point.
//
// Why equality is achievable: every write syncs, so the recovered tree
// and memtable equal the pre-crash ones; written is journaled at memtable
// swap and recounted from the WAL suffix; persisted/superseded/latency
// exist only in the MANIFEST journal, which VersionSet folds once per
// durably installed edit, so replaying the journaled deltas performs the
// identical Histogram::Merge sequence. The range-delete and separated-
// value legs check the range and value-purge clocks the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"

namespace acheron {
namespace {

struct JournalOp {
  enum Kind { kPut, kDelete, kDeleteRange, kFlush };
  JournalOp(Kind k, std::string key_in, std::string end_in = "")
      : kind(k), key(std::move(key_in)), end(std::move(end_in)) {}
  Kind kind;
  std::string key;
  std::string end;  // kDeleteRange only: the exclusive end of [key, end)
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04d", i);
  return std::string(buf);
}

// Deterministic script: phases of sync'd puts/deletes separated by
// explicit flushes (each flush rotates the WAL). Deletes target keys from
// earlier phases so compactions both persist and supersede tombstones.
std::vector<JournalOp> Script() {
  std::vector<JournalOp> ops;
  for (int phase = 0; phase < 5; phase++) {
    for (int i = 0; i < 8; i++) {
      const int n = phase * 8 + i;
      if (phase > 0 && i % 3 == 2) {
        // Delete a key written two phases of writes ago (re-put later by
        // some phases, so a slice of these become superseded).
        ops.push_back({JournalOp::kDelete, Key(n - 10)});
      } else {
        ops.push_back({JournalOp::kPut, Key(n % 30)});
      }
    }
    ops.push_back({JournalOp::kFlush, ""});
  }
  return ops;
}

// Like Script(), with one more phase and a range delete in each phase but
// the first (over four keys the phase before wrote), then a tail of puts
// that carries the clock past D_th so the range tombstones persist and,
// with separation on, vLog GC purges the deleted values.
std::vector<JournalOp> RangeScript() {
  std::vector<JournalOp> ops;
  for (int phase = 0; phase < 6; phase++) {
    for (int i = 0; i < 8; i++) {
      const int n = phase * 8 + i;
      if (phase > 0 && i == 3) {
        ops.push_back({JournalOp::kDeleteRange, Key(n - 8), Key(n - 4)});
      } else if (phase > 0 && i % 3 == 2) {
        ops.push_back({JournalOp::kDelete, Key(n - 10)});
      } else {
        ops.push_back({JournalOp::kPut, Key(n % 30)});
      }
    }
    ops.push_back({JournalOp::kFlush, ""});
  }
  for (int tail = 0; tail < 3; tail++) {
    for (int i = 0; i < 60; i++) {
      ops.push_back({JournalOp::kPut, Key(100 + i)});
    }
    ops.push_back({JournalOp::kFlush, ""});
  }
  return ops;
}

class RecoveryJournalTest : public ::testing::Test {
 protected:
  Options Opts(Env* env) {
    Options o;
    o.env = env;
    o.create_if_missing = true;
    o.write_buffer_size = 256 << 10;  // flush points are explicit
    o.delete_persistence_threshold = 400;
    if (separate_values_) {
      o.value_separation_threshold = 32;
      o.vlog_segment_size = 2 << 10;
    }
    return o;
  }

  // "v<i>", padded past 32 bytes in the separated leg so it separates.
  std::string Value(size_t i) const {
    return std::string(separate_values_ ? 40 : 1, 'v') + std::to_string(i);
  }

  struct Probe {
    std::string delete_stats;
    std::string ttl_deadline;
  };

  Probe Capture(DB* db) {
    // Quiesce first so the capture point does not depend on round timing.
    EXPECT_TRUE(db->WaitForCompactions().ok());
    Probe p;
    EXPECT_TRUE(db->GetProperty("acheron.delete-stats", &p.delete_stats));
    EXPECT_TRUE(db->GetProperty("acheron.next-ttl-deadline", &p.ttl_deadline));
    return p;
  }

  // Run the script prefix [0, upto) against |db|; every write syncs.
  void RunPrefix(DB* db, const std::vector<JournalOp>& ops, size_t upto) {
    WriteOptions wo;
    wo.sync = true;
    for (size_t i = 0; i < upto; i++) {
      switch (ops[i].kind) {
        case JournalOp::kPut:
          ASSERT_TRUE(db->Put(wo, ops[i].key, Value(i)).ok());
          break;
        case JournalOp::kDelete:
          ASSERT_TRUE(db->Delete(wo, ops[i].key).ok());
          break;
        case JournalOp::kDeleteRange:
          ASSERT_TRUE(db->DeleteRange(wo, ops[i].key, ops[i].end).ok());
          break;
        case JournalOp::kFlush:
          ASSERT_TRUE(db->FlushMemTable().ok());
          break;
      }
    }
  }

  // Run the prefix and crash-reopen; return the recovered probe.
  Probe CrashedProbe(const std::vector<JournalOp>& ops, size_t kill_at,
                     Probe* live) {
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv fault(base.get());

    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
    RunPrefix(db, ops, kill_at);
    if (live != nullptr) *live = Capture(db);

    // kill -9: all further file ops fail; synced bytes survive restart.
    fault.CrashAfterOp(static_cast<int64_t>(fault.FileOpCount()));
    delete db;
    EXPECT_TRUE(
        fault
            .CrashAndRestart(FaultInjectionEnv::CrashDataPolicy::kDropUnsynced)
            .ok());

    db = nullptr;
    EXPECT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
    Probe after = Capture(db);
    delete db;
    return after;
  }

  // Run the same prefix, close cleanly, reopen; return the reopened probe.
  // Recovery flushes the replayed WAL memtable (and may then compact), so
  // this -- not the still-running pre-crash instance -- is the state a
  // correct crash recovery must reproduce exactly.
  Probe CleanReopenProbe(const std::vector<JournalOp>& ops, size_t kill_at) {
    std::unique_ptr<Env> base(NewMemEnv());
    FaultInjectionEnv fault(base.get());
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
    RunPrefix(db, ops, kill_at);
    EXPECT_TRUE(db->WaitForCompactions().ok());
    delete db;  // clean close
    EXPECT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
    Probe p = Capture(db);
    delete db;
    return p;
  }

  void CheckKillPoint(const std::vector<JournalOp>& ops, size_t kill_at,
                      bool expect_live_identical) {
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    Probe live;
    const Probe after = CrashedProbe(ops, kill_at, &live);
    if (expect_live_identical) {
      // At a rotation boundary the WAL is empty: recovery replays nothing
      // and must land on the pre-crash state itself, bit for bit -- the
      // whole delete-stats line (written/persisted/superseded, live
      // census, latency percentiles) and the TTL deadline.
      EXPECT_EQ(live.delete_stats, after.delete_stats);
      EXPECT_EQ(live.ttl_deadline, after.ttl_deadline);
    }
    // At every kill point, crashing must be indistinguishable from a clean
    // shutdown: same journal replay, same WAL recount, same open-time
    // flush and compactions.
    const Probe control = CleanReopenProbe(ops, kill_at);
    EXPECT_EQ(control.delete_stats, after.delete_stats);
    EXPECT_EQ(control.ttl_deadline, after.ttl_deadline);
  }

  // Every rotation boundary of RangeScript(), then the uncrashed full run's
  // stats, so each leg can show its clocks moved at all.
  DeleteStats CheckRangeScript() {
    const std::vector<JournalOp> ops = RangeScript();
    for (size_t i = 0; i < ops.size(); i++) {
      if (ops[i].kind == JournalOp::kFlush) {
        CheckKillPoint(ops, i + 1, /*expect_live_identical=*/true);
        if (::testing::Test::HasFatalFailure()) return DeleteStats();
      }
    }
    std::unique_ptr<Env> env(NewMemEnv());
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(Opts(env.get()), "/journaldb", &db).ok());
    RunPrefix(db, ops, ops.size());
    EXPECT_TRUE(db->WaitForCompactions().ok());
    const DeleteStats ds = db->GetDeleteStats();
    delete db;
    return ds;
  }

  bool separate_values_ = false;
};

TEST_F(RecoveryJournalTest, KillAtEveryWalRotationBoundary) {
  const std::vector<JournalOp> ops = Script();
  for (size_t i = 0; i < ops.size(); i++) {
    if (ops[i].kind == JournalOp::kFlush) {
      CheckKillPoint(ops, i + 1, /*expect_live_identical=*/true);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(RecoveryJournalTest, KillMidWal) {
  const std::vector<JournalOp> ops = Script();
  // Mid-WAL points: tombstones live in the WAL suffix and must be exactly
  // recounted on top of the journaled written value.
  // The live instance's state is NOT the oracle here (recovery flushes the
  // replayed memtable, which a running instance would not have done); the
  // clean-shutdown control inside CheckKillPoint is.
  for (size_t i = 4; i < ops.size(); i += 9) {
    CheckKillPoint(ops, i, /*expect_live_identical=*/false);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(RecoveryJournalTest, RangeDeletesKillAtEveryWalRotationBoundary) {
  const DeleteStats ds = CheckRangeScript();
  EXPECT_GT(ds.range_deletes_persisted, 0u) << ds.ToString();
  EXPECT_GT(ds.tombstones_persisted, 0u) << ds.ToString();
}

TEST_F(RecoveryJournalTest, SeparatedValuesKillAtEveryWalRotationBoundary) {
  separate_values_ = true;
  const DeleteStats ds = CheckRangeScript();
  EXPECT_GT(ds.values_purged, 0u) << ds.ToString();
  EXPECT_GT(ds.range_deletes_persisted, 0u) << ds.ToString();
}

TEST_F(RecoveryJournalTest, DoubleKillKeepsCountersExact) {
  // Crash, recover, write one more phase, crash again: the journal written
  // by the *recovered* instance must be as exact as the original's.
  const std::vector<JournalOp> ops = Script();
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fault(base.get());

  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
  RunPrefix(db, ops, 2 * 9 + 4);  // two phases plus a mid-WAL tail
  fault.CrashAfterOp(static_cast<int64_t>(fault.FileOpCount()));
  delete db;
  ASSERT_TRUE(
      fault.CrashAndRestart(FaultInjectionEnv::CrashDataPolicy::kDropUnsynced)
          .ok());

  ASSERT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
  WriteOptions wo;
  wo.sync = true;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(db->Put(wo, "x" + std::to_string(i), "v").ok());
    if (i == 2) {
      ASSERT_TRUE(db->Delete(wo, "k0001").ok());
    }
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  const Probe before = Capture(db);
  fault.CrashAfterOp(static_cast<int64_t>(fault.FileOpCount()));
  delete db;
  ASSERT_TRUE(
      fault.CrashAndRestart(FaultInjectionEnv::CrashDataPolicy::kDropUnsynced)
          .ok());

  ASSERT_TRUE(DB::Open(Opts(&fault), "/journaldb", &db).ok());
  const Probe after = Capture(db);
  EXPECT_EQ(before.delete_stats, after.delete_stats);
  EXPECT_EQ(before.ttl_deadline, after.ttl_deadline);
  delete db;
}

}  // namespace
}  // namespace acheron
