// The soft-error injection matrix: arm a ONE-SHOT soft fault (transient
// EIO or ENOSPC) at every mutating file-op index of the scripted crash
// workload -- with background retries enabled -- and assert the
// transient-fault-tolerance contract from DESIGN.md ("Error handling &
// degraded mode"):
//
//   1. no acked write is ever lost (in-session, and across a reopen);
//   2. a soft fault never drives the engine fatal (errors_fatal == 0);
//   3. at most the one logical op carrying the faulted file op may surface
//      an error to its caller; everything after it succeeds;
//   4. background work resumes: after the episode the engine settles to a
//      clean quiescent state ("state=ok");
//   5. the FADE D_th bound survives the episode (churn check, strided);
//   6. an ENOSPC episode round-trips through degraded read-only mode and
//      back (one-shot legs here; persistent-fault legs in the NoSpace
//      tests below).
//
// Default runs stride the expensive TTL churn; set
// ACHERON_CRASH_MATRIX_FULL=1 for the exhaustive version. See TESTING.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/stats.h"
#include "tests/crash_harness.h"

namespace acheron {
namespace {

using crash::CrashRun;
using crash::LogicalOp;
using SoftFaultClass = FaultInjectionEnv::SoftFaultClass;

bool FullMatrix() {
  const char* e = std::getenv("ACHERON_CRASH_MATRIX_FULL");
  return e != nullptr && e[0] == '1';
}

std::string Repro(const std::string& mode, const char* cls, uint64_t k,
                  uint64_t total) {
  std::ostringstream out;
  out << "[soft-error repro: mode=" << mode << " class=" << cls << " k=" << k
      << "/" << total << "]";
  return out.str();
}

// Visible state implied by the logical ops. With |include_unacked| false,
// applies exactly the acked ops -- the precise in-session model (a failed
// write never reaches the memtable). With true, also applies un-acked ops:
// after a reopen a record whose WAL append succeeded but whose sync failed
// was never acked yet legally resurfaces from replay.
std::map<std::string, std::string> ApplyOps(const std::vector<LogicalOp>& ops,
                                            bool include_unacked) {
  std::map<std::string, std::string> m;
  for (const LogicalOp& op : ops) {
    if (op.kind != LogicalOp::kWrite) continue;
    if (!op.acked && !include_unacked) continue;
    for (const crash::Entry& e : op.entries) {
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

// Drives the scripted workload against an open DB, recording per-op acks.
// Unlike CrashRun::RunWorkload the DB handle stays open, so the matrix can
// check in-session state before exercising close + reopen.
void RunScript(DB* db, std::vector<LogicalOp>* ops) {
  for (LogicalOp& op : *ops) {
    switch (op.kind) {
      case LogicalOp::kWrite: {
        WriteBatch batch;
        for (const crash::Entry& e : op.entries) {
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
        break;
      }
      case LogicalOp::kFlush:
        op.acked = db->FlushMemTable().ok();
        break;
      case LogicalOp::kCompact:
        db->CompactRange(nullptr, nullptr);
        op.acked = true;
        break;
    }
  }
}

// Open the run's DB. A one-shot fault may land inside recovery, in which
// case Open must surface it cleanly and a retried Open (fault consumed)
// must succeed with no damage.
void OpenForRun(CrashRun& run, const std::string& repro, DB** dbp) {
  *dbp = nullptr;
  Status s = DB::Open(run.DbOptions(), run.dbname(), dbp);
  if (!s.ok()) {
    ASSERT_GE(run.env()->SoftFaultsInjected(), 1u)
        << repro << " open failed without the injected fault: "
        << s.ToString();
    s = DB::Open(run.DbOptions(), run.dbname(), dbp);
    ASSERT_TRUE(s.ok()) << repro
                        << " retried open failed: " << s.ToString();
  }
}

// Runs every fault index k with k % nshards == shard. With |vlog| set, the
// key-value-separated workload runs instead, so the enumerated indices land
// on vLog appends, syncs, head rotations/seals, and the GC relocation's
// table rewrites and segment seal -- each of which must honor the same
// transient-fault contract as every other file op.
void RunSoftErrorMatrix(SoftFaultClass cls, uint64_t shard, uint64_t nshards,
                        bool vlog = false) {
  const bool full = FullMatrix();
  const char* cls_name =
      cls == SoftFaultClass::kTransientEio ? "eio" : "nospace";
  const std::string mode = vlog ? "vlog" : "point";
  auto make_run = [&] {
    CrashRun r;
    r.set_max_background_retries(5);  // the machinery under test
    if (vlog) r.set_value_separation(crash::kVlogThreshold);
    return r;
  };
  auto script = [&] {
    return vlog ? crash::ScriptedVlogWorkload() : crash::ScriptedWorkload();
  };

  // Dry run (twice): learn the fault-free op count of the workload --
  // sampled with the DB still open, so every enumerated index fires before
  // the per-k checks run -- and assert the schedule is deterministic,
  // which is what makes k a sufficient repro.
  uint64_t total = 0;
  {
    CrashRun dry = make_run();
    DB* db = nullptr;
    OpenForRun(dry, "[soft-error dry run]", &db);
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<LogicalOp> ops = script();
    RunScript(db, &ops);
    for (const LogicalOp& op : ops) {
      ASSERT_TRUE(op.acked) << "dry run must ack every op";
    }
    total = dry.env()->FileOpCount();
    ASSERT_GT(total, 0u);
    delete db;

    CrashRun dry2 = make_run();
    DB* db2 = nullptr;
    OpenForRun(dry2, "[soft-error dry run 2]", &db2);
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<LogicalOp> ops2 = script();
    RunScript(db2, &ops2);
    const uint64_t total2 = dry2.env()->FileOpCount();
    delete db2;
    ASSERT_EQ(total, total2)
        << "file-op schedule must be deterministic for k to be a repro";
  }

  for (uint64_t k = shard; k < total; k += nshards) {
    const std::string repro = Repro(mode, cls_name, k, total);
    CrashRun run = make_run();
    run.env()->FailOpOnce(static_cast<int64_t>(k), cls);
    DB* db = nullptr;
    OpenForRun(run, repro, &db);
    if (::testing::Test::HasFatalFailure()) return;
    std::vector<LogicalOp> ops = script();
    RunScript(db, &ops);

    // The armed index lies inside the fault-free schedule, so it fired.
    EXPECT_GE(run.env()->SoftFaultsInjected(), 1u)
        << repro << " armed fault never fired";

    // Contract 3: at most the one logical op carrying the faulted file op
    // surfaces an error; and a transient EIO never escapes the flush retry
    // loop (only a WAL-path fault may fail its own write).
    int unacked = 0, unacked_flushes = 0;
    for (const LogicalOp& op : ops) {
      if (op.acked) continue;
      unacked++;
      if (op.kind == LogicalOp::kFlush) unacked_flushes++;
    }
    EXPECT_LE(unacked, 1) << repro << " one-shot fault failed " << unacked
                          << " logical ops";
    if (cls == SoftFaultClass::kTransientEio) {
      EXPECT_EQ(0, unacked_flushes)
          << repro << " transient EIO surfaced through the flush retry loop";
    }

    // Contract 4: the engine settles to a clean state. An ENOSPC fault on
    // the final ops may leave the DB degraded with no later write to heal
    // it; Resume() is the documented recovery hook for that.
    Status s = db->Resume();
    EXPECT_TRUE(s.ok()) << repro << " Resume failed: " << s.ToString();
    s = db->WaitForCompactions();
    EXPECT_TRUE(s.ok()) << repro
                        << " WaitForCompactions failed: " << s.ToString();
    std::string prop;
    ASSERT_TRUE(db->GetProperty("acheron.background-error", &prop)) << repro;
    EXPECT_NE(prop.find("state=ok"), std::string::npos) << repro << " " << prop;

    // Contract 2: soft faults never go fatal.
    const InternalStats st = db->GetStats();
    EXPECT_EQ(0u, st.errors_fatal) << repro << " soft fault escalated fatal";

    // Contract 1, in-session: visible state equals the acked model exactly
    // (the failed write, if any, never reached the memtable).
    const auto scan = crash::ScanAll(db, repro);
    EXPECT_EQ(ApplyOps(ops, false), scan)
        << repro << " in-session state diverged from the acked model";
    delete db;
    if (::testing::Test::HasFatalFailure()) return;

    // Contract 1, across reopen: everything acked is still there. The one
    // un-acked record may or may not resurface from the WAL (its append
    // may have preceded the faulted sync), so both models are legal.
    DB* re = nullptr;
    s = DB::Open(run.DbOptions(), run.dbname(), &re);
    ASSERT_TRUE(s.ok()) << repro << " reopen failed: " << s.ToString();
    const auto rescan = crash::ScanAll(re, repro);
    const auto acked_model = ApplyOps(ops, false);
    const auto with_unacked = ApplyOps(ops, true);
    EXPECT_TRUE(rescan == acked_model || rescan == with_unacked)
        << repro << " reopened state matches neither model: got "
        << crash::DescribeState(rescan) << " want "
        << crash::DescribeState(acked_model) << " or "
        << crash::DescribeState(with_unacked);

    // Contract 5: the FADE bound survives the episode and the reopen.
    // The churn dominates matrix cost; stride it unless FULL.
    if (full || k % 4 == 0) {
      crash::CheckDeletePersistenceBound(re, repro);
    }
    delete re;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Transient EIO at every index, sharded for ctest.
TEST(SoftErrorMatrixBackground, Shard0) {
  RunSoftErrorMatrix(SoftFaultClass::kTransientEio, 0, 3);
}
TEST(SoftErrorMatrixBackground, Shard1) {
  RunSoftErrorMatrix(SoftFaultClass::kTransientEio, 1, 3);
}
TEST(SoftErrorMatrixBackground, Shard2) {
  RunSoftErrorMatrix(SoftFaultClass::kTransientEio, 2, 3);
}

// The key-value-separated workload through the matrix: the one-shot fault
// indices now land on vLog appends, write-path syncs, head rotations and
// seals, and the GC relocation's table rewrites -- a faulted separation
// fails only its own write, a faulted rotation or GC retries behind the
// background-error state machine, and no vLog fault may ever go fatal or
// lose an acked value.
TEST(SoftErrorMatrixVlogBackground, Shard0) {
  RunSoftErrorMatrix(SoftFaultClass::kTransientEio, 0, 2, true);
}
TEST(SoftErrorMatrixVlogBackground, Shard1) {
  RunSoftErrorMatrix(SoftFaultClass::kTransientEio, 1, 2, true);
}
TEST(SoftErrorMatrixVlogNoSpace, Background) {
  RunSoftErrorMatrix(SoftFaultClass::kNoSpace, 0, FullMatrix() ? 1 : 5, true);
}

// One-shot ENOSPC round-trips: degraded read-only in, recovered out.
// Strided by default (the EIO legs already cover every index).
TEST(SoftErrorMatrixNoSpace, Background) {
  RunSoftErrorMatrix(SoftFaultClass::kNoSpace, 0, FullMatrix() ? 1 : 5);
}

// ---------------- Persistent-ENOSPC degradation legs ----------------

class NoSpaceTest : public ::testing::Test {
 protected:
  NoSpaceTest() : base_(NewMemEnv()), fault_(base_.get()), db_(nullptr) {
    options_.env = &fault_;
    options_.create_if_missing = true;
    options_.write_buffer_size = 64 << 10;
  }
  ~NoSpaceTest() override { delete db_; }

  Status Open() {
    delete db_;
    db_ = nullptr;
    return DB::Open(options_, "/db", &db_);
  }

  std::string Get(const std::string& k) {
    std::string v;
    Status s = db_->Get(ReadOptions(), k, &v);
    return s.ok() ? v : (s.IsNotFound() ? "NOT_FOUND" : "ERR:" + s.ToString());
  }

  std::string ErrorState() {
    std::string prop;
    EXPECT_TRUE(db_->GetProperty("acheron.background-error", &prop));
    return prop;
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv fault_;
  Options options_;
  DB* db_;
};

TEST_F(NoSpaceTest, DegradesToReadOnlyAndManualResume) {
  options_.space_probe_interval_micros = 0;  // no watcher: manual Resume only
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v1").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k2", "v2").ok());

  fault_.SetPersistentSoftFault(SoftFaultClass::kNoSpace);
  Status s = db_->Put(WriteOptions(), "k3", "v3");
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_NE(ErrorState().find("state=degraded-read-only"), std::string::npos);

  // Writes keep failing NoSpace while degraded...
  s = db_->Put(WriteOptions(), "k4", "v4");
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  // ...but the lock-free read path stays fully live: table and memtable
  // data both readable, iterators included.
  EXPECT_EQ("v1", Get("k1"));
  EXPECT_EQ("v2", Get("k2"));
  EXPECT_EQ("NOT_FOUND", Get("k3"));

  // Resume with the disk still full reports the space error.
  EXPECT_TRUE(db_->Resume().IsNoSpace());
  EXPECT_NE(ErrorState().find("state=degraded-read-only"), std::string::npos);

  // Space returns: Resume succeeds, writes work, the episode is counted.
  fault_.ClearPersistentSoftFault();
  EXPECT_TRUE(db_->Resume().ok());
  EXPECT_NE(ErrorState().find("state=ok"), std::string::npos);
  ASSERT_TRUE(db_->Put(WriteOptions(), "k5", "v5").ok());
  EXPECT_EQ("v5", Get("k5"));
  EXPECT_EQ(1u, db_->GetStats().resume_count);
}

TEST_F(NoSpaceTest, SpaceWatcherAutoResumes) {
  options_.space_probe_interval_micros = 2 * 1000;  // probe every 2ms
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v1").ok());

  fault_.SetPersistentSoftFault(SoftFaultClass::kNoSpace);
  EXPECT_TRUE(db_->Put(WriteOptions(), "k2", "v2").IsNoSpace());
  EXPECT_NE(ErrorState().find("state=degraded-read-only"), std::string::npos);

  fault_.ClearPersistentSoftFault();
  // No writes issued: recovery must come from the background space
  // watcher's probe alone. Generous deadline for loaded CI machines.
  bool resumed = false;
  for (int i = 0; i < 10 * 1000 && !resumed; i++) {
    resumed = ErrorState().find("state=ok") != std::string::npos;
    if (!resumed) base_->SleepForMicroseconds(1000);
  }
  EXPECT_TRUE(resumed) << "space watcher never resumed: " << ErrorState();
  ASSERT_TRUE(db_->Put(WriteOptions(), "k3", "v3").ok());
  EXPECT_EQ("v3", Get("k3"));
  EXPECT_GE(db_->GetStats().resume_count, 1u);
}

TEST_F(NoSpaceTest, DegradedStateSurvivesUntilProbeNotReopen) {
  // A reopen while space is still exhausted fails cleanly (recovery must
  // write a fresh WAL); after space returns the same reopen succeeds with
  // every acked write intact.
  options_.space_probe_interval_micros = 0;
  ASSERT_TRUE(Open().ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v1").ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());

  fault_.SetPersistentSoftFault(SoftFaultClass::kNoSpace);
  EXPECT_TRUE(db_->Put(WriteOptions(), "k2", "v2").IsNoSpace());
  delete db_;
  db_ = nullptr;
  EXPECT_FALSE(Open().ok());

  fault_.ClearPersistentSoftFault();
  ASSERT_TRUE(Open().ok());
  EXPECT_EQ("v1", Get("k1"));
  ASSERT_TRUE(db_->Put(WriteOptions(), "k3", "v3").ok());
  EXPECT_EQ("v3", Get("k3"));
}

}  // namespace
}  // namespace acheron
