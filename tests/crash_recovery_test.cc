// The crash-recovery matrix: simulate a machine crash at every file-op
// index of a scripted workload (plus torn tails inside the last unsynced
// WAL/MANIFEST append), reopen (or RepairDB), and check the five recovery
// invariants from DESIGN.md. Also unit-tests the FaultInjectionEnv crash
// simulator itself, and pins regression tests for the recovery bugs the
// matrix originally surfaced.
//
// Default runs use a bounded matrix (sampled torn offsets, strided churn
// and repair legs); set ACHERON_CRASH_MATRIX_FULL=1 for the exhaustive
// version. See TESTING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "tests/crash_harness.h"

namespace acheron {
namespace {

using crash::CrashRun;
using CrashDataPolicy = FaultInjectionEnv::CrashDataPolicy;

// ---------------- Crash-simulator unit tests ----------------

class CrashSimTest : public ::testing::Test {
 protected:
  CrashSimTest() : base_(NewMemEnv()), env_(base_.get()) {}

  void WriteFile(const std::string& fname, const std::string& a,
                 const std::string& synced_upto_here,
                 const std::string& b = std::string()) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(env_.NewWritableFile(fname, &f).ok());
    if (!a.empty()) {
      ASSERT_TRUE(f->Append(a).ok());
    }
    if (!synced_upto_here.empty()) {
      ASSERT_TRUE(f->Append(synced_upto_here).ok());
    }
    ASSERT_TRUE(f->Sync().ok());
    if (!b.empty()) {
      ASSERT_TRUE(f->Append(b).ok());
    }
    ASSERT_TRUE(f->Close().ok());
  }

  std::string ReadAll(const std::string& fname) {
    std::string data;
    EXPECT_TRUE(env_.ReadFileToString(fname, &data).ok());
    return data;
  }

  std::unique_ptr<Env> base_;
  FaultInjectionEnv env_;
};

TEST_F(CrashSimTest, CountsMutatingOpsAndTracksSyncedBytes) {
  ASSERT_EQ(0u, env_.FileOpCount());
  WriteFile("/f", "aaaa", "bb", "ccc");
  // create + append + append + sync + append + close = 6 mutating ops.
  EXPECT_EQ(6u, env_.FileOpCount());

  auto files = env_.TrackedFiles();
  ASSERT_EQ(1u, files.count("/f"));
  EXPECT_EQ(6u, files["/f"].synced_bytes);
  EXPECT_EQ(9u, files["/f"].written_bytes);
  EXPECT_EQ(3u, files["/f"].last_append_bytes);
}

TEST_F(CrashSimTest, CrashAfterOpFailsTheIndexedOpAndEverythingAfter) {
  env_.CrashAfterOp(2);  // create, append succeed; 2nd append fails
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_.NewWritableFile("/f", &f).ok());
  ASSERT_TRUE(f->Append("aa").ok());
  EXPECT_FALSE(env_.crashed());
  Status s = f->Append("bb");
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(env_.crashed());
  EXPECT_EQ("append", env_.crashed_op().kind);
  EXPECT_EQ("/f", env_.crashed_op().fname);
  EXPECT_EQ(2u, env_.crashed_op().append_size);
  // Every later mutating op keeps failing...
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(env_.RemoveFile("/f").ok());
  EXPECT_FALSE(env_.RenameFile("/f", "/g").ok());
  // ...while reads and metadata queries still work.
  EXPECT_TRUE(env_.FileExists("/f"));
  EXPECT_EQ("aa", ReadAll("/f"));
}

TEST_F(CrashSimTest, RestartDropsUnsyncedData) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  ASSERT_TRUE(env_.CrashAndRestart().ok());
  EXPECT_EQ("aaaabb", ReadAll("/f"));
  // The surviving prefix is the new durable baseline.
  auto files = env_.TrackedFiles();
  EXPECT_EQ(6u, files["/f"].synced_bytes);
  EXPECT_EQ(6u, files["/f"].written_bytes);
}

TEST_F(CrashSimTest, RestartKeepWrittenPreservesEverything) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  ASSERT_TRUE(env_.CrashAndRestart(CrashDataPolicy::kKeepWritten).ok());
  EXPECT_EQ("aaaabbccc", ReadAll("/f"));
}

TEST_F(CrashSimTest, RestartHonorsTornTailOverride) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  // Keep one byte of the unsynced tail: a torn append.
  ASSERT_TRUE(env_.CrashAndRestart(CrashDataPolicy::kDropUnsynced,
                                   {{"/f", 7}})
                  .ok());
  EXPECT_EQ("aaaabbc", ReadAll("/f"));
}

TEST_F(CrashSimTest, TornTailOverrideClampsToSyncedAndWritten) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  // Below the synced prefix: clamped up (synced data cannot be lost).
  ASSERT_TRUE(env_.CrashAndRestart(CrashDataPolicy::kDropUnsynced,
                                   {{"/f", 1}})
                  .ok());
  EXPECT_EQ("aaaabb", ReadAll("/f"));
}

TEST_F(CrashSimTest, RenameAndRemoveMoveTracking) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  ASSERT_TRUE(env_.RenameFile("/f", "/g").ok());
  auto files = env_.TrackedFiles();
  EXPECT_EQ(0u, files.count("/f"));
  ASSERT_EQ(1u, files.count("/g"));
  EXPECT_EQ(9u, files["/g"].written_bytes);
  ASSERT_TRUE(env_.CrashAndRestart().ok());
  EXPECT_EQ("aaaabb", ReadAll("/g"));

  ASSERT_TRUE(env_.RemoveFile("/g").ok());
  EXPECT_EQ(0u, env_.TrackedFiles().count("/g"));
}

TEST_F(CrashSimTest, RestartRearmsCleanly) {
  WriteFile("/f", "aaaa", "bb", "ccc");
  env_.CrashAfterOp(0);
  std::unique_ptr<WritableFile> f;
  EXPECT_FALSE(env_.NewWritableFile("/g", &f).ok());
  EXPECT_TRUE(env_.crashed());
  ASSERT_TRUE(env_.CrashAndRestart().ok());
  EXPECT_FALSE(env_.crashed());
  // Disarmed: ops work again.
  ASSERT_TRUE(env_.NewWritableFile("/g", &f).ok());
  ASSERT_TRUE(f->Append("x").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ("x", ReadAll("/g"));
}

// ---------------- Pinned regression tests ----------------
//
// First surfaced by the matrix (crash at the op index right after the
// MANIFEST sync of the first flush): table files were only
// Sync()ed when Options::sync_writes was set, so the synced manifest could
// reference a table whose bytes evaporated with the crash.

TEST(CrashRecoveryRegression, FlushedTableSurvivesMachineCrash) {
  CrashRun run;
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());  // acked: durable from here on
  delete db;

  ASSERT_TRUE(run.env()->CrashAndRestart().ok());
  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  std::string v;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &v).ok())
      << "flushed table lost unsynced bytes behind a synced manifest";
  EXPECT_EQ("v", v);
  delete db;
}

TEST(CrashRecoveryRegression, CompactionOutputSurvivesMachineCrash) {
  CrashRun run;
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  db->CompactRange(nullptr, nullptr);  // rewrites into deeper levels
  ASSERT_TRUE(db->WaitForCompactions().ok());
  delete db;

  ASSERT_TRUE(run.env()->CrashAndRestart().ok());
  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  std::string v;
  for (int i = 0; i < 20; i++) {
    EXPECT_TRUE(db->Get(ReadOptions(), "k" + std::to_string(i), &v).ok())
        << "key " << i;
  }
  delete db;
}

// ---------------- The matrix ----------------

bool FullMatrix() {
  const char* e = std::getenv("ACHERON_CRASH_MATRIX_FULL");
  return e != nullptr && e[0] == '1';
}

// Files whose unsynced tail can tear mid-append: the log-structured
// appenders (WAL, MANIFEST, vLog segments). Table files are excluded --
// they sync before install, so their torn tails are the "drop" leg's
// problem, not a distinct recovery surface.
bool IsTornTailCandidate(const std::string& fname) {
  return fname.find(".log") != std::string::npos ||
         fname.find("MANIFEST-") != std::string::npos ||
         fname.find(".vlog") != std::string::npos;
}

std::string Repro(const std::string& mode, uint64_t k, uint64_t total,
                  const FaultInjectionEnv::CrashedOpInfo& op,
                  const std::string& leg, const std::string& torn) {
  std::ostringstream out;
  out << "[crash-matrix repro: mode=" << mode << " k=" << k << "/" << total
      << " crashed_op=" << (op.kind.empty() ? "none" : op.kind);
  if (!op.fname.empty()) {
    out << "(" << op.fname;
    if (op.kind == "append") out << "+" << op.append_size << "B";
    out << ")";
  }
  out << " leg=" << leg;
  if (!torn.empty()) out << " torn=" << torn;
  out << "]";
  return out.str();
}

// Reopen the recovered DB and run the invariant checks.
void ReopenAndCheck(CrashRun& run, const std::string& repro, bool check_ttl,
                    bool check_vlog = false) {
  DB* db = nullptr;
  Status s = DB::Open(run.DbOptions(), run.dbname(), &db);
  ASSERT_TRUE(s.ok()) << repro << " reopen failed: " << s.ToString();
  crash::CheckRecoveredState(db, run.result(), repro);
  if (check_vlog) crash::CheckVlogRecoveredState(db, run.result(), repro);
  if (check_ttl) crash::CheckDeletePersistenceBound(db, repro);
  delete db;
}

// Invariant 5: strip CURRENT and every MANIFEST from the crash state, then
// RepairDB must succeed and the repaired DB must still satisfy the
// workload-prefix invariants.
void RepairAndCheck(CrashRun& run, const std::string& repro, bool check_ttl,
                    bool check_vlog = false) {
  Env* env = run.env();
  std::vector<std::string> children;
  if (!env->GetChildren(run.dbname(), &children).ok()) return;
  size_t remaining = 0;
  for (const std::string& c : children) {
    if (c == "CURRENT" || c.rfind("MANIFEST-", 0) == 0) {
      ASSERT_TRUE(env->RemoveFile(run.dbname() + "/" + c).ok()) << repro;
    } else {
      remaining++;
    }
  }
  if (remaining == 0) {
    // The crash predates any WAL or table: stripping the metadata leaves
    // nothing to repair (RepairDB on a fileless directory reports IOError
    // by design), so the repair invariant is vacuous at this k.
    return;
  }
  Status s = RepairDB(run.dbname(), run.DbOptions());
  ASSERT_TRUE(s.ok()) << repro << " RepairDB failed: " << s.ToString();
  ReopenAndCheck(run, repro, check_ttl, check_vlog);
}

// Runs every crash point k with k % nshards == shard (sharded so ctest can
// parallelize the matrix). Per crash point:
//   leg A ("drop"):  machine crash, unsynced bytes gone, reopen.
//   leg B ("torn"):  same, but a torn tail survives inside the last
//                    unsynced WAL/MANIFEST append (sampled offsets by
//                    default, every byte offset under FULL).
//   leg C ("keep"):  process crash, everything written survives, reopen.
//   leg D ("repair"): machine crash, CURRENT+MANIFEST destroyed, RepairDB.
void RunCrashMatrix(uint64_t shard, uint64_t nshards, bool range_delete = false,
                    bool vlog = false) {
  const bool full = FullMatrix();
  const std::string mode =
      range_delete ? "range-delete" : (vlog ? "vlog" : "point");
  auto make_run = [&] {
    CrashRun r;
    if (range_delete) r.set_script(crash::ScriptedRangeDeleteWorkload());
    if (vlog) {
      r.set_script(crash::ScriptedVlogWorkload());
      r.set_value_separation(crash::kVlogThreshold);
    }
    return r;
  };

  // Dry run (twice): learn the op count and assert the schedule is
  // deterministic -- the property that makes "k" a sufficient repro.
  uint64_t total = 0;
  {
    CrashRun dry = make_run();
    dry.RunWorkload(-1);
    ASSERT_TRUE(dry.result().open_status.ok());
    for (const crash::LogicalOp& op : dry.result().ops) {
      ASSERT_TRUE(op.acked) << "dry run must ack every op";
    }
    total = dry.env()->FileOpCount();
    ASSERT_GT(total, 0u);
    CrashRun dry2 = make_run();
    dry2.RunWorkload(-1);
    ASSERT_EQ(total, dry2.env()->FileOpCount())
        << "file-op schedule must be deterministic for k to be a repro";
  }

  for (uint64_t k = shard; k <= total; k += nshards) {
    // ---- leg A: machine crash at op k. ----
    CrashRun run = make_run();
    run.RunWorkload(static_cast<int64_t>(k));
    if (k < total) {
      ASSERT_TRUE(run.env()->crashed())
          << "crash point " << k << "/" << total << " never reached";
    }
    const auto crashed_op = run.env()->crashed_op();
    const auto files = run.env()->TrackedFiles();
    ASSERT_TRUE(run.env()->CrashAndRestart().ok());
    // The TTL churn (invariant 4) dominates matrix cost; stride it unless
    // the full matrix was requested.
    const bool check_ttl = full || (k % 4 == 0);
    ReopenAndCheck(run, Repro(mode, k, total, crashed_op, "drop", ""),
                   check_ttl, vlog);
    if (::testing::Test::HasFatalFailure()) return;

    // ---- leg B: torn tails within the last unsynced append. ----
    for (const auto& entry : files) {
      const std::string& fname = entry.first;
      const FaultInjectionEnv::FileCrashInfo& info = entry.second;
      if (!IsTornTailCandidate(fname)) continue;
      if (info.written_bytes <= info.synced_bytes) continue;
      if (info.last_append_bytes == 0) continue;
      const uint64_t region_start =
          info.written_bytes - std::min(info.last_append_bytes,
                                        info.written_bytes - info.synced_bytes);
      std::set<uint64_t> targets;
      if (full) {
        for (uint64_t t = region_start + 1; t < info.written_bytes; t++) {
          targets.insert(t);
        }
      } else {
        const uint64_t len = info.written_bytes - region_start;
        targets.insert(region_start + 1);
        targets.insert(region_start + len / 2);
        targets.insert(info.written_bytes - 1);
      }
      for (uint64_t target : targets) {
        if (target <= info.synced_bytes || target >= info.written_bytes) {
          continue;
        }
        CrashRun torn = make_run();
        torn.RunWorkload(static_cast<int64_t>(k));
        std::string tag = fname + "@" + std::to_string(target);
        ASSERT_TRUE(torn.env()
                        ->CrashAndRestart(CrashDataPolicy::kDropUnsynced,
                                          {{fname, target}})
                        .ok());
        ReopenAndCheck(torn,
                       Repro(mode, k, total, crashed_op, "torn", tag),
                       /*check_ttl=*/false, vlog);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }

    // ---- leg C: process crash (everything written survives). ----
    {
      CrashRun keep = make_run();
      keep.RunWorkload(static_cast<int64_t>(k));
      ASSERT_TRUE(
          keep.env()->CrashAndRestart(CrashDataPolicy::kKeepWritten).ok());
      ReopenAndCheck(keep, Repro(mode, k, total, crashed_op, "keep", ""),
                     /*check_ttl=*/false, vlog);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // ---- leg D: RepairDB on the crash state, metadata destroyed. ----
    if (full || (k % 3 == 0)) {
      CrashRun rep = make_run();
      rep.RunWorkload(static_cast<int64_t>(k));
      ASSERT_TRUE(rep.env()->CrashAndRestart().ok());
      RepairAndCheck(rep, Repro(mode, k, total, crashed_op, "repair", ""),
                     /*check_ttl=*/full, vlog);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashMatrixBackground, Shard0) { RunCrashMatrix(0, 4); }
TEST(CrashMatrixBackground, Shard1) { RunCrashMatrix(1, 4); }
TEST(CrashMatrixBackground, Shard2) { RunCrashMatrix(2, 4); }
TEST(CrashMatrixBackground, Shard3) { RunCrashMatrix(3, 4); }

// The range-delete workload through the same matrix: every crash point, all
// four legs. The invariant set adds "a durable range delete never
// resurrects a covered key" (checked inside CheckRecoveredState for range
// entries).
TEST(CrashMatrixRangeDeleteBackground, Shard0) { RunCrashMatrix(0, 2, true); }
TEST(CrashMatrixRangeDeleteBackground, Shard1) { RunCrashMatrix(1, 2, true); }

// The key-value-separated workload through the same matrix: every crash
// point, all four legs (the torn leg now also tears vLog segment tails, and
// the repair leg salvages orphaned segments). The invariant set adds
// number 7: an acked write whose value went to the vLog survives restart,
// and a persisted delete's value bytes never resurrect
// (CheckVlogRecoveredState). The enumerated crash points include the vLog
// appends/syncs, head rotations, seals, and the GC relocation the workload
// deliberately drives.
TEST(CrashMatrixVlogBackground, Shard0) {
  RunCrashMatrix(0, 2, false, true);
}
TEST(CrashMatrixVlogBackground, Shard1) {
  RunCrashMatrix(1, 2, false, true);
}

// The vLog workload must actually reach the GC-relocation path, or the
// matrix's crash-during-GC coverage silently evaporates if the script or
// the GC heuristics drift. Pin it: a fault-free run ends with at least one
// GC run that relocated live values, and -- after a reopen, proving the
// monitor journal round-trips -- a drained value-purge backlog with
// purges on the books.
TEST(CrashMatrixVlogWorkload, DrivesGcRelocationAndDrainsBacklog) {
  CrashRun run;
  run.set_script(crash::ScriptedVlogWorkload());
  run.set_value_separation(crash::kVlogThreshold);
  DB* db = nullptr;
  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  std::vector<crash::LogicalOp> ops = crash::ScriptedVlogWorkload();
  for (crash::LogicalOp& op : ops) {
    switch (op.kind) {
      case crash::LogicalOp::kWrite: {
        WriteBatch batch;
        for (const crash::Entry& e : op.entries) {
          if (e.is_delete) {
            batch.Delete(e.key);
          } else {
            batch.Put(e.key, e.value);
          }
        }
        WriteOptions w;
        w.sync = op.sync;
        ASSERT_TRUE(db->Write(w, &batch).ok());
        break;
      }
      case crash::LogicalOp::kFlush:
        ASSERT_TRUE(db->FlushMemTable().ok());
        break;
      case crash::LogicalOp::kCompact:
        db->CompactRange(nullptr, nullptr);
        break;
    }
  }
  const InternalStats stats = db->GetStats();
  EXPECT_GT(stats.vlog_gc_runs, 0u)
      << "the scripted vLog workload no longer drives GC";
  EXPECT_GT(stats.vlog_gc_values_relocated, 0u)
      << "the scripted vLog workload no longer drives a relocation";
  delete db;

  ASSERT_TRUE(DB::Open(run.DbOptions(), run.dbname(), &db).ok());
  const DeleteStats ds = db->GetDeleteStats();
  EXPECT_GT(ds.values_purged, 0u);
  EXPECT_EQ(ds.value_purge_backlog, 0u);
  delete db;
}

}  // namespace
}  // namespace acheron
