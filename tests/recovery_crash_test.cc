// The crash-during-recovery matrix (recovery of recovery): after a first
// machine crash at file-op index k of the scripted workload, arm a second
// crash at every file-op index j *inside* the recovery path itself --
// DB::Open in one leg, RepairDB in the others -- restart again, and require
// that the final recovery still satisfies the five invariants from
// DESIGN.md. J_k (the number of file ops a recovery performs) is not known
// a priori; the j-loop discovers it dynamically: it ends at the first j
// the recovery completes without reaching the armed crash point.
//
// Default runs sample first-crash indices (stride nshards*3); set
// ACHERON_CRASH_MATRIX_FULL=1 to enumerate every k. The j dimension is
// always exhaustive -- it has to be, to find J_k. See TESTING.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
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

bool FullMatrix() {
  const char* e = std::getenv("ACHERON_CRASH_MATRIX_FULL");
  return e != nullptr && e[0] == '1';
}

// Runaway guard on the j-loop: no recovery path performs anywhere near
// this many file ops; hitting the bound means the loop failed to converge.
constexpr uint64_t kMaxRecoveryOps = 10000;

std::string Repro(uint64_t k, uint64_t total, uint64_t j,
                  const std::string& leg) {
  std::ostringstream out;
  out << "[recovery-crash repro: k=" << k << "/" << total << " j=" << j
      << " leg=" << leg << "]";
  return out.str();
}

// Open the (fully recovered) DB and run the invariant checks against the
// original workload run.
void CheckFinalState(CrashRun& run, const std::string& repro, bool check_ttl) {
  DB* db = nullptr;
  Status s = DB::Open(run.DbOptions(), run.dbname(), &db);
  ASSERT_TRUE(s.ok()) << repro << " final open failed: " << s.ToString();
  crash::CheckRecoveredState(db, run.result(), repro);
  if (check_ttl) crash::CheckDeletePersistenceBound(db, repro);
  delete db;
}

// Leg A: second crash inside DB::Open. For a fixed first-crash k, walks
// j = 0,1,2,... until DB::Open completes without reaching the armed crash
// point; every interrupted recovery is restarted and must then recover.
void RunOpenLeg(uint64_t k, uint64_t total, bool full) {
  for (uint64_t j = 0; j < kMaxRecoveryOps; j++) {
    const std::string repro = Repro(k, total, j, "open");
    CrashRun run;
    run.RunWorkload(static_cast<int64_t>(k));
    ASSERT_TRUE(run.env()->CrashAndRestart().ok()) << repro;

    run.env()->CrashAfterRelativeOps(j);
    DB* db = nullptr;
    Status s = DB::Open(run.DbOptions(), run.dbname(), &db);
    if (run.env()->crashed()) {
      // Recovery was interrupted at its j-th file op (it may still have
      // reported success if the op was a best-effort one, e.g. an obsolete-
      // file unlink). Crash-restart again: recovery of recovery.
      delete db;
      ASSERT_TRUE(run.env()->CrashAndRestart().ok()) << repro;
      const bool check_ttl = full || (j % 8 == 0);
      CheckFinalState(run, repro, check_ttl);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      // j reached past the end of this recovery's file-op schedule: J_k
      // found. Disarm (the crash point would otherwise fire during the
      // checks below) and verify this uninterrupted recovery too.
      run.env()->CrashAfterOp(-1);
      ASSERT_TRUE(s.ok()) << repro << " open failed without a crash: "
                          << s.ToString();
      delete db;
      CheckFinalState(run, repro, /*check_ttl=*/false);
      return;
    }
  }
  FAIL() << "open-leg j-loop failed to converge at k=" << k;
}

// Strip CURRENT, and unless |keep_manifests| every MANIFEST too (the
// precondition of the repair invariant). Returns false if nothing else
// remains -- the crash predates any file, so repair is vacuous at this k.
bool StripDescriptors(CrashRun& run, const std::string& repro,
                      bool keep_manifests) {
  Env* env = run.env();
  std::vector<std::string> children;
  if (!env->GetChildren(run.dbname(), &children).ok()) return false;
  size_t remaining = 0;
  for (const std::string& c : children) {
    if (c == "CURRENT" ||
        (!keep_manifests && c.rfind("MANIFEST-", 0) == 0)) {
      EXPECT_TRUE(env->RemoveFile(run.dbname() + "/" + c).ok()) << repro;
    } else {
      remaining++;
    }
  }
  return remaining > 0;
}

// Leg B: second crash inside RepairDB. CURRENT/MANIFESTs are stripped
// *before* arming the relative crash point (the strip itself is made of
// mutating file ops and must not consume the budget). With every MANIFEST
// gone the repair runs the salvage tier; the "repair-bounded" variant
// strips only CURRENT, so the repair replays the surviving MANIFESTs
// (bounded tier) and is crashed inside that tier.
void RunRepairLeg(uint64_t k, uint64_t total, bool full, bool bounded) {
  const std::string leg = bounded ? "repair-bounded" : "repair";
  for (uint64_t j = 0; j < kMaxRecoveryOps; j++) {
    const std::string repro = Repro(k, total, j, leg);
    CrashRun run;
    run.RunWorkload(static_cast<int64_t>(k));
    ASSERT_TRUE(run.env()->CrashAndRestart().ok()) << repro;
    if (!StripDescriptors(run, repro, bounded)) return;  // vacuous at this k

    run.env()->CrashAfterRelativeOps(j);
    Status s = RepairDB(run.dbname(), run.DbOptions());
    if (run.env()->crashed()) {
      ASSERT_TRUE(run.env()->CrashAndRestart().ok()) << repro;
      // Repair of repair: run it again on whatever the interrupted repair
      // left behind (it may have completed a new MANIFEST+CURRENT, or torn
      // them mid-write -- both must be handled).
      Status s2 = RepairDB(run.dbname(), run.DbOptions());
      ASSERT_TRUE(s2.ok()) << repro << " repair-of-repair failed: "
                           << s2.ToString();
      const bool check_ttl = full || (j % 8 == 0);
      CheckFinalState(run, repro, check_ttl);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      run.env()->CrashAfterOp(-1);
      ASSERT_TRUE(s.ok()) << repro << " repair failed without a crash: "
                          << s.ToString();
      CheckFinalState(run, repro, /*check_ttl=*/false);
      return;
    }
  }
  FAIL() << leg << "-leg j-loop failed to converge at k=" << k;
}

void RunRecoveryCrashMatrix(uint64_t shard, uint64_t nshards) {
  const bool full = FullMatrix();

  // Dry run: learn the workload's total op count (k's domain) and assert
  // the schedule is deterministic, as the outer matrix does.
  uint64_t total = 0;
  {
    CrashRun dry;
    dry.RunWorkload(-1);
    ASSERT_TRUE(dry.result().open_status.ok());
    total = dry.env()->FileOpCount();
    ASSERT_GT(total, 0u);
    CrashRun dry2;
    dry2.RunWorkload(-1);
    ASSERT_EQ(total, dry2.env()->FileOpCount())
        << "file-op schedule must be deterministic for (k, j) to be a repro";
  }

  // The j dimension is exhaustive per k; sample k unless FULL. The stride
  // is offset by the shard so distinct shards cover distinct k.
  const uint64_t stride = full ? nshards : nshards * 3;
  for (uint64_t k = shard; k <= total; k += stride) {
    RunOpenLeg(k, total, full);
    if (::testing::Test::HasFatalFailure()) return;
    RunRepairLeg(k, total, full, /*bounded=*/false);
    if (::testing::Test::HasFatalFailure()) return;
    RunRepairLeg(k, total, full, /*bounded=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RecoveryCrashMatrixBackground, Shard0) { RunRecoveryCrashMatrix(0, 4); }
TEST(RecoveryCrashMatrixBackground, Shard1) { RunRecoveryCrashMatrix(1, 4); }
TEST(RecoveryCrashMatrixBackground, Shard2) { RunRecoveryCrashMatrix(2, 4); }
TEST(RecoveryCrashMatrixBackground, Shard3) { RunRecoveryCrashMatrix(3, 4); }

}  // namespace
}  // namespace acheron
