// A sampled crash-matrix shard against the real filesystem: the same
// scripted workload and invariants as the MemEnv matrix, but with the
// FaultInjectionEnv wrapping an unbuffered PosixEnv (see NewPosixEnv).
// Unbuffered writes are required: the fault env's durability model assumes
// every Append reaches the tracked file immediately, which the default
// 64KiB user-space write buffer would violate.
//
// The k dimension is sampled coarsely (real fsyncs make each run orders of
// magnitude slower than MemEnv); the MemEnv matrix remains the exhaustive
// check, this shard proves the simulation holds off the in-memory fake.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "tests/crash_harness.h"

namespace acheron {
namespace {

using crash::CrashRun;

// Build-directory-relative scratch database, wiped before every run.
constexpr char kScratchDb[] = "posix_crash_scratch_db";

void WipeScratchDir() {
  Env* env = DefaultEnv();
  const std::string dbname = kScratchDb;
  std::vector<std::string> children;
  if (env->GetChildren(dbname, &children).ok()) {
    for (const std::string& c : children) {
      ASSERT_TRUE(env->RemoveFile(dbname + "/" + c).ok());
    }
    ASSERT_TRUE(env->RemoveDir(dbname).ok());
  }
}

CrashRun MakePosixRun() {
  WipeScratchDir();
  return CrashRun(std::unique_ptr<Env>(NewPosixEnv(true)), kScratchDb);
}

void RunPosixShard() {
  // Dry run: learn the op count and confirm the schedule matches a fresh
  // execution (the determinism the repro strings depend on).
  uint64_t total = 0;
  {
    CrashRun dry = MakePosixRun();
    dry.RunWorkload(-1);
    ASSERT_TRUE(dry.result().open_status.ok());
    total = dry.env()->FileOpCount();
    ASSERT_GT(total, 0u);
  }

  // ~7 crash points spread over the schedule, ends included.
  const uint64_t stride = std::max<uint64_t>(total / 6, 1);
  for (uint64_t k = 0; k <= total; k += stride) {
    const std::string repro =
        "[posix crash repro: k=" + std::to_string(k) + "/" +
        std::to_string(total) + "]";
    CrashRun run = MakePosixRun();
    if (::testing::Test::HasFatalFailure()) return;
    run.RunWorkload(static_cast<int64_t>(k));
    ASSERT_TRUE(run.env()->CrashAndRestart().ok()) << repro;

    DB* db = nullptr;
    Status s = DB::Open(run.DbOptions(), run.dbname(), &db);
    ASSERT_TRUE(s.ok()) << repro << " open failed: " << s.ToString();
    crash::CheckRecoveredState(db, run.result(), repro);
    delete db;
    if (::testing::Test::HasFatalFailure()) return;
  }
  WipeScratchDir();
}

TEST(PosixCrashShard, SampledMatrixBackground) { RunPosixShard(); }

// --------------------------------------------------------------------------
// mmap read path under crash simulation. PosixEnv serves RandomAccessFiles
// via a fixed-length read-only mapping taken at open (see posix_env.cc); a
// crash that drops unsynced data must leave a reopened reader seeing
// exactly the synced prefix -- never a torn tail -- and the mmap and pread
// (budget=0) paths must agree byte-for-byte.
// --------------------------------------------------------------------------

namespace {

// Reads the whole of |fname| through |env| and appends EOF probes: a read
// starting at the persisted length must come back empty with OK, a read
// straddling it must come back short.
void ReadBackAndProbe(Env* env, const std::string& fname,
                      uint64_t persisted, std::string* contents) {
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());

  std::vector<char> scratch(persisted + 4096);
  Slice result;
  ASSERT_TRUE(file->Read(0, persisted + 4096, &result, scratch.data()).ok());
  ASSERT_EQ(persisted, result.size()) << "observed bytes past synced prefix";
  contents->assign(result.data(), result.size());

  ASSERT_TRUE(file->Read(persisted, 64, &result, scratch.data()).ok());
  EXPECT_EQ(0u, result.size()) << "read at EOF must be empty, not torn";
  if (persisted >= 16) {
    ASSERT_TRUE(
        file->Read(persisted - 16, 4096, &result, scratch.data()).ok());
    EXPECT_EQ(16u, result.size()) << "straddling read must clamp at EOF";
  }
}

}  // namespace

TEST(PosixMmapCrash, MmapNeverObservesPastSyncedPrefix) {
  const std::string dir = "posix_mmap_crash_scratch";
  const std::string fname = dir + "/table.dat";
  std::unique_ptr<Env> base(NewPosixEnv(/*unbuffered_writes=*/true));
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.CreateDir(dir).ok());
  if (fenv.FileExists(fname)) {
    ASSERT_TRUE(fenv.RemoveFile(fname).ok());
  }

  // 8KiB synced 'A' prefix, then 8KiB of unsynced 'B' that the crash drops.
  const std::string synced(8192, 'A');
  const std::string unsynced(8192, 'B');
  {
    std::unique_ptr<WritableFile> wf;
    ASSERT_TRUE(fenv.NewWritableFile(fname, &wf).ok());
    ASSERT_TRUE(wf->Append(synced).ok());
    ASSERT_TRUE(wf->Sync().ok());
    ASSERT_TRUE(wf->Append(unsynced).ok());
    ASSERT_TRUE(wf->Close().ok());  // close(2) does not imply durability
  }
  ASSERT_TRUE(
      fenv.CrashAndRestart(FaultInjectionEnv::CrashDataPolicy::kDropUnsynced)
          .ok());

  // Reopened through the default (mmap-serving) env: the mapping length is
  // captured post-crash, so the reader structurally cannot see 'B' bytes.
  std::string via_mmap;
  ReadBackAndProbe(&fenv, fname, synced.size(), &via_mmap);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(synced, via_mmap);

  // Equivalence: a pread-only env (mmap budget 0) must agree byte-for-byte.
  std::unique_ptr<Env> pread_env(
      NewPosixEnv(/*unbuffered_writes=*/true, /*mmap_budget=*/0));
  std::string via_pread;
  ReadBackAndProbe(pread_env.get(), fname, synced.size(), &via_pread);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(via_mmap, via_pread);

  ASSERT_TRUE(fenv.RemoveFile(fname).ok());
  ASSERT_TRUE(fenv.RemoveDir(dir).ok());
}

TEST(PosixMmapCrash, BudgetExhaustionFallsBackToPread) {
  // With a budget of one mapping, the second open must transparently fall
  // back to pread and still serve identical bytes; releasing the first
  // reader hands its slot to a later open.
  const std::string dir = "posix_mmap_budget_scratch";
  std::unique_ptr<Env> env(
      NewPosixEnv(/*unbuffered_writes=*/false, /*mmap_budget=*/1));
  ASSERT_TRUE(env->CreateDir(dir).ok());

  const std::string payload = "acheron-mmap-budget-payload";
  std::vector<std::string> names;
  for (int i = 0; i < 3; i++) {
    names.push_back(dir + "/f" + std::to_string(i));
    ASSERT_TRUE(env->WriteStringToFile(payload, names.back()).ok());
  }

  char scratch[64];
  Slice result;
  {
    std::unique_ptr<RandomAccessFile> a, b;
    ASSERT_TRUE(env->NewRandomAccessFile(names[0], &a).ok());  // takes slot
    ASSERT_TRUE(env->NewRandomAccessFile(names[1], &b).ok());  // pread path
    ASSERT_TRUE(a->Read(0, sizeof(scratch), &result, scratch).ok());
    EXPECT_EQ(payload, result.ToString());
    ASSERT_TRUE(b->Read(0, sizeof(scratch), &result, scratch).ok());
    EXPECT_EQ(payload, result.ToString());
  }  // both closed: the mmap slot is back

  std::unique_ptr<RandomAccessFile> c;
  ASSERT_TRUE(env->NewRandomAccessFile(names[2], &c).ok());
  ASSERT_TRUE(c->Read(0, sizeof(scratch), &result, scratch).ok());
  EXPECT_EQ(payload, result.ToString());
  c.reset();

  for (const auto& n : names) ASSERT_TRUE(env->RemoveFile(n).ok());
  ASSERT_TRUE(env->RemoveDir(dir).ok());
}

}  // namespace
}  // namespace acheron
