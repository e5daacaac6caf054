// A sampled crash-matrix shard against the real filesystem: the same
// scripted workload and invariants as the MemEnv matrix, but with the
// FaultInjectionEnv wrapping an unbuffered PosixEnv (see NewPosixEnv).
// Unbuffered writes are required: the fault env's durability model assumes
// every Append reaches the tracked file immediately, which the default
// 64KiB user-space write buffer would violate. The WAL is written through
// the same mapped, preallocated file as in production (checked below), and
// a rebuilt log is closed and so trimmed to its persisted prefix.
//
// The process-kill tests below need no simulation: a child writes through
// the default PosixEnv and is SIGKILLed without closing anything, and the
// parent reopens what the kernel kept.
//
// The k dimension is sampled coarsely (real fsyncs make each run orders of
// magnitude slower than MemEnv); the MemEnv matrix remains the exhaustive
// check, this shard proves the simulation holds off the in-memory fake.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/env/env.h"
#include "src/env/fault_env.h"
#include "src/lsm/db.h"
#include "src/lsm/write_batch.h"
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

TEST(PosixCrashShard, WalIsMappedUnderTheFaultEnv) {
  // The shard's env serves .log files through the mapped WAL file: its
  // size runs ahead of the appended bytes (the preallocated tail) until
  // Close trims it.
  const std::string dir = "posix_crash_wal_scratch";
  const std::string fname = dir + "/000001.log";
  std::unique_ptr<Env> base(NewPosixEnv(/*unbuffered_writes=*/true));
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.CreateDir(dir).ok());
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(fenv.NewWritableFile(fname, &wf).ok());
  ASSERT_TRUE(wf->Append(std::string(100, 'w')).ok());
  uint64_t size = 0;
  ASSERT_TRUE(fenv.GetFileSize(fname, &size).ok());
  EXPECT_GT(size, 100u);
  ASSERT_TRUE(wf->Close().ok());
  ASSERT_TRUE(fenv.GetFileSize(fname, &size).ok());
  EXPECT_EQ(100u, size);
  wf.reset();
  ASSERT_TRUE(fenv.RemoveFile(fname).ok());
  ASSERT_TRUE(fenv.RemoveDir(dir).ok());
}

// --------------------------------------------------------------------------
// Process kill. A process crash must lose no acknowledged write, synced or
// not: with the WAL appended through a shared mapping, an acked record is in
// the page cache the moment its copy ends. The child writes through the
// default PosixEnv and dies by SIGKILL with the DB still open (no Close,
// so the log keeps its zero-filled preallocated tail); the parent reopens
// with paranoid checks, so a tail misread as corruption fails the open.
// --------------------------------------------------------------------------

constexpr int kKillThreads = 4;
constexpr int kKillTailWrites = 40;

std::string KillKey(int thread, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%d-k%06d", thread, i);
  return buf;
}

// Values of 1 to 700 bytes, except every 50th: 40KiB, more than one of the
// WAL's 32KiB blocks on its own.
std::string KillValue(int thread, int i) {
  const size_t len = (i % 50 == 49) ? 40 * 1024 : 1 + (i * 37) % 700;
  return std::string(len, static_cast<char>('a' + (thread + i) % 26));
}

Options KillOptions() {
  Options options;
  options.create_if_missing = true;
  // One memtable holds the whole run, so every acked write lives only in
  // the live WAL when the child dies.
  options.write_buffer_size = 64 << 20;
  return options;
}

// Runs in the death-test child: writes |per_thread| entries on each of
// |threads| threads, every one acknowledged, then dies without closing.
[[noreturn]] void WriteThenKill(const std::string& dbname, int threads,
                                int per_thread, bool sync) {
  DB* db = nullptr;
  if (!DB::Open(KillOptions(), dbname, &db).ok()) std::_Exit(2);
  WriteOptions wo;
  wo.sync = sync;
  std::atomic<bool> failed{false};
  auto writer = [&](int t) {
    for (int i = 0; i < per_thread; i++) {
      Status s;
      if (i % 10 == 9) {
        // A multi-entry batch; with a large value in it, > 32KiB.
        WriteBatch batch;
        batch.Put(KillKey(t, i), KillValue(t, i));
        batch.Put(KillKey(t, i) + "-b", KillValue(t, i + 1));
        s = db->Write(wo, &batch);
      } else {
        s = db->Put(wo, KillKey(t, i), KillValue(t, i));
      }
      if (!s.ok()) failed = true;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; t++) pool.emplace_back(writer, t);
  writer(0);
  for (std::thread& th : pool) th.join();
  // End on small records (under 1KiB each, more than a page in all): they
  // are copied through the mapping, so the log keeps a reserved tail.
  for (int i = 0; i < kKillTailWrites; i++) {
    if (!db->Put(wo, KillKey(threads, i), KillValue(threads, i)).ok()) {
      failed = true;
    }
  }
  if (failed) std::_Exit(3);
  std::raise(SIGKILL);
  std::_Exit(4);  // not reached
}

void ExpectAckedWritesSurvive(const std::string& dbname, int threads,
                              int per_thread, bool sync) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::filesystem::remove_all(dbname);
  EXPECT_EXIT(WriteThenKill(dbname, threads, per_thread, sync),
              ::testing::KilledBySignal(SIGKILL), "");

  // The killed writer never closed its log, so the log still ends in the
  // preallocated zero tail the reader has to treat as end-of-log.
  bool saw_zero_tail = false;
  for (const auto& entry : std::filesystem::directory_iterator(dbname)) {
    if (entry.path().extension() != ".log") continue;
    const uintmax_t size = entry.file_size();
    if (size == 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    in.seekg(static_cast<std::streamoff>(size - 1));
    saw_zero_tail = saw_zero_tail || in.get() == 0;
  }
  EXPECT_TRUE(saw_zero_tail) << "no WAL with a preallocated tail";

  Options options = KillOptions();
  options.paranoid_checks = true;
  DB* db = nullptr;
  Status s = DB::Open(options, dbname, &db);
  ASSERT_TRUE(s.ok()) << s.ToString();
  int missing = 0;
  for (int t = 0; t <= threads; t++) {
    const int writes = t < threads ? per_thread : kKillTailWrites;
    for (int i = 0; i < writes; i++) {
      std::string value;
      if (!db->Get(ReadOptions(), KillKey(t, i), &value).ok() ||
          value != KillValue(t, i)) {
        missing++;
      }
      if (t < threads && i % 10 == 9 &&
          (!db->Get(ReadOptions(), KillKey(t, i) + "-b", &value).ok() ||
           value != KillValue(t, i + 1))) {
        missing++;
      }
    }
  }
  EXPECT_EQ(0, missing);
  delete db;
  std::filesystem::remove_all(dbname);
}

TEST(PosixProcessKill, UnsyncedAckedWritesSurviveSigkill) {
  // ~2.5MiB of log: crosses several 256KiB extensions and the 1MiB window.
  ExpectAckedWritesSurvive("posix_kill_unsynced_db", 1, 3000,
                           /*sync=*/false);
}

TEST(PosixProcessKill, SyncedGroupCommitsSurviveSigkill) {
  ExpectAckedWritesSurvive("posix_kill_synced_db", kKillThreads, 150,
                           /*sync=*/true);
}

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
