// Tests for the Env abstraction: MemEnv, PosixEnv, and fault injection.
#include "src/env/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/env/fault_env.h"

namespace acheron {

class MemEnvTest : public ::testing::Test {
 protected:
  void SetUp() override { env_.reset(NewMemEnv()); }
  std::unique_ptr<Env> env_;
};

TEST_F(MemEnvTest, Basics) {
  uint64_t file_size;
  std::unique_ptr<WritableFile> writable_file;
  std::vector<std::string> children;

  ASSERT_TRUE(env_->CreateDir("/dir").ok());

  // Check that the directory is empty.
  EXPECT_FALSE(env_->FileExists("/dir/non_existent"));
  EXPECT_FALSE(env_->GetFileSize("/dir/non_existent", &file_size).ok());
  ASSERT_TRUE(env_->GetChildren("/dir", &children).ok());
  EXPECT_EQ(0u, children.size());

  // Create a file.
  ASSERT_TRUE(env_->NewWritableFile("/dir/f", &writable_file).ok());
  ASSERT_TRUE(env_->GetFileSize("/dir/f", &file_size).ok());
  EXPECT_EQ(0u, file_size);
  writable_file.reset();

  // Check that the file exists.
  EXPECT_TRUE(env_->FileExists("/dir/f"));
  ASSERT_TRUE(env_->GetFileSize("/dir/f", &file_size).ok());
  EXPECT_EQ(0u, file_size);
  ASSERT_TRUE(env_->GetChildren("/dir", &children).ok());
  EXPECT_EQ(1u, children.size());
  EXPECT_EQ("f", children[0]);

  // Write to the file.
  ASSERT_TRUE(env_->NewWritableFile("/dir/f", &writable_file).ok());
  ASSERT_TRUE(writable_file->Append("abc").ok());
  writable_file.reset();

  // Check that append works.
  ASSERT_TRUE(env_->GetFileSize("/dir/f", &file_size).ok());
  EXPECT_EQ(3u, file_size);

  // Check that renaming works.
  EXPECT_FALSE(env_->RenameFile("/dir/non_existent", "/dir/g").ok());
  ASSERT_TRUE(env_->RenameFile("/dir/f", "/dir/g").ok());
  EXPECT_FALSE(env_->FileExists("/dir/f"));
  EXPECT_TRUE(env_->FileExists("/dir/g"));
  ASSERT_TRUE(env_->GetFileSize("/dir/g", &file_size).ok());
  EXPECT_EQ(3u, file_size);

  // Check that opening non-existent file fails.
  std::unique_ptr<SequentialFile> seq_file;
  std::unique_ptr<RandomAccessFile> rand_file;
  EXPECT_FALSE(env_->NewSequentialFile("/dir/non_existent", &seq_file).ok());
  EXPECT_FALSE(
      env_->NewRandomAccessFile("/dir/non_existent", &rand_file).ok());

  // Check that deleting works.
  EXPECT_FALSE(env_->RemoveFile("/dir/non_existent").ok());
  ASSERT_TRUE(env_->RemoveFile("/dir/g").ok());
  EXPECT_FALSE(env_->FileExists("/dir/g"));
  ASSERT_TRUE(env_->GetChildren("/dir", &children).ok());
  EXPECT_EQ(0u, children.size());
}

TEST_F(MemEnvTest, ReadWrite) {
  std::unique_ptr<WritableFile> writable_file;
  std::unique_ptr<SequentialFile> seq_file;
  std::unique_ptr<RandomAccessFile> rand_file;
  Slice result;
  char scratch[100];

  ASSERT_TRUE(env_->NewWritableFile("/dir/f", &writable_file).ok());
  ASSERT_TRUE(writable_file->Append("hello ").ok());
  ASSERT_TRUE(writable_file->Append("world").ok());
  writable_file.reset();

  // Read sequentially.
  ASSERT_TRUE(env_->NewSequentialFile("/dir/f", &seq_file).ok());
  ASSERT_TRUE(seq_file->Read(5, &result, scratch).ok());
  EXPECT_EQ(0, result.compare("hello"));
  ASSERT_TRUE(seq_file->Skip(1).ok());
  ASSERT_TRUE(seq_file->Read(1000, &result, scratch).ok());
  EXPECT_EQ(0, result.compare("world"));
  ASSERT_TRUE(seq_file->Read(1000, &result, scratch).ok());  // Try reading past EOF.
  EXPECT_EQ(0u, result.size());
  ASSERT_TRUE(seq_file->Skip(100).ok());  // Skip past end of file.
  ASSERT_TRUE(seq_file->Read(1000, &result, scratch).ok());
  EXPECT_EQ(0u, result.size());

  // Random reads.
  ASSERT_TRUE(env_->NewRandomAccessFile("/dir/f", &rand_file).ok());
  ASSERT_TRUE(rand_file->Read(6, 5, &result, scratch).ok());
  EXPECT_EQ(0, result.compare("world"));
  ASSERT_TRUE(rand_file->Read(0, 5, &result, scratch).ok());
  EXPECT_EQ(0, result.compare("hello"));
  ASSERT_TRUE(rand_file->Read(10, 100, &result, scratch).ok());
  EXPECT_EQ(0, result.compare("d"));
}

TEST_F(MemEnvTest, OverwriteTruncates) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("long content here").ok());
  f.reset();
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("x").ok());
  f.reset();
  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize("/a", &size).ok());
  EXPECT_EQ(1u, size);
}

TEST_F(MemEnvTest, WholeFileHelpers) {
  ASSERT_TRUE(env_->WriteStringToFile("contents", "/whole").ok());
  std::string read_back;
  ASSERT_TRUE(env_->ReadFileToString("/whole", &read_back).ok());
  EXPECT_EQ("contents", read_back);
}

class PosixEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = DefaultEnv();
    dir_ = std::filesystem::temp_directory_path() /
           ("acheron_env_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(env_->CreateDir(dir_.string()).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  Env* env_;
  std::filesystem::path dir_;
};

TEST_F(PosixEnvTest, WriteReadRoundTrip) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env_->NewWritableFile(Path("f"), &w).ok());
  ASSERT_TRUE(w->Append("hello world").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());
  w.reset();

  uint64_t size;
  ASSERT_TRUE(env_->GetFileSize(Path("f"), &size).ok());
  EXPECT_EQ(11u, size);

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env_->NewRandomAccessFile(Path("f"), &r).ok());
  char scratch[32];
  Slice result;
  ASSERT_TRUE(r->Read(6, 5, &result, scratch).ok());
  EXPECT_EQ("world", result.ToString());
}

TEST_F(PosixEnvTest, LargeBufferedWrite) {
  // Exceed the 64KiB internal buffer to exercise the unbuffered path.
  std::string big(300 * 1024, 'q');
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env_->NewWritableFile(Path("big"), &w).ok());
  ASSERT_TRUE(w->Append("head:").ok());
  ASSERT_TRUE(w->Append(big).ok());
  ASSERT_TRUE(w->Close().ok());
  w.reset();

  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(Path("big"), &contents).ok());
  EXPECT_EQ(5 + big.size(), contents.size());
  EXPECT_EQ("head:", contents.substr(0, 5));
  EXPECT_EQ(big, contents.substr(5));
}

TEST_F(PosixEnvTest, GetChildrenAndRemove) {
  ASSERT_TRUE(env_->WriteStringToFile("1", Path("a")).ok());
  ASSERT_TRUE(env_->WriteStringToFile("2", Path("b")).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_.string(), &children).ok());
  std::sort(children.begin(), children.end());
  ASSERT_EQ(2u, children.size());
  EXPECT_EQ("a", children[0]);
  EXPECT_EQ("b", children[1]);
  ASSERT_TRUE(env_->RemoveFile(Path("a")).ok());
  EXPECT_FALSE(env_->FileExists(Path("a")));
}

TEST_F(PosixEnvTest, RenameReplacesTarget) {
  ASSERT_TRUE(env_->WriteStringToFile("src", Path("src")).ok());
  ASSERT_TRUE(env_->WriteStringToFile("dst", Path("dst")).ok());
  ASSERT_TRUE(env_->RenameFile(Path("src"), Path("dst")).ok());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString(Path("dst"), &contents).ok());
  EXPECT_EQ("src", contents);
  EXPECT_FALSE(env_->FileExists(Path("src")));
}

TEST(FaultEnvTest, WriteFaultCountdown) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fenv.NewWritableFile("/f", &f).ok());
  fenv.SetWriteFaultCountdown(2);
  EXPECT_TRUE(f->Append("one").ok());
  EXPECT_TRUE(f->Append("two").ok());
  EXPECT_TRUE(f->Append("three").IsIOError());
  EXPECT_TRUE(f->Append("four").IsIOError());
  EXPECT_GE(fenv.FaultsInjected(), 2u);
  fenv.SetWriteFaultCountdown(-1);
  EXPECT_TRUE(f->Append("five").ok());
}

TEST(FaultEnvTest, ReadFaultBySubstring) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.WriteStringToFile("payload", "/data/curse.sst").ok());
  ASSERT_TRUE(fenv.WriteStringToFile("payload", "/data/fine.sst").ok());

  fenv.SetReadFaultSubstring("curse");
  std::unique_ptr<RandomAccessFile> r;
  char scratch[16];
  Slice result;
  ASSERT_TRUE(fenv.NewRandomAccessFile("/data/curse.sst", &r).ok());
  EXPECT_TRUE(r->Read(0, 7, &result, scratch).IsIOError());
  ASSERT_TRUE(fenv.NewRandomAccessFile("/data/fine.sst", &r).ok());
  EXPECT_TRUE(r->Read(0, 7, &result, scratch).ok());
  EXPECT_EQ("payload", result.ToString());

  fenv.SetReadFaultSubstring("");
  ASSERT_TRUE(fenv.NewRandomAccessFile("/data/curse.sst", &r).ok());
  EXPECT_TRUE(r->Read(0, 7, &result, scratch).ok());
}

TEST(FaultEnvTest, SequentialReadFaultBySubstring) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.WriteStringToFile("abcdef", "/wal/000007.log").ok());

  fenv.SetReadFaultSubstring("000007");
  std::unique_ptr<SequentialFile> s;
  char scratch[16];
  Slice result;
  ASSERT_TRUE(fenv.NewSequentialFile("/wal/000007.log", &s).ok());
  EXPECT_TRUE(s->Read(3, &result, scratch).IsIOError());
  // Skip is not a read; it must pass through even while reads fail.
  EXPECT_TRUE(s->Skip(2).ok());

  fenv.SetReadFaultSubstring("");
  ASSERT_TRUE(s->Read(3, &result, scratch).ok());
  EXPECT_EQ("cde", result.ToString());
}

TEST(FaultEnvTest, ReadFaultsCountAsInjected) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.WriteStringToFile("abcdef", "/cursed").ok());
  ASSERT_EQ(0u, fenv.FaultsInjected());

  fenv.SetReadFaultSubstring("cursed");
  char scratch[16];
  Slice result;
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(fenv.NewRandomAccessFile("/cursed", &r).ok());
  EXPECT_TRUE(r->Read(0, 3, &result, scratch).IsIOError());
  EXPECT_EQ(1u, fenv.FaultsInjected());
  std::unique_ptr<SequentialFile> s;
  ASSERT_TRUE(fenv.NewSequentialFile("/cursed", &s).ok());
  EXPECT_TRUE(s->Read(3, &result, scratch).IsIOError());
  EXPECT_EQ(2u, fenv.FaultsInjected());

  // Disabled faults stop counting; successful reads never count.
  fenv.SetReadFaultSubstring("");
  EXPECT_TRUE(s->Read(3, &result, scratch).ok());
  EXPECT_EQ(2u, fenv.FaultsInjected());
}

// --------------------------------------------------------------------------
// Env::Schedule / Env::StartThread (the background-compaction plumbing).
// --------------------------------------------------------------------------

namespace {

// Polls |pred| for up to ~10 seconds; Schedule/StartThread give no
// completion handle, so tests wait on state the closures publish.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 10000; i++) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

struct OrderRecorder {
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
};

struct OrderTask {
  OrderRecorder* recorder;
  int index;
};

void RecordOrder(void* arg) {
  auto* task = static_cast<OrderTask*>(arg);
  {
    std::lock_guard<std::mutex> l(task->recorder->mu);
    task->recorder->order.push_back(task->index);
  }
  task->recorder->done.fetch_add(1);
}

void BumpCounter(void* arg) {
  static_cast<std::atomic<int>*>(arg)->fetch_add(1);
}

}  // namespace

TEST_F(MemEnvTest, ScheduleRunsAllInFifoOrder) {
  constexpr int kTasks = 64;
  OrderRecorder recorder;
  std::vector<OrderTask> tasks(kTasks);
  for (int i = 0; i < kTasks; i++) {
    tasks[i] = {&recorder, i};
    env_->Schedule(&RecordOrder, &tasks[i]);
  }
  ASSERT_TRUE(WaitFor([&] { return recorder.done.load() == kTasks; }));
  // One worker drains the queue in submission order.
  std::lock_guard<std::mutex> l(recorder.mu);
  ASSERT_EQ(static_cast<size_t>(kTasks), recorder.order.size());
  for (int i = 0; i < kTasks; i++) EXPECT_EQ(i, recorder.order[i]);
}

TEST_F(MemEnvTest, ScheduleDrainsOnEnvDestruction) {
  // The Env destructor must let queued work finish before returning --
  // DBImpl relies on this when closing with a flush still queued.
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; i++) env_->Schedule(&BumpCounter, &counter);
  env_.reset();
  EXPECT_EQ(32, counter.load());
}

TEST_F(MemEnvTest, StartThreadRunsDetached) {
  constexpr int kThreads = 8;
  std::atomic<int> counter{0};
  for (int i = 0; i < kThreads; i++) env_->StartThread(&BumpCounter, &counter);
  EXPECT_TRUE(WaitFor([&] { return counter.load() == kThreads; }));
}

TEST(PosixEnvScheduleTest, ScheduleAndStartThread) {
  Env* env = DefaultEnv();
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; i++) env->Schedule(&BumpCounter, &counter);
  env->StartThread(&BumpCounter, &counter);
  EXPECT_TRUE(WaitFor([&] { return counter.load() == 9; }));
}

TEST(FaultEnvScheduleTest, ForwardsToBase) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  std::atomic<int> counter{0};
  fenv.Schedule(&BumpCounter, &counter);
  fenv.StartThread(&BumpCounter, &counter);
  EXPECT_TRUE(WaitFor([&] { return counter.load() == 2; }));
}

// --------------------------------------------------------------------------
// Async submission/completion (Env::SubmitReads / Env::SubmitSync).
// --------------------------------------------------------------------------

namespace {

// Submits |kReads| overlapping reads of |contents| (written to |fname|
// beforehand) in one batch and checks every completion. Shared across envs
// so MemEnv and both kinds of PosixEnv file run the same leg. With
// |pread_served| every result must be a copy in its own scratch buffer,
// which proves the file is not an mmap view.
void CheckBatchedReads(Env* env, const std::string& fname,
                       bool pread_served = false) {
  const std::string contents = "0123456789abcdef";
  ASSERT_TRUE(env->WriteStringToFile(contents, fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());

  constexpr int kReads = 33;  // deliberately not a multiple of any chunk size
  std::vector<ReadRequest> reqs(kReads);
  std::vector<std::array<char, 4>> scratch(kReads);
  std::vector<ReadRequest*> ptrs(kReads);
  for (int i = 0; i < kReads; i++) {
    reqs[i].file = file.get();
    reqs[i].offset = static_cast<uint64_t>(i % 13);
    reqs[i].n = 4;
    reqs[i].scratch = scratch[i].data();
    ptrs[i] = &reqs[i];
  }
  CompletionQueue cq;
  env->SubmitReads(ptrs.data(), ptrs.size(), &cq);
  cq.WaitFor(kReads);
  EXPECT_EQ(static_cast<uint64_t>(kReads), cq.completed());
  for (int i = 0; i < kReads; i++) {
    ASSERT_TRUE(reqs[i].status.ok()) << "read " << i;
    EXPECT_EQ(contents.substr(i % 13, 4), reqs[i].result.ToString())
        << "read " << i;
    if (pread_served) {
      EXPECT_EQ(scratch[i].data(), reqs[i].result.data()) << "read " << i;
    }
  }
}

}  // namespace

TEST_F(MemEnvTest, SubmitReadsBatchCompletesAll) {
  CheckBatchedReads(env_.get(), "/async_reads");
}

TEST_F(PosixEnvTest, SubmitReadsBatchCompletesAll) {
  CheckBatchedReads(env_, Path("async_reads"));
}

// The default env serves tables by mmap; a zero mmap budget makes every
// file pread-served, the path a tree past the budget takes.
TEST_F(PosixEnvTest, SubmitReadsBatchCompletesAllPreadServed) {
  std::unique_ptr<Env> env(NewPosixEnv(/*unbuffered_writes=*/false,
                                       /*mmap_budget=*/0));
  CheckBatchedReads(env.get(), Path("async_reads"), /*pread_served=*/true);
}

TEST_F(PosixEnvTest, SubmitSyncCompletes) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env_->NewWritableFile(Path("wal"), &w).ok());
  ASSERT_TRUE(w->Append("payload").ok());
  ASSERT_TRUE(w->Flush().ok());
  SyncRequest req;
  req.file = w.get();
  CompletionQueue cq;
  env_->SubmitSync(&req, &cq);
  cq.WaitFor(1);
  EXPECT_TRUE(req.status.ok());
  ASSERT_TRUE(w->Close().ok());
}

TEST(CompletionQueueTest, MultipleWaitersWithDistinctTargets) {
  // Exercises the armed-target protocol: the queue only signals when the
  // smallest armed target is reached, and a departing waiter must re-arm
  // the ones still blocked.
  CompletionQueue cq;
  std::atomic<int> woke{0};
  std::thread t1([&] {
    cq.WaitFor(1);
    woke.fetch_add(1);
  });
  std::thread t2([&] {
    cq.WaitFor(3);
    woke.fetch_add(1);
  });
  // Let both waiters block and arm their targets before posting.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cq.Post();
  EXPECT_TRUE(WaitFor([&] { return woke.load() >= 1; }));
  cq.Post();
  cq.Post();
  t1.join();
  t2.join();
  EXPECT_EQ(2, woke.load());
  EXPECT_EQ(3u, cq.completed());
}

TEST(FaultEnvAsyncTest, SubmitReadsHonorsReadFaults) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  ASSERT_TRUE(fenv.WriteStringToFile("payload", "/cursed.sst").ok());
  ASSERT_TRUE(fenv.WriteStringToFile("payload", "/fine.sst").ok());
  std::unique_ptr<RandomAccessFile> cursed;
  std::unique_ptr<RandomAccessFile> fine;
  ASSERT_TRUE(fenv.NewRandomAccessFile("/cursed.sst", &cursed).ok());
  ASSERT_TRUE(fenv.NewRandomAccessFile("/fine.sst", &fine).ok());
  fenv.SetReadFaultSubstring("cursed");

  char s1[8];
  char s2[8];
  ReadRequest r1;
  r1.file = cursed.get();
  r1.n = 7;
  r1.scratch = s1;
  ReadRequest r2;
  r2.file = fine.get();
  r2.n = 7;
  r2.scratch = s2;
  ReadRequest* reqs[2] = {&r1, &r2};
  CompletionQueue cq;
  fenv.SubmitReads(reqs, 2, &cq);
  cq.WaitFor(2);
  EXPECT_TRUE(r1.status.IsIOError());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ("payload", r2.result.ToString());
  EXPECT_GE(fenv.FaultsInjected(), 1u);
}

TEST(FaultEnvAsyncTest, SubmitSyncCreditsDurabilityAtCompletion) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fenv.NewWritableFile("/wal", &f).ok());  // op 0
  ASSERT_TRUE(f->Append("abcde").ok());                // op 1
  ASSERT_TRUE(f->Flush().ok());

  SyncRequest req;
  req.file = f.get();
  CompletionQueue cq;
  fenv.SubmitSync(&req, &cq);  // numbered op 2 at submit
  cq.WaitFor(1);
  ASSERT_TRUE(req.status.ok());
  EXPECT_EQ(3u, fenv.FileOpCount());
  auto files = fenv.TrackedFiles();
  ASSERT_EQ(1u, files.count("/wal"));
  EXPECT_EQ(5u, files["/wal"].synced_bytes);
  EXPECT_EQ(5u, files["/wal"].written_bytes);
}

TEST(FaultEnvAsyncTest, AsyncSyncsNumberedInSubmitOrder) {
  // Two in-flight syncs on one queue: op numbers are assigned at submit
  // time, so arming the crash between the two indices deterministically
  // fails the second submission and leaves the first durable.
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  std::unique_ptr<WritableFile> a;
  std::unique_ptr<WritableFile> b;
  ASSERT_TRUE(fenv.NewWritableFile("/wal_a", &a).ok());  // op 0
  ASSERT_TRUE(fenv.NewWritableFile("/wal_b", &b).ok());  // op 1
  ASSERT_TRUE(a->Append("aaaa").ok());                   // op 2
  ASSERT_TRUE(b->Append("bb").ok());                     // op 3
  ASSERT_TRUE(a->Flush().ok());
  ASSERT_TRUE(b->Flush().ok());

  fenv.CrashAfterOp(5);  // first sync = op 4 (ok), second = op 5 (crash)
  SyncRequest ra;
  ra.file = a.get();
  SyncRequest rb;
  rb.file = b.get();
  CompletionQueue cq;
  fenv.SubmitSync(&ra, &cq);
  cq.WaitFor(1);  // a's sync completes before the crash op arrives
  fenv.SubmitSync(&rb, &cq);
  cq.WaitFor(2);

  EXPECT_TRUE(ra.status.ok());
  EXPECT_TRUE(rb.status.IsIOError());
  EXPECT_TRUE(fenv.crashed());
  auto files = fenv.TrackedFiles();
  EXPECT_EQ(4u, files["/wal_a"].synced_bytes);
  EXPECT_EQ(0u, files["/wal_b"].synced_bytes);  // crash: no durability effect
}

TEST(FaultEnvAsyncTest, CrashFailsInFlightSyncWithoutDurability) {
  std::unique_ptr<Env> base(NewMemEnv());
  FaultInjectionEnv fenv(base.get());
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(fenv.NewWritableFile("/wal", &f).ok());  // op 0
  ASSERT_TRUE(f->Append("abcde").ok());                // op 1
  ASSERT_TRUE(f->Flush().ok());

  fenv.CrashAfterOp(2);  // the sync itself lands on the crash point
  SyncRequest req;
  req.file = f.get();
  CompletionQueue cq;
  fenv.SubmitSync(&req, &cq);
  cq.WaitFor(1);
  EXPECT_TRUE(req.status.IsIOError());
  EXPECT_TRUE(fenv.crashed());
  auto files = fenv.TrackedFiles();
  EXPECT_EQ(0u, files["/wal"].synced_bytes);

  // After the simulated reboot the unsynced append is gone.
  f.reset();
  ASSERT_TRUE(fenv.CrashAndRestart().ok());
  uint64_t size;
  ASSERT_TRUE(fenv.GetFileSize("/wal", &size).ok());
  EXPECT_EQ(0u, size);
}

}  // namespace acheron
