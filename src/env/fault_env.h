// FaultInjectionEnv: wraps another Env and injects IO failures for tests.
// Three fault families:
//   - write errors after a countdown, read errors by filename substring;
//   - soft (recoverable) faults: FailOpOnce(k) makes the mutating op with
//     index k fail once with a chosen errno class (transient EIO or
//     ENOSPC) and no effect; the retried op gets a fresh index and
//     succeeds. SetPersistentSoftFault keeps data-path ops failing until
//     cleared while remove/rename/close still succeed (a full disk where
//     deleting files still frees space);
//   - deterministic crash simulation: every mutating file operation
//     (create/append/sync/close/remove/rename) is numbered in arrival
//     order; CrashAfterOp(k) makes op k and everything after it fail with
//     IOError, and CrashAndRestart() rolls every tracked file back to its
//     durable (synced) prefix -- optionally keeping a caller-chosen torn
//     tail -- modelling a machine crash followed by a reboot.
//
// Crash-simulation assumptions (documented, relied on by the crash matrix):
//   - the base Env applies Append() immediately (true for MemEnv and for
//     NewPosixEnv(/*unbuffered_writes=*/true); the default PosixEnv buffers
//     64KiB of table, MANIFEST and vLog appends, so crash simulation there
//     would under-count what reached the OS);
//   - metadata operations (create, remove, rename) are atomic and durable
//     the moment they succeed (journaled-metadata filesystem model);
//   - Close() does NOT imply durability (matches POSIX close(2)).
#ifndef ACHERON_ENV_FAULT_ENV_H_
#define ACHERON_ENV_FAULT_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace acheron {

class FaultInjectionEnv : public Env {
 public:
  // Does not take ownership of |base|.
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // After |n| more Append() calls (across all writable files), every write
  // fails with IOError. n < 0 disables the fault.
  void SetWriteFaultCountdown(int64_t n) {
    write_countdown_.store(n, std::memory_order_release);
  }

  // Reads from any file whose name contains |substr| fail with IOError.
  // Empty string disables the fault. Applies to both random-access and
  // sequential reads.
  void SetReadFaultSubstring(const std::string& substr) {
    MutexLock l(&mu_);
    read_fault_substr_ = substr;
  }

  // Number of injected faults fired so far (write-countdown and read-
  // substring faults; simulated-crash failures are counted separately by
  // FileOpCount()/crashed()).
  uint64_t FaultsInjected() const {
    return faults_injected_.load(std::memory_order_acquire);
  }

  // ---- Soft (recoverable) faults -----------------------------------------

  // Errno class a soft fault surfaces as.
  enum class SoftFaultClass {
    kTransientEio,  // Status::IOError -- retryable
    kNoSpace,       // Status::NoSpace -- degrades to read-only
  };

  // Arm a one-shot soft fault at absolute mutating-op index |k| (same
  // numbering as CrashAfterOp): that single op fails with |cls| and has no
  // effect; a retry of the same logical operation arrives at a fresh index
  // and succeeds. Several indices may be armed at once.
  void FailOpOnce(int64_t k,
                  SoftFaultClass cls = SoftFaultClass::kTransientEio) {
    MutexLock l(&mu_);
    if (k >= 0) soft_fail_ops_[static_cast<uint64_t>(k)] = cls;
  }

  // Every create/append/sync fails with |cls| until cleared. close,
  // remove, and rename still succeed: under ENOSPC the filesystem keeps
  // honoring frees, which is what lets the engine's space watcher observe
  // space returning.
  void SetPersistentSoftFault(SoftFaultClass cls) {
    MutexLock l(&mu_);
    persistent_fault_armed_ = true;
    persistent_fault_class_ = cls;
  }
  void ClearPersistentSoftFault() {
    MutexLock l(&mu_);
    persistent_fault_armed_ = false;
  }

  // Soft faults (one-shot + persistent) fired so far.
  uint64_t SoftFaultsInjected() const {
    MutexLock l(&mu_);
    return soft_faults_injected_;
  }

  // ---- Crash simulation --------------------------------------------------

  // What survives CrashAndRestart().
  enum class CrashDataPolicy {
    // Machine crash: every file rolls back to its last-synced prefix
    // (plus any per-file override passed to CrashAndRestart).
    kDropUnsynced,
    // Process crash: everything written survives, synced or not.
    kKeepWritten,
  };

  // Durability bookkeeping for one tracked file.
  struct FileCrashInfo {
    uint64_t synced_bytes = 0;   // durable prefix length
    uint64_t written_bytes = 0;  // total bytes appended
    uint64_t last_append_bytes = 0;  // size of the most recent Append
  };

  // The mutating file op a crash landed on (valid once crashed()).
  struct CrashedOpInfo {
    std::string kind;  // "create"|"append"|"sync"|"close"|"remove"|"rename"
    std::string fname;
    uint64_t append_size = 0;  // payload size when kind == "append"
  };

  // Number of mutating file operations attempted so far. Ops are numbered
  // 0,1,2,... in arrival order; reads and directory listings do not count.
  uint64_t FileOpCount() const {
    MutexLock l(&mu_);
    return op_counter_;
  }

  // Arm a crash at op index |k|: the first k mutating ops proceed, the op
  // with index k and every mutating op after it fails with IOError
  // ("simulated crash") and has no effect. k < 0 disarms. Arming does not
  // reset the op counter; pass an absolute index.
  void CrashAfterOp(int64_t k) {
    MutexLock l(&mu_);
    crash_at_op_ = k;
  }

  // Arm a crash |j| mutating ops from now (relative to the current op
  // counter). Used by the crash-during-recovery matrix to place a second
  // crash at the j-th file op *inside* DB::Open/RepairDB without the caller
  // having to read FileOpCount() separately.
  void CrashAfterRelativeOps(uint64_t j) {
    MutexLock l(&mu_);
    crash_at_op_ = static_cast<int64_t>(op_counter_ + j);
  }

  // True once an armed crash point has fired.
  bool crashed() const {
    MutexLock l(&mu_);
    return crashed_;
  }

  CrashedOpInfo crashed_op() const {
    MutexLock l(&mu_);
    return crashed_op_;
  }

  // Snapshot of the per-file durability bookkeeping.
  std::map<std::string, FileCrashInfo> TrackedFiles() const {
    MutexLock l(&mu_);
    return files_;
  }

  // Simulate the reboot after a crash: every tracked file is truncated to
  // its persisted length and the env becomes usable again (the crash point
  // is disarmed). The persisted length of a file is
  //   - its synced prefix under kDropUnsynced,
  //   - everything written under kKeepWritten,
  //   - the override in |persisted_bytes| if one is given for that file
  //     (clamped to [synced_bytes, written_bytes]) -- this is how a torn
  //     tail at an arbitrary byte offset within the unsynced region is
  //     expressed.
  // Callable whether or not a crash fired (it then just drops unsynced
  // data). Requires that no file handles from this env are still in use.
  Status CrashAndRestart(
      CrashDataPolicy policy = CrashDataPolicy::kDropUnsynced,
      const std::map<std::string, uint64_t>& persisted_bytes = {});

  // Env interface: forwards to base with fault hooks.
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override;
  // Threading passes straight through: faults are injected at the file layer,
  // and the wrapped Env's scheduler already serializes background work.
  void Schedule(void (*function)(void*), void* arg) override {
    base_->Schedule(function, arg);
  }
  void StartThread(void (*function)(void*), void* arg) override {
    base_->StartThread(function, arg);
  }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

  // Fault hooks used by the wrapped file objects; also callable from tests.
  // Returns true if this write should fail (and counts the fault).
  bool ShouldFailWrite();
  bool ShouldFailRead(const std::string& fname);

  // Crash hooks used by the wrapped file objects. RegisterFileOp assigns
  // the next op index and returns the simulated-crash failure when the
  // armed crash point is reached (the op must then have no effect).
  Status RegisterFileOp(const char* kind, const std::string& fname,
                        uint64_t append_size = 0);
  void OnAppendDone(const std::string& fname, uint64_t n);
  void OnSyncDone(const std::string& fname);

 private:
  // REQUIRES: mu_ held. Rolls |fname| in the base env back to |persisted|
  // bytes by rewriting its prefix. Drops and reacquires no locks; the
  // base-env I/O runs inline (test-only path, quiescent by contract).
  Status TruncateBaseFile(const std::string& fname, uint64_t persisted)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);

  Env* const base_;
  mutable Mutex mu_;
  std::string read_fault_substr_ GUARDED_BY(mu_);
  std::atomic<int64_t> write_countdown_{-1};
  std::atomic<uint64_t> faults_injected_{0};

  // Soft-fault state.
  std::map<uint64_t, SoftFaultClass> soft_fail_ops_ GUARDED_BY(mu_);
  bool persistent_fault_armed_ GUARDED_BY(mu_) = false;
  SoftFaultClass persistent_fault_class_ GUARDED_BY(mu_) =
      SoftFaultClass::kTransientEio;
  uint64_t soft_faults_injected_ GUARDED_BY(mu_) = 0;

  // Crash simulation state.
  uint64_t op_counter_ GUARDED_BY(mu_) = 0;
  int64_t crash_at_op_ GUARDED_BY(mu_) = -1;
  bool crashed_ GUARDED_BY(mu_) = false;
  CrashedOpInfo crashed_op_ GUARDED_BY(mu_);
  std::map<std::string, FileCrashInfo> files_ GUARDED_BY(mu_);
};

}  // namespace acheron

#endif  // ACHERON_ENV_FAULT_ENV_H_
