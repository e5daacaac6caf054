// DBImpl: the concrete Acheron engine.
//
// Concurrency model (see DESIGN.md for the full protocol): one DB mutex
// protects the metadata -- memtable pointers, the version set, the writer
// queue, stats -- but the expensive work happens with the mutex *released*:
//
//  * Writers funnel through a leveldb-style queue in Write(). The front
//    writer becomes the leader, absorbs the batches queued behind it
//    (group commit, one WAL append + at most one fsync per group), and
//    applies the merged batch to the WAL and memtable with the mutex
//    dropped; followers sleep on per-writer condition variables.
//  * When the memtable fills, MakeRoomForWrite rotates the WAL and moves
//    mem_ to the immutable imm_ slot; the flush (and any planner-driven
//    compactions) then run as one round on the Env's background thread
//    via Env::Schedule.
//  * Determinism machinery: a round's result does not depend on when its
//    thread runs. Each round (flush imm_, then compact until the planner
//    is satisfied) picks and drops against the sequence horizon captured
//    when its memtable was swapped out (pending_flush_horizon_), and imm_
//    is only flushed at round boundaries. Tombstone-TTL expiry is enforced
//    inline in the write path at the exact deadline-crossing sequence
//    (see pending_ttl_floor_). So a single-threaded writer produces the
//    same LSM shape however the rounds are timed, which
//    delete_persistence_test and the EXPERIMENTS.md E-series rely on.
//  * All flush/compaction/purge work holds the exclusive "compaction slot"
//    (compaction_active_), because compaction I/O runs unlocked and two
//    jobs could otherwise pick overlapping inputs.
//
// Reads never take the mutex at all: Get/NewIterator acquire the current
// ReadState — an immutable, refcounted {mem, imm, version} bundle published
// by writers with a single atomic pointer store — via a lock-free
// load+ref+recheck, and read-path counters are relaxed atomics. Retired
// ReadStates are torn down on the writer side (retire/drain protocol); see
// the ReadState comment below and DESIGN.md "Read path".
#ifndef ACHERON_LSM_DB_IMPL_H_
#define ACHERON_LSM_DB_IMPL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/compaction_planner.h"
#include "src/core/persistence_monitor.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/snapshot.h"
#include "src/lsm/stats.h"
#include "src/lsm/table_sink.h"
#include "src/lsm/version_set.h"
#include "src/lsm/write_batch.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/vlog/vlog_reader.h"
#include "src/vlog/vlog_writer.h"
#include "src/wal/log_writer.h"

namespace acheron {

class MemTable;
class TableCache;

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  ~DBImpl() override;

  // Implementations of the DB interface.
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status DeleteRange(const WriteOptions&, const Slice& begin,
                     const Slice& end) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::vector<Status> MultiGet(const ReadOptions& options,
                               std::span<const Slice> keys,
                               std::vector<std::string>* values) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  Status FlushMemTable() override;
  Status WaitForCompactions() override;
  DeleteStats GetDeleteStats() override;
  InternalStats GetStats() override;
  Status PurgeSecondaryRange(const Slice& threshold) override;
  Status Resume() override;

  // Extra test/bench hooks.
  // Compact any files in level L that overlap [*begin,*end].
  void TEST_CompactRange(int level, const Slice* begin, const Slice* end);
  // Return an internal iterator over the current DB state (internal keys).
  Iterator* TEST_NewInternalIterator();
  // The planner in use (TTL schedule inspection).
  const CompactionPlanner& TEST_planner() const { return planner_; }
  // Output numbers still protected from file GC: zero once every table
  // output job has installed or failed.
  size_t TEST_PendingOutputs();
  // True when the table-output worker has no queued or running work.
  bool TEST_OutputWorkerIdle() const { return output_worker_->Idle(); }

 private:
  friend class DB;
  struct CompactionState;
  struct Writer;

  // An immutable snapshot of the structures a read needs, published by
  // writers with one atomic pointer store and acquired by readers with a
  // lock-free load+ref+recheck. The node's refcount counts the publication
  // itself (1 while the node is read_state_) plus every in-flight reader.
  //
  // Memory is type-stable: nodes are never freed while the DB is open.
  // Retiring a superseded node moves it to retired_read_states_; the
  // writer-side drain (under mutex_) tears down nodes whose refcount has
  // reached zero — Unref'ing mem/imm/current — and recycles them through
  // free_read_states_. A reader can therefore touch a retired (or even
  // recycled) node's refcount at any time without a use-after-free; the
  // recheck of read_state_ after the ref guarantees it only *uses* the
  // fields of the currently published node.
  struct ReadState {
    std::atomic<uint32_t> refs{0};
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;  // may be null
    Version* current = nullptr;
  };

  // Lock-free: returns the current ReadState with one reference held.
  ReadState* AcquireReadState() LOCKS_EXCLUDED(mutex_);
  // Lock-free: drops a reference taken by AcquireReadState. Never tears the
  // node down — that is deferred to the writer-side drain.
  void ReleaseReadState(ReadState* state) { UnrefReadState(this, state); }
  // Iterator-cleanup shape of ReleaseReadState (|arg1| is the DBImpl,
  // |arg2| the ReadState), so iterator destruction stays mutex-free.
  static void UnrefReadState(void* arg1, void* arg2);
  // Re-bundle {mem_, imm_, versions_->current()} into a fresh node, publish
  // it, retire the predecessor, and drain retired nodes. Called after every
  // memtable swap / flush install / version install.
  void PublishReadState() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Tear down retired nodes whose refcount reached zero.
  void DrainRetiredReadStates() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // |state_out|, when non-null, receives the pinned ReadState backing the
  // iterator (valid for the iterator's lifetime; the iterator's cleanup
  // drops the reference). NewIterator uses it to aggregate the range
  // tombstones visible to the same snapshot.
  Iterator* NewInternalIterator(const ReadOptions&,
                                SequenceNumber* latest_snapshot,
                                ReadState** state_out = nullptr)
      LOCKS_EXCLUDED(mutex_);

  Status NewDB();

  // Recover the descriptor from persistent storage. May do a significant
  // amount of work to recover recently logged updates.
  Status Recover(VersionEdit* edit, bool* save_manifest)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // |replayed_deletes| accumulates the tombstones re-inserted from the log,
  // so Recover can restore the monitor's exact written count (journaled
  // baseline + WAL replay).
  Status RecoverLogFile(uint64_t log_number, bool last_log,
                        bool* save_manifest, VersionEdit* edit,
                        SequenceNumber* max_sequence,
                        uint64_t* replayed_deletes,
                        uint64_t* replayed_range_deletes)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Delete any unneeded files and stale in-memory entries. Classifies the
  // directory listing under the mutex, then releases it for the unlink loop.
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Record the former level of every table file |edit| retired (skipping
  // numbers it re-adds, i.e. trivial moves) into dead_table_levels_. Called
  // after the edit installs.
  void RecordDeadTableLevels(const VersionEdit& edit)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Flush imm_ to an L0 table and clear it. Requires the compaction slot.
  Status CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Build an SSTable from |mem| and register it in |edit| at level 0. The
  // mutex is released for the table build (|mem| is frozen: either imm_ or
  // a recovery-only memtable no writer can touch).
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Allocate a table-output number and protect it from file GC
  // (pending_outputs_) until its job installs or fails; the TableSink
  // callback every output path passes.
  uint64_t NewOutputFileNumber() LOCKS_EXCLUDED(mutex_);

  // Ensure mem_ has room for the next batch: apply L0 slowdown/stop
  // throttles, wait out a busy imm_, and rotate mem_ -> imm_ (plus the WAL)
  // when the write buffer is full or the FADE memtable-tombstone-age
  // trigger fires. |force| (a Write(nullptr) from FlushMemTable) swaps even
  // a non-full memtable. Called by the write-group leader.
  Status MakeRoomForWrite(bool force) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Merge the batches of the writers queued behind the leader into one
  // batch (group commit). Sets *last_writer to the last writer absorbed.
  WriteBatch* BuildBatchGroup(Writer** last_writer)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Hand a round to the Env's background thread if a flush is pending
  // (imm_ != nullptr) and none is in flight. Rounds are flush-driven:
  // planner work runs inside the round that flushed, and TTL expiry is
  // enforced inline by the write path, so there is nothing to schedule
  // without a pending flush.
  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  static void BGWork(void* db);
  void BackgroundCall() LOCKS_EXCLUDED(mutex_);

  // Acquire/release the exclusive compaction slot. All flush/compaction/
  // purge work runs inside the slot because its I/O drops the mutex.
  void AcquireCompactionSlot() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void ReleaseCompactionSlot() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // One round: flush imm_ (if any), then run compactions until the planner
  // is satisfied, all against the horizon captured when the memtable was
  // swapped (or the current sequence if there is no pending flush). Takes
  // the compaction slot for the duration.
  Status RunCompactions() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Run planner-picked compactions until nothing is left to do at
  // |horizon| (both the planner's TTL clock and the drop horizon). Caller
  // must hold the compaction slot.
  Status MaybeCompact(SequenceNumber horizon) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status DoCompactionWork(CompactionState* compact, SequenceNumber horizon)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status InstallCompactionResults(CompactionState* compact,
                                  const std::vector<TableSink::Output>& outputs)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // ---- Background-error state machine (transient-fault tolerance) ----
  //
  // Replaces the old sticky bg_error_: background failures are classified
  // by subsystem and errno class and drive a small state machine,
  //
  //     kOk -> kRetrying ----------> kFatal      (budget exhausted)
  //      ^        |
  //      |        +----------------> kFatal      (corruption, always)
  //      `---- (round succeeds)
  //     kOk -> kDegradedReadOnly -> kOk          (ENOSPC; space returns)
  //     kDegradedReadOnly --------> kFatal       (never: space errors only
  //                                               resolve or persist)
  //
  // While kRetrying, failed flush/compaction rounds are re-run with
  // exponential backoff (deterministic, jitterless); WAL and MANIFEST
  // failures consume two attempts per failure so they escalate faster.
  // While kDegradedReadOnly, writes fail with Status::NoSpace but the
  // lock-free read path stays fully live; a space-watcher probe (or
  // DB::Resume) transitions back to kOk. kFatal is sticky and equals the
  // old behavior.

  // Where a background failure occurred; determines escalation speed and
  // whether the WAL must rotate before the next record.
  enum class ErrorSubsystem { kFlush, kCompaction, kWalSync, kManifest };
  enum class BackgroundErrorState { kOk, kRetrying, kDegradedReadOnly, kFatal };

  // Classify |s| and advance the state machine. All transitions happen
  // here and in ReturnToOk (reached from ClearBackgroundError and
  // TryResumeFromNoSpace) -- each under mutex_ (checked by
  // tools/acheron_check.py).
  void RecordBackgroundError(const Status& s, ErrorSubsystem subsystem)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // The one reset to kOk: clears the error, its attempt count and backoff,
  // lowers the monitor's dth_at_risk flag, and counts the recovery in
  // |*recoveries| (errors_retried or resume_count).
  void ReturnToOk(uint64_t* recoveries) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // A background round completed while kRetrying: the episode recovered.
  // No-op in any other state.
  void ClearBackgroundError() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Probe the filesystem (mutex released for the I/O) and, if space has
  // returned while kDegradedReadOnly, transition back to kOk and restart
  // background work. Returns OK once writable, the space error otherwise.
  Status TryResumeFromNoSpace() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Background work (flush/compaction rounds) may proceed in this state --
  // possibly as a retry. False once fatal or degraded.
  bool BackgroundWorkAllowed() const EXCLUSIVE_LOCKS_REQUIRED(mutex_) {
    return bg_error_state_ == BackgroundErrorState::kOk ||
           bg_error_state_ == BackgroundErrorState::kRetrying;
  }

  // RunCompactions, plus an inline unlock/backoff/retry loop for the rounds
  // a writer runs itself (TTL expiry, the depth-ambiguity drain,
  // WaitForCompactions); background rounds retry by re-scheduling through
  // Env::Schedule instead. Returns the final status; clears the error
  // episode on success.
  Status RunCompactionsWithRetry() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Record a failed MakeRoomForWrite step and, while kRetrying, serve the
  // scheduled backoff with the mutex released. The caller re-enters its
  // loop, whose head retries, probes for space, or stops when fatal.
  void RecordErrorAndBackoff(const Status& s, ErrorSubsystem subsystem)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Sync and close the current WAL (if any), then open a fresh one and
  // install it as log_/logfile_/logfile_number_, clearing
  // wal_rotation_pending_. On failure nothing is installed; the caller
  // records the error as kWalSync.
  Status RotateWal() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Kick off the ENOSPC space watcher if configured and not running.
  void MaybeStartSpaceWatcher() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  static void SpaceWatcherWork(void* db);
  void SpaceWatcherCall() LOCKS_EXCLUDED(mutex_);

  // The oldest sequence number any reader may still need.
  SequenceNumber SmallestSnapshot() const EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Fold the atomic read-path counters (gets, gets_found, bloom_useful,
  // iter_tombstones_skipped) into an InternalStats snapshot copy.
  void MergeReadPathCounters(InternalStats* merged) const;

  // Recompute next_ttl_deadline_ from the current version: the earliest
  // logical time at which some file's oldest tombstone will exceed its
  // level's cumulative TTL.
  void ComputeNextTtlDeadline() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // The delete-persistence summary GetDeleteStats and the
  // "acheron.delete-stats" property report: tombstones live and the oldest
  // live age across the tables, the memtable and the immutable memtable.
  DeleteStats ComputeDeleteStats() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // A table the one rewrite job replaces, and the level it sits at.
  struct RewriteTarget {
    const FileMetaData* f;
    int level;
  };

  // The per-entry step of a table rewrite. |match| is a pure test for an
  // entry the rewrite changes; |apply|, called on matches only, replaces
  // *value or clears *keep to drop the entry. |finish|, if set, runs
  // unlocked after the last table and before the install (vLog GC seals
  // its relocation segment there).
  struct RewriteTransform {
    std::function<bool(const ParsedInternalKey&, const Slice& value)> match;
    std::function<Status(const ParsedInternalKey&, Slice* value, bool* keep)>
        apply;
    std::function<Status()> finish;
  };

  // The one table-rewrite job (vLog GC and the secondary purge). With the
  // mutex released, each target holding a |transform| match streams
  // through it into a TableSink run (range tombstones, wall stamps and
  // bounds carried over); a target without one keeps its file. Then the
  // replacements join |edit| at their targets' levels and run_ids, and
  // |edit| installs. The caller holds the compaction slot and a reference
  // on the targets' version. |worker| is the sink's output thread, or
  // nullptr to build inline.
  Status RewriteTables(const std::vector<RewriteTarget>& targets,
                       const RewriteTransform& transform,
                       TableSinkWorker* worker, VersionEdit* edit)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // ---- Value log (key-value separation; see src/vlog/ and DESIGN.md) ----
  //
  // Values at or above Options::value_separation_threshold are appended to
  // an append-only, checksummed value-log segment by the write-group leader
  // (in its unlocked section -- one leader at a time serializes appends, the
  // same argument that covers log_), leaving a (segment, offset, size)
  // pointer in the WAL/memtable/SSTs. The registry of segments lives in the
  // VersionSet and is journaled through the MANIFEST (tags 13-16), so the
  // set of value-bearing files recovers exactly like the set of tables.

  bool VlogEnabled() const { return options_.value_separation_threshold > 0; }

  // Open a fresh head segment and register it (unsealed) in |edit|.
  Status NewVlogHead(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Seal the current head: flush + sync + close the file and record the
  // final sealed extent in |edit|. Sync-before-install: callers LogAndApply
  // |edit| only after this returns OK, so a "sealed" registry entry always
  // describes durable bytes.
  Status SealVlogHead(VersionEdit* edit) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Seal the head (if it holds values), open a successor, and install both
  // through one immediately-applied edit. Runs at every memtable swap --
  // which keeps all pointers into a sealed segment inside a single memtable
  // generation, the invariant vLog GC's safety proof rests on -- and when
  // the head exceeds Options::vlog_segment_size or is poisoned by an
  // append/sync error (vlog_rotation_pending_).
  Status RotateVlogHead() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Recompute next_vlog_gc_deadline_ from the registry's pending purges.
  void ComputeNextVlogGcDeadline() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // One GC pass: collect every eligible sealed segment -- empty, FADE
  // deadline reached (earliest pending purge_seq + D_th/2 <= now), or
  // live-byte ratio at or below Options::vlog_gc_live_ratio -- and, when
  // any deadline is reached, every other segment that owes a purge.
  // Caller holds the compaction slot.
  Status MaybeVlogGc() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Relocate the live values of |victims| (keyed back-check through the
  // tables that still point at them) into one fresh sealed segment, drop
  // the victims from the registry, and journal the value-purge latencies
  // of their pending purges: one rewrite job, one edit. Caller holds the
  // compaction slot.
  Status CollectVlogSegments(const std::set<uint64_t>& victims)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Recovery: reconcile the recovered registry against the .vlog files on
  // disk. The unsealed head (if any) is CRC-scanned and logically sealed at
  // its valid extent via |edit|; recovered_vlog_extents_ is filled for WAL
  // pointer validation during replay.
  Status RecoverVlog(VersionEdit* edit, bool* save_manifest)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Lock-free: set |*seq| to the largest range-tombstone sequence <=
  // |snapshot| covering |key| across the pinned mem, imm and version, or 0
  // when uncovered. Sequence numbers are global, so a found entry is hidden
  // iff this exceeds its sequence. Fails when a table holding range
  // tombstones cannot be opened.
  static Status RangeCoveringSeq(const ReadState& state, const Slice& key,
                                 SequenceNumber snapshot,
                                 SequenceNumber* seq);

  // Lock-free: dereference an encoded value pointer (keyed back-check
  // against |user_key|) through the reader cache.
  Status DerefValuePointer(const Slice& encoded, const Slice& user_key,
                           std::string* value);

  // Constant after construction.
  Env* const env_;
  const InternalKeyComparator internal_comparator_;
  const Options options_;  // sanitized
  const bool owns_cache_;
  const bool owns_filter_policy_;
  const std::string dbname_;

  // table_cache_ provides its own synchronization.
  std::unique_ptr<TableCache> table_cache_;

  // State below is protected by mutex_ (enforced by the thread-safety
  // analysis under Clang; see src/util/thread_annotations.h).
  mutable Mutex mutex_;
  std::atomic<bool> shutting_down_{false};
  MemTable* mem_ GUARDED_BY(mutex_);
  MemTable* imm_ GUARDED_BY(mutex_);  // memtable being flushed; may be null
  // The sequence horizon captured when mem_ was swapped into imm_: the
  // round that flushes imm_ picks and drops against this value, so the
  // compaction schedule is fixed at the swap point regardless of how far
  // writers have raced ahead before the round's thread runs.
  SequenceNumber pending_flush_horizon_ GUARDED_BY(mutex_) = 0;
  // Conservative lower bound on the TTL deadline the pending imm_ flush
  // will introduce (its earliest tombstone + level-0's cumulative TTL).
  // next_ttl_deadline_ only learns about a file once its flush installs;
  // without this floor a writer could race past the deadline while the
  // flush is still queued behind it. UINT64_MAX when imm_ is null or
  // tombstone-free. Installs never lower existing deadlines (moving a
  // file down adds TTL budget), so the floor only needs to track the
  // pending flush.
  uint64_t pending_ttl_floor_ GUARDED_BY(mutex_) = UINT64_MAX;
  // Monitor written-count captured when mem_ was swapped into imm_. At that
  // instant the new (empty) WAL holds no deletes, so this equals the number
  // of tombstones in all WALs older than the flush edit's log_number; the
  // flush edit journals it (SetMonitorWritten) so recovery can reconstruct
  // the exact written count as journaled value + deletes re-counted from
  // the surviving WALs.
  uint64_t pending_written_at_swap_ GUARDED_BY(mutex_) = 0;
  // Range-delete counterpart of pending_written_at_swap_, captured at the
  // same instant and journaled by the same flush edit (kMonitorRangeWritten).
  uint64_t pending_range_written_at_swap_ GUARDED_BY(mutex_) = 0;
  std::unique_ptr<WritableFile> logfile_ GUARDED_BY(mutex_);
  uint64_t logfile_number_ GUARDED_BY(mutex_);
  // The log number created by the swap that produced the current imm_:
  // the flush edit retires exactly the logs older than this. Usually
  // equals logfile_number_, but a WAL-recovery rotation (see
  // wal_rotation_pending_) can advance logfile_number_ while imm_ is still
  // pending -- retiring by the *current* number would drop un-flushed
  // acked records that live in the swap-time log.
  uint64_t pending_log_number_at_swap_ GUARDED_BY(mutex_) = 0;
  std::unique_ptr<wal::Writer> log_ GUARDED_BY(mutex_);

  // Writer queue: the front writer is the group leader and the only thread
  // that touches the WAL/memtable; it does so with the mutex released (the
  // pointers are captured under the lock first).
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);
  WriteBatch tmp_batch_ GUARDED_BY(mutex_);  // scratch for group commit

  // True while a flush/compaction/purge owns the (single) compaction slot.
  bool compaction_active_ GUARDED_BY(mutex_);
  // True while a background round is queued on or running in the Env's
  // worker thread.
  bool bg_compaction_scheduled_ GUARDED_BY(mutex_);
  // Signaled when background work (or a slot holder) finishes or the imm_
  // flush completes; waited on by throttled writers, WaitForCompactions,
  // the destructor, and slot acquisition.
  CondVar background_work_finished_signal_;  // paired with mutex_

  SnapshotList snapshots_ GUARDED_BY(mutex_);

  // Set of table files to protect from deletion because they are part of
  // ongoing work.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mutex_);

  // Builds and writes the outputs of flush, compaction and purge jobs on
  // its own thread (started on first use, joined at close). One is enough:
  // every job holds the compaction slot, or runs during recovery before
  // any other thread exists.
  const std::unique_ptr<TableSinkWorker> output_worker_;

  // Former level of each dead table file awaiting unlink, recorded when the
  // VersionEdit that retired it installed. RemoveObsoleteFiles unlinks dead
  // tables deepest-level-first (oldest run first within a level): entries
  // that shadow other entries always sit in a *shallower* file, so at every
  // prefix of the unlink order the files still on disk form a
  // resurrection-free set — a crash mid-cleanup followed by RepairDB (which
  // salvages whatever remains) can never expose a value whose tombstone
  // file was already unlinked.
  std::map<uint64_t, int> dead_table_levels_ GUARDED_BY(mutex_);

  std::unique_ptr<VersionSet> versions_ GUARDED_BY(mutex_);

  // Unguarded alias of versions_.get(), set once in the constructor and
  // never changed. The lock-free read path may reach exactly one member
  // through it: the atomic last-sequence accessor (LastSequenceAcquire).
  // Everything else on VersionSet still requires mutex_ via versions_.
  VersionSet* version_set_lockfree_ = nullptr;

  // The currently published ReadState (acquire/release pairing with
  // PublishReadState). Null only before DB::Open publishes the first state
  // and after the destructor tears the last one down.
  std::atomic<ReadState*> read_state_{nullptr};
  // Superseded ReadStates awaiting teardown (refcount may still be held by
  // in-flight readers) and zero-ref nodes ready for reuse. ACQUIRED_AFTER
  // is implicit: both are only touched with mutex_ already held.
  std::vector<ReadState*> retired_read_states_ GUARDED_BY(mutex_);
  std::vector<ReadState*> free_read_states_ GUARDED_BY(mutex_);

  CompactionPlanner planner_;  // immutable after construction
  DeletePersistenceMonitor monitor_;  // provides its own synchronization
  InternalStats stats_ GUARDED_BY(mutex_);

  // Tombstones stepped over by live DBIter instances. Iterators outlive any
  // mutex_ critical section and run concurrently with writers, so this
  // counter is atomic rather than folded under mutex_; it is merged into
  // InternalStats snapshots on read.
  std::atomic<uint64_t> iter_tombstones_skipped_{0};

  // Read-path counters. Get never holds mutex_, so these are relaxed
  // atomics rather than fields of the mutex-guarded stats_; they are merged
  // into InternalStats snapshots on read, like iter_tombstones_skipped_
  // above (bloom_useful is merged from the table cache's aggregate).
  // gets_found_ is bumped with release after gets_ and loaded first with
  // acquire, so a snapshot never shows more found Gets than Gets.
  std::atomic<uint64_t> gets_{0};
  std::atomic<uint64_t> gets_found_{0};

  // Logical time at which the next file-TTL expiry fires; writes past this
  // point invoke the compaction machinery even without a flush. UINT64_MAX
  // when no live tombstone is on the clock.
  uint64_t next_ttl_deadline_ GUARDED_BY(mutex_) = UINT64_MAX;

  // ---- Background-error state (see the state-machine comment above) ----

  // Last background error recorded. Meaningful whenever bg_error_state_ is
  // not kOk; returned to writers when kFatal, and by Resume when the DB is
  // past recovery.
  Status bg_error_ GUARDED_BY(mutex_);
  BackgroundErrorState bg_error_state_ GUARDED_BY(mutex_) =
      BackgroundErrorState::kOk;
  ErrorSubsystem bg_error_subsystem_ GUARDED_BY(mutex_) =
      ErrorSubsystem::kCompaction;
  // Attempts consumed by the current error episode (resets on recovery).
  int bg_error_attempts_ GUARDED_BY(mutex_) = 0;
  // Backoff the next background round should sleep before starting;
  // consumed (and zeroed) with the mutex *released* at the top of
  // BackgroundCall / inside RunCompactionsWithRetry.
  uint64_t retry_backoff_micros_ GUARDED_BY(mutex_) = 0;
  // A WAL append or sync failed: the wal::Writer's block arithmetic may
  // have diverged from the bytes that reached the file, so the next record
  // must go to a fresh log (MakeRoomForWrite performs the rotation; a
  // retried append in place could be mis-parsed by recovery).
  bool wal_rotation_pending_ GUARDED_BY(mutex_) = false;
  // True while the ENOSPC space watcher is queued on or running in the
  // Env's worker; the destructor waits for it to drain.
  bool space_watcher_scheduled_ GUARDED_BY(mutex_) = false;
  // Serializes TryResumeFromNoSpace probes (the probe I/O drops mutex_).
  bool resume_probe_active_ GUARDED_BY(mutex_) = false;

  // ---- Value-log state ----

  // Head segment writer. Rotated only under mutex_; the group leader
  // appends through a pointer captured under the lock -- exactly the
  // log_/logfile_ protocol, safe for the same one-leader-awake reason.
  std::unique_ptr<vlog::Writer> vlog_ GUARDED_BY(mutex_);
  // Pointer dereferences on the lock-free read path (provides its own
  // synchronization; a leaf lock under tools/lock_order.txt).
  vlog::ReaderCache vlog_readers_;
  // Dereferences served; relaxed atomic because Get/iterators never hold
  // mutex_. Merged into stats snapshots like gets_.
  std::atomic<uint64_t> vlog_reads_{0};
  // Scratch batch for the leader's value-separation transform (only the
  // leader touches it, through a pointer captured under the lock -- the
  // tmp_batch_ argument).
  WriteBatch separated_batch_ GUARDED_BY(mutex_);
  // A vLog append/flush/sync failed: the writer's offset arithmetic may
  // have diverged from the file, so the head must rotate before the next
  // separated value lands (same contract as wal_rotation_pending_).
  bool vlog_rotation_pending_ GUARDED_BY(mutex_) = false;
  // Earliest logical time at which some segment's pending value purges hit
  // the GC deadline (earliest purge_seq + D_th/2); UINT64_MAX when none.
  // Checked by the write path's inline deadline loop alongside
  // next_ttl_deadline_, so value purges obey the same clock discipline as
  // tombstone TTLs.
  uint64_t next_vlog_gc_deadline_ GUARDED_BY(mutex_) = UINT64_MAX;
  // Durable byte extent per segment as recovered (sealed extent, or the
  // CRC-scanned extent of the unsealed head). Used only during Recover: a
  // replayed WAL pointer past its segment's extent proves the write was
  // never acked (the vLog syncs before the WAL on the ack path), so replay
  // stops there -- the vLog analogue of torn-WAL-tail truncation.
  vlog::Extents recovered_vlog_extents_ GUARDED_BY(mutex_);
};

// Sanitize db options: clamp user-supplied values to reasonable ranges and
// fill defaults (env, comparator).
Options SanitizeOptions(const std::string& dbname, const Options& src);

}  // namespace acheron

#endif  // ACHERON_LSM_DB_IMPL_H_
