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
//    thread runs. A flush round (flush imm_, then compact until the
//    planner is satisfied) runs against the sequence horizon captured when
//    its memtable was swapped out (pending_flush_horizon_); a TTL round
//    against the sequence of the write that crossed a tombstone-TTL
//    deadline (ttl_round_horizons_). That horizon is every pick's expiry
//    clock, the drop horizon and the persistence stamp, and pending rounds
//    run in horizon order. The crossing write queues its TTL round and
//    returns; writers run on until the clock reaches pending_ttl_floor_, a
//    lower bound on every deadline the pending rounds can leave, and wait
//    there. So a single-threaded writer produces the same LSM shape however
//    the rounds are timed, which delete_persistence_test and the
//    EXPERIMENTS.md E-series rely on.
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
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/compaction_planner.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/memtable_linker.h"
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

// The journaled half of a DeleteStats: each population's persisted and
// superseded counts and latency percentiles, read from |journal|.
DeleteStats DeleteStatsFromJournal(const DeleteClocks& journal);

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
  // Output numbers still protected from file GC: zero once every table
  // output job has installed or failed.
  size_t TEST_PendingOutputs();
  // True when the table-output worker has no queued or running work.
  bool TEST_OutputWorkerIdle() const { return output_worker_->Idle(); }
  // The memtable linker (hold, arm and scan hooks).
  MemTableLinker* TEST_linker() const { return linker_.get(); }
  // The table cache (pin and lookup counts).
  const TableCache* TEST_table_cache() const { return table_cache_.get(); }

 private:
  friend class DB;
  struct CompactionState;
  struct VlogRelocation;
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
  // After a background install: PublishReadState, then build the new
  // version's range-tombstone list (Version::BuildRangeTombstones) with
  // the mutex dropped, so no read pays for it.
  void PublishInstalledVersion() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

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
  // so Recover can restore the exact written count (journaled baseline +
  // WAL replay).
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

  // Hand a round to the Env's background thread if a flush (imm_) or a TTL
  // round (ttl_round_horizons_) is pending and no round is in flight.
  // Planner work runs inside the round whose horizon made it due, so there
  // is nothing else to schedule.
  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  static void BGWork(void* db);
  void BackgroundCall() LOCKS_EXCLUDED(mutex_);

  // Acquire/release the exclusive compaction slot. All flush/compaction/
  // purge work runs inside the slot because its I/O drops the mutex.
  void AcquireCompactionSlot() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void ReleaseCompactionSlot() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Run every pending round in horizon order: a flush round (flush imm_,
  // then compact and collect the vLog at the swap horizon) and a TTL round
  // (compact and collect at the crossing horizon); the current sequence
  // when neither is pending. Takes the compaction slot for the duration.
  Status RunCompactions() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Run planner-picked compactions until nothing is left to do at
  // |horizon| (both the planner's TTL clock and the drop horizon). Caller
  // must hold the compaction slot.
  Status MaybeCompact(SequenceNumber horizon) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // The one table-rewrite loop: merge the compaction's inputs with the
  // mutex released, dropping what no reader can see at |horizon| (and,
  // for a purge, what the retention threshold expired), relocating kept
  // pointers into vLog GC victims, then install the outputs.
  Status DoCompactionWork(CompactionState* compact, SequenceNumber horizon)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  Status InstallCompactionResults(CompactionState* compact,
                                  const std::vector<FileMetaData>& outputs)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Count |c| in compaction_count and compactions_by_reason.
  void CountCompaction(const Compaction& c) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Run |rewrites| (from VersionSet::InPlaceCompactions) in order through
  // DoCompactionWork at |horizon|, each counted under its reason, stopping
  // at the first failure. Each carries |relocation| (vLog GC; the last one
  // retires the victims) or |purge_threshold| (the secondary purge). The
  // caller holds the compaction slot and records any error.
  Status RunRewrites(const std::vector<std::unique_ptr<Compaction>>& rewrites,
                     SequenceNumber horizon, VlogRelocation* relocation,
                     const Slice* purge_threshold)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // After a compaction outside a round (manual, purge): its install may
  // have moved tombstones and charged value purges to vLog segments, so
  // re-arm both FADE clocks as a round does. It may also have deepened the
  // tree under a queued round's floor.
  void RearmFadeClocks() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

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
  // lowers dth_at_risk_, and counts the recovery in |*recoveries|
  // (errors_retried or resume_count).
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
  // a writer runs itself (an inline TTL round, the depth-ambiguity drain,
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

  // Recompute next_ttl_deadline_ from the current version: the first
  // logical time at which some file's oldest tombstone exceeds its level's
  // cumulative TTL.
  void ComputeNextTtlDeadline() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // A round is queued, running, or owed to imm_: the live tree lags the
  // tree those rounds will leave.
  bool RoundsPending() const EXCLUSIVE_LOCKS_REQUIRED(mutex_) {
    return imm_ != nullptr || !ttl_round_horizons_.empty() ||
           compaction_active_;
  }

  // An upper bound on the tree depth once every pending round installs
  // (CompactionPlanner::MaxDepth, with imm_ still to land and the current
  // sequence as the latest round clock).
  int PendingDepthBound() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // The floor: a lower bound on every FADE deadline the tree can have once
  // the pending rounds install. Each tombstone-bearing file (and imm_, as
  // an L0 file) contributes earliest + CumulativeTtl(level', depth_hi) + 1,
  // where depth_hi is PendingDepthBound() and level' is 1 for an L0 file a
  // pending round certainly merges into L1 (the last queued TTL round finds
  // it expired, or a flush round finds L0 at its file-count trigger) and
  // its level otherwise. With a value log, every pending round may charge
  // value purges at its horizon, due D_th/2 later.
  uint64_t PendingRoundsTtlFloor() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Whether the TTL round due at |horizon| may run in the background: the
  // floor must be boundable, which rules out snapshots (a pinned tombstone
  // ages on), tiering, an in-place rewrite at the deepest level, a due
  // vLog GC deadline and any error state.
  bool TtlRoundQueueable(SequenceNumber horizon)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // FADE's write-path step, run by the leader after its group lands: a
  // write crossing a deadline or the floor queues a TTL round at its
  // sequence (or runs it inline where the floor cannot be bounded); a write
  // still at or past pending_ttl_floor_ waits for the pending rounds.
  Status EnforceFadeDeadlines() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // The delete-persistence summary GetDeleteStats and the
  // "acheron.delete-stats" property report: the journaled clocks, the live
  // written counts and the tombstone census.
  DeleteStats ComputeDeleteStats() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Live tombstones and their oldest ages across the tables, the memtable
  // and the immutable memtable.
  TombstoneCensus CountLiveTombstones() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

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

  // One GC pass at logical time |now| (the round's horizon): collect every
  // eligible sealed segment -- empty, FADE deadline reached (earliest
  // pending purge_seq + D_th/2 <= now), or live-byte ratio at or below
  // Options::vlog_gc_live_ratio -- and, when any deadline is reached, every
  // other segment that owes a purge. Caller holds the compaction slot.
  Status MaybeVlogGc(SequenceNumber now) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Collect |victims|: every table pointing into one is rewritten in place
  // through DoCompactionWork, its kept pointers into a victim relocated
  // into one fresh segment; the last rewrite's edit (or an edit of its own
  // when no table points into a victim) drops the victims from the
  // registry and journals the value-purge latencies of their pending
  // purges as of |now|. Caller holds the compaction slot.
  Status CollectVlogSegments(const std::set<uint64_t>& victims,
                             SequenceNumber now)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Set |*hit| if table |f| holds a pointer into |victims|, or one that
  // fails to decode (its rewrite then reports it). A table without one
  // keeps its file. Reads with the mutex released.
  Status PointsIntoVictims(const FileMetaData& f,
                           const std::set<uint64_t>& victims, bool* hit);

  // The relocation step of a GC rewrite's merge loop, mutex released: if
  // *value points into a victim, read the record (ReaderCache::Get's keyed
  // back-check refuses one that does not carry |user_key|), append it to
  // the relocation segment -- created at the first relocation -- and point
  // *value at the copy.
  Status RelocateValue(VlogRelocation* r, const Slice& user_key,
                       Slice* value);

  // Drop |victims| from the registry in |edit| and journal, as its
  // value-purge clock delta, their pending purges completed at |now|: those
  // in the registry and those |edit| itself charges them.
  void RetireVlogVictims(const std::set<uint64_t>& victims,
                         SequenceNumber now, VersionEdit* edit)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Recovery: reconcile the recovered registry against the .vlog files on
  // disk. The unsealed head (if any) is CRC-scanned and logically sealed at
  // its valid extent via |edit|; recovered_vlog_extents_ is filled for WAL
  // pointer validation during replay.
  Status RecoverVlog(VersionEdit* edit, bool* save_manifest)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Lock-free: set |*covered| to whether a range tombstone with a sequence
  // in (floor, snapshot] covers |key| in the pinned mem, imm or version,
  // tested in that order (newest first) up to the first cover. Sequence
  // numbers are global, so an entry found at sequence |floor| is hidden iff
  // one does. Fails when a table holding range tombstones cannot be opened.
  static Status RangeCovered(const ReadState& state, const Slice& key,
                             SequenceNumber floor, SequenceNumber snapshot,
                             bool* covered);

  // Lock-free: the sequence a read at |options| observes: its snapshot's,
  // else last_sequence. Read it after AcquireReadState (see Get).
  SequenceNumber ReadSequence(const ReadOptions& options) const;

  // Lock-free: resolve |key| at |snapshot| against the pinned |state|: mem
  // (with the linker's ring), imm, the version, one range-coverage test,
  // then the vLog dereference of a pointer hit. Get runs it once and
  // MultiGet once per key. Bloom negatives are added to
  // |*filter_negatives|.
  Status GetFromState(const ReadOptions& options, const ReadState& state,
                      SequenceNumber snapshot, const Slice& key,
                      std::string* value, uint64_t* filter_negatives);

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
  // While rounds are pending, next_ttl_deadline_ describes the live tree,
  // not the one they will leave: a flush adds an L0 file it cannot see yet,
  // and a round that deepens the tree shortens every shallower level's
  // budget. pending_ttl_floor_ (PendingRoundsTtlFloor) bounds the deadlines
  // of that future tree from below, so a writer that stops here cannot
  // race past one. Set fresh whenever a round is added (memtable swap, TTL
  // round queued, manual compaction), raised as rounds finish, and
  // UINT64_MAX once none is pending.
  uint64_t pending_ttl_floor_ GUARDED_BY(mutex_) = UINT64_MAX;
  // PendingDepthBound() as of the last PendingRoundsTtlFloor(). It holds
  // until a round is added, which recomputes the floor: the rounds already
  // pending only move the tree toward the depth it bounds.
  int pending_depth_bound_ GUARDED_BY(mutex_) = kNumLevels;
  // Horizons of the queued (or running) TTL rounds, oldest first: the
  // sequences of the writes that crossed a deadline or the floor.
  std::deque<SequenceNumber> ttl_round_horizons_ GUARDED_BY(mutex_);
  // Horizon of the round RunCompactions is running; 0 between rounds.
  SequenceNumber running_round_horizon_ GUARDED_BY(mutex_) = 0;
  // Tombstones-written count captured when mem_ was swapped into imm_. At that
  // instant the new (empty) WAL holds no deletes, so this equals the number
  // of tombstones in all WALs older than the flush edit's log_number; the
  // flush edit journals it (SetDeletesWritten) so recovery can reconstruct
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
  // that appends to the WAL and adds to the memtable; it does so with the
  // mutex released (the pointers are captured under the lock first).
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);

  // Links the nodes the leader's MemTable::Add pushes, off the write path
  // (lock-free; see memtable_linker.h). Everything it holds belongs to
  // mem_: the swap drains it before mem_ becomes imm_.
  const std::unique_ptr<MemTableLinker> linker_;
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
  // The delete clock's live half; the rest is versions_->monitor_journal().
  // Deletes ever written, bumped per write group. Flush edits journal them
  // as checkpoints (see pending_written_at_swap_) and Recover restores them.
  uint64_t tombstones_written_ GUARDED_BY(mutex_) = 0;
  uint64_t range_tombstones_written_ GUARDED_BY(mutex_) = 0;
  // Set while a background-error episode holds back a due tombstone TTL
  // deadline (see RecordBackgroundError); cleared by ReturnToOk. Not
  // journaled: it describes the live engine, not tombstone history.
  bool dth_at_risk_ GUARDED_BY(mutex_) = false;
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

  // First logical time at which some file's TTL has expired; a write
  // reaching it queues a TTL round. UINT64_MAX when no live tombstone is on
  // the clock.
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
  // Its reads() count feeds stats snapshots like gets_.
  vlog::ReaderCache vlog_readers_;
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
  // Checked by the write path alongside next_ttl_deadline_ (a crossing runs
  // its round inline), so value purges obey the same clock discipline as
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
