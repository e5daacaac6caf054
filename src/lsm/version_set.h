// Version / VersionSet: the on-disk state of the LSM-tree.
//
// A Version is an immutable snapshot of the file set, organised per level.
// Level 0 (and every level under tiering) may hold multiple overlapping
// sorted runs; deeper levels under leveling hold one sorted, partitioned run.
// VersionSet tracks the chain of versions, persists deltas to the MANIFEST,
// and assembles Compaction objects from the picks made by the (Acheron)
// compaction planner.
#ifndef ACHERON_LSM_VERSION_SET_H_
#define ACHERON_LSM_VERSION_SET_H_

#include <atomic>
#include <map>
#include <set>
#include <vector>

#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"
#include "src/table/iterator.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace acheron {

namespace wal {
class Writer;
}

class Compaction;
class CompactionPlanner;
struct CompactionPick;
class Env;
class TableCache;
class Version;
class VersionSet;
class WritableFile;

// Write a fresh descriptor |number| whose only record is |edit|: create
// it, append, sync, close, then point CURRENT at it. A failed write removes
// the descriptor. Database creation and both RepairDB tiers start their
// MANIFEST this way.
Status WriteDescriptor(Env* env, const std::string& dbname, uint64_t number,
                       const VersionEdit& edit);

// Return the smallest index i such that files[i]->largest >= key.
// Return files.size() if there is no such file.
// REQUIRES: "files" contains a sorted list of non-overlapping files.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

// Returns true iff some file in "files" overlaps the user key range
// [*smallest,*largest]. smallest==nullptr represents a key smaller than all
// keys in the DB. largest==nullptr represents a key largest than all keys.
// REQUIRES: If disjoint_sorted_files, files[] contains disjoint ranges in
// sorted order.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

class Version {
 public:
  // Append to *iters a sequence of iterators that will yield the contents
  // of this Version when merged together.
  // REQUIRES: This version has been saved (see VersionSet::SaveTo)
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  // Lookup the value for key. If found, store it in *val and return OK.
  // Else return a non-OK status. A non-null |filter_negatives| batches
  // bloom-negative accounting into the caller's local counter (flushed
  // once per op) instead of one shared atomic RMW per filtered-out table.
  // A non-null |found_seq| receives the sequence number of the entry that
  // decided the result (value or point tombstone), so the caller can test
  // it against range-tombstone coverage; untouched on NotFound. When the
  // deciding entry is a vLog pointer (kTypeValuePointer), |*val| receives
  // the *encoded pointer* and a non-null |*is_pointer| is set to true --
  // the caller dereferences through the value log.
  Status Get(const ReadOptions&, const LookupKey& key, std::string* val,
             uint64_t* filter_negatives = nullptr,
             SequenceNumber* found_seq = nullptr,
             bool* is_pointer = nullptr);

  // One key of a batched lookup (see MultiGet).
  struct MultiGetItem {
    const LookupKey* key = nullptr;  // set by the caller
    std::string* value = nullptr;    // set by the caller
    Status status;                   // OK = found; NotFound; or an error
    bool done = false;               // resolved -- deeper levels skipped
    // Sequence of the deciding entry (coverage test; 0 when NotFound).
    SequenceNumber seq = 0;
    // True when *value holds an encoded vLog pointer the caller must
    // dereference (kTypeValuePointer entry decided the lookup).
    bool is_pointer = false;
  };

  // Batched Get over every not-yet-done item: walks levels shallow to
  // deep, and within each level fans the required table-block reads of
  // each probe round out as one Env::SubmitReads submission (per-level,
  // bloom-filtered) instead of one blocking read per key. Equivalent to
  // calling Get per key; items already marked done are left untouched.
  void MultiGet(const ReadOptions&, MultiGetItem* items, size_t count,
                uint64_t* filter_negatives = nullptr);

  // Reference count management (so Versions do not disappear out from
  // under live iterators).
  void Ref();
  void Unref();

  // Store in "*inputs" all files in "level" that overlap [begin,end].
  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileMetaData*>* inputs);

  // Returns true iff some file in the specified level overlaps some part of
  // [*smallest_user_key,*largest_user_key]. nullptr = unbounded.
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  // Deepest level that currently holds any file (0 if tree is empty).
  int DeepestNonEmptyLevel() const;

  // True iff no file below |level| overlaps |user_key| -- i.e. a tombstone
  // compacted out of |level| into... (used when deciding whether a tombstone
  // can be dropped).
  bool IsBaseLevelForKey(int level, const Slice& user_key) const;

  // Set |*seq| to the largest range-tombstone sequence <= |snapshot|
  // covering |user_key| across every file of this version, or 0 when
  // uncovered. Sequence numbers are global, so a covering tombstone at any
  // level hides every entry with a smaller sequence regardless of level
  // placement. The first query fragments the tombstones of every file into
  // one list that the version keeps (see range_dels_); a table that cannot
  // be opened fails the query, and the next query tries again.
  Status MaxRangeCoveringSeq(const Slice& user_key, SequenceNumber snapshot,
                             SequenceNumber* seq) const;

  // Append every raw range tombstone stored in this version's files to
  // |*out| (iterator construction, compaction planning diagnostics).
  Status CollectRangeTombstones(std::vector<RangeTombstone>* out) const;

  // Sum over all files of (last_seq - earliest tombstone seq); diagnostics
  // for the delete-persistence invariant.
  uint64_t MaxTombstoneAge(SequenceNumber last_seq) const;
  // Total live tombstones across the tree.
  uint64_t TotalTombstones() const;
  // Range-tombstone counterparts.
  uint64_t MaxRangeTombstoneAge(SequenceNumber last_seq) const;
  uint64_t TotalRangeTombstones() const;
  // Total bytes at a level.
  int64_t NumLevelBytes(int level) const;

  std::string DebugString() const;

 private:
  friend class Compaction;
  friend class VersionSet;

  explicit Version(VersionSet* vset)
      : vset_(vset),
        next_(this),
        prev_(this),
        refs_(0) {}

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  ~Version();

  // Iterator over the non-overlapping files at a sorted (leveling) level.
  Iterator* NewConcatenatingIterator(const ReadOptions&, int level) const;

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level.
  std::vector<FileMetaData*> files_[kNumLevels];

  // Every file's range tombstones, fragmented into one list on the first
  // MaxRangeCoveringSeq; null until then. Lock-free: concurrent first
  // queries each build one and the first to publish wins (release CAS,
  // acquire load). Freed with the version, which a reader's pinned
  // ReadState keeps alive.
  mutable std::atomic<const FragmentedRangeTombstoneList*> range_dels_{
      nullptr};
};

// VersionSet is externally synchronized: it is owned by DBImpl and every
// method that touches mutable state expects the DB mutex to be held.
// LogAndApply takes that mutex explicitly so the requirement is enforced by
// the thread-safety analysis at its call sites; the remaining methods are
// only reachable from DBImpl code paths that are themselves annotated
// EXCLUSIVE_LOCKS_REQUIRED(mutex_).
class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator*);

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  // Apply *edit to the current version to form a new descriptor that is
  // both saved to persistent state and installed as the new current
  // version. |mu| is the DB mutex, held for the duration: the manifest IO
  // happens under it by design (see DESIGN.md "Locking discipline").
  //
  // When Options::manifest_snapshot_interval edits have accumulated in the
  // current MANIFEST, the descriptor is rotated first: a fresh MANIFEST is
  // started whose head record is a checksummed full-version snapshot and
  // CURRENT is repointed, bounding how much any future recovery replays.
  Status LogAndApply(VersionEdit* edit, Mutex* mu)
      EXCLUSIVE_LOCKS_REQUIRED(mu);

  // Recover the last saved descriptor (the one CURRENT names) through
  // Replay with a bad record failing the recovery.
  Status Recover(bool* save_manifest);

  // Replay the MANIFEST |fname| (a name inside the DB directory) and
  // install the state it describes. Replay restarts from the last valid
  // snapshot record. With |stop_at_bad_record| false (DB::Open) a damaged
  // record fails the replay, except a non-head snapshot record that fails
  // its inner CRC, which is skipped (state falls back to the previous
  // snapshot plus the edits in between). With it true (RepairDB's bounded
  // tier) framing checksums are off and the first undecodable record after
  // the head ends the replay: the prefix before a torn tail is a consistent
  // version. An undecodable head record, a comparator mismatch or missing
  // log/next-file/last-sequence fields fail either way.
  Status Replay(const std::string& fname, bool stop_at_bad_record);

  // Fill |edit| with a self-contained snapshot of the current state: the
  // file set, compaction pointers, log/next-file/last-sequence, the monitor
  // journal and the vLog registry. Every snapshot record is this edit.
  void SnapshotEdit(VersionEdit* edit) const;

  // Append a snapshot record to the current MANIFEST and sync it, so a
  // clean reopen replays zero edits. Called by DBImpl's destructor once all
  // background work has drained; a no-op if no descriptor was ever opened.
  Status WriteCleanCloseSnapshot();

  // Cumulative persistence-monitor state journaled through the MANIFEST
  // edit stream (see version_edit.h). After Recover() this holds the exact
  // pre-crash monitor state as of the last installed edit; DBImpl adds the
  // deletes re-counted during WAL replay and restores the live monitor.
  struct MonitorJournal {
    uint64_t written = 0;
    uint64_t persisted = 0;
    uint64_t superseded = 0;
    Histogram latency;
    // Range-delete counterparts (kMonitorRangeWritten/kMonitorRangeDelta
    // tags): a separate population so recovery restores both histograms
    // bit-identically.
    uint64_t range_written = 0;
    uint64_t range_persisted = 0;
    uint64_t range_superseded = 0;
    Histogram range_latency;
    // Value-purge population (kVlogMonitorDelta tag): deleted keys whose
    // vLog value bytes were reclaimed, with key-purge -> value-purge
    // latency samples.
    uint64_t vlog_purged = 0;
    Histogram vlog_latency;
  };
  const MonitorJournal& monitor_journal() const { return journal_state_; }

  // Diagnostics for the bounded-replay machinery (surfaced via
  // GetProperty("acheron.stats") and asserted by the recovery tests).
  uint64_t manifest_edits_replayed() const { return manifest_edits_replayed_; }
  uint64_t manifest_snapshots_written() const { return snapshots_written_; }
  uint64_t manifest_rotations() const { return manifest_rotations_; }
  uint64_t torn_snapshots_skipped() const { return torn_snapshots_skipped_; }

  // Return the current version.
  Version* current() const { return current_; }

  // Return the current manifest file number.
  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  // Allocate and return a new file number.
  uint64_t NewFileNumber() { return next_file_number_++; }

  // Arrange to reuse "file_number" unless a newer file number has already
  // been allocated. REQUIRES: "file_number" was returned by a call to
  // NewFileNumber().
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) {
      next_file_number_ = file_number;
    }
  }

  // Return the number of Table files at the specified level.
  int NumLevelFiles(int level) const;

  // Return the combined file size of all files at the specified level.
  int64_t NumLevelBytes(int level) const;

  // Return the last sequence number. Relaxed load: sufficient for callers
  // that already hold the DB mutex (the store side is release anyway).
  SequenceNumber LastSequence() const {
    return last_sequence_.load(std::memory_order_relaxed);
  }

  // Acquire load for lock-free readers (DBImpl::Get / NewIterator). Pairs
  // with SetLastSequence's release store: a reader that observes sequence S
  // also observes every memtable insert performed before S was published.
  SequenceNumber LastSequenceAcquire() const {
    return last_sequence_.load(std::memory_order_acquire);
  }

  // Set the last sequence number to s. Release store so lock-free readers
  // that LastSequenceAcquire() >= s can see all writes committed up to s.
  void SetLastSequence(SequenceNumber s) {
    assert(s >= last_sequence_.load(std::memory_order_relaxed));
    last_sequence_.store(s, std::memory_order_release);
  }

  // Mark the specified file number as used.
  void MarkFileNumberUsed(uint64_t number);

  // Return the current log file number.
  uint64_t LogNumber() const { return log_number_; }

  // Ask |planner| for the most urgent compaction and package it as a
  // Compaction object (adding next-level overlaps under leveling). Returns
  // nullptr if no compaction is needed. |droppable_horizon| is the oldest
  // sequence number any live reader may need (snapshot gating).
  Compaction* PickCompaction(const CompactionPlanner& planner,
                             SequenceNumber droppable_horizon);

  // True if |planner| would pick some compaction right now. Side-effect-free
  // (planner.Pick is const and compact_pointer_ is only advanced by
  // PickCompaction), so the background scheduler can poll it cheaply before
  // committing to an Env::Schedule round-trip.
  bool NeedsCompaction(const CompactionPlanner& planner,
                       SequenceNumber droppable_horizon) const;

  // Return a compaction object for compacting the range [begin,end] in the
  // specified level. Returns nullptr if there is nothing in that level that
  // overlaps the specified range. Caller should delete the result.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  // Create an iterator that reads over the compaction inputs for "*c".
  // The caller should delete the iterator when no longer needed.
  Iterator* MakeInputIterator(Compaction* c);

  // Add all files listed in any live version to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  // ---- vLog segment registry (key-value separation) ----
  // Durable per-segment accounting, journaled through the MANIFEST via
  // kVlogSegment/kVlogRemove/kVlogDelta tags: LogAndApply folds an edit's
  // vlog fields in after durable install, Recover replays them, snapshot
  // records carry the whole registry. Mutated only under the DB mutex.
  const vlog::Registry& vlog_registry() const { return vlog_registry_; }

  // Add every vLog segment number that any file of any live version might
  // reference ([min,max] spans) plus the registry's own segments to *live.
  // Used by RemoveObsoleteFiles to classify .vlog files.
  void AddLiveVlogSegments(std::set<uint64_t>* live);

  // Capacity of |level| in bytes under leveling.
  uint64_t MaxBytesForLevel(int level) const;

  // Per-level compaction debug counters.
  struct LevelSummaryStorage {
    char buffer[200];
  };
  const char* LevelSummary(LevelSummaryStorage* scratch) const;

  const InternalKeyComparator& icmp() const { return icmp_; }
  const Options* options() const { return options_; }
  TableCache* table_cache() const { return table_cache_; }

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  void Finalize(Version* v);

  void GetRange(const std::vector<FileMetaData*>& inputs, InternalKey* smallest,
                InternalKey* largest);

  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  void SetupOtherInputs(Compaction* c);

  // Save current contents to *log as a checksummed snapshot record
  // (includes log/next-file/last-sequence and the monitor journal, so the
  // record alone is a complete restart point). Resets the rotation counter.
  Status WriteSnapshot(wal::Writer* log);

  // Fold an edit's log/next-file/last-sequence, monitor journal and vLog
  // registry fields into this set (the file set goes through a Builder).
  // LogAndApply folds each installed edit, Replay each replayed one.
  void FoldEdit(const VersionEdit& edit);

  void AppendVersion(Version* v);

  Env* const env_;
  const std::string dbname_;
  const Options* const options_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  uint64_t next_file_number_;
  uint64_t manifest_file_number_;
  // Atomic: read lock-free by the Get/NewIterator hot path (acquire) while
  // writers advance it under the DB mutex (release).
  std::atomic<SequenceNumber> last_sequence_;
  uint64_t log_number_;

  // Opened lazily.
  WritableFile* descriptor_file_;
  wal::Writer* descriptor_log_;

  // Edits appended to the current MANIFEST since its last snapshot record;
  // reaching Options::manifest_snapshot_interval triggers rotation.
  uint64_t edits_since_snapshot_;
  // Cumulative monitor state as of the last installed edit (journaled into
  // every snapshot record; reconstructed by Recover).
  MonitorJournal journal_state_;
  // Durable vLog segment accounting (see vlog_registry() above).
  vlog::Registry vlog_registry_;
  // Set by Recover: edits applied after the last valid snapshot record.
  uint64_t manifest_edits_replayed_;
  uint64_t snapshots_written_;
  uint64_t manifest_rotations_;
  uint64_t torn_snapshots_skipped_;
  Version dummy_versions_;  // Head of circular doubly-linked list of versions
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next round-robin compaction at that level
  // should start. Either an empty string, or a valid InternalKey.
  std::string compact_pointer_[kNumLevels];
};

// The reason a compaction was scheduled; drives the E7 trigger-breakdown
// experiment and the delete-persistence accounting.
enum class CompactionReason {
  kNone = 0,
  kL0FileCount,   // too many L0 runs (leveling)
  kLevelSize,     // level over capacity (leveling)
  kTierFull,      // T runs accumulated (tiering)
  kTtlExpiry,     // FADE: a file's oldest tombstone outlived its level TTL
  kManual,        // CompactRange / test hook
  kSecondaryPurge,  // KiWi-lite retention purge rewrite
};

const char* CompactionReasonName(CompactionReason reason);

// A Compaction encapsulates information about a compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted. Inputs from "level" and
  // "level+1" will be merged to produce a set of "level+1" files.
  int level() const { return level_; }
  // Output level (level+1, or same level for bottom-level TTL rewrites).
  int output_level() const { return output_level_; }

  CompactionReason reason() const { return reason_; }

  // Return the object that holds the edits to the descriptor done by this
  // compaction.
  VersionEdit* edit() { return &edit_; }

  // "which" must be either 0 or 1
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }

  // Return the ith input file at "level()+which" ("which" must be 0 or 1).
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  // Maximum size of files to build during this compaction.
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  // Is this a trivial compaction that can be implemented by just moving a
  // single input file to the next level (no merging or splitting)?
  bool IsTrivialMove() const;

  // Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // Returns true if the information we have available guarantees that the
  // compaction is producing data in "output_level" for which no data exists
  // in levels greater than "output_level".
  bool IsBaseLevelForKey(const Slice& user_key);

  // Release the input version for the compaction, once the compaction is
  // successful.
  void ReleaseInputs();

  Version* input_version() const { return input_version_; }

  uint64_t TotalInputBytes() const;

 private:
  friend class Version;
  friend class VersionSet;

  Compaction(const Options* options, int level, int output_level,
             CompactionReason reason);

  int level_;
  int output_level_;
  CompactionReason reason_;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // Each compaction reads inputs from "level_" and "output_level_".
  std::vector<FileMetaData*> inputs_[2];  // The two sets of inputs

  // State for implementing IsBaseLevelForKey.
  // level_ptrs_ holds indices into input_version_->files_: our state is that
  // we are positioned at one of the file ranges for each higher level than
  // the ones involved in this compaction (i.e. for all L >=
  // output_level_+1).
  size_t level_ptrs_[kNumLevels];
};

}  // namespace acheron

#endif  // ACHERON_LSM_VERSION_SET_H_
