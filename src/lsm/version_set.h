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
#include <memory>
#include <set>
#include <vector>

#include "src/core/key_windows.h"
#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"
#include "src/table/cache.h"
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
enum class CompactionReason;
class Env;
class Table;
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

// The live tombstones of each kind across the tables and memtables a
// census walked, and the logical age of the oldest of each.
struct TombstoneCensus {
  uint64_t point = 0;
  uint64_t range = 0;
  uint64_t oldest_point_age = 0;
  uint64_t oldest_range_age = 0;
};

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

  // Set |*covered| to whether a range tombstone of this version with a
  // sequence in (floor, snapshot] covers |user_key|. Sequence numbers are
  // global, so a covering tombstone at any level hides every entry with a
  // smaller sequence regardless of level placement. Searches the list
  // BuildRangeTombstones keeps, building it first if nobody has.
  Status RangeCovered(const Slice& user_key, SequenceNumber floor,
                      SequenceNumber snapshot, bool* covered) const;

  // Fragment the range tombstones of every file into one list that the
  // version keeps (see range_dels_), unless it already has, and set a
  // non-null |*list| to it. The thread that installs a version calls this
  // off the DB mutex, so reads do not pay for it; a version nobody built
  // (one recovered at open, say) builds it on its first RangeCovered. A
  // table that cannot be opened fails the build, and the next caller tries
  // again.
  Status BuildRangeTombstones(
      const FragmentedRangeTombstoneList** list = nullptr) const;

  // Append every raw range tombstone stored in this version's files to
  // |*out| (iterator construction, compaction planning diagnostics).
  Status CollectRangeTombstones(std::vector<RangeTombstone>* out) const;

  // Add the tombstones of every file to |*census|, and raise its oldest
  // ages to those of the files' oldest tombstones as of |last_seq|.
  void AddToCensus(SequenceNumber last_seq, TombstoneCensus* census) const;
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

  // Fill bounds_ from files_ (Builder::SaveTo, once the files are placed).
  void BuildLevelBounds();

  // Index of the first file at sorted |level| whose largest key is at or
  // past |k|, whose user key's window there is |w|, or the level's file
  // count when none is.
  size_t FindFileAtLevel(int level, const LookupKey& k, uint64_t w) const;

  // Whether |user_key|, whose window at |level| is |w|, lies within the
  // bounds of file |i| there.
  bool InFileRange(int level, size_t i, const Slice& user_key,
                   uint64_t w) const;

  // Size pins_ to files_ (Builder::SaveTo, once the files are placed).
  void InitPins();

  // Set *table to file |i| at |level|'s table, pinning it on its first
  // probe (see pins_), or to null when the table cache's pin budget is
  // spent and the probe must go through TableCache::Get.
  Status PinnedTable(int level, size_t i, Table** table);

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level. A sorted level is in key order; an
  // overlapping level (L0, every tiering level) is oldest run first.
  std::vector<FileMetaData*> files_[kNumLevels];

  // The windows (see KeyWindows) of each level's file bounds, parallel to
  // files_, so a point lookup finds its files by integer comparisons and
  // calls the comparator only on ties. |largest| indexes the files' largest
  // user keys (searchable by Ties at a sorted level, where they are in
  // order); |smallest| holds the smallest keys' windows under the same
  // prefix. Both are empty under a comparator that does not order keys
  // bytewise.
  struct LevelBounds {
    KeyWindows largest;
    std::vector<uint64_t> smallest;
  };
  LevelBounds bounds_[kNumLevels];

  // Each file's table cache handle, level by level (the files of |level|
  // start at pin_base_[level]): taken by the file's first probe in this
  // version and published by CAS (a racing probe's pin is released), so
  // later probes reach the table with no cache lookup. Null until then, or
  // while the table cache's pin budget is spent. A dying version hands its
  // pins to VersionSet::dead_pins_.
  std::unique_ptr<std::atomic<Cache::Handle*>[]> pins_;
  size_t pin_base_[kNumLevels] = {};

  // Every file's range tombstones, fragmented into one list by the
  // installing thread or the first RangeCovered; null until then.
  // Lock-free: concurrent builders each build one and the first to publish
  // wins (release CAS, acquire load). Freed with the version, which a
  // reader's pinned ReadState keeps alive.
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

  // Every delete population's clock as journaled through the MANIFEST edit
  // stream (see version_edit.h). FoldEdit is the only code that advances
  // it, once per installed edit, so it is exactly the clock as of the last
  // installed edit -- across a crash too, since recovery replays the same
  // edits. Each |written| is the last journaled checkpoint; DBImpl keeps the
  // live counts.
  const DeleteClocks& monitor_journal() const { return journal_state_; }

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
  // nullptr if no compaction is needed. |ttl_clock| is the logical time TTL
  // expiry is judged at (a round's captured horizon); |droppable_horizon|
  // is the oldest sequence number any live reader may need (snapshot
  // gating).
  Compaction* PickCompaction(const CompactionPlanner& planner,
                             SequenceNumber ttl_clock,
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

  // Package the files of the current version named in |numbers| as
  // in-place compactions (output level == input level) for |reason|, in
  // level order: one per file where a level's runs overlap (L0 under
  // leveling, every tiering level), written as one file that keeps the
  // run's recency; one per stretch of adjacent files at a sorted level, so
  // no output can span a file left out. vLog GC and the secondary purge
  // rewrite tables through these.
  std::vector<std::unique_ptr<Compaction>> InPlaceCompactions(
      const std::set<uint64_t>& numbers, CompactionReason reason);

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

  // Hand over the table cache pins of versions that died (see dead_pins_);
  // the caller releases each through TableCache::Unpin.
  std::vector<Cache::Handle*> TakeDeadPins() {
    std::vector<Cache::Handle*> pins;
    pins.swap(dead_pins_);
    return pins;
  }

  const InternalKeyComparator& icmp() const { return icmp_; }
  const Options* options() const { return options_; }
  TableCache* table_cache() const { return table_cache_; }

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  void GetRange(const std::vector<FileMetaData*>& inputs, InternalKey* smallest,
                InternalKey* largest);

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
  DeleteClocks journal_state_;
  // Durable vLog segment accounting (see vlog_registry() above).
  vlog::Registry vlog_registry_;
  // Set by Recover: edits applied after the last valid snapshot record.
  uint64_t manifest_edits_replayed_;
  uint64_t snapshots_written_;
  uint64_t manifest_rotations_;
  uint64_t torn_snapshots_skipped_;
  // The table cache pins of dead versions (see Version::pins_). Versions
  // die under the DB mutex, and the last release of an evicted table
  // closes its file, so DBImpl takes these and releases them with the
  // mutex dropped (see TakeDeadPins); the destructor releases the rest.
  std::vector<Cache::Handle*> dead_pins_;
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
  kVlogGc,        // vLog GC rewrite of a table pointing into a victim
};

const char* CompactionReasonName(CompactionReason reason);

// A Compaction encapsulates information about a compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted. Inputs from "level" and
  // "level+1" will be merged to produce a set of "level+1" files.
  int level() const { return level_; }
  // Output level: level+1, or the same level for an in-place rewrite
  // (deepest-level TTL expiry, vLog GC, the secondary purge).
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
  // in levels greater than "output_level", nor in the output level's other
  // runs where those overlap (an in-place L0 or tiering rewrite).
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
