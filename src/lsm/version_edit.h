// VersionEdit: a delta between two versions of the LSM file set, logged to
// the MANIFEST. FileMetaData carries Acheron's per-file tombstone metadata
// so delete-persistence state survives restarts.
#ifndef ACHERON_LSM_VERSION_EDIT_H_
#define ACHERON_LSM_VERSION_EDIT_H_

#include <array>
#include <cassert>
#include <set>
#include <utility>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/util/histogram.h"
#include "src/util/status.h"
#include "src/vlog/vlog_registry.h"

namespace acheron {

class VersionSet;

// The delete populations whose persistence the engine clocks: point
// tombstones, range tombstones (one may cover many keys), and the vLog value
// bytes of deleted keys (purged by GC after the key purge). Each keeps its
// own clock so no population skews another's latency distribution.
enum DeletePopulation {
  kPointDeletes = 0,
  kRangeDeletes = 1,
  kValuePurges = 2,
  kNumDeletePopulations = 3,
};

// One population's delete-persistence clock, in logical ops (sequence
// numbers). |persisted| counts deletes that became persistent -- a
// tombstone dropped at the bottom level, or a deleted value's bytes
// collected by vLog GC -- with one |latency| sample each, from creation to
// that instant. |superseded| counts tombstones a newer entry obsoleted
// before they could persist. Value purges have no written or superseded
// count.
struct DeleteClock {
  uint64_t written = 0;
  uint64_t persisted = 0;
  uint64_t superseded = 0;
  Histogram latency;

  bool HasDelta() const { return persisted > 0 || superseded > 0; }
  // Advance by |delta|'s persisted, superseded and latency; |written| is a
  // checkpoint, not a delta, and is left alone.
  void Fold(const DeleteClock& delta) {
    persisted += delta.persisted;
    superseded += delta.superseded;
    latency.Merge(delta.latency);
  }
};

// Every population's clock, indexed by DeletePopulation.
using DeleteClocks = std::array<DeleteClock, kNumDeletePopulations>;

// Maximum number of levels the tree may physically use.
static const int kNumLevels = 12;

struct FileMetaData {
  FileMetaData() = default;

  int refs = 0;
  uint64_t number = 0;
  uint64_t file_size = 0;    // File size in bytes
  InternalKey smallest;      // Smallest internal key served by table
  InternalKey largest;       // Largest internal key served by table
  uint64_t num_entries = 0;  // Total entries in the table

  // ---- Acheron delete-persistence metadata ----
  // Point tombstones contained in the file.
  uint64_t num_tombstones = 0;
  // Sequence number (== logical timestamp) of the oldest tombstone;
  // kMaxSequenceNumber when the file has none.
  SequenceNumber earliest_tombstone_seq = kMaxSequenceNumber;
  // Wall-clock microseconds when the oldest tombstone was created.
  uint64_t earliest_tombstone_wall_micros = UINT64_MAX;
  // Secondary delete-key range covered by the file (empty when unused).
  std::string min_secondary_key;
  std::string max_secondary_key;

  // For tiering: id of the sorted run within its level this file belongs
  // to. Files of the same run are non-overlapping; distinct runs overlap.
  // Runs are ordered by recency: higher run_id == newer data.
  uint64_t run_id = 0;

  // ---- Range tombstones (kTypeRangeDeletion) ----
  // Count of range tombstones in the file's dedicated block.
  uint64_t num_range_tombstones = 0;
  // Oldest range tombstone's sequence number / wall clock; defaults mirror
  // the point-tombstone fields above.
  SequenceNumber earliest_range_tombstone_seq = kMaxSequenceNumber;
  uint64_t earliest_range_tombstone_wall_micros = UINT64_MAX;
  // User-key span covered by the union of the file's range tombstones
  // (empty when none): a cheap containment test before opening the table.
  std::string range_del_begin;
  std::string range_del_end;

  // ---- Key-value separation (vLog pointers) ----
  // Range of vLog segment numbers referenced by kTypeValuePointer entries
  // in this file; 0 when the file holds no pointers. The range is the
  // liveness anchor for segment files (RemoveObsoleteFiles) and the
  // file-selection filter for vLog GC rewrites.
  uint64_t min_vlog_segment = 0;
  uint64_t max_vlog_segment = 0;

  bool has_vlog_pointers() const { return max_vlog_segment != 0; }

  bool has_tombstones() const { return num_tombstones > 0; }
  bool has_range_tombstones() const { return num_range_tombstones > 0; }
  double tombstone_density() const {
    return num_entries == 0
               ? 0.0
               : static_cast<double>(num_tombstones) / num_entries;
  }
};

class VersionEdit {
 public:
  VersionEdit() { Clear(); }
  ~VersionEdit() = default;

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointers_.push_back(std::make_pair(level, key));
  }

  // Add the specified file at the specified level.
  // REQUIRES: This version has not been saved (see VersionSet::SaveTo)
  void AddFile(int level, const FileMetaData& f) {
    new_files_.push_back(std::make_pair(level, f));
  }

  // Delete the specified "file" from the specified "level".
  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  typedef std::set<std::pair<int, uint64_t>> DeletedFileSet;

  // Read-only views, used by DBImpl to order obsolete-file unlinks by the
  // level each dead table formerly occupied.
  const DeletedFileSet& deleted_files() const { return deleted_files_; }
  const std::vector<std::pair<int, FileMetaData>>& new_files() const {
    return new_files_;
  }

  // Read-only accessors used by RepairDB's bounded manifest replay.
  bool has_log_number() const { return has_log_number_; }
  uint64_t log_number() const { return log_number_; }
  bool has_next_file_number() const { return has_next_file_number_; }
  uint64_t next_file_number() const { return next_file_number_; }
  bool has_last_sequence() const { return has_last_sequence_; }
  SequenceNumber last_sequence() const { return last_sequence_; }

  // Mark this edit as a full-version *snapshot record*. Snapshot records are
  // self-describing restart points in the MANIFEST: they carry the complete
  // file set plus log/next-file/last-sequence and the cumulative delete
  // clocks, and are encoded with an inner CRC32C over the whole body.
  // Recovery resets its replay state whenever it reads a valid snapshot
  // record, so only the suffix after the last valid snapshot is actually
  // applied.
  void SetSnapshot() { is_snapshot_ = true; }
  // True after DecodeFrom even when the record failed its inner CRC, so
  // recovery can distinguish "torn snapshot -- keep prior state" from a
  // corrupt ordinary edit (which is fatal).
  bool IsSnapshot() const { return is_snapshot_; }

  // ---- Delete-persistence journal (piggybacked on the edit stream) ----
  // Per population, two optional fields:
  //  - the written checkpoint: the cumulative count of deletes written,
  //    captured at memtable swap for flush edits (it covers exactly the WALs
  //    older than this edit's log_number; deletes in newer WALs are
  //    recounted during WAL replay). Value purges have none.
  //  - the clock delta: one install's persisted and superseded counts and
  //    latency samples. Snapshot records carry the cumulative clock as a
  //    delta from zero.
  void SetDeletesWritten(DeletePopulation p, uint64_t written) {
    assert(p != kValuePurges);
    has_deletes_written_[p] = true;
    deletes_written_[p] = written;
  }
  void SetClockDelta(DeletePopulation p, const DeleteClock& delta) {
    assert(p != kValuePurges || delta.superseded == 0);
    has_clock_delta_[p] = true;
    clock_deltas_[p] = delta;
  }
  bool has_deletes_written(DeletePopulation p) const {
    return has_deletes_written_[p];
  }
  uint64_t deletes_written(DeletePopulation p) const {
    return deletes_written_[p];
  }
  bool has_clock_delta(DeletePopulation p) const { return has_clock_delta_[p]; }
  const DeleteClock& clock_delta(DeletePopulation p) const {
    return clock_deltas_[p];
  }

  // ---- vLog segment registry journal (key-value separation) ----
  // Upsert the full per-segment state (rotation/seal edits journal the new
  // head or the finalized totals; snapshot records carry every segment).
  void AddVlogSegment(const vlog::SegmentInfo& info) {
    vlog_segments_.push_back(info);
  }
  // Remove a segment from the registry (GC collected it).
  void RemoveVlogSegment(uint64_t number) {
    vlog_removed_segments_.push_back(number);
  }
  // One compaction's garbage/pending-purge charge against a segment.
  void AddVlogDelta(const vlog::SegmentDelta& delta) {
    vlog_deltas_.push_back(delta);
  }
  const std::vector<vlog::SegmentInfo>& vlog_segments() const {
    return vlog_segments_;
  }
  const std::vector<uint64_t>& vlog_removed_segments() const {
    return vlog_removed_segments_;
  }
  const std::vector<vlog::SegmentDelta>& vlog_deltas() const {
    return vlog_deltas_;
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;

  // Tag-stream encoding without the snapshot CRC envelope.
  void EncodeBodyTo(std::string* dst) const;
  // One population's written checkpoint and clock delta, when set.
  void EncodeClockTo(DeletePopulation p, std::string* dst) const;

  std::string comparator_;
  uint64_t log_number_;
  uint64_t next_file_number_;
  SequenceNumber last_sequence_;
  bool has_comparator_;
  bool has_log_number_;
  bool has_next_file_number_;
  bool has_last_sequence_;

  bool is_snapshot_;
  std::array<bool, kNumDeletePopulations> has_deletes_written_;
  std::array<uint64_t, kNumDeletePopulations> deletes_written_;
  std::array<bool, kNumDeletePopulations> has_clock_delta_;
  DeleteClocks clock_deltas_;

  std::vector<std::pair<int, InternalKey>> compact_pointers_;
  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;

  std::vector<vlog::SegmentInfo> vlog_segments_;
  std::vector<uint64_t> vlog_removed_segments_;
  std::vector<vlog::SegmentDelta> vlog_deltas_;
};

}  // namespace acheron

#endif  // ACHERON_LSM_VERSION_EDIT_H_
