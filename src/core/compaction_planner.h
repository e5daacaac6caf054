// CompactionPlanner: Acheron's delete-aware compaction policy (FADE) plus
// the vanilla leveling/tiering triggers it extends.
//
// The planner answers one question: "which compaction is most urgent right
// now?". Priorities, highest first:
//   1. TTL expiry (FADE): a file whose oldest tombstone has outlived the
//      cumulative TTL of its level must move down (or, at the bottommost
//      populated level, be rewritten in place to drop its tombstones). This
//      is what bounds delete persistence by D_th.
//   2. Structural triggers: L0 run count / level size (leveling) or runs
//      per level (tiering).
// Within a size-triggered level, file picking is round-robin by default; with
// Options::delete_aware_picking the file with the highest tombstone density
// is chosen instead (round-robin when no file holds a tombstone), so
// tombstones ride down the tree sooner.
#ifndef ACHERON_CORE_COMPACTION_PLANNER_H_
#define ACHERON_CORE_COMPACTION_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"

namespace acheron {

class Version;
enum class CompactionReason;

// What the planner decided; the VersionSet turns this into a Compaction.
struct CompactionPick {
  // kNone when no compaction is needed.
  int level = -1;
  int output_level = -1;
  std::vector<FileMetaData*> inputs;  // files from |level|
  // Filled with the matching CompactionReason by the planner.
  int reason_tag = 0;
};

// Immutable after construction (the TTL schedule is precomputed), so it is
// safe to call concurrently; in practice Pick() runs under DBImpl::mutex_
// because it inspects the mutex-guarded current Version.
class CompactionPlanner {
 public:
  CompactionPlanner(const Options& options, const InternalKeyComparator* icmp);

  // --- TTL schedule (FADE) ---
  //
  // D_th is divided over the levels the tree *currently uses* (|depth|
  // levels, recomputed as the tree grows), mirroring Lethe's allocation
  // against actual level fill times: a 2-level tree gives its levels far
  // longer budgets than a hypothetical 7-level tree would, so FADE does not
  // over-compact shallow trees. Whatever the depth, the cumulative budget
  // of the deepest level is exactly D_th, preserving the bound.

  // Per-level TTL d_i in sequence-number (logical-op) units, for a tree
  // currently |depth| levels deep (depth >= 1).
  uint64_t LevelTtl(int level, int depth) const;
  // Cumulative TTL sum_{j<=level} d_j: the deadline, relative to tombstone
  // creation, by which a tombstone must have left |level|.
  uint64_t CumulativeTtl(int level, int depth) const;
  // Static-plan conveniences (depth = Options::num_levels).
  uint64_t LevelTtl(int level) const {
    return LevelTtl(level, options_.num_levels);
  }
  uint64_t CumulativeTtl(int level) const {
    return CumulativeTtl(level, options_.num_levels);
  }
  // True iff |f|, residing at |level| of a |depth|-deep tree, holds a
  // tombstone older than the level's cumulative TTL at logical |last_seq|.
  bool FileTtlExpired(const FileMetaData& f, int level, SequenceNumber last_seq,
                      int depth) const;
  bool FileTtlExpired(const FileMetaData& f, int level,
                      SequenceNumber last_seq) const {
    return FileTtlExpired(f, level, last_seq, options_.num_levels);
  }

  // Whether delete-aware machinery is active (D_th > 0).
  bool delete_aware() const {
    return options_.delete_persistence_threshold > 0;
  }

  // --- Depth bound ---

  // Byte capacity of |level| (>= 1) under leveling: a size pick fires only
  // once the level holds more than this.
  double LevelCapacity(int level) const;

  // An upper bound on the depth |v| can reach through the planner-picked
  // compactions of rounds whose TTL clocks are at most |clock|, once a
  // queued memtable of |pending_bytes| (its oldest tombstone
  // |pending_earliest|, kMaxSequenceNumber if none) has landed in L0.
  // Under leveling the tree deepens only through an L0 -> L1 merge while L0
  // is the deepest level, or through a size pick of the deepest level:
  //  * With L0 the deepest level, the merge needs L0 at its file-count
  //    trigger or a TTL-expired L0 file.
  //  * Otherwise neither can carry the tree past a level L >= max(1,
  //    deepest) whose capacity holds every byte of the tree plus
  //    |pending_bytes| and a re-encoding margin.
  // Under tiering, and when no level holds everything, the bound is
  // kNumLevels.
  int MaxDepth(const Version* v, uint64_t pending_bytes,
               SequenceNumber pending_earliest, SequenceNumber clock) const;

  // --- The pick ---

  // Inspect |v| and report the most urgent compaction, or an empty pick.
  // |compact_pointer| is the per-level round-robin cursor maintained by the
  // VersionSet (keys encoded as internal keys; empty = start of level).
  // |droppable_horizon| is the oldest sequence any reader may still need
  // (tombstones above it cannot be dropped yet); it gates in-place bottom-
  // level rewrites so a snapshot-pinned tombstone never causes a futile
  // rewrite loop.
  CompactionPick Pick(const Version* v, SequenceNumber last_seq,
                      SequenceNumber droppable_horizon,
                      const std::string* compact_pointer) const;

  // Among |files| (one sorted level), choose the index for a
  // size-triggered compaction: the first file whose largest key is past
  // |compact_pointer| (wrapping to 0), or, with delete-aware picking on
  // and D_th > 0, the file with the highest tombstone density when any
  // file holds a tombstone.
  size_t ChooseFileIndex(const std::vector<FileMetaData*>& files,
                         const std::string& compact_pointer) const;

 private:
  CompactionPick PickTtlExpiry(const Version* v, SequenceNumber last_seq,
                               SequenceNumber droppable_horizon) const;
  CompactionPick PickLeveling(const Version* v,
                              const std::string* compact_pointer) const;
  CompactionPick PickTiering(const Version* v) const;

  const Options& options_;
  const InternalKeyComparator* icmp_;
  // ttl_[d-1][i] = TTL of level i when the tree is d levels deep.
  uint64_t ttl_[kNumLevels][kNumLevels];
};

}  // namespace acheron

#endif  // ACHERON_CORE_COMPACTION_PLANNER_H_
