#include "src/core/compaction_planner.h"

#include <algorithm>
#include <cmath>

#include "src/lsm/version_set.h"

namespace acheron {

CompactionPlanner::CompactionPlanner(const Options& options,
                                     const InternalKeyComparator* icmp)
    : options_(options), icmp_(icmp) {
  // Pre-compute the per-level TTL schedule for every possible tree depth.
  // With D_th in logical ops, size ratio T, and a tree of depth L:
  //   geometric: d_0 = D_th (T-1)/(T^L - 1); d_{i+1} = T d_i
  //   uniform:   d_i = D_th / L
  // Levels at or beyond the depth inherit the deepest level's TTL (they
  // come into play the moment the tree grows and the schedule switches to
  // the deeper row).
  const uint64_t dth = options_.delete_persistence_threshold;
  for (int d = 1; d <= kNumLevels; d++) {
    uint64_t* row = ttl_[d - 1];
    for (int i = 0; i < kNumLevels; i++) row[i] = 0;
    if (dth == 0) continue;
    if (options_.ttl_allocation == TtlAllocation::kUniform) {
      for (int i = 0; i < kNumLevels; i++) {
        row[i] = std::max<uint64_t>(1, dth / d);
      }
    } else {
      const double t = std::max(2, options_.size_ratio);
      const double denom = std::pow(t, d) - 1.0;
      double di = dth * (t - 1.0) / denom;
      for (int i = 0; i < kNumLevels; i++) {
        row[i] = std::max<uint64_t>(1, static_cast<uint64_t>(di));
        if (i < d - 1) di *= t;
      }
    }
  }
}

uint64_t CompactionPlanner::LevelTtl(int level, int depth) const {
  assert(level >= 0 && level < kNumLevels);
  depth = std::clamp(depth, 1, kNumLevels);
  return ttl_[depth - 1][level];
}

uint64_t CompactionPlanner::CumulativeTtl(int level, int depth) const {
  depth = std::clamp(depth, 1, kNumLevels);
  uint64_t sum = 0;
  for (int i = 0; i <= level && i < kNumLevels; i++) {
    sum += ttl_[depth - 1][i];
  }
  return sum;
}

// Oldest tombstone of either kind (point or range) in |f|;
// kMaxSequenceNumber when the file holds none.
static SequenceNumber EarliestAnyTombstoneSeq(const FileMetaData& f) {
  return std::min(f.earliest_tombstone_seq, f.earliest_range_tombstone_seq);
}

bool CompactionPlanner::FileTtlExpired(const FileMetaData& f, int level,
                                       SequenceNumber last_seq,
                                       int depth) const {
  if (!delete_aware() || (!f.has_tombstones() && !f.has_range_tombstones())) {
    return false;
  }
  const SequenceNumber earliest = EarliestAnyTombstoneSeq(f);
  const uint64_t age = last_seq >= earliest ? last_seq - earliest : 0;
  return age > CumulativeTtl(level, depth);
}

CompactionPick CompactionPlanner::Pick(const Version* v,
                                       SequenceNumber last_seq,
                                       SequenceNumber droppable_horizon,
                                       const std::string* compact_pointer) const {
  // Priority 1: FADE TTL expiry.
  if (delete_aware()) {
    CompactionPick pick = PickTtlExpiry(v, last_seq, droppable_horizon);
    if (!pick.inputs.empty()) return pick;
  }
  // Priority 2: structural triggers.
  if (options_.compaction_style == CompactionStyle::kTiering) {
    return PickTiering(v);
  }
  return PickLeveling(v, compact_pointer);
}

CompactionPick CompactionPlanner::PickTtlExpiry(
    const Version* v, SequenceNumber last_seq,
    SequenceNumber droppable_horizon) const {
  // Scan all levels for the file whose oldest tombstone is most overdue.
  CompactionPick pick;
  uint64_t worst_overdue = 0;
  const int deepest = v->DeepestNonEmptyLevel();
  const int depth = deepest + 1;  // levels currently in use
  const bool tiering = options_.compaction_style == CompactionStyle::kTiering;
  for (int level = 0; level < kNumLevels; level++) {
    // At the deepest populated level a TTL rewrite stays in place, dropping
    // its tombstones (they have nothing left to shadow below) -- except L0
    // under leveling, which always moves to L1 like every other L0
    // compaction: its runs shadow by recency, and only an L0 -> L1 pick
    // takes every overlapping run (VersionSet::PickCompaction), so a
    // tombstone dropped in place could expose an older run's value.
    const bool in_place = level >= deepest && (level > 0 || tiering);
    for (FileMetaData* f : v->files(level)) {
      if (!FileTtlExpired(*f, level, last_seq, depth)) continue;
      // An in-place rewrite only helps if the expired tombstone is
      // actually droppable; a snapshot-pinned tombstone must wait for the
      // snapshot to be released.
      if (in_place && EarliestAnyTombstoneSeq(*f) > droppable_horizon) {
        continue;
      }
      const uint64_t overdue = (last_seq - EarliestAnyTombstoneSeq(*f)) -
                               CumulativeTtl(level, depth);
      if (pick.inputs.empty() || overdue > worst_overdue) {
        worst_overdue = overdue;
        pick.inputs.assign(1, f);
        pick.level = level;
        pick.output_level = in_place ? level : level + 1;
        pick.reason_tag = static_cast<int>(CompactionReason::kTtlExpiry);
        if (tiering) {
          // Tiering: the whole level must move together. Runs at a level
          // overlap, and read correctness rests on "level L is strictly
          // newer than level L+1". Moving one run down would (a) let older
          // sibling runs shadow the moved data -- resurrecting deleted
          // keys -- and (b) for an in-place rewrite, dropping a tombstone
          // from one run alone would resurrect older versions in siblings.
          pick.inputs = v->files(level);
        }
      }
    }
  }

  // A range tombstone only drops when no file *outside* the compaction
  // overlaps its span at any level (see the compaction drop rule). For a
  // deepest-level in-place rewrite driven by range tombstones, rewriting
  // just the picked runs would leave the tombstone undropped and expired --
  // the same pick would repeat forever. Two fixups restore progress:
  // shallower files overlapping the span are pushed down first (shallowest
  // blocker), and under leveling same-level overlaps are folded into the
  // rewrite (a tiering pick already holds its whole level).
  if (pick.inputs.empty() || pick.level != pick.output_level) return pick;
  const Comparator* ucmp = icmp_->user_comparator();
  bool has_span = false;
  Slice span_begin, span_end;  // union of the inputs' range-tombstone spans
  for (const FileMetaData* f : pick.inputs) {
    if (!f->has_range_tombstones()) continue;
    if (!has_span || ucmp->Compare(f->range_del_begin, span_begin) < 0) {
      span_begin = f->range_del_begin;
    }
    if (!has_span || ucmp->Compare(f->range_del_end, span_end) > 0) {
      span_end = f->range_del_end;
    }
    has_span = true;
  }
  if (!has_span) return pick;
  auto overlaps_span = [&](const FileMetaData* g) {
    return ucmp->Compare(g->smallest.user_key(), span_end) < 0 &&
           ucmp->Compare(g->largest.user_key(), span_begin) >= 0;
  };
  for (int bl = 0; bl < pick.level; bl++) {
    for (FileMetaData* g : v->files(bl)) {
      if (overlaps_span(g)) {
        // Push the shallowest blocker down one level instead (under
        // tiering its whole level, which moves together); repeated
        // application drains every blocker to the bottom, after which the
        // rewrite actually drops the tombstone.
        pick.level = bl;
        pick.output_level = bl + 1;
        if (tiering) {
          pick.inputs = v->files(bl);
        } else {
          pick.inputs.assign(1, g);
        }
        return pick;
      }
    }
  }
  if (tiering) return pick;
  // No shallower blockers: widen the rewrite across the same (sorted,
  // level >= 1) level. Take the contiguous index run spanning the picked
  // file and all span-overlapping files (contiguity keeps the vacated
  // region free of non-input files, which a range-tombstone-only output
  // needs for its clamped bounds).
  const FileMetaData* f = pick.inputs[0];
  const std::vector<FileMetaData*>& files = v->files(pick.level);
  size_t lo = files.size(), hi = 0;
  for (size_t i = 0; i < files.size(); i++) {
    if (files[i] == f || overlaps_span(files[i])) {
      lo = std::min(lo, i);
      hi = std::max(hi, i);
    }
  }
  pick.inputs.assign(files.begin() + lo, files.begin() + hi + 1);
  return pick;
}

CompactionPick CompactionPlanner::PickLeveling(
    const Version* v, const std::string* compact_pointer) const {
  CompactionPick pick;

  // L0: too many runs?
  if (v->NumFiles(0) >= options_.level0_compaction_trigger) {
    pick.level = 0;
    pick.output_level = 1;
    pick.reason_tag = static_cast<int>(CompactionReason::kL0FileCount);
    // All L0 files take part (they overlap arbitrarily).
    pick.inputs = v->files(0);
    return pick;
  }

  // Deeper levels: pick the level with the worst size-over-capacity ratio.
  int best_level = -1;
  double best_score = 1.0;  // must exceed 1 to trigger
  for (int level = 1; level < kNumLevels - 1; level++) {
    if (v->NumFiles(level) == 0) continue;
    const double capacity = static_cast<double>(
        options_.write_buffer_size *
        std::pow(std::max(2, options_.size_ratio), level));
    const double score = static_cast<double>(v->NumLevelBytes(level)) / capacity;
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  if (best_level < 0) return pick;

  const std::vector<FileMetaData*>& files = v->files(best_level);
  size_t idx = ChooseFileIndex(files, compact_pointer[best_level]);
  pick.level = best_level;
  pick.output_level = best_level + 1;
  pick.reason_tag = static_cast<int>(CompactionReason::kLevelSize);
  pick.inputs.assign(1, files[idx]);
  return pick;
}

CompactionPick CompactionPlanner::PickTiering(const Version* v) const {
  CompactionPick pick;
  // Under tiering every level up to the second-deepest merges all of its
  // runs into one new run in the next level once it accumulates T runs
  // (level 0's trigger is min(T, level0_compaction_trigger) so the write
  // buffer knob keeps meaning something).
  for (int level = 0; level < kNumLevels - 1; level++) {
    const int trigger = (level == 0)
                            ? std::min(options_.size_ratio,
                                       options_.level0_compaction_trigger)
                            : options_.size_ratio;
    if (v->NumFiles(level) >= trigger) {
      pick.level = level;
      pick.output_level = level + 1;
      pick.reason_tag = static_cast<int>(CompactionReason::kTierFull);
      pick.inputs = v->files(level);
      return pick;
    }
  }
  return pick;
}

size_t CompactionPlanner::ChooseFileIndex(
    const std::vector<FileMetaData*>& files,
    const std::string& compact_pointer) const {
  assert(!files.empty());
  if (delete_aware() && options_.delete_aware_picking) {
    // Lethe-style picking: the file with the highest weighted tombstone
    // density. Density is weighted by (1 + normalized age of the oldest
    // tombstone) so stale tombstones win ties against fresh ones.
    size_t best = 0;
    double best_score = -1.0;
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i];
      double score = f->tombstone_density();
      if (f->has_tombstones() &&
          options_.delete_persistence_threshold > 0) {
        // Normalized age in [0, ~1+]: fraction of D_th already consumed.
        // (Callers re-check expiry separately; here it only weights.)
        score *= 2.0;  // tombstoned files strictly dominate equal-density
      }
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    // If no file holds tombstones fall back to round-robin.
    if (best_score > 0.0) return best;
  }
  // Round-robin: first file whose largest key is past the compact pointer.
  if (!compact_pointer.empty()) {
    for (size_t i = 0; i < files.size(); i++) {
      if (icmp_->Compare(files[i]->largest.Encode(),
                         Slice(compact_pointer)) > 0) {
        return i;
      }
    }
  }
  return 0;  // wrap around
}

}  // namespace acheron
