// The vLog segment registry: per-segment accounting journaled through the
// MANIFEST (VersionEdit tags kVlogSegment/kVlogRemove/kVlogDelta), owned by
// VersionSet and mutated only under the DB mutex via LogAndApply/Recover.
//
// Each segment carries, besides its physical extent, the *FADE clock* that
// drives delete-compliant garbage collection: every compaction that drops a
// deletion-shadowed pointer into the segment appends a pending-purge entry
// (key-purge logical time + count). Once the earliest pending purge of
// any segment reaches its deadline, GC collects every segment that owes
// a purge -- the value bytes users' deletes are still waiting on -- in one
// pass, and reports key-purge -> value-purge latency to the persistence
// monitor when each segment dies.
#ifndef ACHERON_VLOG_VLOG_REGISTRY_H_
#define ACHERON_VLOG_VLOG_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/util/slice.h"

namespace acheron {
namespace vlog {

struct SegmentInfo {
  uint64_t number = 0;
  // Sealed segments are immutable: total_bytes/value_count are exact and
  // the file is fully synced. The (single) unsealed segment is the write
  // head; its totals track the appended extent and are finalized by the
  // seal edit (or by the torn-tail scan at recovery).
  bool sealed = false;
  uint64_t total_bytes = 0;
  uint64_t value_count = 0;
  // Record bytes whose LSM entries were dropped by compactions (the values
  // are unreachable; GC reclaims the space).
  uint64_t garbage_bytes = 0;
  uint64_t dead_count = 0;

  // Deletion-driven subset of the dead values: each entry is one
  // compaction's batch of key purges charged to this segment, stamped with
  // the compaction's logical time. Bounded by compaction count, not value
  // count (one entry per charging compaction).
  struct PendingPurge {
    SequenceNumber purge_seq = 0;
    uint64_t count = 0;
  };
  std::vector<PendingPurge> pending;

  uint64_t pending_count() const {
    uint64_t n = 0;
    for (const auto& p : pending) n += p.count;
    return n;
  }
  SequenceNumber earliest_pending_seq() const {
    SequenceNumber earliest = kMaxSequenceNumber;
    for (const auto& p : pending) {
      if (p.purge_seq < earliest) earliest = p.purge_seq;
    }
    return earliest;
  }
  double live_ratio() const {
    if (total_bytes == 0) return 1.0;
    return garbage_bytes >= total_bytes
               ? 0.0
               : 1.0 - static_cast<double>(garbage_bytes) / total_bytes;
  }
};

// One compaction's charge against one segment (journaled as kVlogDelta so
// recovery replays the clock bit-identically).
struct SegmentDelta {
  uint64_t number = 0;
  uint64_t garbage_bytes = 0;
  uint64_t dead_count = 0;
  // Deletion-driven subset: joins the segment's pending-purge clock with
  // purge_seq as the key-purge logical time.
  uint64_t purge_count = 0;
  SequenceNumber purge_seq = 0;
};

using Registry = std::map<uint64_t, SegmentInfo>;

// Charge |delta|'s garbage and pending purge to its segment; a no-op once
// GC has collected the segment.
void ChargeSegment(Registry* registry, const SegmentDelta& delta);

// Wire encoding used by the VersionEdit tags (version_edit.cc).
void EncodeSegmentInfo(std::string* dst, const SegmentInfo& info);
bool DecodeSegmentInfo(Slice* input, SegmentInfo* info);
void EncodeSegmentDelta(std::string* dst, const SegmentDelta& delta);
bool DecodeSegmentDelta(Slice* input, SegmentDelta* delta);

}  // namespace vlog
}  // namespace acheron

#endif  // ACHERON_VLOG_VLOG_REGISTRY_H_
