// DeletePersistenceMonitor: observes the life cycle of tombstones and
// reports delete-persistence statistics -- the headline metric of Acheron.
//
// A delete becomes *persistent* when its tombstone is dropped at the
// bottommost level: at that instant no older version of the key can ever be
// read again (nothing below remains to shadow). The monitor records, for
// every persisted tombstone, the latency between tombstone creation and that
// drop, measured on the logical clock (sequence numbers == operations
// ingested). With a delete persistence threshold D_th configured, the
// invariant under FADE is max latency <= D_th (modulo in-flight compactions
// and snapshot pins).
#ifndef ACHERON_CORE_PERSISTENCE_MONITOR_H_
#define ACHERON_CORE_PERSISTENCE_MONITOR_H_

#include <cstdint>
#include <string>

#include "src/lsm/dbformat.h"
#include "src/util/histogram.h"

namespace acheron {

// Aggregate snapshot of delete-persistence state, returned by
// DB::GetDeleteStats().
struct DeleteStats {
  // Tombstones written since open.
  uint64_t tombstones_written = 0;
  // Tombstones persisted (dropped at the bottommost level).
  uint64_t tombstones_persisted = 0;
  // Tombstones superseded before persisting (e.g. the key was re-inserted,
  // making the tombstone obsolete; the delete never became observable).
  uint64_t tombstones_superseded = 0;
  // Live tombstones currently in the tables and memtables.
  uint64_t tombstones_live = 0;
  // Age (in logical ops) of the oldest live tombstone there.
  uint64_t oldest_live_tombstone_age = 0;

  // Persistence latency distribution in logical ops (seq delta between
  // tombstone creation and its drop at the bottom level).
  double persistence_latency_p50 = 0;
  double persistence_latency_p90 = 0;
  double persistence_latency_p99 = 0;
  double persistence_latency_max = 0;
  double persistence_latency_avg = 0;

  // ---- Range-delete (kTypeRangeDeletion) counterparts ----
  // Tracked separately: one range tombstone may cover many keys, so mixing
  // the two populations would skew both latency distributions.
  uint64_t range_deletes_written = 0;
  uint64_t range_deletes_persisted = 0;
  uint64_t range_deletes_superseded = 0;
  uint64_t range_deletes_live = 0;
  double range_persistence_latency_p50 = 0;
  double range_persistence_latency_p90 = 0;
  double range_persistence_latency_p99 = 0;
  double range_persistence_latency_max = 0;
  double range_persistence_latency_avg = 0;

  // ---- Value-purge (key-value separation) counterparts ----
  // A deleted key's value bytes in the vLog are only reclaimed when GC
  // rewrites (or drops) the segment holding them; delete-compliant GC
  // requires that to happen within D_th of the key purge. The latency here
  // is key-purge seq -> value-purge seq, in logical ops.
  uint64_t values_purged = 0;
  // Deleted keys whose value bytes are still waiting in the vLog.
  uint64_t value_purge_backlog = 0;
  double value_purge_latency_p50 = 0;
  double value_purge_latency_p90 = 0;
  double value_purge_latency_p99 = 0;
  double value_purge_latency_max = 0;
  double value_purge_latency_avg = 0;

  // True while a background-error episode (see DBImpl::RecordBackgroundError)
  // is delaying compactions past a due tombstone TTL deadline: the FADE
  // D_th bound is at risk until the episode recovers. Not journaled -- it
  // describes the live engine, not tombstone history.
  bool dth_at_risk = false;

  std::string ToString() const;
};

// Not thread-safe: the owner serializes every call. DBImpl guards its
// monitor with DBImpl::mutex_.
class DeletePersistenceMonitor {
 public:
  DeletePersistenceMonitor() = default;

  DeletePersistenceMonitor(const DeletePersistenceMonitor&) = delete;
  DeletePersistenceMonitor& operator=(const DeletePersistenceMonitor&) =
      delete;

  // A tombstone entered the system (Delete() was written).
  void OnTombstoneWritten(uint64_t n = 1);

  // Cumulative tombstones-written count; captured at memtable swap so flush
  // edits can journal it into the MANIFEST (see version_edit.h).
  uint64_t WrittenCount() const;

  // Fold one compaction's outcome into the counters: |persisted| tombstones
  // dropped at the bottommost level (the deletes are now persistent), with
  // one |latency| sample each (creation to drop, in logical ops), and
  // |superseded| tombstones dropped because a newer entry for the same key
  // shadows them. The compaction merge loop accumulates the delta locally
  // (mutex released) and applies it here only after the version edit that
  // carries the same delta is durably installed, so the live monitor and
  // the journaled state advance in lock step.
  void ApplyDelta(uint64_t persisted, uint64_t superseded,
                  const Histogram& latency);

  // Reset the monitor to journaled state at recovery time. |written| is the
  // journaled cumulative count plus deletes re-counted during WAL replay;
  // the rest comes verbatim from the MANIFEST journal, so the recovered
  // clock is exact -- bit-identical latency percentiles included.
  void Restore(uint64_t written, uint64_t persisted, uint64_t superseded,
               const Histogram& latency);

  // ---- Range-delete counterparts ----
  // Same life cycle, separate population: a range tombstone persists when
  // it is dropped at the bottommost level with nothing left to cover.
  void OnRangeTombstoneWritten(uint64_t n = 1);
  uint64_t RangeWrittenCount() const;
  void ApplyRangeDelta(uint64_t persisted, uint64_t superseded,
                       const Histogram& latency);
  void RestoreRange(uint64_t written, uint64_t persisted, uint64_t superseded,
                    const Histogram& latency);

  // ---- Value-purge (key-value separation) counterparts ----
  // vLog GC reclaimed the value bytes of deleted keys; same install-then-
  // apply discipline as ApplyDelta (the delta rides the GC's version edit).
  void ApplyVlogDelta(uint64_t purged, const Histogram& latency);
  void RestoreVlog(uint64_t purged, const Histogram& latency);

  // Fill |*stats| with the current aggregate; live-tombstone numbers are
  // supplied by the caller (they come from the current Version), as is the
  // value-purge backlog (it comes from the vLog segment registry).
  void Snapshot(DeleteStats* stats, uint64_t tombstones_live,
                uint64_t oldest_live_age, uint64_t range_tombstones_live = 0,
                uint64_t value_purge_backlog = 0) const;

  // Flag (or clear) the D_th-at-risk condition: set by the engine when a
  // background-error episode stalls compactions while a tombstone TTL
  // deadline is already due, cleared when the episode recovers.
  void SetDthAtRisk(bool at_risk);
  bool DthAtRisk() const;

 private:
  uint64_t written_ = 0;
  uint64_t persisted_ = 0;
  uint64_t superseded_ = 0;
  Histogram latency_;
  uint64_t range_written_ = 0;
  uint64_t range_persisted_ = 0;
  uint64_t range_superseded_ = 0;
  Histogram range_latency_;
  uint64_t vlog_purged_ = 0;
  Histogram vlog_latency_;
  bool dth_at_risk_ = false;
};

}  // namespace acheron

#endif  // ACHERON_CORE_PERSISTENCE_MONITOR_H_
