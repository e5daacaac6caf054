// InternalStats: engine-wide counters surfaced through DB::GetStats(),
// powering the write/space/read-amplification experiments; DeleteStats: the
// delete-persistence summary surfaced through DB::GetDeleteStats().
#ifndef ACHERON_LSM_STATS_H_
#define ACHERON_LSM_STATS_H_

#include <array>
#include <cstdint>
#include <string>

namespace acheron {

// Externally synchronized: the DBImpl-owned instance is GUARDED_BY
// DBImpl::mutex_ and mutated only on annotated EXCLUSIVE_LOCKS_REQUIRED
// paths. Counters bumped on lock-free paths -- gets/gets_found on the
// mutex-free Get hot path, iter_tombstones_skipped by live iterators, and
// bloom_useful inside table reads -- live as relaxed atomics in DBImpl and
// TableCache and are merged into the snapshot copy handed out by
// DB::GetStats()/GetProperty() (see DBImpl::MergeReadPathCounters).
struct InternalStats {
  // --- write path ---
  uint64_t user_bytes_written = 0;  // key+value bytes accepted from callers
  uint64_t wal_bytes_written = 0;
  uint64_t flush_count = 0;
  uint64_t flush_bytes_written = 0;

  // --- compactions ---
  uint64_t compaction_count = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t trivial_move_count = 0;
  // Indexed by CompactionReason (see version_set.h); sized generously.
  // Every table rewrite counts here, vLog GC (vlog-gc) and the secondary
  // purge (secondary-purge) included; trivial moves count under the reason
  // that picked them.
  std::array<uint64_t, 8> compactions_by_reason{};

  // --- entries dropped during compactions ---
  uint64_t entries_shadowed_dropped = 0;    // hidden by a newer entry
  uint64_t tombstones_dropped_bottom = 0;   // persisted deletes
  uint64_t blocks_purged_secondary = 0;     // values the secondary purge
                                            // dropped while rewriting

  // --- write stalls / background scheduling ---
  uint64_t stall_slowdown_writes = 0;  // writes delayed by the L0 soft trigger
  uint64_t stall_stop_writes = 0;      // writes blocked by the L0 hard trigger
  uint64_t stall_memtable_waits = 0;   // writes that waited on imm_ flush
  uint64_t stall_ttl_waits = 0;        // writes that waited for a TTL-deadline
                                       // compaction to finish (FADE bound)
  uint64_t stall_memtable_age_waits = 0;  // memtable-age checks that drained
                                          // the pending rounds to decide
  uint64_t ttl_rounds_queued = 0;  // TTL rounds handed to the background
  uint64_t ttl_rounds_inline = 0;  // TTL rounds the crossing write ran itself
  uint64_t stall_micros = 0;           // total wall time writers spent stalled
  uint64_t background_jobs_scheduled = 0;  // Env::Schedule handoffs
  uint64_t memtable_swaps = 0;             // mem_ -> imm_ rotations
  uint64_t wal_syncs = 0;                  // physical WAL fsyncs
  uint64_t group_commits = 0;          // write groups with > 1 logical batch
  uint64_t writes_grouped = 0;         // logical batches riding a leader's
                                       // group (0 when every write is alone)

  // --- recovery / MANIFEST bounded replay ---
  uint64_t manifest_edits_replayed = 0;  // edits applied after the last valid
                                         // snapshot during the last Recover
  uint64_t manifest_snapshots_written = 0;  // snapshot records appended
  uint64_t manifest_rotations = 0;          // descriptor rotations
  uint64_t torn_snapshots_skipped = 0;      // snapshots skipped on inner-CRC
                                            // failure during recovery

  // --- background errors / transient-fault tolerance ---
  uint64_t errors_transient = 0;  // background failures classified retryable
  uint64_t errors_retried = 0;    // error episodes that ended in recovery
  uint64_t errors_fatal = 0;      // episodes that exhausted the retry budget
                                  // (or were corruption, which never retries)
  uint64_t resume_count = 0;      // degraded-read-only -> writable recoveries
                                  // (space probe or DB::Resume)

  // --- value log (key-value separation) ---
  uint64_t vlog_bytes_written = 0;      // record bytes appended to the vLog
  uint64_t vlog_values_written = 0;     // values routed through the vLog
  uint64_t vlog_segments_created = 0;   // head segments opened
  uint64_t vlog_gc_runs = 0;            // GC passes; one pass may collect
                                        // several segments and runs one
                                        // vlog-gc compaction per rewrite
  uint64_t vlog_gc_values_relocated = 0;  // live values GC's compactions
                                          // moved out of victim segments
  uint64_t vlog_gc_bytes_relocated = 0;   // their record bytes (also in
                                          // vlog_bytes_written)
  uint64_t vlog_reads = 0;              // pointer dereferences served

  // --- reads ---
  uint64_t gets = 0;
  uint64_t gets_found = 0;
  uint64_t bloom_useful = 0;         // table probes skipped by the filter
  uint64_t iter_tombstones_skipped = 0;  // tombstones stepped over by scans

  // Write amplification: bytes written to storage (flush + compaction +
  // value-log appends, including GC relocations) per user byte. Counting
  // the vLog keeps the separated and unseparated configurations honestly
  // comparable.
  double WriteAmplification() const {
    if (user_bytes_written == 0) return 0.0;
    return static_cast<double>(flush_bytes_written +
                               compaction_bytes_written +
                               vlog_bytes_written) /
           static_cast<double>(user_bytes_written);
  }

  std::string ToString() const;
};

// Aggregate snapshot of delete-persistence state, returned by
// DB::GetDeleteStats(). A delete becomes *persistent* when its tombstone is
// dropped at the bottommost level: no older version of the key can be read
// again. Latencies are measured on the logical clock (sequence numbers ==
// operations ingested); under FADE with a threshold D_th configured, the
// invariant is max latency <= D_th (modulo in-flight compactions and
// snapshot pins).
struct DeleteStats {
  // Tombstones ever written (the count survives reopen).
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

}  // namespace acheron

#endif  // ACHERON_LSM_STATS_H_
