#include "src/lsm/stats.h"

#include <cstdio>

namespace acheron {

std::string InternalStats::ToString() const {
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "writes: user=%llu wal=%llu | flush: n=%llu bytes=%llu | "
      "compaction: n=%llu read=%llu written=%llu trivial=%llu | "
      "dropped: shadowed=%llu tombstones_bottom=%llu | "
      "reads: gets=%llu found=%llu bloom_useful=%llu iter_ts_skip=%llu | "
      "stalls: slowdown=%llu stop=%llu imm_wait=%llu ttl_wait=%llu "
      "age_wait=%llu micros=%llu | ttl_rounds: queued=%llu inline=%llu | "
      "bg: jobs=%llu swaps=%llu | "
      "commit: wal_syncs=%llu groups=%llu grouped_writes=%llu | "
      "recovery: edits_replayed=%llu snapshots=%llu rotations=%llu "
      "torn_skipped=%llu | "
      "errors: transient=%llu retried=%llu fatal=%llu resumes=%llu | "
      "vlog: bytes=%llu values=%llu segments=%llu gc_runs=%llu "
      "relocated=%llu relocated_bytes=%llu reads=%llu | "
      "WA=%.2f",
      static_cast<unsigned long long>(user_bytes_written),
      static_cast<unsigned long long>(wal_bytes_written),
      static_cast<unsigned long long>(flush_count),
      static_cast<unsigned long long>(flush_bytes_written),
      static_cast<unsigned long long>(compaction_count),
      static_cast<unsigned long long>(compaction_bytes_read),
      static_cast<unsigned long long>(compaction_bytes_written),
      static_cast<unsigned long long>(trivial_move_count),
      static_cast<unsigned long long>(entries_shadowed_dropped),
      static_cast<unsigned long long>(tombstones_dropped_bottom),
      static_cast<unsigned long long>(gets),
      static_cast<unsigned long long>(gets_found),
      static_cast<unsigned long long>(bloom_useful),
      static_cast<unsigned long long>(iter_tombstones_skipped),
      static_cast<unsigned long long>(stall_slowdown_writes),
      static_cast<unsigned long long>(stall_stop_writes),
      static_cast<unsigned long long>(stall_memtable_waits),
      static_cast<unsigned long long>(stall_ttl_waits),
      static_cast<unsigned long long>(stall_memtable_age_waits),
      static_cast<unsigned long long>(stall_micros),
      static_cast<unsigned long long>(ttl_rounds_queued),
      static_cast<unsigned long long>(ttl_rounds_inline),
      static_cast<unsigned long long>(background_jobs_scheduled),
      static_cast<unsigned long long>(memtable_swaps),
      static_cast<unsigned long long>(wal_syncs),
      static_cast<unsigned long long>(group_commits),
      static_cast<unsigned long long>(writes_grouped),
      static_cast<unsigned long long>(manifest_edits_replayed),
      static_cast<unsigned long long>(manifest_snapshots_written),
      static_cast<unsigned long long>(manifest_rotations),
      static_cast<unsigned long long>(torn_snapshots_skipped),
      static_cast<unsigned long long>(errors_transient),
      static_cast<unsigned long long>(errors_retried),
      static_cast<unsigned long long>(errors_fatal),
      static_cast<unsigned long long>(resume_count),
      static_cast<unsigned long long>(vlog_bytes_written),
      static_cast<unsigned long long>(vlog_values_written),
      static_cast<unsigned long long>(vlog_segments_created),
      static_cast<unsigned long long>(vlog_gc_runs),
      static_cast<unsigned long long>(vlog_gc_values_relocated),
      static_cast<unsigned long long>(vlog_gc_bytes_relocated),
      static_cast<unsigned long long>(vlog_reads),
      WriteAmplification());
  return buf;
}

std::string DeleteStats::ToString() const {
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "tombstones: written=%llu persisted=%llu superseded=%llu live=%llu "
      "oldest_live_age=%llu | persistence latency (ops): avg=%.0f p50=%.0f "
      "p90=%.0f p99=%.0f max=%.0f | range deletes: written=%llu "
      "persisted=%llu superseded=%llu live=%llu | range latency (ops): "
      "avg=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f | value purges: "
      "purged=%llu backlog=%llu latency avg=%.0f p50=%.0f p99=%.0f "
      "max=%.0f | dth_at_risk=%d",
      static_cast<unsigned long long>(tombstones_written),
      static_cast<unsigned long long>(tombstones_persisted),
      static_cast<unsigned long long>(tombstones_superseded),
      static_cast<unsigned long long>(tombstones_live),
      static_cast<unsigned long long>(oldest_live_tombstone_age),
      persistence_latency_avg, persistence_latency_p50,
      persistence_latency_p90, persistence_latency_p99,
      persistence_latency_max,
      static_cast<unsigned long long>(range_deletes_written),
      static_cast<unsigned long long>(range_deletes_persisted),
      static_cast<unsigned long long>(range_deletes_superseded),
      static_cast<unsigned long long>(range_deletes_live),
      range_persistence_latency_avg, range_persistence_latency_p50,
      range_persistence_latency_p90, range_persistence_latency_p99,
      range_persistence_latency_max,
      static_cast<unsigned long long>(values_purged),
      static_cast<unsigned long long>(value_purge_backlog),
      value_purge_latency_avg, value_purge_latency_p50,
      value_purge_latency_p99, value_purge_latency_max, dth_at_risk ? 1 : 0);
  return buf;
}

}  // namespace acheron
