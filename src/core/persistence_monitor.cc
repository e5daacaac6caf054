#include "src/core/persistence_monitor.h"

#include <cstdio>

namespace acheron {

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

void DeletePersistenceMonitor::OnTombstoneWritten(uint64_t n) {
  written_ += n;
}

uint64_t DeletePersistenceMonitor::WrittenCount() const {
  return written_;
}

void DeletePersistenceMonitor::ApplyDelta(uint64_t persisted,
                                          uint64_t superseded,
                                          const Histogram& latency) {
  persisted_ += persisted;
  superseded_ += superseded;
  latency_.Merge(latency);
}

void DeletePersistenceMonitor::Restore(uint64_t written, uint64_t persisted,
                                       uint64_t superseded,
                                       const Histogram& latency) {
  written_ = written;
  persisted_ = persisted;
  superseded_ = superseded;
  latency_ = latency;
}

void DeletePersistenceMonitor::OnRangeTombstoneWritten(uint64_t n) {
  range_written_ += n;
}

uint64_t DeletePersistenceMonitor::RangeWrittenCount() const {
  return range_written_;
}

void DeletePersistenceMonitor::ApplyRangeDelta(uint64_t persisted,
                                               uint64_t superseded,
                                               const Histogram& latency) {
  range_persisted_ += persisted;
  range_superseded_ += superseded;
  range_latency_.Merge(latency);
}

void DeletePersistenceMonitor::RestoreRange(uint64_t written,
                                            uint64_t persisted,
                                            uint64_t superseded,
                                            const Histogram& latency) {
  range_written_ = written;
  range_persisted_ = persisted;
  range_superseded_ = superseded;
  range_latency_ = latency;
}

void DeletePersistenceMonitor::ApplyVlogDelta(uint64_t purged,
                                              const Histogram& latency) {
  vlog_purged_ += purged;
  vlog_latency_.Merge(latency);
}

void DeletePersistenceMonitor::RestoreVlog(uint64_t purged,
                                           const Histogram& latency) {
  vlog_purged_ = purged;
  vlog_latency_ = latency;
}

void DeletePersistenceMonitor::Snapshot(DeleteStats* stats,
                                        uint64_t tombstones_live,
                                        uint64_t oldest_live_age,
                                        uint64_t range_tombstones_live,
                                        uint64_t value_purge_backlog) const {
  stats->tombstones_written = written_;
  stats->tombstones_persisted = persisted_;
  stats->tombstones_superseded = superseded_;
  stats->tombstones_live = tombstones_live;
  stats->oldest_live_tombstone_age = oldest_live_age;
  stats->persistence_latency_p50 = latency_.Percentile(50);
  stats->persistence_latency_p90 = latency_.Percentile(90);
  stats->persistence_latency_p99 = latency_.Percentile(99);
  stats->persistence_latency_max = latency_.Max();
  stats->persistence_latency_avg = latency_.Average();
  stats->range_deletes_written = range_written_;
  stats->range_deletes_persisted = range_persisted_;
  stats->range_deletes_superseded = range_superseded_;
  stats->range_deletes_live = range_tombstones_live;
  stats->range_persistence_latency_p50 = range_latency_.Percentile(50);
  stats->range_persistence_latency_p90 = range_latency_.Percentile(90);
  stats->range_persistence_latency_p99 = range_latency_.Percentile(99);
  stats->range_persistence_latency_max = range_latency_.Max();
  stats->range_persistence_latency_avg = range_latency_.Average();
  stats->values_purged = vlog_purged_;
  stats->value_purge_backlog = value_purge_backlog;
  stats->value_purge_latency_p50 = vlog_latency_.Percentile(50);
  stats->value_purge_latency_p90 = vlog_latency_.Percentile(90);
  stats->value_purge_latency_p99 = vlog_latency_.Percentile(99);
  stats->value_purge_latency_max = vlog_latency_.Max();
  stats->value_purge_latency_avg = vlog_latency_.Average();
  stats->dth_at_risk = dth_at_risk_;
}

void DeletePersistenceMonitor::SetDthAtRisk(bool at_risk) {
  dth_at_risk_ = at_risk;
}

bool DeletePersistenceMonitor::DthAtRisk() const {
  return dth_at_risk_;
}

}  // namespace acheron
