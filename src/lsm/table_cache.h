// TableCache: LRU cache of open Table readers keyed by file number.
//
// Thread-safe without external locking: every member is either immutable
// after construction or the internally sharded+locked Cache (see
// src/table/cache.cc); callers (reads that dropped DBImpl::mutex_,
// compactions that hold it) may use it concurrently. A table stays pinned
// for one Get / GetRangeTombstones call, for the life of one iterator, or
// -- through Pin -- for the life of a Version that probed it; at most
// |entries| handles are pinned at a time.
#ifndef ACHERON_LSM_TABLE_CACHE_H_
#define ACHERON_LSM_TABLE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/table/cache.h"
#include "src/table/table.h"

namespace acheron {

class Env;

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  ~TableCache();

  // Return an iterator for the specified file number (the corresponding
  // file length must be exactly "file_size" bytes). If "tableptr" is
  // non-null, also sets "*tableptr" to point to the Table object underlying
  // the returned iterator, or to nullptr if no Table object underlies the
  // returned iterator. The returned "*tableptr" object is owned by the
  // cache and should not be deleted, and is valid for as long as the
  // returned iterator is live.
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  // If a seek to internal key "k" in specified file finds an entry, call
  // (*handle_result)(arg, found_key, found_value). |user_key| feeds the
  // Bloom filter. A non-null |filter_negatives| batches bloom-negative
  // accounting into the caller's local counter (flushed once per op via
  // AddFilterNegatives) instead of one shared atomic RMW per miss.
  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& k, const Slice& user_key,
             void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&),
             uint64_t* filter_negatives = nullptr);

  // Pin the table of |file_number| for a caller that probes it again and
  // again (a Version's point lookups): set *handle to a cache handle whose
  // table (see table()) stays open until Unpin. *handle is null when the
  // pinned handles already number the cache's capacity, and the caller
  // keeps to Get; the budget is checked before any lookup.
  Status Pin(uint64_t file_number, uint64_t file_size, Cache::Handle** handle);

  // Release a handle Pin returned. The last release of a table evicted
  // meanwhile closes its file, so a caller holding the DB mutex defers it.
  void Unpin(Cache::Handle* handle);

  // The table behind a handle Pin returned.
  Table* table(Cache::Handle* handle) const;

  // Handles Pin holds now, and table lookups (hits and opens) made so far.
  int pinned() const { return pinned_.load(std::memory_order_relaxed); }
  uint64_t TEST_lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }

  // Append the specified file's raw range tombstones to |*out|.
  Status GetRangeTombstones(uint64_t file_number, uint64_t file_size,
                            std::vector<RangeTombstone>* out);

  // Flush a batch of locally-counted bloom negatives into the aggregate
  // (the batched counterpart of the per-miss sink bump).
  void AddFilterNegatives(uint64_t n) {
    if (n > 0) filter_negatives_total_.fetch_add(n, std::memory_order_relaxed);
  }

  // Evict any entry for the specified file number.
  void Evict(uint64_t file_number);

  // Point lookups answered negatively by a Bloom filter alone, totalled
  // across every table this cache has opened (including since-evicted
  // ones). Feeds InternalStats::bloom_useful.
  uint64_t filter_negatives_total() const {
    return filter_negatives_total_.load(std::memory_order_relaxed);
  }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle**);

  Env* const env_;
  const std::string dbname_;
  const Options& options_;
  Cache* cache_;
  const int capacity_;
  std::atomic<int> pinned_{0};
  std::atomic<uint64_t> lookups_{0};
  // Aggregate sink installed on every table right after Table::Open.
  std::atomic<uint64_t> filter_negatives_total_{0};
};

}  // namespace acheron

#endif  // ACHERON_LSM_TABLE_CACHE_H_
