// TableCache: LRU cache of open Table readers keyed by file number.
//
// Thread-safe without external locking: every member is either immutable
// after construction or the internally sharded+locked Cache (see
// src/table/cache.cc); callers (reads that dropped DBImpl::mutex_,
// compactions that hold it) may use it concurrently. A table stays pinned
// only for one Get / GetRangeTombstones call or for the life of one
// iterator; nothing holds a handle across calls.
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
  // Aggregate sink installed on every table right after Table::Open.
  std::atomic<uint64_t> filter_negatives_total_{0};
};

}  // namespace acheron

#endif  // ACHERON_LSM_TABLE_CACHE_H_
