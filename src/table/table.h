// Table: immutable, thread-safe SSTable reader with Bloom-filtered point
// lookups, block-cache integration, and access to the persisted
// TableProperties (tombstone metadata). A point lookup and an iterator
// fetch data blocks the same way. A table whose file serves reads from its
// own memory (a mapped file) reads each block in place: one Read call, a
// CRC check on the block's first use by this Table only, and no block
// cache. Any other table looks in the block cache first, else reads the
// block into the heap, checks its CRC and inserts it into the cache.
#ifndef ACHERON_TABLE_TABLE_H_
#define ACHERON_TABLE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/range_tombstone.h"
#include "src/env/env.h"
#include "src/lsm/options.h"
#include "src/table/cache.h"
#include "src/table/iterator.h"
#include "src/table/properties.h"
#include "src/util/status.h"

namespace acheron {

class Block;
struct BlockContents;

class Table {
 public:
  // Attempt to open the table that is stored in bytes [0..file_size) of
  // "file", and read the metadata entries necessary to allow retrieving data
  // from the table.
  //
  // If successful, returns ok and sets "*table" to the newly opened table.
  // The client should delete "*table" when no longer needed. If there was an
  // error while initializing the table, sets "*table" to nullptr and returns
  // a non-ok status. Does not take ownership of "*file", but the client must
  // ensure that "file" remains live for the duration of the returned table's
  // lifetime.
  static Status Open(const Options& options, RandomAccessFile* file,
                     uint64_t file_size, Table** table);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  ~Table();

  // Returns a new iterator over the table contents.
  // The result of NewIterator() is initially invalid (caller must call one
  // of the Seek methods on the iterator before using it).
  Iterator* NewIterator(const ReadOptions&) const;

  // Given a key, return an approximate byte offset in the file where the
  // data for that key begins.
  uint64_t ApproximateOffsetOf(const Slice& key) const;

  // Statistics persisted at build time (incl. tombstone metadata).
  const TableProperties& properties() const;

  // Raw range tombstones decoded from the file's range-tombstone block
  // (empty when the file has none). A corrupt block fails Open outright —
  // silently dropping a range tombstone would resurrect covered keys.
  const std::vector<RangeTombstone>& raw_range_tombstones() const;

  // Calls (*handle_result)(arg, internal_key, value) for the first entry at
  // or past |key| in this table, after consulting the Bloom filter with
  // |filter_key|. No callback is made if the filter rules the key out or the
  // table has no entry >= key. A non-null |filter_negatives| batches the
  // bloom-negative accounting into the caller's local counter instead of
  // one shared-sink atomic RMW per miss (the caller flushes once per op).
  Status InternalGet(const ReadOptions&, const Slice& key,
                     const Slice& filter_key, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v),
                     uint64_t* filter_negatives_out = nullptr);

  // Number of point lookups answered negatively by the Bloom filter alone
  // (for cache/IO accounting in benchmarks).
  uint64_t filter_negatives() const;

 private:
  friend class TableCache;
  struct Rep;

  // Install an aggregate counter (e.g. the owning TableCache's running
  // total) that is bumped alongside the per-table filter_negatives. Must be
  // set before the table is shared across threads (TableCache sets it right
  // after Open); |sink| must outlive the table.
  void SetFilterNegativesSink(std::atomic<uint64_t>* sink);

  // Marks an index entry whose ordinal the caller does not know.
  static constexpr size_t kUnknownOrdinal = ~size_t{0};

  // The one data-block fetch, for iterators and InternalGet: the block the
  // index entry |ordinal| (or kUnknownOrdinal) names with |index_value|.
  // A mapped table's block is read in place: *contents views the mapping,
  // checked on the block's first use (on every use with verify_checksums),
  // and *block and *cache_handle are null; the caller builds its Block over
  // *contents. Otherwise *block is set: from the block cache, with a
  // *cache_handle the caller releases; or read, CRC-checked and parsed, then
  // inserted into the cache (with fill_cache; *cache_handle set) or owned by
  // the caller (*cache_handle null). verify_checksums skips the cache.
  Status FetchBlock(const ReadOptions&, const Slice& index_value,
                    size_t ordinal, BlockContents* contents, Block** block,
                    Cache::Handle** cache_handle) const;

  // An iterator over the block FetchBlock returns (the two-level iterator's
  // block function).
  static Iterator* BlockReader(void*, const ReadOptions&, const Slice&);

  explicit Table(Rep* rep) : rep_(rep) {}

  Rep* const rep_;
};

}  // namespace acheron

#endif  // ACHERON_TABLE_TABLE_H_
