// Table: immutable, thread-safe SSTable reader with Bloom-filtered point
// lookups, block-cache integration, and access to the persisted
// TableProperties (tombstone metadata).
#ifndef ACHERON_TABLE_TABLE_H_
#define ACHERON_TABLE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/core/range_tombstone.h"
#include "src/env/env.h"
#include "src/lsm/options.h"
#include "src/table/cache.h"
#include "src/table/format.h"
#include "src/table/iterator.h"
#include "src/table/properties.h"
#include "src/util/status.h"

namespace acheron {

class Block;
class Footer;
class Table;

// Outcome of Table::PrepareGet.
enum class TablePrepare {
  kFilteredOut,  // Bloom filter ruled the key out: no entry in this table
  kNoBlock,      // index has no block at or past the key: no entry here
  kReady,        // block in hand (cache hit) or early error: ReadInBlock now
  kNeedsRead,    // submit &req->io via Env::SubmitReads, then ReadInBlock
};

// One point lookup split into prepare / (async) read / complete so a batch
// of lookups can keep several block reads in flight at once (MultiGet).
// PrepareGet fills it; the io request's completion hook verifies the block
// trailer and parses the Block on the completing thread; ReadInBlock runs
// the saver callback and releases the block. The struct must stay pinned
// (no moves) from PrepareGet until ReadInBlock.
struct TableReadRequest {
  Table* table = nullptr;
  ReadOptions options;
  BlockHandle handle;
  ReadRequest io;       // valid after PrepareGet returns kNeedsRead
  char* buf = nullptr;  // heap read buffer; owned until the parse consumes it
  Block* block = nullptr;                 // parsed block, set by the hook
  Cache::Handle* cache_handle = nullptr;  // held ref when |block| is cached
  Status status;
};

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

  // First phase of an asynchronous InternalGet: consults the Bloom filter,
  // seeks the pinned index block, and checks the block cache -- no file IO.
  // On kNeedsRead the caller submits &req->io (batched with other lookups)
  // via Env::SubmitReads; the request's completion hook CRC-checks and
  // parses the block on the completing thread. On kReady, ReadInBlock can
  // run immediately. kFilteredOut/kNoBlock resolve the lookup with no
  // entry (req->status stays OK). |filter_negatives| as in InternalGet.
  TablePrepare PrepareGet(const ReadOptions&, const Slice& key,
                          const Slice& filter_key, TableReadRequest* req,
                          uint64_t* filter_negatives_out = nullptr);

  // Final phase: once req->io has posted (or immediately after kReady),
  // seeks |key| in the parsed block, invokes |handle_result| like
  // InternalGet, and releases the block / cache handle. Returns the read,
  // parse, or seek status.
  Status ReadInBlock(TableReadRequest* req, const Slice& key, void* arg,
                     void (*handle_result)(void* arg, const Slice& k,
                                           const Slice& v));

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

  static Iterator* BlockReader(void*, const ReadOptions&, const Slice&);

  // ReadRequest::on_complete hook installed by PrepareGet: verifies the
  // trailer, parses the Block, and (fill_cache permitting) inserts it into
  // the block cache -- all off the submitting thread.
  static void ParseBlockOnComplete(ReadRequest* io);

  explicit Table(Rep* rep) : rep_(rep) {}

  Rep* const rep_;
};

}  // namespace acheron

#endif  // ACHERON_TABLE_TABLE_H_
