// acheron::DB -- the public interface of the Acheron storage engine.
//
// Acheron is an LSM key-value store with first-class *persistent deletes*:
// with Options::delete_persistence_threshold = D_th, every Delete() is
// guaranteed to become physically persistent (its tombstone dropped at the
// bottommost level, all shadowed versions gone) within D_th subsequently
// ingested operations, enforced by delete-aware (FADE) compaction.
//
// Usage:
//   acheron::Options opt;
//   opt.delete_persistence_threshold = 1'000'000;
//   acheron::DB* db;
//   auto s = acheron::DB::Open(opt, "/tmp/db", &db);
//   db->Put(acheron::WriteOptions(), "k", "v");
//   db->Delete(acheron::WriteOptions(), "k");
//   delete db;
#ifndef ACHERON_LSM_DB_H_
#define ACHERON_LSM_DB_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/lsm/options.h"
#include "src/lsm/stats.h"
#include "src/lsm/write_batch.h"
#include "src/table/iterator.h"
#include "src/util/status.h"

namespace acheron {

class Snapshot;

class DB {
 public:
  // Open the database with the specified "name". Stores a pointer to a
  // heap-allocated database in *dbptr and returns OK on success. Caller
  // should delete *dbptr when it is no longer needed.
  static Status Open(const Options& options, const std::string& name,
                     DB** dbptr);

  DB() = default;
  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual ~DB() = default;

  // Set the database entry for "key" to "value".
  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;

  // Remove the database entry (if any) for "key". It is not an error if
  // "key" did not exist. With a delete persistence threshold configured the
  // physical removal of all versions of "key" is bounded by D_th ingested
  // operations.
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;

  // Remove every database entry with a key in the range [begin, end) --
  // begin inclusive, end exclusive -- as a single atomic write. Implemented
  // as one range tombstone (kTypeRangeDeletion), not one tombstone per key,
  // so the cost is independent of how many keys the span covers. An
  // inverted range (begin >= end) is a no-op. Like point deletes, range
  // tombstones age under FADE: with a delete persistence threshold D_th the
  // covered versions are physically gone within D_th ingested operations.
  virtual Status DeleteRange(const WriteOptions& options, const Slice& begin,
                             const Slice& end) = 0;

  // Apply the specified updates to the database atomically.
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // If the database contains an entry for "key" store the corresponding
  // value in *value and return OK. If there is no entry for "key" return a
  // status for which Status::IsNotFound() returns true.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  // Look up a batch of keys in one call. values is resized to keys.size();
  // the returned vector holds one status per key, aligned with |keys| (OK =
  // found, NotFound, or an error). All lookups observe the same snapshot,
  // and each key resolves exactly as Get would at that snapshot.
  virtual std::vector<Status> MultiGet(const ReadOptions& options,
                                       std::span<const Slice> keys,
                                       std::vector<std::string>* values) = 0;

  // Return a heap-allocated iterator over the contents of the database.
  // The result of NewIterator() is initially invalid (caller must call one
  // of the Seek methods on the iterator before using it). Caller should
  // delete the iterator when it is no longer needed before this db is
  // deleted.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  // Return a handle to the current DB state. Iterators created with this
  // handle will all observe a stable snapshot of the current DB state. The
  // caller must call ReleaseSnapshot(result) when the snapshot is no longer
  // needed. NOTE: a live snapshot pins tombstones (they cannot persist past
  // it), so long-lived snapshots extend delete-persistence latency.
  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // DB implementations can export properties about their state via this
  // method. If "property" is a valid property understood by this DB
  // implementation, fills "*value" with its current value and returns true.
  //
  //   "acheron.num-files-at-level<N>"  -- file count at level N
  //   "acheron.stats"                  -- engine statistics
  //   "acheron.sstables"               -- per-level file listing
  //   "acheron.total-bytes"            -- bytes across all table files
  //   "acheron.total-tombstones"       -- live tombstones in the tree
  //   "acheron.max-tombstone-age"      -- age (ops) of oldest live tombstone
  //   "acheron.delete-stats"           -- delete-persistence summary
  //   "acheron.background-error"       -- background-error state machine
  //                                       (state, subsystem, attempts,
  //                                       retry budget, D_th-at-risk flag,
  //                                       last error)
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Compact the underlying storage for the key range [*begin,*end].
  // begin==nullptr is treated as a key before all keys; end==nullptr as a
  // key after all keys. To compact the entire database: CompactRange(nullptr,
  // nullptr).
  virtual void CompactRange(const Slice* begin, const Slice* end) = 0;

  // Force the current memtable to be flushed to an L0 SSTable (test and
  // benchmark hook; also triggers any pending compactions).
  virtual Status FlushMemTable() = 0;

  // Link every written memtable entry, then run compactions until no
  // trigger (size, run count, or TTL expiry) remains outstanding. Useful
  // to settle the DB before measuring.
  virtual Status WaitForCompactions() = 0;

  // Attempt to recover from degraded read-only mode (entered on a space
  // error, see Options::max_background_retries): probes the filesystem
  // and, if space has returned, clears the error state and resumes
  // background work. Returns OK once the DB is writable again, the space
  // error while still degraded, and the fatal error if the DB is past
  // recovery. The default implementation (a DB with no background-error
  // machinery) is trivially resumed.
  virtual Status Resume() { return Status::OK(); }

  // ---- Acheron-specific observability ----

  // Aggregate delete-persistence statistics (see DeleteStats).
  virtual DeleteStats GetDeleteStats() = 0;

  // Engine counters (write amplification, compaction breakdown, ...).
  virtual InternalStats GetStats() = 0;

  // ---- Secondary (retention) deletes, KiWi-lite ----

  // Physically drop every entry whose secondary delete key (as produced by
  // Options::secondary_key_extractor) is < |threshold|. Files entirely
  // below the threshold are deleted outright; straddling files are
  // rewritten, skipping dead entries. Returns NotSupported when no
  // extractor is configured.
  //
  // Retention semantics assumption: for any user key, newer versions carry
  // secondary keys >= older versions' (true for the intended use, where
  // the secondary key is a monotonically assigned timestamp). Purging a
  // newer version can then only expose older versions that also qualify
  // and are purged in the same pass.
  virtual Status PurgeSecondaryRange(const Slice& threshold) = 0;
};

// Destroy the contents of the specified database. Be very careful using
// this method.
Status DestroyDB(const std::string& name, const Options& options);

// Best-effort reconstruction of a database whose MANIFEST/CURRENT was lost
// or corrupted: salvages WAL records into tables, re-derives every table's
// metadata (including tombstone-age state, so the delete-persistence clock
// survives), and writes a fresh descriptor. Some data may be lost, and the
// recovered tree is flat (everything in level 0) until compactions
// restructure it.
Status RepairDB(const std::string& dbname, const Options& options);

}  // namespace acheron

#endif  // ACHERON_LSM_DB_H_
