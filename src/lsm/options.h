// Options: tuning knobs for the engine, including Acheron's delete-aware
// (tombstone-persistence) controls.
#ifndef ACHERON_LSM_OPTIONS_H_
#define ACHERON_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "src/util/slice.h"

namespace acheron {

class Cache;
class Comparator;
class Env;
class FilterPolicy;
class Snapshot;

// How levels are laid out and merged.
enum class CompactionStyle {
  // One sorted run per level; a level compacts into the next when it exceeds
  // its capacity (LevelDB/RocksDB leveled compaction).
  kLeveling,
  // Up to T sorted runs per level; when a level accumulates T runs they are
  // merged together into a single run in the next level (write-optimized).
  kTiering,
};

// How the delete persistence threshold D_th is split into per-level TTLs.
enum class TtlAllocation {
  // d_0 = D_th (T-1)/(T^L - 1), d_{i+1} = T d_i. Matches the exponential
  // level capacities so every level's TTL expires "just in time" (FADE).
  kGeometric,
  // d_i = D_th / L. Simpler but over-triggers on deep levels (ablation).
  kUniform,
};

// Extracts the secondary delete key (e.g. a creation timestamp) from an
// entry, enabling retention purges on a non-sort attribute. Returns an empty
// slice if the entry has no secondary key.
using SecondaryKeyExtractor =
    std::function<std::string(const Slice& user_key, const Slice& value)>;

struct Options {
  // -------- Generic engine knobs --------

  // Comparator used to define the order of keys in the table.
  // Default: a comparator that uses lexicographic byte-wise ordering.
  const Comparator* comparator = nullptr;  // nullptr => BytewiseComparator()

  // If true, the database will be created if it is missing.
  bool create_if_missing = true;
  // If true, an error is raised if the database already exists.
  bool error_if_exists = false;
  // If true, the implementation does aggressive checking of the data it is
  // processing and stops early on detected errors.
  bool paranoid_checks = false;

  // Use the specified Env for all file operations. nullptr => DefaultEnv().
  Env* env = nullptr;

  // Amount of data to build up in the in-memory memtable before flushing to
  // a sorted on-disk file.
  size_t write_buffer_size = 4 * 1024 * 1024;

  // Approximate size of user data packed per data block.
  size_t block_size = 4 * 1024;

  // Number of keys between restart points for delta encoding of keys.
  int block_restart_interval = 16;

  // Maximum size of an SSTable produced by flush/compaction under leveling
  // (compaction output is partitioned into files of roughly this size).
  // Tiering ignores this: each sorted run is a single file.
  size_t max_file_size = 2 * 1024 * 1024;

  // Block cache for uncompressed data blocks. nullptr => an 8MB internal
  // cache is created per DB.
  Cache* block_cache = nullptr;

  // Bloom filter bits per key for SSTable filters; 0 disables filters.
  int filter_bits_per_key = 10;

  // Filter policy shared by every table the DB opens or builds. nullptr =>
  // when filter_bits_per_key > 0 the DB creates (and owns) one Bloom policy
  // at Open and threads it through here, so Table::Open no longer allocates
  // a policy per table. A caller-supplied policy is never freed by the DB.
  const FilterPolicy* filter_policy = nullptr;

  // Max number of open table files cached.
  int max_open_files = 1000;

  // If true, every write is followed by a WAL fsync, slower but durable.
  // Either way a process crash loses no acknowledged write: an acked record
  // is already in the OS page cache. A machine crash may lose the writes
  // acknowledged since the last sync unless this (or WriteOptions::sync)
  // is set.
  bool sync_writes = false;

  // Disable the WAL entirely (benchmarks on throwaway data).
  bool disable_wal = false;

  // After this many version edits are appended to the current MANIFEST, the
  // descriptor is rotated: a fresh MANIFEST is started whose head record is a
  // checksummed full-version snapshot, and CURRENT is repointed. Recovery
  // then replays only the edits in the newest MANIFEST (at most this many,
  // plus the handful appended since the rotation), instead of the whole edit
  // history. A snapshot record is also appended at clean close so a clean
  // reopen replays zero edits. 0 disables rotation (single ever-growing
  // MANIFEST, as before).
  uint32_t manifest_snapshot_interval = 64;

  // -------- LSM shape --------

  // Size ratio T between adjacent level capacities (and, for tiering, the
  // number of runs per level that triggers a merge).
  int size_ratio = 10;

  // Number of on-disk levels the TTL allocation plans for. The tree may
  // grow deeper; files below plan depth inherit the last level's TTL.
  int num_levels = 7;

  // L0 file count that triggers a compaction into L1 under leveling.
  int level0_compaction_trigger = 4;

  // Compaction layout policy.
  CompactionStyle compaction_style = CompactionStyle::kLeveling;

  // -------- Compaction scheduling --------

  // Inert: nothing in the engine reads it. Memtable flushes and compactions
  // always run as rounds on the Env's background thread (Env::Schedule);
  // writers are throttled only by the L0 slowdown/stop triggers below.
  // Kept so existing callers that assign it still compile.
  bool background_compactions = false;

  // Soft backpressure: when L0 holds at least this many files, each writer
  // group is delayed ~1ms (once) to let the background worker catch up,
  // smearing the write cost instead of stalling for whole compactions.
  int level0_slowdown_writes_trigger = 8;

  // Hard backpressure: when L0 holds at least this many files, writers block
  // until the background worker reduces the L0 file count.
  int level0_stop_writes_trigger = 12;

  // -------- Transient-fault tolerance --------

  // How many times a failed background job (flush, compaction, WAL
  // rotation, MANIFEST write) is retried before the error becomes fatal.
  // Each failure within an error episode backs off exponentially
  // (retry_backoff_base_micros << attempt, jitterless so fault-injection
  // runs are deterministic). MANIFEST/WAL failures consume two attempts
  // per failure -- they escalate twice as fast as flush/compaction
  // failures -- and corruption is always immediately fatal. 0 restores
  // the pre-retry behavior: the first background error sticks and halts
  // background work (the crash matrix runs in this mode).
  int max_background_retries = 5;

  // Base of the exponential retry backoff, in microseconds.
  uint64_t retry_backoff_base_micros = 1000;

  // When a space error (ENOSPC) degrades the DB to read-only, a
  // background watcher probes for returned space every this-many
  // microseconds and auto-resumes writes once a probe file round-trips.
  // 0 disables the watcher (recovery then requires DB::Resume()).
  uint64_t space_probe_interval_micros = 100 * 1000;

  // -------- Acheron: delete persistence (FADE) --------

  // Delete persistence threshold D_th in *logical operations* (entries
  // ingested). Every tombstone is guaranteed to reach the bottommost level
  // -- i.e. the delete becomes persistent -- within D_th ingested entries
  // of when it was written. 0 disables delete-aware compaction entirely
  // (the engine behaves like a vanilla LSM).
  uint64_t delete_persistence_threshold = 0;

  // How D_th is divided into per-level TTLs.
  TtlAllocation ttl_allocation = TtlAllocation::kGeometric;

  // When picking a file for a size-triggered compaction, prefer the file
  // with the highest tombstone density instead of the default round-robin
  // choice (Lethe's delete-aware file picking). Needs D_th > 0.
  bool delete_aware_picking = false;

  // Optional extractor for a secondary delete key stored inside values;
  // enables DB::PurgeSecondaryRange (KiWi-style retention deletes).
  SecondaryKeyExtractor secondary_key_extractor;

  // -------- Key-value separation (value log) --------

  // Values of at least this many bytes are routed through the append-only
  // value log (src/vlog/): the WAL/memtable/SSTs carry a
  // (segment, offset, size) pointer and compaction shuffles only
  // keys+pointers, cutting large-value write amplification by the depth of
  // the tree. 0 disables separation entirely (no vLog files are created).
  // Reads dereference pointers transparently; vLog garbage collection is
  // scheduled by the same FADE clock as tombstone-aware compaction, so a
  // configured delete_persistence_threshold bounds when the *value bytes*
  // of a deleted key are gone, not just its key.
  size_t value_separation_threshold = 0;

  // Target size of one vLog segment; the head is sealed and rotated once it
  // grows past this (rotation also happens at every memtable swap, so a
  // sealed segment never has pointers outside flushed state for long).
  uint64_t vlog_segment_size = 4 * 1024 * 1024;

  // Space trigger for vLog GC, independent of the FADE clock: a sealed
  // segment whose live-byte ratio drops to or below this is collected even
  // if no delete deadline is due (Scavenger-style space reclamation).
  // 0 collects only fully-dead or deadline-due segments.
  double vlog_gc_live_ratio = 0.25;
};

// Options that control read operations.
struct ReadOptions {
  // If true, all data read from underlying storage will be verified against
  // corresponding checksums.
  bool verify_checksums = false;
  // Should the data read for this iteration be cached in memory?
  bool fill_cache = true;
  // If non-null, read as of the supplied snapshot (which must belong to the
  // DB that is being read and must not have been released).
  const Snapshot* snapshot = nullptr;
};

// Options that control write operations.
struct WriteOptions {
  // If true, the write will be flushed from the operating system buffer
  // cache before the write is considered complete.
  bool sync = false;
};

}  // namespace acheron

#endif  // ACHERON_LSM_OPTIONS_H_
