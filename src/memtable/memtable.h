// MemTable: in-memory write buffer over a skiplist, keyed by internal keys.
// Tracks tombstone statistics (count + oldest tombstone sequence number) so
// flushes can seed the SSTable's delete-persistence metadata.
//
// A whole-key Bloom filter sits in front of the skiplist: every Add sets a
// user key's bits, and Get returns "not here" without a skiplist seek when
// one of them is clear. It is blocked (all of a key's probes land in one
// 64-byte line) and sized from the write buffer, one bit per 4 bytes. It
// lives outside the arena, so ApproximateMemoryUsage -- the flush trigger --
// does not see it and the flush points stay where they were.
#ifndef ACHERON_MEMTABLE_MEMTABLE_H_
#define ACHERON_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/memtable/skiplist.h"
#include "src/table/iterator.h"
#include "src/util/arena.h"

namespace acheron {

class MemTable {
 public:
  // MemTables are reference counted. The initial reference count is zero
  // and the caller must call Ref() at least once. |write_buffer_size| (the
  // Options field) sizes the key filter.
  MemTable(const InternalKeyComparator& comparator, size_t write_buffer_size);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Increase reference count.
  void Ref() { ++refs_; }

  // Drop reference count. Delete if no more references exist.
  void Unref() {
    --refs_;
    assert(refs_ >= 0);
    if (refs_ <= 0) {
      delete this;
    }
  }

  // Returns an estimate of the number of bytes of data in use by this
  // data structure. It is safe to call when MemTable is being modified.
  size_t ApproximateMemoryUsage();

  // Return an iterator that yields the contents of the memtable.
  //
  // The caller must ensure that the underlying MemTable remains live while
  // the returned iterator is live. The keys returned by this iterator are
  // internal keys encoded by AppendInternalKey in the db/format.{h,cc}
  // module.
  Iterator* NewIterator();

  // Add an entry into memtable that maps key to value at the specified
  // sequence number and with the specified type. Typically value will be
  // empty if type==kTypeDeletion.
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // Record a range tombstone over user keys [begin, end) at |seq|. Range
  // tombstones live outside the skiplist, in an arena-backed lock-free list
  // (single writer pushes with a release store; readers walk concurrently).
  // Inverted ranges (begin >= end) are dropped. Every kRangeIndexTail-th
  // call also folds the unindexed nodes into the coverage index (see
  // RangeDelRun): amortized O(log^2 n) comparisons per call, done by the
  // caller -- the write-group leader, with DBImpl::mutex_ released.
  void AddRange(SequenceNumber seq, const Slice& begin, const Slice& end);

  // If memtable contains a value for key, store it in *value and return
  // true. If memtable contains a deletion for key, store a NotFound() error
  // in *status and return true. Else, return false; a key the filter rules
  // out returns false without touching the skiplist. A non-null |seq_out|
  // receives the matched entry's sequence number so callers can test it
  // against range-tombstone coverage. When the matched entry is a vLog
  // pointer (kTypeValuePointer), |*value| receives the *encoded pointer*
  // and a non-null |*is_pointer| is set to true -- the caller dereferences.
  bool Get(const LookupKey& key, std::string* value, Status* s,
           SequenceNumber* seq_out = nullptr, bool* is_pointer = nullptr);

  // Largest range-tombstone sequence <= |snapshot| covering |user_key|
  // in this memtable, or 0 when uncovered. Lock-free: one binary search per
  // index run plus a walk of fewer than kRangeIndexTail unindexed nodes.
  SequenceNumber MaxRangeCoveringSeq(const Slice& user_key,
                                     SequenceNumber snapshot) const;

  // Heap bytes of the coverage index: |*live| for the runs readers can
  // reach, |*total| for every run built (retired runs are freed with the
  // memtable). Must not race with AddRange.
  void RangeIndexMemoryUsage(size_t* live, size_t* total) const;

  // Unindexed range tombstones that trigger an index rebuild.
  static constexpr uint64_t kRangeIndexTail = 32;

  // Append every range tombstone in this memtable to |*out| (read-path
  // aggregation and flush).
  void CollectRangeTombstones(std::vector<RangeTombstone>* out) const;

  // ---- Tombstone statistics (Acheron delete-persistence metadata) ----
  //
  // Atomic (relaxed) because under the background pipeline a write-group
  // leader calls Add() with DBImpl::mutex_ released while other threads read
  // these counters under the mutex (GetProperty, MakeRoomForWrite's FADE
  // trigger). The skiplist itself is already safe for concurrent readers.

  // Number of point tombstones added.
  uint64_t num_tombstones() const {
    return num_tombstones_.load(std::memory_order_relaxed);
  }
  // Sequence number of the oldest tombstone added; kMaxSequenceNumber when
  // no tombstone is present.
  SequenceNumber earliest_tombstone_seq() const {
    return earliest_tombstone_seq_.load(std::memory_order_relaxed);
  }
  // Wall-clock microseconds when the oldest tombstone was added.
  uint64_t earliest_tombstone_wall_micros() const {
    return earliest_tombstone_wall_micros_.load(std::memory_order_relaxed);
  }
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  // Range tombstones added; their oldest sequence / wall-clock analogs.
  uint64_t num_range_tombstones() const {
    return num_range_tombstones_.load(std::memory_order_relaxed);
  }
  SequenceNumber earliest_range_tombstone_seq() const {
    return earliest_range_tombstone_seq_.load(std::memory_order_relaxed);
  }
  uint64_t earliest_range_tombstone_wall_micros() const {
    return earliest_range_tombstone_wall_micros_.load(
        std::memory_order_relaxed);
  }

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    const InternalKeyComparator comparator;
    explicit KeyComparator(const InternalKeyComparator& c) : comparator(c) {}
    int operator()(const char* a, const char* b) const;
  };

  typedef SkipList<const char*, KeyComparator> Table;

  // One node of the lock-free range-tombstone list. Immutable once
  // published; the encoded payload is
  //   begin_len varint32 | begin | end_len varint32 | end | seq fixed64
  // laid out directly after the node header in the arena. Packed, because
  // the node sits wherever the arena's unaligned Allocate leaves it
  // (aligning it would change the arena's usage, and so the flush points).
  struct [[gnu::packed]] RangeDelNode {
    RangeDelNode* next;
    const char* data;
  };

  // An immutable fragmented index over |count| consecutive list nodes,
  // starting at |head| and running toward older nodes. Runs form a stack,
  // newest (smallest) on top, that covers the list from the top run's head
  // down; readers reach it through |range_index_|. A rebuild turns the
  // unindexed tail into a new run and merges into it every run no larger
  // than the run being built, like carrying in a binary counter. So each
  // run at least doubles the tombstones of any run it absorbs: a memtable
  // with n range tombstones has fewer than log2(n / kRangeIndexTail) + 2
  // runs to search, and has indexed each tombstone at most
  // log2(n / kRangeIndexTail) + 1 times, which bounds the runs built
  // (live plus retired) to that multiple of a full index.
  struct RangeDelRun {
    const RangeDelNode* head;
    uint64_t count;
    const RangeDelRun* older;  // next run down the stack, or null
    FragmentedRangeTombstoneList fragments;  // keys point into the arena
  };

  // One 64-byte line of the key filter.
  struct alignas(64) FilterLine {
    std::atomic<uint64_t> words[8];
  };
  static constexpr int kFilterProbes = 6;

  ~MemTable();  // Private since only Unref() should be used to delete it

  // The filter line |user_key|'s probes land in; |*probe| receives the
  // seed of its probe positions.
  FilterLine& FilterLineFor(const Slice& user_key, uint32_t* probe) const;
  // False only if |user_key| was never added.
  bool KeyMayMatch(const Slice& user_key) const;

  // Writer side of AddRange: index the unindexed tail (see RangeDelRun).
  void RebuildRangeIndex();

  static void DecodeRangeNode(const RangeDelNode* node, Slice* begin,
                              Slice* end, SequenceNumber* seq);

  KeyComparator comparator_;
  int refs_;
  Arena arena_;
  Table table_;
  // The key filter. Only the write-group leader sets bits, with a relaxed
  // load and store (no read-modify-write); a reader whose snapshot admits
  // a key's sequence sees its bits through last-sequence's release store
  // and acquire load, as it sees the skiplist nodes.
  const size_t filter_lines_;
  const std::unique_ptr<FilterLine[]> filter_;
  // Push-front list head: the writer publishes with a release store;
  // readers acquire-load and walk nodes that never change afterwards.
  std::atomic<RangeDelNode*> range_head_;
  // Top of the run stack, published with a release store after the run is
  // built. Readers acquire-load it *before* range_head_, so the top run's
  // head is always reachable from the head they then load.
  std::atomic<const RangeDelRun*> range_index_;
  // Writer-only: every run ever built (readers may still hold retired
  // ones, so they live as long as the memtable), and the nodes pushed since
  // the top run was built.
  std::vector<std::unique_ptr<RangeDelRun>> range_runs_;
  uint64_t range_unindexed_;
  std::atomic<uint64_t> num_entries_;
  std::atomic<uint64_t> num_tombstones_;
  std::atomic<SequenceNumber> earliest_tombstone_seq_;
  std::atomic<uint64_t> earliest_tombstone_wall_micros_;
  std::atomic<uint64_t> num_range_tombstones_;
  std::atomic<SequenceNumber> earliest_range_tombstone_seq_;
  std::atomic<uint64_t> earliest_range_tombstone_wall_micros_;
};

}  // namespace acheron

#endif  // ACHERON_MEMTABLE_MEMTABLE_H_
