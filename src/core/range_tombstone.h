// Range tombstones: the kTypeRangeDeletion record, its SSTable block wire
// format, and the fragmented coverage structure the read path queries.
//
// A range tombstone [begin, end)@seq hides every entry for a user key in
// [begin, end) whose sequence number is below seq. Raw tombstones may
// overlap arbitrarily; FragmentedRangeTombstoneList splits them at every
// begin/end boundary into disjoint fragments, each carrying the sorted
// sequence numbers of the tombstones covering it, so a snapshot-aware
// coverage query is one binary search plus one bound lookup. Building
// is a sweep over the tombstones sorted by begin and by end: O(n log n)
// comparator calls for n tombstones, plus one copy of each fragment's
// covering seqs.
//
// Under the bytewise comparator the search does not chase a Slice per
// probe: the list keeps the fragment ends' KeyWindows, so MaxCoveringSeq
// binary-searches integers and memcmp-compares keys only among the ends
// that tie with the query. Other comparators keep the comparator-driven
// search.
//
// Block wire format (written by TableBuilder behind the standard
// type+crc32c trailer, handle persisted in TableProperties):
//   num_tombstones: varint32
//   per tombstone:  begin varstring | end varstring | seq varint64
// Tombstones with begin >= end or seq > kMaxSequenceNumber are rejected at
// decode time; DecodeRangeTombstones never crashes on torn input.
#ifndef ACHERON_CORE_RANGE_TOMBSTONE_H_
#define ACHERON_CORE_RANGE_TOMBSTONE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/key_windows.h"
#include "src/lsm/dbformat.h"
#include "src/util/comparator.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace acheron {

// One raw range delete as written: [begin, end) at sequence seq.
struct RangeTombstone {
  std::string begin;  // inclusive
  std::string end;    // exclusive
  SequenceNumber seq = 0;

  RangeTombstone() = default;
  RangeTombstone(std::string b, std::string e, SequenceNumber s)
      : begin(std::move(b)), end(std::move(e)), seq(s) {}
};

// Serialize |tombstones| into the range-tombstone block wire format.
void EncodeRangeTombstones(const std::vector<RangeTombstone>& tombstones,
                           std::string* dst);

// Parse a range-tombstone block. Returns Corruption (never crashes) on
// truncated, torn, or semantically invalid input (begin >= end, seq out of
// range, trailing bytes, count mismatch).
Status DecodeRangeTombstones(const Slice& input,
                             std::vector<RangeTombstone>* out);

// A range tombstone whose key bytes are owned elsewhere (e.g. the memtable
// arena).
struct RangeTombstoneRef {
  Slice begin;  // inclusive
  Slice end;    // exclusive
  SequenceNumber seq = 0;
};

// Disjoint fragments built from a set of possibly-overlapping raw
// tombstones. Immutable after Build(); safe for concurrent readers.
// Fragments point at key bytes (its own copy, or the caller's for
// BuildFromRefs), so a list is neither copied nor moved.
class FragmentedRangeTombstoneList {
 public:
  struct Fragment {
    Slice begin;  // inclusive
    Slice end;    // exclusive
    // Ascending sequence numbers of every tombstone covering the fragment,
    // as the range [seq_begin, seq_end) of the list's shared seq array.
    uint32_t seq_begin = 0;
    uint32_t seq_end = 0;
  };

  FragmentedRangeTombstoneList() = default;
  FragmentedRangeTombstoneList(const FragmentedRangeTombstoneList&) = delete;
  FragmentedRangeTombstoneList& operator=(const FragmentedRangeTombstoneList&) =
      delete;

  // Fragment |tombstones| under |ucmp| (user-key order); the list keeps
  // them for their key bytes. Empty and inverted inputs (begin >= end) are
  // dropped.
  void Build(const Comparator* ucmp, std::vector<RangeTombstone> tombstones);
  // As Build, but the fragments point at the callers' key bytes, which must
  // outlive the list.
  void BuildFromRefs(const Comparator* ucmp,
                     std::vector<RangeTombstoneRef> tombstones);

  bool empty() const { return fragments_.empty(); }
  const std::vector<Fragment>& fragments() const { return fragments_; }
  std::span<const SequenceNumber> seqs(const Fragment& f) const {
    return {seqs_.data() + f.seq_begin, seqs_.data() + f.seq_end};
  }

  // Largest tombstone sequence <= |snapshot| covering |user_key|, or 0 when
  // uncovered. An entry at sequence s is hidden iff the result exceeds s.
  SequenceNumber MaxCoveringSeq(const Slice& user_key,
                                SequenceNumber snapshot) const;

  // True if a tombstone with a sequence in (floor, snapshot] covers
  // |user_key|: an entry at sequence |floor| is hidden. A list whose newest
  // tombstone is at or below |floor| answers without a search.
  bool Covers(const Slice& user_key, SequenceNumber floor,
              SequenceNumber snapshot) const {
    return max_seq_ > floor && MaxCoveringSeq(user_key, snapshot) > floor;
  }

  // Heap bytes held by the fragments, their seqs and the bytewise search
  // windows; key bytes are not counted.
  size_t ApproximateMemoryUsage() const;

  // MaxCoveringSeq for keys queried in ascending order (a compaction's
  // merge stream): the cursor only walks forward over the fragments, so a
  // sorted run of queries costs amortised O(1) comparisons each instead of
  // a binary search. The list must outlive the cursor.
  class Cursor {
   public:
    explicit Cursor(const FragmentedRangeTombstoneList* list) : list_(list) {}

    // REQUIRES: |user_key| is not below the previous query's key.
    SequenceNumber MaxCoveringSeq(const Slice& user_key,
                                  SequenceNumber snapshot);

   private:
    const FragmentedRangeTombstoneList* const list_;
    size_t pos_ = 0;  // first fragment whose end may still be past the key
  };

 private:
  const Comparator* ucmp_ = nullptr;
  std::vector<Fragment> fragments_;
  std::vector<SequenceNumber> seqs_;
  std::vector<RangeTombstone> owned_;  // Build's copy of the keys
  SequenceNumber max_seq_ = 0;  // the newest tombstone's; 0 when empty
  // The fragment ends' windows under a bytewise comparator (see the file
  // comment); empty under any other.
  KeyWindows end_windows_;

  // Index of the first fragment whose end is past |user_key|, or
  // fragments_.size() when none is.
  size_t UpperBound(const Slice& user_key) const;

  // Largest seq <= |snapshot| among |f|'s covering seqs, or 0.
  SequenceNumber MaxVisibleSeq(const Fragment& f,
                               SequenceNumber snapshot) const;
};

}  // namespace acheron

#endif  // ACHERON_CORE_RANGE_TOMBSTONE_H_
