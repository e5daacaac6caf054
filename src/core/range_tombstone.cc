#include "src/core/range_tombstone.h"

#include <algorithm>
#include <cstring>

#include "src/util/coding.h"

namespace acheron {

void EncodeRangeTombstones(const std::vector<RangeTombstone>& tombstones,
                           std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(tombstones.size()));
  for (const RangeTombstone& t : tombstones) {
    PutLengthPrefixedSlice(dst, t.begin);
    PutLengthPrefixedSlice(dst, t.end);
    PutVarint64(dst, t.seq);
  }
}

Status DecodeRangeTombstones(const Slice& input,
                             std::vector<RangeTombstone>* out) {
  out->clear();
  Slice in = input;
  uint32_t count;
  if (!GetVarint32(&in, &count)) {
    return Status::Corruption("range-tombstone block: bad count");
  }
  // A count implying more than one byte of payload per tombstone past the
  // remaining input is torn; reject before reserving memory for it.
  if (count > in.size()) {
    return Status::Corruption("range-tombstone block: count exceeds payload");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    Slice begin, end;
    uint64_t seq;
    if (!GetLengthPrefixedSlice(&in, &begin) ||
        !GetLengthPrefixedSlice(&in, &end) || !GetVarint64(&in, &seq)) {
      out->clear();
      return Status::Corruption("range-tombstone block: truncated entry");
    }
    if (seq > kMaxSequenceNumber) {
      out->clear();
      return Status::Corruption("range-tombstone block: sequence out of range");
    }
    if (begin.compare(end) >= 0) {
      out->clear();
      return Status::Corruption("range-tombstone block: inverted range");
    }
    out->emplace_back(begin.ToString(), end.ToString(), seq);
  }
  if (!in.empty()) {
    out->clear();
    return Status::Corruption("range-tombstone block: trailing bytes");
  }
  return Status::OK();
}

void FragmentedRangeTombstoneList::Build(
    const Comparator* ucmp, std::vector<RangeTombstone> tombstones) {
  owned_ = std::move(tombstones);
  std::vector<RangeTombstoneRef> refs;
  refs.reserve(owned_.size());
  for (const RangeTombstone& t : owned_) {
    refs.push_back({Slice(t.begin), Slice(t.end), t.seq});
  }
  BuildFromRefs(ucmp, std::move(refs));
}

// Fragment boundaries are every distinct begin and end key. The sweep visits
// them in order, closing the tombstones that end at the boundary and opening
// the ones that begin there; the open tombstones' seqs (a sorted multiset)
// cover the span up to the next boundary. Each tombstone is compared a
// constant number of times after the two sorts, so a build costs
// O(n log n) comparator calls.
void FragmentedRangeTombstoneList::BuildFromRefs(
    const Comparator* ucmp, std::vector<RangeTombstoneRef> tombstones) {
  ucmp_ = ucmp;
  fragments_.clear();
  seqs_.clear();
  end_keys_.clear();
  prefix_len_ = 0;
  bytewise_ = false;
  std::erase_if(tombstones, [ucmp](const RangeTombstoneRef& t) {
    return ucmp->Compare(t.begin, t.end) >= 0;
  });
  if (tombstones.empty()) return;

  const size_t n = tombstones.size();
  std::vector<const RangeTombstoneRef*> by_begin(n), by_end(n);
  for (size_t i = 0; i < n; i++) by_begin[i] = by_end[i] = &tombstones[i];
  std::sort(by_begin.begin(), by_begin.end(),
            [ucmp](const RangeTombstoneRef* a, const RangeTombstoneRef* b) {
              return ucmp->Compare(a->begin, b->begin) < 0;
            });
  std::sort(by_end.begin(), by_end.end(),
            [ucmp](const RangeTombstoneRef* a, const RangeTombstoneRef* b) {
              return ucmp->Compare(a->end, b->end) < 0;
            });

  std::vector<SequenceNumber> active;  // ascending, duplicates kept
  size_t bi = 0, ei = 0;
  // Every end lies past its own begin, so the smallest begin comes first.
  Slice cur = by_begin[0]->begin;
  // Whether the last fragment ends at |cur|, so an identical successor
  // extends it instead of fracturing the range.
  bool last_ends_at_cur = false;
  while (ei < n) {
    while (ei < n && ucmp->Compare(by_end[ei]->end, cur) == 0) {
      active.erase(std::lower_bound(active.begin(), active.end(),
                                    by_end[ei]->seq));
      ei++;
    }
    while (bi < n && ucmp->Compare(by_begin[bi]->begin, cur) == 0) {
      active.insert(std::upper_bound(active.begin(), active.end(),
                                     by_begin[bi]->seq),
                    by_begin[bi]->seq);
      bi++;
    }
    if (ei == n) break;  // every tombstone closed (and so opened)
    Slice next = by_end[ei]->end;
    if (bi < n && ucmp->Compare(by_begin[bi]->begin, next) < 0) {
      next = by_begin[bi]->begin;
    }
    if (active.empty()) {
      last_ends_at_cur = false;
    } else if (last_ends_at_cur &&
               std::ranges::equal(seqs(fragments_.back()), active)) {
      fragments_.back().end = next;
    } else {
      Fragment f;
      f.begin = cur;
      f.end = next;
      f.seq_begin = static_cast<uint32_t>(seqs_.size());
      seqs_.insert(seqs_.end(), active.begin(), active.end());
      f.seq_end = static_cast<uint32_t>(seqs_.size());
      fragments_.push_back(f);
      last_ends_at_cur = true;
    }
    cur = next;
  }
  fragments_.shrink_to_fit();
  seqs_.shrink_to_fit();
  // A comparator's name is the ordering the MANIFEST records, so a wrapper
  // that keeps the bytewise name (a counting one, say) keeps its order.
  if (ucmp == BytewiseComparator() ||
      std::strcmp(ucmp->Name(), BytewiseComparator()->Name()) == 0) {
    BuildBytewiseIndex();
  }
}

// The 8 bytes of |s| from |offset| on as a big-endian integer, zero-padded
// past the end of |s|. For keys sharing their first |offset| bytes,
// a <= b bytewise implies Key8(a) <= Key8(b): the integers order the keys
// up to ties.
static uint64_t Key8(const Slice& s, size_t offset) {
  uint64_t k = 0;
  for (size_t i = offset; i < offset + 8; i++) {
    k = (k << 8) | (i < s.size() ? static_cast<unsigned char>(s[i]) : 0);
  }
  return k;
}

void FragmentedRangeTombstoneList::BuildBytewiseIndex() {
  // The ends are sorted, so the first and last share the common prefix of
  // them all.
  const Slice first = fragments_.front().end;
  const Slice last = fragments_.back().end;
  const size_t limit = std::min(first.size(), last.size());
  size_t p = 0;
  while (p < limit && first[p] == last[p]) p++;
  prefix_len_ = p;
  end_keys_.reserve(fragments_.size());
  for (const Fragment& f : fragments_) end_keys_.push_back(Key8(f.end, p));
  bytewise_ = true;
}

size_t FragmentedRangeTombstoneList::UpperBound(const Slice& user_key) const {
  auto it = std::upper_bound(
      fragments_.begin(), fragments_.end(), user_key,
      [this](const Slice& k, const Fragment& f) {
        return ucmp_->Compare(k, f.end) < 0;
      });
  return static_cast<size_t>(it - fragments_.begin());
}

size_t FragmentedRangeTombstoneList::BytewiseUpperBound(
    const Slice& user_key) const {
  const char* prefix = fragments_.front().end.data();
  const size_t m = std::min(user_key.size(), prefix_len_);
  const int c = std::memcmp(user_key.data(), prefix, m);
  // A key below the prefix sorts before every end; one above it sorts
  // after every end. A proper prefix of the prefix gets integer 0 and
  // lands in the search below like any other key.
  if (c < 0) return 0;
  if (c > 0) return fragments_.size();
  const uint64_t k = Key8(user_key, prefix_len_);
  // Ends whose integer exceeds the key's lie past the key; those below it
  // lie at or before it. Only the ties need the bytes.
  const size_t hi = static_cast<size_t>(
      std::upper_bound(end_keys_.begin(), end_keys_.end(), k) -
      end_keys_.begin());
  if (hi == 0 || end_keys_[hi - 1] != k) return hi;
  const size_t lo = static_cast<size_t>(
      std::lower_bound(end_keys_.begin(), end_keys_.begin() + hi, k) -
      end_keys_.begin());
  auto it = std::upper_bound(fragments_.begin() + lo,
                             fragments_.begin() + hi, user_key,
                             [](const Slice& key, const Fragment& f) {
                               return key.compare(f.end) < 0;
                             });
  return static_cast<size_t>(it - fragments_.begin());
}

SequenceNumber FragmentedRangeTombstoneList::MaxCoveringSeq(
    const Slice& user_key, SequenceNumber snapshot) const {
  if (fragments_.empty()) return 0;
  // First fragment whose end is past the key...
  const size_t i =
      bytewise_ ? BytewiseUpperBound(user_key) : UpperBound(user_key);
  if (i == fragments_.size()) return 0;
  // ...must also start at or before it.
  const Fragment& f = fragments_[i];
  if (bytewise_ ? user_key.compare(f.begin) < 0
                : ucmp_->Compare(user_key, f.begin) < 0) {
    return 0;
  }
  return MaxVisibleSeq(f, snapshot);
}

SequenceNumber FragmentedRangeTombstoneList::MaxVisibleSeq(
    const Fragment& f, SequenceNumber snapshot) const {
  std::span<const SequenceNumber> covering = seqs(f);
  auto sit = std::upper_bound(covering.begin(), covering.end(), snapshot);
  if (sit == covering.begin()) return 0;
  return *(sit - 1);
}

SequenceNumber FragmentedRangeTombstoneList::Cursor::MaxCoveringSeq(
    const Slice& user_key, SequenceNumber snapshot) {
  const std::vector<Fragment>& fragments = list_->fragments_;
  const Comparator* ucmp = list_->ucmp_;
  // Skip the fragments that end at or before the key; keys only grow, so
  // they can never cover a later query either.
  while (pos_ < fragments.size() &&
         ucmp->Compare(user_key, fragments[pos_].end) >= 0) {
    pos_++;
  }
  if (pos_ == fragments.size()) return 0;
  const Fragment& f = fragments[pos_];
  if (ucmp->Compare(user_key, f.begin) < 0) return 0;
  return list_->MaxVisibleSeq(f, snapshot);
}

size_t FragmentedRangeTombstoneList::ApproximateMemoryUsage() const {
  return fragments_.capacity() * sizeof(Fragment) +
         seqs_.capacity() * sizeof(SequenceNumber) +
         end_keys_.capacity() * sizeof(uint64_t);
}

}  // namespace acheron
