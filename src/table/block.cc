#include "src/table/block.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/util/coding.h"

namespace acheron {

uint32_t Block::NumRestarts() const {
  if (size_ < sizeof(uint32_t)) return 0;
  return DecodeFixed32(data_ + size_ - sizeof(uint32_t));
}

Block::Block(const BlockContents& contents)
    : data_(contents.data.data()),
      size_(contents.data.size()),
      owned_(contents.heap_allocated) {
  if (size_ < sizeof(uint32_t)) {
    size_ = 0;  // Error marker
  } else {
    size_t max_restarts_allowed = (size_ - sizeof(uint32_t)) / sizeof(uint32_t);
    if (NumRestarts() > max_restarts_allowed) {
      // The size is too small for NumRestarts().
      size_ = 0;
    } else {
      restart_offset_ =
          static_cast<uint32_t>(size_ - (1 + NumRestarts()) * sizeof(uint32_t));
    }
  }
}

Block::~Block() {
  if (owned_) {
    delete[] data_;
  }
}

// Helper routine: decode the next block entry starting at "p",
// storing the number of shared key bytes, non_shared key bytes,
// and the length of the value in "*shared", "*non_shared", and
// "*value_length", respectively. Will not dereference past "limit".
//
// If any errors are detected, returns nullptr. Otherwise, returns a
// pointer to the key delta (just past the three decoded values).
static inline const char* DecodeEntry(const char* p, const char* limit,
                                      uint32_t* shared, uint32_t* non_shared,
                                      uint32_t* value_length) {
  if (limit - p < 3) return nullptr;
  *shared = static_cast<unsigned char>(p[0]);
  *non_shared = static_cast<unsigned char>(p[1]);
  *value_length = static_cast<unsigned char>(p[2]);
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three values are encoded in one byte each.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  }

  if (static_cast<uint32_t>(limit - p) < (*non_shared + *value_length)) {
    return nullptr;
  }
  return p;
}

class Block::Iter : public Iterator {
 public:
  Iter(const Comparator* comparator, const char* data, uint32_t restarts,
       uint32_t num_restarts)
      : comparator_(comparator),
        data_(data),
        restarts_(restarts),
        num_restarts_(num_restarts),
        current_(restarts_),
        restart_index_(num_restarts_) {
    assert(num_restarts_ > 0);
  }

  bool Valid() const override { return current_ < restarts_; }
  Status status() const override { return status_; }
  Slice key() const override {
    assert(Valid());
    return key_;
  }
  Slice value() const override {
    assert(Valid());
    return value_;
  }

  void Next() override {
    assert(Valid());
    ParseNextKey();
  }

  void Prev() override {
    assert(Valid());

    // Scan backwards to a restart point before current_.
    const uint32_t original = current_;
    while (GetRestartPoint(restart_index_) >= original) {
      if (restart_index_ == 0) {
        // No more entries.
        current_ = restarts_;
        restart_index_ = num_restarts_;
        return;
      }
      restart_index_--;
    }

    SeekToRestartPoint(restart_index_);
    do {
      // Loop until end of current entry hits the start of original entry.
    } while (ParseNextKey() && NextEntryOffset() < original);
  }

  void Seek(const Slice& target) override {
    // Binary search in restart array to find the last restart point with a
    // key < target.
    uint32_t left = 0;
    uint32_t right = num_restarts_ - 1;
    while (left < right) {
      uint32_t mid = (left + right + 1) / 2;
      uint32_t region_offset = GetRestartPoint(mid);
      uint32_t shared, non_shared, value_length;
      const char* key_ptr =
          DecodeEntry(data_ + region_offset, data_ + restarts_, &shared,
                      &non_shared, &value_length);
      if (key_ptr == nullptr || (shared != 0)) {
        CorruptionError();
        return;
      }
      Slice mid_key(key_ptr, non_shared);
      if (Compare(mid_key, target) < 0) {
        // Key at "mid" is smaller than "target". Therefore all keys at or
        // before "mid" are uninteresting.
        left = mid;
      } else {
        // Key at "mid" is >= "target". Therefore all keys at or after "mid"
        // are uninteresting.
        right = mid - 1;
      }
    }

    // Linear search (within restart block) for first key >= target.
    SeekToRestartPoint(left);
    while (true) {
      if (!ParseNextKey()) {
        return;
      }
      if (Compare(key_, target) >= 0) {
        return;
      }
    }
  }

  void SeekToFirst() override {
    SeekToRestartPoint(0);
    ParseNextKey();
  }

  void SeekToLast() override {
    SeekToRestartPoint(num_restarts_ - 1);
    while (ParseNextKey() && NextEntryOffset() < restarts_) {
      // Keep skipping
    }
  }

 private:
  const Comparator* const comparator_;
  const char* const data_;       // underlying block contents
  uint32_t const restarts_;      // Offset of restart array
  uint32_t const num_restarts_;  // Number of entries in restart array

  // current_ is offset in data_ of current entry. >= restarts_ if !Valid
  uint32_t current_;
  uint32_t restart_index_;  // Index of restart block in which current_ falls
  std::string key_;
  Slice value_;
  Status status_;

  inline int Compare(const Slice& a, const Slice& b) const {
    return comparator_->Compare(a, b);
  }

  // Return the offset in data_ just past the end of the current entry.
  inline uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }

  uint32_t GetRestartPoint(uint32_t index) {
    assert(index < num_restarts_);
    return DecodeFixed32(data_ + restarts_ + index * sizeof(uint32_t));
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    // current_ will be fixed by ParseNextKey();

    // ParseNextKey() starts at the end of value_, so set value_ accordingly.
    uint32_t offset = GetRestartPoint(index);
    value_ = Slice(data_ + offset, 0);
  }

  void CorruptionError() {
    current_ = restarts_;
    restart_index_ = num_restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_.clear();
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = data_ + current_;
    const char* limit = data_ + restarts_;  // Restarts come right after data
    if (p >= limit) {
      // No more entries to return. Mark as invalid.
      current_ = restarts_;
      restart_index_ = num_restarts_;
      return false;
    }

    // Decode next entry.
    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    } else {
      key_.resize(shared);
      key_.append(p, non_shared);
      value_ = Slice(p + non_shared, value_length);
      while (restart_index_ + 1 < num_restarts_ &&
             GetRestartPoint(restart_index_ + 1) < current_) {
        ++restart_index_;
      }
      return true;
    }
  }
};

bool Block::RestartEntry(uint32_t i, Slice* key, Slice* value) const {
  const char* restarts = data_ + restart_offset_;
  const uint32_t start = DecodeFixed32(restarts + i * sizeof(uint32_t));
  const uint32_t end =
      i + 1 < NumRestarts()
          ? DecodeFixed32(restarts + (i + 1) * sizeof(uint32_t))
          : restart_offset_;
  if (start >= end || end > restart_offset_) return false;
  const char* limit = data_ + end;
  uint32_t shared, non_shared, value_length;
  const char* p = DecodeEntry(data_ + start, limit, &shared, &non_shared,
                              &value_length);
  if (p == nullptr || shared != 0 || p + non_shared + value_length != limit) {
    return false;
  }
  *key = Slice(p, non_shared);
  *value = Slice(p + non_shared, value_length);
  return true;
}

// BlockSearch's order (see Seek): bytewise over all but the last |trailer|
// bytes, then, for internal keys, by the 8-byte tag descending -- the
// order of an InternalKeyComparator over a bytewise user comparator.
static inline int CompareKeys(const Slice& a, const Slice& b, size_t trailer) {
  const size_t an = a.size() - trailer;
  const size_t bn = b.size() - trailer;
  const size_t n = std::min(an, bn);
  const int r = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
  if (r != 0) return r;
  if (an != bn) return an < bn ? -1 : +1;
  if (trailer == 0) return 0;
  const uint64_t at = DecodeFixed64(a.data() + an);
  const uint64_t bt = DecodeFixed64(b.data() + bn);
  return at > bt ? -1 : (at < bt ? +1 : 0);
}

void BlockSearch::Reserve(size_t n) {
  if (n <= capacity_) return;
  capacity_ = std::max(n, 2 * capacity_);
  auto bigger = std::make_unique<char[]>(capacity_);
  std::memcpy(bigger.get(), key_, key_size_);
  heap_ = std::move(bigger);
  key_ = heap_.get();
}

bool BlockSearch::Seek(const Block& block, const Slice& target,
                       size_t trailer) {
  key_size_ = 0;
  value_.clear();
  status_ = Status::OK();
  if (block.size_ < sizeof(uint32_t)) {
    status_ = Status::Corruption("bad block contents");
    return false;
  }
  const uint32_t num_restarts = block.NumRestarts();
  if (num_restarts == 0) return false;
  const char* const data = block.data_;
  const uint32_t restarts = block.restart_offset_;
  const char* const limit = data + restarts;
  auto restart_point = [data, restarts](uint32_t i) {
    return DecodeFixed32(data + restarts + i * sizeof(uint32_t));
  };
  auto corrupt = [this] {
    key_size_ = 0;
    value_.clear();
    status_ = Status::Corruption("bad entry in block");
    return false;
  };

  // A block read in place from a mapped table is often cold. Its few
  // restart keys (a data block has about three) are asked for at once,
  // rather than one cache miss per step of the binary search.
  if (num_restarts <= kPrefetchRestarts) {
    for (uint32_t i = 1; i < num_restarts; i++) {
      const uint32_t offset = restart_point(i);
      if (offset < restarts) __builtin_prefetch(data + offset);
    }
  }

  // The last restart point whose key is before |target|.
  uint32_t left = 0;
  uint32_t right = num_restarts - 1;
  while (left < right) {
    const uint32_t mid = (left + right + 1) / 2;
    const uint32_t offset = restart_point(mid);
    uint32_t shared, non_shared, value_length;
    const char* key_ptr =
        offset >= restarts ? nullptr
                           : DecodeEntry(data + offset, limit, &shared,
                                         &non_shared, &value_length);
    if (key_ptr == nullptr || shared != 0 || non_shared < trailer) {
      return corrupt();
    }
    if (CompareKeys(Slice(key_ptr, non_shared), target, trailer) < 0) {
      left = mid;
    } else {
      right = mid - 1;
    }
  }

  // From there, the first entry at or past it. The lines of the interval
  // the scan walks are asked for at once too.
  const uint32_t offset = restart_point(left);
  if (offset >= restarts) return false;
  const char* p = data + offset;
  const char* const interval_end =
      data + (left + 1 < num_restarts
                  ? std::min(restart_point(left + 1), restarts)
                  : restarts);
  for (const char* line = p + 64; line < interval_end; line += 64) {
    __builtin_prefetch(line);
  }
  while (p < limit) {
    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_size_ < shared) return corrupt();
    Reserve(shared + non_shared);
    std::memcpy(key_ + shared, p, non_shared);
    key_size_ = shared + non_shared;
    value_ = Slice(p + non_shared, value_length);
    p = value_.data() + value_length;
    if (key_size_ < trailer) return corrupt();
    if (CompareKeys(key(), target, trailer) >= 0) return true;
  }
  key_size_ = 0;
  value_.clear();
  return false;
}

Iterator* Block::NewIterator(const Comparator* comparator) const {
  if (size_ < sizeof(uint32_t)) {
    return NewErrorIterator(Status::Corruption("bad block contents"));
  }
  const uint32_t num_restarts = NumRestarts();
  if (num_restarts == 0) {
    return NewEmptyIterator();
  } else {
    return new Iter(comparator, data_, restart_offset_, num_restarts);
  }
}

}  // namespace acheron
