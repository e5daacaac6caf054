// Block: reader for blocks produced by BlockBuilder, with a binary-searching
// iterator keyed on the restart array.
#ifndef ACHERON_TABLE_BLOCK_H_
#define ACHERON_TABLE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/table/format.h"
#include "src/table/iterator.h"
#include "src/util/comparator.h"

namespace acheron {

class Block {
 public:
  // Initialize the block with the specified contents.
  explicit Block(const BlockContents& contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  ~Block();

  size_t size() const { return size_; }
  // An iterator over the block's entries. It reads the block's bytes, not
  // the Block: it may outlive a Block that does not own its bytes.
  Iterator* NewIterator(const Comparator* comparator) const;

  // Number of restart points; 0 for a block that failed to parse.
  uint32_t NumRestarts() const;

  // The entry at restart point |i| (< NumRestarts()), pointing into the
  // block, if it is stored whole and is the only entry before the next
  // restart point -- as in an index block, where every entry is one. False
  // otherwise, or when the entry is corrupt.
  bool RestartEntry(uint32_t i, Slice* key, Slice* value) const;

 private:
  friend class BlockSearch;
  class Iter;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array
  bool owned_;               // Block owns data_[]
};

// A point lookup's search of one block, kept on the caller's stack: the
// first entry at or past a target, found as Block::Iter::Seek finds it (the
// same restart-array binary search, linear scan and corruption checks) but
// without an iterator, and comparing by memcmp instead of a comparator. The
// found key is assembled in an inline buffer, or on the heap when it is
// longer; the value points into the block. The search prefetches the lines
// it may read next, since a block read in place is often not in the CPU
// cache.
class BlockSearch {
 public:
  static constexpr size_t kInlineKey = 64;
  // Blocks with at most this many restart points have all their restart
  // keys prefetched before the binary search.
  static constexpr uint32_t kPrefetchRestarts = 8;

  BlockSearch() = default;
  BlockSearch(const BlockSearch&) = delete;
  BlockSearch& operator=(const BlockSearch&) = delete;

  // Find the first entry of |block| at or past |target|. Keys are ordered
  // by their bytes when |trailer| is 0. When it is 8 they are internal keys
  // over a bytewise user order: by the bytes before the 8-byte tag, then by
  // the tag descending. Returns whether an entry was found; false also when
  // the block is corrupt (see status()). |target| must be at least
  // |trailer| bytes long.
  bool Seek(const Block& block, const Slice& target, size_t trailer);

  // The entry found. Valid until the next Seek, and the value only while
  // the block lives.
  Slice key() const { return Slice(key_, key_size_); }
  Slice value() const { return value_; }
  const Status& status() const { return status_; }

 private:
  // Make room for |n| key bytes, keeping the first key_size_.
  void Reserve(size_t n);

  char inline_[kInlineKey];
  std::unique_ptr<char[]> heap_;  // the key's buffer once it outgrows inline_
  char* key_ = inline_;
  size_t key_size_ = 0;
  size_t capacity_ = kInlineKey;
  Slice value_;
  Status status_;
};

}  // namespace acheron

#endif  // ACHERON_TABLE_BLOCK_H_
