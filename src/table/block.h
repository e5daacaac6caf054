// Block: reader for blocks produced by BlockBuilder, with a binary-searching
// iterator keyed on the restart array.
#ifndef ACHERON_TABLE_BLOCK_H_
#define ACHERON_TABLE_BLOCK_H_

#include <cstddef>
#include <cstdint>

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
  Iterator* NewIterator(const Comparator* comparator);

  // Number of restart points; 0 for a block that failed to parse.
  uint32_t NumRestarts() const;

  // The entry at restart point |i| (< NumRestarts()), pointing into the
  // block, if it is stored whole and is the only entry before the next
  // restart point -- as in an index block, where every entry is one. False
  // otherwise, or when the entry is corrupt.
  bool RestartEntry(uint32_t i, Slice* key, Slice* value) const;

 private:
  class Iter;

  const char* data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array
  bool owned_;               // Block owns data_[]
};

}  // namespace acheron

#endif  // ACHERON_TABLE_BLOCK_H_
