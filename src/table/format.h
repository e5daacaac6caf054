// On-disk SSTable framing: block handles, the footer, and checksummed block
// reads.
//
// Table layout:
//   [data block 1] ... [data block N]
//   [filter block]            (optional, full-file Bloom over filter keys)
//   [properties block]        (TableProperties, incl. tombstone statistics)
//   [index block]             (fence pointers: last-key -> data block handle)
//   [footer]                  (handles of filter/properties/index + magic)
// Every block is followed by a 5-byte trailer: 1-byte type + crc32c.
#ifndef ACHERON_TABLE_FORMAT_H_
#define ACHERON_TABLE_FORMAT_H_

#include <cstdint>
#include <string>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace acheron {

// BlockHandle is a pointer to the extent of a file that stores a data
// block or a meta block.
class BlockHandle {
 public:
  // Maximum encoding length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle();

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }

  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Footer encapsulates the fixed information stored at the tail of every
// table file.
class Footer {
 public:
  // Encoded length of a Footer: three max-length handles plus magic.
  enum { kEncodedLength = 3 * BlockHandle::kMaxEncodedLength + 8 };

  Footer() = default;

  const BlockHandle& filter_handle() const { return filter_handle_; }
  void set_filter_handle(const BlockHandle& h) { filter_handle_ = h; }
  const BlockHandle& properties_handle() const { return properties_handle_; }
  void set_properties_handle(const BlockHandle& h) { properties_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle filter_handle_;
  BlockHandle properties_handle_;
  BlockHandle index_handle_;
};

// "ACHERON" spelled in hex-ish nibbles; identifies our table format.
static const uint64_t kTableMagicNumber = 0xac4e50u * 0x100000001ull + 0x70b5;

// 1-byte block type (0 = uncompressed; reserved for future codecs) followed
// by a 4-byte masked crc32c of contents+type.
static const size_t kBlockTrailerSize = 5;

struct BlockContents {
  Slice data;           // Actual contents of data
  bool cachable;        // True iff data can be cached
  bool heap_allocated;  // True iff caller should delete[] data.data()
};

// Read the block identified by |handle| from |file|, verifying the trailer
// checksum.
Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 BlockContents* result);

}  // namespace acheron

#endif  // ACHERON_TABLE_FORMAT_H_
