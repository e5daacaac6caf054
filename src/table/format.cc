#include "src/table/format.h"

#include <memory>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {

BlockHandle::BlockHandle() : offset_(~uint64_t{0}), size_(~uint64_t{0}) {}

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity check that all fields have been set.
  assert(offset_ != ~uint64_t{0});
  assert(size_ != ~uint64_t{0});
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  filter_handle_.EncodeTo(dst);
  properties_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 3 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("not an sstable (footer too short)");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic = ((static_cast<uint64_t>(magic_hi) << 32) |
                          (static_cast<uint64_t>(magic_lo)));
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }

  Status result = filter_handle_.DecodeFrom(input);
  if (result.ok()) result = properties_handle_.DecodeFrom(input);
  if (result.ok()) result = index_handle_.DecodeFrom(input);
  if (result.ok()) {
    // Skip over any leftover data (just padding for now).
    const char* end = magic_ptr + 8;
    *input = Slice(end, input->data() + input->size() - end);
  }
  return result;
}

Status ReadBlock(RandomAccessFile* file, const BlockHandle& handle,
                 bool in_place, bool verify, BlockContents* result) {
  result->data = Slice();
  result->heap_allocated = false;

  // Read the block contents as well as the type/crc trailer.
  const size_t n = static_cast<size_t>(handle.size());
  std::unique_ptr<char[]> buf;
  if (!in_place) buf.reset(new char[n + kBlockTrailerSize]);
  Slice contents;
  Status s =
      file->Read(handle.offset(), n + kBlockTrailerSize, &contents, buf.get());
  if (!s.ok()) return s;
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }

  const char* data = contents.data();  // Pointer to where Read put the data
  if (verify) {
    // Check the crc of the type and the block contents.
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(data + n + 1));
    const uint32_t actual = crc32c::Value(data, n + 1);
    if (actual != crc) {
      return Status::Corruption("block checksum mismatch");
    }
    // Only uncompressed blocks (type 0) exist in the current format.
    if (data[n] != 0) {
      return Status::Corruption("unknown block type");
    }
  }

  result->data = Slice(data, n);
  if (data == buf.get()) {
    result->heap_allocated = true;
    buf.release();  // now owned through result->data
  }
  return Status::OK();
}

}  // namespace acheron
