#include "src/wal/log_writer.h"

#include <cassert>
#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {
namespace wal {

static void InitTypeCrc(uint32_t* type_crc) {
  for (int i = 0; i <= kMaxRecordType; i++) {
    char t = static_cast<char>(i);
    type_crc[i] = crc32c::Value(&t, 1);
  }
}

Writer::Writer(WritableFile* dest) : dest_(dest), block_offset_(0) {
  InitTypeCrc(type_crc_);
}

Status Writer::AddRecord(const Slice& slice) {
  const char* ptr = slice.data();
  size_t left = slice.size();

  // Fragment the record if necessary and lay every piece -- block trailers,
  // headers, payload -- out in record_, so the file sees one Append per
  // record. Note that if slice is empty, we still want to iterate once to
  // emit a single zero-length record.
  record_.clear();
  bool begin = true;
  do {
    const int leftover = kBlockSize - block_offset_;
    assert(leftover >= 0);
    if (leftover < kHeaderSize) {
      // Switch to a new block, filling the trailer with zeros.
      record_.append(static_cast<size_t>(leftover), '\0');
      block_offset_ = 0;
    }

    // Invariant: we never leave < kHeaderSize bytes in a block.
    assert(kBlockSize - block_offset_ - kHeaderSize >= 0);

    const size_t avail = kBlockSize - block_offset_ - kHeaderSize;
    const size_t fragment_length = (left < avail) ? left : avail;

    RecordType type;
    const bool end = (left == fragment_length);
    if (begin && end) {
      type = kFullType;
    } else if (begin) {
      type = kFirstType;
    } else if (end) {
      type = kLastType;
    } else {
      type = kMiddleType;
    }

    EmitPhysicalRecord(type, ptr, fragment_length);
    ptr += fragment_length;
    left -= fragment_length;
    begin = false;
  } while (left > 0);

  // The block arithmetic above has moved on whether or not the bytes land;
  // after a failure the caller opens a fresh log instead of appending here.
  Status s = dest_->Append(record_);
  if (s.ok()) {
    s = dest_->Flush();
  }
  return s;
}

void Writer::EmitPhysicalRecord(RecordType t, const char* ptr,
                                size_t length) {
  assert(length <= 0xffff);  // Must fit in two bytes
  assert(block_offset_ + kHeaderSize + static_cast<int>(length) <= kBlockSize);

  // Format the header.
  char buf[kHeaderSize];
  buf[4] = static_cast<char>(length & 0xff);
  buf[5] = static_cast<char>(length >> 8);
  buf[6] = static_cast<char>(t);

  // Compute the crc of the record type and the payload.
  uint32_t crc = crc32c::Extend(type_crc_[t], ptr, length);
  crc = crc32c::Mask(crc);
  EncodeFixed32(buf, crc);

  record_.append(buf, kHeaderSize);
  record_.append(ptr, length);
  block_offset_ += kHeaderSize + length;
}

}  // namespace wal
}  // namespace acheron
