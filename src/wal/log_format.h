// WAL record format, shared by writer and reader.
//
// The log is a sequence of 32 KiB blocks. Each record has a 7-byte header:
//   checksum: uint32  (crc32c of type + payload, masked)
//   length:   uint16
//   type:     uint8   (full / first / middle / last)
// A user record that does not fit in the remainder of a block is split into
// first/middle/last fragments. A block trailer of <7 bytes is zero-filled.
//
// A log may end in zero fill: the preallocated, never-written tail of a log
// whose writer died before closing it (see PosixMappedWalFile). A record
// that does not parse and that only zeros follow is the torn last append
// into that tail; the reader treats it as the end of the log, not as
// corruption.
#ifndef ACHERON_WAL_LOG_FORMAT_H_
#define ACHERON_WAL_LOG_FORMAT_H_

namespace acheron {
namespace wal {

enum RecordType {
  // Zero is reserved for preallocated files.
  kZeroType = 0,
  kFullType = 1,
  kFirstType = 2,
  kMiddleType = 3,
  kLastType = 4
};
static const int kMaxRecordType = kLastType;

static const int kBlockSize = 32768;

// Header is checksum (4 bytes), length (2 bytes), type (1 byte).
static const int kHeaderSize = 4 + 2 + 1;

}  // namespace wal
}  // namespace acheron

#endif  // ACHERON_WAL_LOG_FORMAT_H_
