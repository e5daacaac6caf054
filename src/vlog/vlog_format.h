// Value-log on-disk format (key-value separation, WiscKey-style with
// Acheron's FADE-driven garbage collection on top; see DESIGN.md "Value log
// & delete-compliant GC").
//
// A vLog segment ("<number>.vlog") is an append-only sequence of records:
//
//   record := crc32c(fixed32) | keylen(varint32) | vallen(varint32)
//             | key bytes | value bytes
//
// The CRC covers everything after itself (lengths + key + value), so a read
// validates the whole record, and the stored key lets garbage collection
// (and RepairDB salvage) run a *keyed back-check*: a pointer only counts as
// live if the record it names still carries the same user key.
//
// A ValuePointer names a record by (segment, offset, size) where offset is
// the byte offset of the record's CRC and size is the total record length,
// so a dereference is exactly one read. Pointers ride the ordinary point-key
// machinery as the payload of kTypeValuePointer entries (dbformat.h): the
// WAL, memtables, and SSTs all carry the pointer, never the value.
#ifndef ACHERON_VLOG_VLOG_FORMAT_H_
#define ACHERON_VLOG_VLOG_FORMAT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/util/coding.h"
#include "src/util/slice.h"

namespace acheron {
namespace vlog {

// Fixed part of a record header: crc32c. The varint lengths follow.
static const size_t kRecordCrcSize = 4;

struct ValuePointer {
  uint64_t segment = 0;  // vLog file number (shared DB number space)
  uint64_t offset = 0;   // byte offset of the record inside the segment
  uint64_t size = 0;     // total record length in bytes

  bool operator==(const ValuePointer& o) const {
    return segment == o.segment && offset == o.offset && size == o.size;
  }
};

inline void EncodeValuePointer(std::string* dst, const ValuePointer& ptr) {
  PutVarint64(dst, ptr.segment);
  PutVarint64(dst, ptr.offset);
  PutVarint64(dst, ptr.size);
}

inline bool DecodeValuePointer(Slice* input, ValuePointer* ptr) {
  return GetVarint64(input, &ptr->segment) &&
         GetVarint64(input, &ptr->offset) && GetVarint64(input, &ptr->size);
}

// Convenience: decode a pointer stored as a whole entry payload (the
// kTypeValuePointer value slice). Fails on trailing garbage.
inline bool DecodeValuePointerStrict(const Slice& payload, ValuePointer* ptr) {
  Slice input = payload;
  return DecodeValuePointer(&input, ptr) && input.empty();
}

// Fold a pointer entry's segment number into a [min,max] span (0 = unset).
// Every table builder (flush, compaction, purge/GC rewrites, repair) feeds
// kTypeValuePointer payloads through this so FileMetaData's vLog span stays
// an over-approximation of the segments the file references. Undecodable
// payloads are ignored here; readers surface the corruption.
inline void FoldVlogSpan(const Slice& payload, uint64_t* min_segment,
                         uint64_t* max_segment) {
  ValuePointer ptr;
  if (!DecodeValuePointerStrict(payload, &ptr)) return;
  if (*min_segment == 0 || ptr.segment < *min_segment) {
    *min_segment = ptr.segment;
  }
  if (ptr.segment > *max_segment) *max_segment = ptr.segment;
}

// Durable extent (valid bytes) of each readable segment, by number.
using Extents = std::map<uint64_t, uint64_t>;

// True if |payload| decodes to a pointer inside its segment's extent.
// Pointers are acked only after their value bytes are synced, so a pointer
// past the extent was never durable: recovery stops a WAL replay at it, and
// RepairDB's salvage leaves out a table holding one.
inline bool PointerWithin(const Slice& payload, const Extents& extents) {
  ValuePointer ptr;
  if (!DecodeValuePointerStrict(payload, &ptr)) return false;
  auto it = extents.find(ptr.segment);
  return it != extents.end() && ptr.offset + ptr.size <= it->second;
}

}  // namespace vlog
}  // namespace acheron

#endif  // ACHERON_VLOG_VLOG_FORMAT_H_
