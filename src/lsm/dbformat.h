// Internal key format shared by the memtable, SSTables, and the DB core.
//
// An internal key packs [user_key | 8-byte trailer], trailer = (seq << 8) |
// type. Ordering: user key ascending, then sequence number *descending* so
// the newest version of a key sorts first.
//
// The sequence number doubles as Acheron's logical clock: a tombstone's age
// is (last_sequence - tombstone_seq), measured in ingested operations. This
// survives flushes and compactions for free because sequence numbers are
// preserved, and makes delete-persistence TTLs deterministic.
#ifndef ACHERON_LSM_DBFORMAT_H_
#define ACHERON_LSM_DBFORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/slice.h"

namespace acheron {

class InternalKey;

// Value types encoded as the last component of internal keys.
// DO NOT CHANGE THESE ENUM VALUES: they are embedded in the on-disk
// data structures.
//
// kTypeRangeDeletion records live only in the WriteBatch/WAL stream and in
// dedicated range-tombstone blocks (begin key in the record, end key as the
// value); they never enter the point-key ordering of memtables or data
// blocks.
//
// kTypeValuePointer is a point entry (ordered like kTypeValue) whose payload
// is not the user value but an encoded (segment, offset, size) reference
// into the value log (src/vlog/vlog_format.h): key-value separation routes
// values >= Options::value_separation_threshold through the vLog, and the
// read paths dereference the pointer transparently.
enum ValueType {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
  kTypeRangeDeletion = 0x2,
  kTypeValuePointer = 0x3
};

// kValueTypeForSeek defines the ValueType that should be passed when
// constructing a ParsedInternalKey object for seeking to a particular
// sequence number (since we sort sequence numbers in decreasing order
// and the value type is embedded as the low 8 bits in the sequence
// number in internal keys, we need to use the highest-numbered
// ValueType *among those in the point-key ordering*, not the lowest;
// kTypeRangeDeletion is stored out of band and does not participate, but
// kTypeValuePointer does -- it is an ordinary point entry).
static const ValueType kValueTypeForSeek = kTypeValuePointer;

typedef uint64_t SequenceNumber;

// We leave eight bits empty at the bottom so a type and sequence#
// can be packed together into 64-bits.
static const SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;

  ParsedInternalKey() {}  // Intentionally left uninitialized (for speed)
  ParsedInternalKey(const Slice& u, const SequenceNumber& seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
  std::string DebugString() const;
};

// Return the length of the encoding of "key".
inline size_t InternalKeyEncodingLength(const ParsedInternalKey& key) {
  return key.user_key.size() + 8;
}

inline uint64_t PackSequenceAndType(uint64_t seq, ValueType t) {
  assert(seq <= kMaxSequenceNumber);
  return (seq << 8) | t;
}

// Append the serialization of "key" to *result.
void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

// Attempt to parse an internal key from "internal_key". On success, stores
// the parsed data in "*result", and returns true. On error returns false
// and "*result" is undefined.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

// Returns the user key portion of an internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline uint64_t ExtractTag(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  return ExtractTag(internal_key) >> 8;
}

inline ValueType ExtractValueType(const Slice& internal_key) {
  return static_cast<ValueType>(ExtractTag(internal_key) & 0xff);
}

// A comparator for internal keys that uses a specified comparator for the
// user key portion and breaks ties by decreasing sequence number.
class InternalKeyComparator : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* c) : user_comparator_(c) {}
  const char* Name() const override;
  int Compare(const Slice& a, const Slice& b) const override;
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

  int Compare(const InternalKey& a, const InternalKey& b) const;

 private:
  const Comparator* user_comparator_;
};

// Modules in this directory should keep internal keys wrapped inside the
// following class instead of plain strings so that we do not incorrectly use
// string comparisons instead of an InternalKeyComparator.
class InternalKey {
 public:
  InternalKey() {}  // Leave rep_ as empty to indicate it is invalid
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  bool DecodeFrom(const Slice& s) {
    rep_.assign(s.data(), s.size());
    return !rep_.empty();
  }

  Slice Encode() const {
    assert(!rep_.empty());
    return rep_;
  }

  Slice user_key() const { return ExtractUserKey(rep_); }

  void Clear() { rep_.clear(); }

  std::string DebugString() const;

 private:
  std::string rep_;
};

inline int InternalKeyComparator::Compare(const InternalKey& a,
                                          const InternalKey& b) const {
  return Compare(a.Encode(), b.Encode());
}

// A helper class useful for DB::Get().
class LookupKey {
 public:
  // Initialize *this for looking up user_key at a snapshot with the
  // specified sequence number.
  LookupKey(const Slice& user_key, SequenceNumber sequence);

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  ~LookupKey();

  // Return a key suitable for lookup in a MemTable.
  Slice memtable_key() const { return Slice(start_, end_ - start_); }

  // Return an internal key (suitable for passing to an internal iterator).
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }

  // Return the user key.
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  // We construct a char array of the form:
  //    klength  varint32               <-- start_
  //    userkey  char[klength]          <-- kstart_
  //    tag      uint64
  //                                    <-- end_
  // The array is a suitable MemTable key.
  // The suffix starting with "userkey" can be used as an InternalKey.
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoid allocation for short keys
};

inline LookupKey::~LookupKey() {
  if (start_ != space_) delete[] start_;
}

}  // namespace acheron

#endif  // ACHERON_LSM_DBFORMAT_H_
