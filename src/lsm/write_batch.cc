// WriteBatch::rep_ :=
//    sequence: fixed64
//    count: fixed32
//    data: record[count]
// record :=
//    kTypeValue varstring varstring         |
//    kTypeValuePointer varstring varstring  |
//    kTypeDeletion varstring                |
//    kTypeRangeDeletion varstring varstring
// varstring :=
//    len: varint32
//    data: uint8[len]
#include "src/lsm/write_batch.h"

#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"
#include "src/util/coding.h"

namespace acheron {

// WriteBatch header has an 8-byte sequence number followed by a 4-byte count.
static const size_t kHeader = 12;

WriteBatch::WriteBatch() { Clear(); }

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader);
}

size_t WriteBatch::ApproximateSize() const { return rep_.size(); }

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }

  input.remove_prefix(kHeader);
  Slice key, value;
  int found = 0;
  while (!input.empty()) {
    found++;
    char tag = input[0];
    input.remove_prefix(1);
    switch (tag) {
      case kTypeValue:
        if (GetLengthPrefixedSlice(&input, &key) &&
            GetLengthPrefixedSlice(&input, &value)) {
          handler->Put(key, value);
        } else {
          return Status::Corruption("bad WriteBatch Put");
        }
        break;
      case kTypeValuePointer:
        // The value slice is an encoded vlog::ValuePointer; framing only,
        // the pointer itself is validated by its consumers.
        if (GetLengthPrefixedSlice(&input, &key) &&
            GetLengthPrefixedSlice(&input, &value)) {
          handler->PutPointer(key, value);
        } else {
          return Status::Corruption("bad WriteBatch PutPointer");
        }
        break;
      case kTypeDeletion:
        if (GetLengthPrefixedSlice(&input, &key)) {
          handler->Delete(key);
        } else {
          return Status::Corruption("bad WriteBatch Delete");
        }
        break;
      case kTypeRangeDeletion:
        // Ordering of begin/end is a comparator-level question, so only the
        // framing is validated here; inverted ranges are dropped by the
        // consumers (memtable range store, fragmenter).
        if (GetLengthPrefixedSlice(&input, &key) &&
            GetLengthPrefixedSlice(&input, &value)) {
          handler->DeleteRange(key, value);
        } else {
          return Status::Corruption("bad WriteBatch DeleteRange");
        }
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
  }
  if (found != WriteBatchInternal::Count(this)) {
    return Status::Corruption("WriteBatch has wrong count");
  } else {
    return Status::OK();
  }
}

int WriteBatchInternal::Count(const WriteBatch* b) {
  return static_cast<int>(DecodeFixed32(b->rep_.data() + 8));
}

void WriteBatchInternal::SetCount(WriteBatch* b, int n) {
  EncodeFixed32(&b->rep_[8], n);
}

SequenceNumber WriteBatchInternal::Sequence(const WriteBatch* b) {
  return SequenceNumber(DecodeFixed64(b->rep_.data()));
}

void WriteBatchInternal::SetSequence(WriteBatch* b, SequenceNumber seq) {
  EncodeFixed64(&b->rep_[0], seq);
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  WriteBatchInternal::SetCount(this, WriteBatchInternal::Count(this) + 1);
  rep_.push_back(static_cast<char>(kTypeValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::PutPointer(const Slice& key, const Slice& pointer) {
  WriteBatchInternal::SetCount(this, WriteBatchInternal::Count(this) + 1);
  rep_.push_back(static_cast<char>(kTypeValuePointer));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, pointer);
}

void WriteBatch::Delete(const Slice& key) {
  WriteBatchInternal::SetCount(this, WriteBatchInternal::Count(this) + 1);
  rep_.push_back(static_cast<char>(kTypeDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

void WriteBatch::DeleteRange(const Slice& begin, const Slice& end) {
  if (begin.compare(end) >= 0) return;  // covers nothing
  WriteBatchInternal::SetCount(this, WriteBatchInternal::Count(this) + 1);
  rep_.push_back(static_cast<char>(kTypeRangeDeletion));
  PutLengthPrefixedSlice(&rep_, begin);
  PutLengthPrefixedSlice(&rep_, end);
}

void WriteBatch::Append(const WriteBatch& source) {
  WriteBatchInternal::Append(this, &source);
}

int WriteBatch::Count() const { return WriteBatchInternal::Count(this); }

namespace {
class MemTableInserter : public WriteBatch::Handler {
 public:
  SequenceNumber sequence_;
  MemTable* mem_;
  MemTable::LinkQueue* queue_;

  void Put(const Slice& key, const Slice& value) override {
    mem_->Add(sequence_, kTypeValue, key, value, queue_);
    sequence_++;
  }
  void PutPointer(const Slice& key, const Slice& pointer) override {
    mem_->Add(sequence_, kTypeValuePointer, key, pointer, queue_);
    sequence_++;
  }
  void Delete(const Slice& key) override {
    mem_->Add(sequence_, kTypeDeletion, key, Slice(), queue_);
    sequence_++;
  }
  void DeleteRange(const Slice& begin, const Slice& end) override {
    mem_->AddRange(sequence_, begin, end);
    sequence_++;
  }
};

class PointerCheck : public WriteBatch::Handler {
 public:
  explicit PointerCheck(const vlog::Extents* extents) : extents_(extents) {}
  bool ok = true;
  void Put(const Slice&, const Slice&) override {}
  void PutPointer(const Slice&, const Slice& pointer) override {
    if (!vlog::PointerWithin(pointer, *extents_)) ok = false;
  }
  void Delete(const Slice&) override {}
  void DeleteRange(const Slice&, const Slice&) override {}

 private:
  const vlog::Extents* const extents_;
};
}  // namespace

bool WriteBatchInternal::PointersWithin(const WriteBatch* b,
                                        const vlog::Extents& extents) {
  PointerCheck check(&extents);
  (void)b->Iterate(&check);
  return check.ok;
}

Status WriteBatchInternal::InsertInto(const WriteBatch* b, MemTable* memtable,
                                      MemTable::LinkQueue* queue) {
  MemTableInserter inserter;
  inserter.sequence_ = WriteBatchInternal::Sequence(b);
  inserter.mem_ = memtable;
  inserter.queue_ = queue;
  return b->Iterate(&inserter);
}

void WriteBatchInternal::SetContents(WriteBatch* b, const Slice& contents) {
  assert(contents.size() >= kHeader);
  b->rep_.assign(contents.data(), contents.size());
}

void WriteBatchInternal::Append(WriteBatch* dst, const WriteBatch* src) {
  SetCount(dst, Count(dst) + Count(src));
  assert(src->rep_.size() >= kHeader);
  dst->rep_.append(src->rep_.data() + kHeader, src->rep_.size() - kHeader);
}

}  // namespace acheron
