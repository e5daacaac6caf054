#include "src/lsm/db_iter.h"

#include "src/util/comparator.h"

namespace acheron {
namespace {

// Memtables and sstables that make the DB representation contain (userkey,
// seq, type) => uservalue entries. DBIter combines multiple entries for the
// same userkey found in the DB representation into a single entry while
// accounting for sequence numbers, deletion markers, overwrites, etc.
class DBIter : public Iterator {
 public:
  // Which direction is the iterator currently moving?
  // (1) When moving forward, the internal iterator is positioned at the
  //     exact entry that yields this->key(), this->value()
  // (2) When moving backwards, the internal iterator is positioned just
  //     before all entries whose user key == this->key().
  enum Direction { kForward, kReverse };

  DBIter(const Comparator* cmp, Iterator* iter, SequenceNumber s,
         std::atomic<uint64_t>* tombstone_skips,
         FragmentedRangeTombstoneList* range_dels,
         vlog::ReaderCache* vlog_readers)
      : user_comparator_(cmp),
        iter_(iter),
        sequence_(s),
        tombstone_skips_(tombstone_skips),
        range_dels_(range_dels),
        vlog_readers_(vlog_readers),
        direction_(kForward),
        valid_(false) {}

  DBIter(const DBIter&) = delete;
  DBIter& operator=(const DBIter&) = delete;

  ~DBIter() override {
    FlushTombstoneSkips();
    delete range_dels_;
    delete iter_;
  }

  bool Valid() const override { return valid_; }
  Slice key() const override {
    assert(valid_);
    return (direction_ == kForward) ? ExtractUserKey(iter_->key()) : saved_key_;
  }
  Slice value() const override {
    assert(valid_);
    if (direction_ == kForward) {
      return forward_is_resolved_ ? Slice(resolved_value_) : iter_->value();
    }
    return saved_value_;
  }
  Status status() const override {
    if (status_.ok()) {
      return iter_->status();
    } else {
      return status_;
    }
  }

  void Next() override;
  void Prev() override;
  void Seek(const Slice& target) override;
  void SeekToFirst() override;
  void SeekToLast() override;

 private:
  void FindNextUserEntry(bool skipping, std::string* skip);
  void FindPrevUserEntry();
  bool ParseKey(ParsedInternalKey* key);

  // True when a range tombstone visible at sequence_ hides |ikey|: covered
  // entries behave exactly like entries below a point deletion.
  bool RangeCovered(const ParsedInternalKey& ikey) const {
    return range_dels_ != nullptr &&
           range_dels_->MaxCoveringSeq(ikey.user_key, sequence_) >
               ikey.sequence;
  }

  // Dereference an encoded vLog pointer into resolved_value_. On failure
  // sets status_ and returns false (the caller invalidates the iterator).
  bool ResolvePointer(const Slice& encoded, const Slice& user_key) {
    Status s = vlog_readers_->Resolve(encoded, user_key, &resolved_value_);
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    return true;
  }

  inline void SaveKey(const Slice& k, std::string* dst) {
    dst->assign(k.data(), k.size());
  }

  inline void ClearSavedValue() {
    if (saved_value_.capacity() > 1048576) {
      std::string empty;
      swap(empty, saved_value_);
    } else {
      saved_value_.clear();
    }
  }

  // Skips are tallied in a plain local and flushed to the shared atomic
  // once per public operation (and at destruction), so a scan stepping
  // over a tombstone run costs one relaxed RMW per Next/Seek instead of
  // one per tombstone.
  void CountTombstoneSkip() { pending_tombstone_skips_++; }

  void FlushTombstoneSkips() {
    if (tombstone_skips_ != nullptr && pending_tombstone_skips_ > 0) {
      tombstone_skips_->fetch_add(pending_tombstone_skips_,
                                  std::memory_order_relaxed);
    }
    pending_tombstone_skips_ = 0;
  }

  const Comparator* const user_comparator_;
  Iterator* const iter_;
  SequenceNumber const sequence_;
  std::atomic<uint64_t>* const tombstone_skips_;
  FragmentedRangeTombstoneList* const range_dels_;  // owned; may be null
  vlog::ReaderCache* const vlog_readers_;           // not owned
  uint64_t pending_tombstone_skips_ = 0;
  Status status_;
  std::string saved_key_;    // == current key when direction_==kReverse
  std::string saved_value_;  // == current raw value when direction_==kReverse
  std::string resolved_value_;  // dereferenced vLog value (forward accept)
  // True when the forward-direction current entry is a resolved pointer, so
  // value() must serve resolved_value_ instead of the raw iterator payload.
  bool forward_is_resolved_ = false;
  Direction direction_;
  bool valid_;
};

inline bool DBIter::ParseKey(ParsedInternalKey* ikey) {
  if (!ParseInternalKey(iter_->key(), ikey)) {
    status_ = Status::Corruption("corrupted internal key in DBIter");
    return false;
  }
  return true;
}

void DBIter::Next() {
  assert(valid_);

  if (direction_ == kReverse) {  // Switch directions?
    direction_ = kForward;
    // iter_ is pointing just before the entries for this->key(), so advance
    // into the range of entries for this->key() and then use the normal
    // skipping code below.
    if (!iter_->Valid()) {
      iter_->SeekToFirst();
    } else {
      iter_->Next();
    }
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
    // saved_key_ already contains the key to skip past.
  } else {
    // Store in saved_key_ the current key so we skip it below.
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);

    // iter_ is pointing to current key. We can now safely move to the next
    // to avoid checking current key.
    iter_->Next();
    if (!iter_->Valid()) {
      valid_ = false;
      saved_key_.clear();
      return;
    }
  }

  FindNextUserEntry(true, &saved_key_);
  FlushTombstoneSkips();
}

void DBIter::FindNextUserEntry(bool skipping, std::string* skip) {
  // Loop until we hit an acceptable entry to yield
  assert(iter_->Valid());
  assert(direction_ == kForward);
  do {
    ParsedInternalKey ikey;
    if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
      switch (ikey.type) {
        case kTypeDeletion:
          // Arrange to skip all upcoming entries for this key since
          // they are hidden by this deletion.
          SaveKey(ikey.user_key, skip);
          skipping = true;
          CountTombstoneSkip();
          break;
        case kTypeValue:
        case kTypeValuePointer:
          if (skipping &&
              user_comparator_->Compare(ikey.user_key, *skip) <= 0) {
            // Entry hidden
          } else if (RangeCovered(ikey)) {
            // Hidden by a range tombstone: behave exactly as if a point
            // deletion preceded it -- older versions of this key have
            // smaller sequences and are covered by the same fragment.
            SaveKey(ikey.user_key, skip);
            skipping = true;
            CountTombstoneSkip();
          } else {
            forward_is_resolved_ = (ikey.type == kTypeValuePointer);
            if (forward_is_resolved_ &&
                !ResolvePointer(iter_->value(), ikey.user_key)) {
              valid_ = false;
              saved_key_.clear();
              return;
            }
            valid_ = true;
            saved_key_.clear();
            return;
          }
          break;
        case kTypeRangeDeletion:
          break;  // stored out of band, never in the point-key stream
      }
    }
    iter_->Next();
  } while (iter_->Valid());
  saved_key_.clear();
  valid_ = false;
}

void DBIter::Prev() {
  assert(valid_);

  if (direction_ == kForward) {  // Switch directions?
    // iter_ is pointing at the current entry. Scan backwards until the key
    // changes so we can use the normal reverse scanning code.
    assert(iter_->Valid());  // Otherwise valid_ would have been false
    SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
    while (true) {
      iter_->Prev();
      if (!iter_->Valid()) {
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        return;
      }
      if (user_comparator_->Compare(ExtractUserKey(iter_->key()), saved_key_) <
          0) {
        break;
      }
    }
    direction_ = kReverse;
  }

  FindPrevUserEntry();
  FlushTombstoneSkips();
}

void DBIter::FindPrevUserEntry() {
  assert(direction_ == kReverse);

  ValueType value_type = kTypeDeletion;
  if (iter_->Valid()) {
    do {
      ParsedInternalKey ikey;
      if (ParseKey(&ikey) && ikey.sequence <= sequence_) {
        if ((value_type != kTypeDeletion) &&
            user_comparator_->Compare(ikey.user_key, saved_key_) < 0) {
          // We encountered a non-deleted value in entries for previous keys,
          break;
        }
        value_type = ikey.type;
        if ((value_type == kTypeValue || value_type == kTypeValuePointer) &&
            RangeCovered(ikey)) {
          // Hidden by a range tombstone: treat like a point deletion.
          value_type = kTypeDeletion;
        }
        if (value_type == kTypeDeletion) {
          saved_key_.clear();
          ClearSavedValue();
          CountTombstoneSkip();
        } else {
          Slice raw_value = iter_->value();
          if (saved_value_.capacity() > raw_value.size() + 1048576) {
            std::string empty;
            swap(empty, saved_value_);
          }
          SaveKey(ExtractUserKey(iter_->key()), &saved_key_);
          saved_value_.assign(raw_value.data(), raw_value.size());
        }
      }
      iter_->Prev();
    } while (iter_->Valid());
  }

  if (value_type == kTypeDeletion) {
    // End
    valid_ = false;
    saved_key_.clear();
    ClearSavedValue();
    direction_ = kForward;
  } else {
    // saved_value_ holds the raw payload of the winning entry; if that
    // entry was a pointer, dereference it once now (not per candidate).
    if (value_type == kTypeValuePointer) {
      if (!ResolvePointer(saved_value_, saved_key_)) {
        valid_ = false;
        saved_key_.clear();
        ClearSavedValue();
        direction_ = kForward;
        return;
      }
      saved_value_ = resolved_value_;
    }
    valid_ = true;
  }
}

void DBIter::Seek(const Slice& target) {
  direction_ = kForward;
  ClearSavedValue();
  saved_key_.clear();
  AppendInternalKey(&saved_key_,
                    ParsedInternalKey(target, sequence_, kValueTypeForSeek));
  iter_->Seek(saved_key_);
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
  FlushTombstoneSkips();
}

void DBIter::SeekToFirst() {
  direction_ = kForward;
  ClearSavedValue();
  iter_->SeekToFirst();
  if (iter_->Valid()) {
    FindNextUserEntry(false, &saved_key_ /* temporary storage */);
  } else {
    valid_ = false;
  }
  FlushTombstoneSkips();
}

void DBIter::SeekToLast() {
  direction_ = kReverse;
  ClearSavedValue();
  iter_->SeekToLast();
  FindPrevUserEntry();
  FlushTombstoneSkips();
}

}  // namespace

Iterator* NewDBIterator(const Comparator* user_key_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        std::atomic<uint64_t>* tombstone_skips,
                        FragmentedRangeTombstoneList* range_dels,
                        vlog::ReaderCache* vlog_readers) {
  return new DBIter(user_key_comparator, internal_iter, sequence,
                    tombstone_skips, range_dels, vlog_readers);
}

}  // namespace acheron
