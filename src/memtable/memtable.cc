#include "src/memtable/memtable.h"

#include <algorithm>

#include "src/util/clock.h"
#include "src/util/coding.h"
#include "src/util/hash.h"

namespace acheron {

static Slice GetLengthPrefixedSliceAt(const char* data) {
  uint32_t len;
  const char* p = data;
  p = GetVarint32Ptr(p, p + 5, &len);  // +5: we assume "p" is not corrupted
  return Slice(p, len);
}

// One filter bit per 4 bytes of write buffer: 512 bits a line.
static size_t FilterLines(size_t write_buffer_size) {
  return std::max<size_t>(1, write_buffer_size / (4 * 512));
}

MemTable::MemTable(const InternalKeyComparator& comparator,
                   size_t write_buffer_size)
    : comparator_(comparator),
      refs_(0),
      table_(comparator_, &arena_),
      filter_lines_(FilterLines(write_buffer_size)),
      filter_(std::make_unique<FilterLine[]>(filter_lines_)),
      range_head_(nullptr),
      range_index_(nullptr),
      num_entries_(0),
      num_tombstones_(0),
      earliest_tombstone_seq_(kMaxSequenceNumber),
      earliest_tombstone_wall_micros_(UINT64_MAX),
      num_range_tombstones_(0),
      earliest_range_tombstone_seq_(kMaxSequenceNumber),
      earliest_range_tombstone_wall_micros_(UINT64_MAX) {}

MemTable::~MemTable() { assert(refs_ == 0); }

size_t MemTable::ApproximateMemoryUsage() { return arena_.MemoryUsage(); }

int MemTable::KeyComparator::operator()(const char* aptr,
                                        const char* bptr) const {
  // Internal keys are encoded as length-prefixed strings.
  Slice a = GetLengthPrefixedSliceAt(aptr);
  Slice b = GetLengthPrefixedSliceAt(bptr);
  return comparator.Compare(a, b);
}

// Encode a suitable internal key target for "target" and return it.
// Uses *scratch as scratch space, and the returned pointer will point
// into this scratch space.
static const char* EncodeKey(std::string* scratch, const Slice& target) {
  scratch->clear();
  PutVarint32(scratch, static_cast<uint32_t>(target.size()));
  scratch->append(target.data(), target.size());
  return scratch->data();
}

class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(MemTable::Table* table) : iter_(table) {}

  MemTableIterator(const MemTableIterator&) = delete;
  MemTableIterator& operator=(const MemTableIterator&) = delete;

  ~MemTableIterator() override = default;

  bool Valid() const override { return iter_.Valid(); }
  void Seek(const Slice& k) override { iter_.Seek(EncodeKey(&tmp_, k)); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }
  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }
  Slice key() const override { return GetLengthPrefixedSliceAt(iter_.key()); }
  Slice value() const override {
    Slice key_slice = GetLengthPrefixedSliceAt(iter_.key());
    return GetLengthPrefixedSliceAt(key_slice.data() + key_slice.size());
  }

  Status status() const override { return Status::OK(); }

 private:
  MemTable::Table::Iterator iter_;
  std::string tmp_;  // For passing to EncodeKey
};

Iterator* MemTable::NewIterator() { return new MemTableIterator(&table_); }

void MemTable::Add(SequenceNumber s, ValueType type, const Slice& key,
                   const Slice& value, LinkQueue* queue) {
  // The filter line is usually out of cache: fetch it while the arena
  // work below runs.
  uint32_t probe;
  FilterLine& line = FilterLineFor(key, &probe);
  __builtin_prefetch(&line, 1);
  const uint32_t key_tag = probe;

  // Format of an entry is concatenation of:
  //  key_size     : varint32 of internal_key.size()
  //  key bytes    : char[internal_key.size()]
  //  tag          : uint64((sequence << 8) | type)
  //  value_size   : varint32 of value.size()
  //  value bytes  : char[value.size()]
  size_t key_size = key.size();
  size_t val_size = value.size();
  size_t internal_key_size = key_size + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size + VarintLength(val_size) +
                             val_size;
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(internal_key_size));
  std::memcpy(p, key.data(), key_size);
  p += key_size;
  EncodeFixed64(p, PackSequenceAndType(s, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(val_size));
  std::memcpy(p, value.data(), val_size);
  assert(p + val_size == buf + encoded_len);
  int height;
  Node* node = table_.Prepare(buf, &height);
  for (int i = 0; i < kFilterProbes; i++) {
    probe *= 0x9e3779b9u;
    std::atomic<uint64_t>& word = line.words[probe >> 29];
    const uint64_t bit = uint64_t{1} << ((probe >> 23) & 63);
    word.store(word.load(std::memory_order_relaxed) | bit,
               std::memory_order_relaxed);
  }

  // Relaxed stores: only one thread (the write-group leader) mutates the
  // memtable at a time; other threads read these counters concurrently.
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  if (type == kTypeDeletion) {
    num_tombstones_.fetch_add(1, std::memory_order_relaxed);
    if (s < earliest_tombstone_seq_.load(std::memory_order_relaxed)) {
      earliest_tombstone_seq_.store(s, std::memory_order_relaxed);
      earliest_tombstone_wall_micros_.store(SystemClock::NowMicros(),
                                            std::memory_order_relaxed);
    }
  }

  // Last: a reader that finds the node in the queue has seen its filter
  // bits through the queue's release/acquire pair.
  if (queue != nullptr) {
    queue->Push(this, node, height, key_tag);
  } else {
    table_.Link(node, height);
  }
}

// A key's 64-bit hash picks its line (high half, by multiply-shift) and
// seeds its probe positions (low half, a multiplicative sequence whose top
// 9 bits index the line's 512 bits).
MemTable::FilterLine& MemTable::FilterLineFor(const Slice& user_key,
                                              uint32_t* probe) const {
  const uint64_t h = Hash64(user_key.data(), user_key.size(), 0);
  *probe = static_cast<uint32_t>(h);
  return filter_[((h >> 32) * filter_lines_) >> 32];
}

bool MemTable::KeyMayMatch(const Slice& user_key, uint32_t* key_tag) const {
  uint32_t probe;
  const FilterLine& line = FilterLineFor(user_key, &probe);
  *key_tag = probe;
  for (int i = 0; i < kFilterProbes; i++) {
    probe *= 0x9e3779b9u;
    const uint64_t bit = uint64_t{1} << ((probe >> 23) & 63);
    if ((line.words[probe >> 29].load(std::memory_order_relaxed) & bit) ==
        0) {
      return false;
    }
  }
  return true;
}

void MemTable::AddRange(SequenceNumber s, const Slice& begin,
                        const Slice& end) {
  if (comparator_.comparator.user_comparator()->Compare(begin, end) >= 0) {
    return;  // covers nothing
  }
  const size_t payload = VarintLength(begin.size()) + begin.size() +
                         VarintLength(end.size()) + end.size() + 8;
  char* buf = arena_.Allocate(sizeof(RangeDelNode) + payload);
  RangeDelNode* node = reinterpret_cast<RangeDelNode*>(buf);
  char* p = buf + sizeof(RangeDelNode);
  node->data = p;
  p = EncodeVarint32(p, static_cast<uint32_t>(begin.size()));
  std::memcpy(p, begin.data(), begin.size());
  p += begin.size();
  p = EncodeVarint32(p, static_cast<uint32_t>(end.size()));
  std::memcpy(p, end.data(), end.size());
  p += end.size();
  EncodeFixed64(p, s);

  // Single writer (the write-group leader); acquire keeps the invariant
  // that every load of the head pairs with its release store, and the
  // store publishes the node contents to readers.
  node->next = range_head_.load(std::memory_order_acquire);
  range_head_.store(node, std::memory_order_release);

  num_range_tombstones_.fetch_add(1, std::memory_order_relaxed);
  if (s < earliest_range_tombstone_seq_.load(std::memory_order_relaxed)) {
    earliest_range_tombstone_seq_.store(s, std::memory_order_relaxed);
    earliest_range_tombstone_wall_micros_.store(SystemClock::NowMicros(),
                                                std::memory_order_relaxed);
  }
  RebuildRangeIndex();
}

void MemTable::RebuildRangeIndex() {
  const RangeDelNode* head = range_head_.load(std::memory_order_acquire);
  const RangeDelRun* older = range_index_.load(std::memory_order_acquire);
  uint64_t count = 1;
  while (older != nullptr && older->count <= count) {
    count += older->count;
    older = older->older;
  }
  auto run = std::make_unique<RangeDelRun>();
  run->head = head;
  run->count = count;
  run->older = older;
  std::vector<RangeTombstoneRef> refs(count);
  const RangeDelNode* node = head;
  for (RangeTombstoneRef& ref : refs) {
    DecodeRangeNode(node, &ref.begin, &ref.end, &ref.seq);
    node = node->next;
  }
  run->fragments.BuildFromRefs(comparator_.comparator.user_comparator(),
                               std::move(refs));
  range_index_.store(run.get(), std::memory_order_release);
  range_runs_.push_back(std::move(run));
}

void MemTable::DecodeRangeNode(const RangeDelNode* node, Slice* begin,
                               Slice* end, SequenceNumber* seq) {
  const char* p = node->data;
  uint32_t len;
  p = GetVarint32Ptr(p, p + 5, &len);
  *begin = Slice(p, len);
  p += len;
  p = GetVarint32Ptr(p, p + 5, &len);
  *end = Slice(p, len);
  p += len;
  *seq = DecodeFixed64(p);
}

bool MemTable::RangeCovered(const Slice& user_key, SequenceNumber floor,
                            SequenceNumber snapshot) const {
  for (const RangeDelRun* run = range_index_.load(std::memory_order_acquire);
       run != nullptr; run = run->older) {
    if (run->fragments.Covers(user_key, floor, snapshot)) return true;
  }
  return false;
}

void MemTable::RangeIndexMemoryUsage(size_t* live, size_t* total) const {
  *live = 0;
  *total = 0;
  for (const RangeDelRun* run = range_index_.load(std::memory_order_acquire);
       run != nullptr; run = run->older) {
    *live += sizeof(RangeDelRun) + run->fragments.ApproximateMemoryUsage();
  }
  for (const auto& run : range_runs_) {
    *total += sizeof(RangeDelRun) + run->fragments.ApproximateMemoryUsage();
  }
}

void MemTable::CollectRangeTombstones(std::vector<RangeTombstone>* out) const {
  for (const RangeDelNode* node = range_head_.load(std::memory_order_acquire);
       node != nullptr; node = node->next) {
    Slice begin, end;
    SequenceNumber seq;
    DecodeRangeNode(node, &begin, &end, &seq);
    out->emplace_back(begin.ToString(), end.ToString(), seq);
  }
}

bool MemTable::EntryMatches(const char* entry, const LookupKey& key,
                            SequenceNumber* seq) const {
  // entry format is:
  //    klength  varint32
  //    userkey  char[klength-8]
  //    tag      uint64
  //    vlength  varint32
  //    value    char[vlength]
  uint32_t key_length;
  const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
  if (comparator_.comparator.user_comparator()->Compare(
          Slice(key_ptr, key_length - 8), key.user_key()) != 0) {
    return false;
  }
  const Slice lookup = key.internal_key();
  *seq = DecodeFixed64(key_ptr + key_length - 8) >> 8;
  return *seq <= (DecodeFixed64(lookup.data() + lookup.size() - 8) >> 8);
}

bool MemTable::Get(const LookupKey& key, std::string* value, Status* s,
                   SequenceNumber* seq_out, bool* is_pointer,
                   const LinkQueue* pending) {
  uint32_t key_tag;
  if (!KeyMayMatch(key.user_key(), &key_tag)) return false;
  // The queue first: an entry it misses was linked before the skiplist
  // search below starts. Either source may hold the newest version, so
  // both are searched and the larger sequence answers.
  SequenceNumber seq = 0;
  const char* entry = pending != nullptr
                          ? pending->FindPending(this, key, key_tag, &seq)
                          : nullptr;
  Table::Iterator iter(&table_);
  iter.Seek(key.memtable_key().data());
  // The Seek skipped every entry of the user key above the lookup's
  // sequence, so the first entry is the newest linked answer if it is
  // the same user key.
  SequenceNumber linked_seq;
  if (iter.Valid() && EntryMatches(iter.key(), key, &linked_seq) &&
      (entry == nullptr || linked_seq > seq)) {
    entry = iter.key();
    seq = linked_seq;
  }
  if (entry == nullptr) return false;

  uint32_t key_length;
  const char* key_ptr = GetVarint32Ptr(entry, entry + 5, &key_length);
  const uint64_t tag = DecodeFixed64(key_ptr + key_length - 8);
  if (seq_out != nullptr) *seq_out = seq;
  switch (static_cast<ValueType>(tag & 0xff)) {
    case kTypeValue: {
      Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
      value->assign(v.data(), v.size());
      return true;
    }
    case kTypeValuePointer: {
      // Hand the encoded vLog pointer to the caller to dereference.
      Slice v = GetLengthPrefixedSliceAt(key_ptr + key_length);
      value->assign(v.data(), v.size());
      if (is_pointer != nullptr) *is_pointer = true;
      return true;
    }
    case kTypeDeletion:
      *s = Status::NotFound(Slice());
      return true;
    case kTypeRangeDeletion:
      break;  // never stored in the skiplist
  }
  return false;
}

}  // namespace acheron
