#include "src/lsm/version_set.h"

#include <algorithm>
#include <cstdio>
#include <array>
#include <map>

#include "src/core/compaction_planner.h"
#include "src/env/env.h"
#include "src/lsm/filename.h"
#include "src/lsm/merger.h"
#include "src/lsm/table_cache.h"
#include "src/table/two_level_iterator.h"
#include "src/util/coding.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {

// Is |level| one where sorted runs may overlap (L0 always; every level under
// tiering)?
static bool IsOverlappingLevel(const Options* options, int level) {
  return level == 0 ||
         options->compaction_style == CompactionStyle::kTiering;
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". Therefore all files at or
      // before "mid" are uninteresting.
      left = mid + 1;
    } else {
      // Key at "mid.largest" is >= "target". Therefore all files after
      // "mid" are uninteresting.
      right = mid;
    }
  }
  return right;
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  // null user_key occurs after all keys and is therefore never before *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i];
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap
      } else {
        return true;  // Overlap
      }
    }
    return false;
  }

  // Binary search over file list
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    // beginning of range is after all files, so no overlap.
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files
  for (int level = 0; level < kNumLevels; level++) {
    for (size_t i = 0; i < files_[level].size(); i++) {
      FileMetaData* f = files_[level][i];
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
  delete range_dels_.load(std::memory_order_acquire);
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

// An internal iterator. For a given version/level pair, yields information
// about the files in the level. For a given entry, key() is the largest key
// that occurs in the file, and value() is a 16-byte value containing the
// file number and file size, both encoded using EncodeFixed64.
class LevelFileNumIterator : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist)
      : icmp_(icmp), flist_(flist), index_(flist->size()) {  // Marks as invalid
  }
  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    EncodeFixed64(value_buf_, (*flist_)[index_]->number);
    EncodeFixed64(value_buf_ + 8, (*flist_)[index_]->file_size);
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  size_t index_;

  // Backing store for value(). Holds the file number and size.
  mutable char value_buf_[16];
};

static Iterator* GetFileIterator(void* arg, const ReadOptions& options,
                                 const Slice& file_value) {
  TableCache* cache = reinterpret_cast<TableCache*>(arg);
  if (file_value.size() != 16) {
    return NewErrorIterator(
        Status::Corruption("FileReader invoked with unexpected value"));
  } else {
    return cache->NewIterator(options, DecodeFixed64(file_value.data()),
                              DecodeFixed64(file_value.data() + 8));
  }
}

Iterator* Version::NewConcatenatingIterator(const ReadOptions& options,
                                            int level) const {
  return NewTwoLevelIterator(
      new LevelFileNumIterator(vset_->icmp_, &files_[level]), &GetFileIterator,
      vset_->table_cache_, options);
}

void Version::AddIterators(const ReadOptions& options,
                           std::vector<Iterator*>* iters) {
  for (int level = 0; level < kNumLevels; level++) {
    if (files_[level].empty()) continue;
    if (IsOverlappingLevel(vset_->options_, level)) {
      // Merge all runs; newest first so the merging iterator prefers fresh
      // entries on ties (the internal key comparator already breaks ties by
      // sequence, so order here only matters for efficiency).
      for (size_t i = files_[level].size(); i > 0; i--) {
        const FileMetaData* f = files_[level][i - 1];
        iters->push_back(
            vset_->table_cache_->NewIterator(options, f->number, f->file_size));
      }
    } else {
      // For sorted levels, we can use a concatenating iterator that
      // sequentially walks through the non-overlapping files in the level,
      // opening them lazily.
      iters->push_back(NewConcatenatingIterator(options, level));
    }
  }
}

// Callback from TableCache::Get()
namespace {
enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
  SequenceNumber seq = 0;   // sequence of the deciding entry
  bool is_pointer = false;  // *value is an encoded vLog pointer
};
}  // namespace
static void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  Saver* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
  } else {
    if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
      s->state = (parsed_key.type == kTypeValue ||
                  parsed_key.type == kTypeValuePointer)
                     ? kFound
                     : kDeleted;
      s->seq = parsed_key.sequence;
      if (s->state == kFound) {
        s->value->assign(v.data(), v.size());
        s->is_pointer = (parsed_key.type == kTypeValuePointer);
      }
    }
  }
}

// Recency order of the runs at an overlapping level (L0 / tiering). A
// run's recency is its run_id, not its file number: a vLog-GC or purge
// rewrite gets a fresh number but keeps the run_id of the run it replaces,
// whose data it still holds.
static bool OlderRun(const FileMetaData* a, const FileMetaData* b) {
  return a->run_id != b->run_id ? a->run_id < b->run_id
                                : a->number < b->number;
}

static bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  return OlderRun(b, a);
}

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    std::string* value, uint64_t* filter_negatives,
                    SequenceNumber* found_seq, bool* is_pointer) {
  Slice ikey = k.internal_key();
  Slice user_key = k.user_key();
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  std::vector<FileMetaData*> tmp;
  for (int level = 0; level < kNumLevels; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) continue;

    if (IsOverlappingLevel(vset_->options_, level)) {
      // Overlapping runs: gather files whose range covers user_key and
      // search them newest-to-oldest.
      tmp.clear();
      tmp.reserve(files.size());
      for (FileMetaData* f : files) {
        if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
            ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
          tmp.push_back(f);
        }
      }
      if (tmp.empty()) continue;
      std::sort(tmp.begin(), tmp.end(), NewestFirst);
      for (FileMetaData* f : tmp) {
        Saver saver;
        saver.state = kNotFound;
        saver.ucmp = ucmp;
        saver.user_key = user_key;
        saver.value = value;
        Status s = vset_->table_cache_->Get(options, f->number, f->file_size,
                                            ikey, user_key, &saver, SaveValue,
                                            filter_negatives);
        if (!s.ok()) return s;
        switch (saver.state) {
          case kNotFound:
            break;  // Keep searching
          case kFound:
            if (found_seq != nullptr) *found_seq = saver.seq;
            if (is_pointer != nullptr) *is_pointer = saver.is_pointer;
            return Status::OK();
          case kDeleted:
            if (found_seq != nullptr) *found_seq = saver.seq;
            return Status::NotFound(Slice());
          case kCorrupt:
            return Status::Corruption("corrupted key for ", user_key);
        }
      }
    } else {
      // Binary search to find earliest file whose largest key >= ikey.
      uint32_t index = FindFile(vset_->icmp_, files, ikey);
      if (index >= files.size()) continue;
      FileMetaData* f = files[index];
      if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
        continue;  // key is before this file's range: not at this level
      }
      Saver saver;
      saver.state = kNotFound;
      saver.ucmp = ucmp;
      saver.user_key = user_key;
      saver.value = value;
      Status s = vset_->table_cache_->Get(options, f->number, f->file_size,
                                          ikey, user_key, &saver, SaveValue,
                                          filter_negatives);
      if (!s.ok()) return s;
      switch (saver.state) {
        case kNotFound:
          break;  // Keep searching deeper levels
        case kFound:
          if (found_seq != nullptr) *found_seq = saver.seq;
          if (is_pointer != nullptr) *is_pointer = saver.is_pointer;
          return Status::OK();
        case kDeleted:
          if (found_seq != nullptr) *found_seq = saver.seq;
          return Status::NotFound(Slice());
        case kCorrupt:
          return Status::Corruption("corrupted key for ", user_key);
      }
    }
  }

  return Status::NotFound(Slice());
}

namespace {
// One (item, table) probe within a MultiGet round. Lives in a vector that
// is fully sized before any PrepareGet call so &req stays pinned for the
// completion hook.
struct MultiGetLookup {
  size_t item = 0;
  FileMetaData* file = nullptr;
  Table* table = nullptr;
  TableReadRequest req;
};
}  // namespace

void Version::MultiGet(const ReadOptions& options, MultiGetItem* items,
                       size_t count, uint64_t* filter_negatives) {
  const Comparator* ucmp = vset_->icmp_.user_comparator();
  Env* const env = vset_->options_->env;

  // Per-item candidate files within the current level, newest first.
  std::vector<std::vector<FileMetaData*>> cand(count);

  for (int level = 0; level < kNumLevels; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) continue;

    size_t max_rank = 0;
    for (size_t i = 0; i < count; i++) {
      cand[i].clear();
      if (items[i].done) continue;
      const Slice user_key = items[i].key->user_key();
      if (IsOverlappingLevel(vset_->options_, level)) {
        for (FileMetaData* f : files) {
          if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
              ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
            cand[i].push_back(f);
          }
        }
        std::sort(cand[i].begin(), cand[i].end(), NewestFirst);
      } else {
        const uint32_t index =
            FindFile(vset_->icmp_, files, items[i].key->internal_key());
        if (index < files.size() &&
            ucmp->Compare(user_key, files[index]->smallest.user_key()) >= 0) {
          cand[i].push_back(files[index]);
        }
      }
      max_rank = std::max(max_rank, cand[i].size());
    }

    // Candidates per key are newest-to-oldest, so probing every unresolved
    // key's rank-r table before any rank-r+1 table preserves the per-key
    // order of the sequential Get walk; keys within one rank are
    // independent, which is what lets their block reads share a batch.
    for (size_t rank = 0; rank < max_rank; rank++) {
      std::vector<MultiGetLookup> lookups;
      lookups.reserve(count);
      for (size_t i = 0; i < count; i++) {
        if (items[i].done || rank >= cand[i].size()) continue;
        lookups.emplace_back();
        lookups.back().item = i;
        lookups.back().file = cand[i][rank];
      }
      if (lookups.empty()) break;

      // Pin each distinct table once for the round, then prepare every
      // lookup (bloom + index seek + block-cache check -- no file IO).
      std::map<uint64_t, std::pair<Table*, Cache::Handle*>> pinned;
      std::vector<MultiGetLookup*> ready;    // kReady: resolve without IO
      std::vector<MultiGetLookup*> pending;  // kNeedsRead: block read first
      ready.reserve(lookups.size());
      pending.reserve(lookups.size());
      for (MultiGetLookup& lk : lookups) {
        MultiGetItem& item = items[lk.item];
        auto it = pinned.find(lk.file->number);
        if (it == pinned.end()) {
          Table* table = nullptr;
          Cache::Handle* handle = nullptr;
          Status s = vset_->table_cache_->PinTable(
              lk.file->number, lk.file->file_size, &table, &handle);
          if (!s.ok()) {
            item.status = s;
            item.done = true;
            continue;
          }
          it = pinned.emplace(lk.file->number, std::make_pair(table, handle))
                   .first;
        }
        lk.table = it->second.first;
        const TablePrepare prep = lk.table->PrepareGet(
            options, item.key->internal_key(), item.key->user_key(), &lk.req,
            filter_negatives);
        if (prep == TablePrepare::kFilteredOut ||
            prep == TablePrepare::kNoBlock) {
          continue;  // no entry in this table; deeper candidates decide
        }
        if (prep == TablePrepare::kNeedsRead) {
          pending.push_back(&lk);
        } else {
          ready.push_back(&lk);
        }
      }

      // Submit every block read up front, split across a few completion
      // queues, then resolve group by group: while group g's entries are
      // seeked and copied out, groups g+1.. still have their reads in
      // flight. One barrier over the whole rank would instead serialize
      // all the resolution work after the last (straggler) read.
      constexpr size_t kReadGroups = 8;
      std::array<CompletionQueue, kReadGroups> cqs;
      std::array<std::vector<ReadRequest*>, kReadGroups> group_reads;
      std::array<std::vector<MultiGetLookup*>, kReadGroups> group_lookups;
      const size_t per_group =
          (pending.size() + kReadGroups - 1) / kReadGroups;
      for (size_t j = 0; j < pending.size(); j++) {
        const size_t g = j / per_group;
        group_reads[g].push_back(&pending[j]->req.io);
        group_lookups[g].push_back(pending[j]);
      }
      for (size_t g = 0; g < kReadGroups; g++) {
        if (group_reads[g].empty()) continue;
        env->SubmitReads(group_reads[g].data(), group_reads[g].size(),
                        &cqs[g]);  // io: unlocked
      }

      auto resolve = [&](MultiGetLookup* lk) {
        MultiGetItem& item = items[lk->item];
        Saver saver;
        saver.state = kNotFound;
        saver.ucmp = ucmp;
        saver.user_key = item.key->user_key();
        saver.value = item.value;
        Status s = lk->table->ReadInBlock(&lk->req, item.key->internal_key(),
                                          &saver, SaveValue);
        if (!s.ok()) {
          item.status = s;
          item.done = true;
          return;
        }
        switch (saver.state) {
          case kNotFound:
            break;  // keep searching deeper candidates / levels
          case kFound:
            item.status = Status::OK();
            item.seq = saver.seq;
            item.is_pointer = saver.is_pointer;
            item.done = true;
            break;
          case kDeleted:
            item.status = Status::NotFound(Slice());
            item.seq = saver.seq;
            item.done = true;
            break;
          case kCorrupt:
            item.status =
                Status::Corruption("corrupted key for ", saver.user_key);
            item.done = true;
            break;
        }
      };
      for (MultiGetLookup* lk : ready) resolve(lk);
      for (size_t g = 0; g < kReadGroups; g++) {
        if (group_lookups[g].empty()) continue;
        cqs[g].WaitFor(group_lookups[g].size());
        for (MultiGetLookup* lk : group_lookups[g]) resolve(lk);
      }

      for (auto& entry : pinned) {
        vset_->table_cache_->Unpin(entry.second.second);
      }
    }
  }

  for (size_t i = 0; i < count; i++) {
    if (!items[i].done) {
      items[i].status = Status::NotFound(Slice());
      items[i].done = true;
    }
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(vset_->icmp_,
                               !IsOverlappingLevel(vset_->options_, level),
                               files_[level], smallest_user_key,
                               largest_user_key);
}

void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < kNumLevels);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it
    } else {
      inputs->push_back(f);
      if (IsOverlappingLevel(vset_->options_, level)) {
        // Overlapping files may still expand the covered range: restart the
        // search with the widened range so every transitively-overlapping
        // run is included.
        if (begin != nullptr &&
            user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

int Version::DeepestNonEmptyLevel() const {
  int deepest = 0;
  for (int level = 0; level < kNumLevels; level++) {
    if (!files_[level].empty()) deepest = level;
  }
  return deepest;
}

bool Version::IsBaseLevelForKey(int level, const Slice& user_key) const {
  const Comparator* ucmp = vset_->icmp_.user_comparator();
  for (int lvl = level + 1; lvl < kNumLevels; lvl++) {
    for (FileMetaData* f : files_[lvl]) {
      if (ucmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
          ucmp->Compare(user_key, f->largest.user_key()) <= 0) {
        return false;
      }
    }
  }
  return true;
}

Status Version::MaxRangeCoveringSeq(const Slice& user_key,
                                    SequenceNumber snapshot,
                                    SequenceNumber* seq) const {
  *seq = 0;
  const FragmentedRangeTombstoneList* list =
      range_dels_.load(std::memory_order_acquire);
  if (list == nullptr) {
    std::vector<RangeTombstone> raw;
    Status s = CollectRangeTombstones(&raw);
    if (!s.ok()) return s;  // never cached: the next query retries
    auto built = std::make_unique<FragmentedRangeTombstoneList>();
    built->Build(vset_->icmp_.user_comparator(), std::move(raw));
    const FragmentedRangeTombstoneList* published = nullptr;
    if (range_dels_.compare_exchange_strong(published, built.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      list = built.release();
    } else {
      list = published;  // a concurrent query won; |built| is dropped
    }
  }
  *seq = list->MaxCoveringSeq(user_key, snapshot);
  return Status::OK();
}

Status Version::CollectRangeTombstones(std::vector<RangeTombstone>* out) const {
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      if (!f->has_range_tombstones()) continue;
      Status s = vset_->table_cache_->GetRangeTombstones(f->number,
                                                         f->file_size, out);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

uint64_t Version::MaxRangeTombstoneAge(SequenceNumber last_seq) const {
  uint64_t max_age = 0;
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      if (f->has_range_tombstones() &&
          last_seq >= f->earliest_range_tombstone_seq) {
        max_age =
            std::max(max_age, last_seq - f->earliest_range_tombstone_seq);
      }
    }
  }
  return max_age;
}

uint64_t Version::TotalRangeTombstones() const {
  uint64_t total = 0;
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      total += f->num_range_tombstones;
    }
  }
  return total;
}

uint64_t Version::MaxTombstoneAge(SequenceNumber last_seq) const {
  uint64_t max_age = 0;
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      if (f->has_tombstones() && last_seq >= f->earliest_tombstone_seq) {
        max_age = std::max(max_age, last_seq - f->earliest_tombstone_seq);
      }
    }
  }
  return max_age;
}

uint64_t Version::TotalTombstones() const {
  uint64_t total = 0;
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : files_[level]) {
      total += f->num_tombstones;
    }
  }
  return total;
}

int64_t Version::NumLevelBytes(int level) const {
  int64_t sum = 0;
  for (FileMetaData* f : files_[level]) {
    sum += f->file_size;
  }
  return sum;
}

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < kNumLevels; level++) {
    // E.g.,
    //   --- level 1 ---
    //   17:123['a' .. 'd']
    //   20:43['e' .. 'g']
    if (files_[level].empty()) continue;
    r.append("--- level ");
    r.append(std::to_string(level));
    r.append(" ---\n");
    for (const FileMetaData* f : files_[level]) {
      r.push_back(' ');
      r.append(std::to_string(f->number));
      r.push_back(':');
      r.append(std::to_string(f->file_size));
      r.append("[");
      r.append(f->smallest.DebugString());
      r.append(" .. ");
      r.append(f->largest.DebugString());
      r.append("] ts=");
      r.append(std::to_string(f->num_tombstones));
      r.push_back('\n');
    }
  }
  return r;
}

// A helper class so we can efficiently apply a whole sequence of edits to a
// particular state without creating intermediate Versions that contain full
// copies of the intermediate state.
class VersionSet::Builder {
 private:
  // Helper to sort by v->files_[file_number].smallest
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      int r = internal_comparator->Compare(f1->smallest, f2->smallest);
      if (r != 0) {
        return (r < 0);
      } else {
        // Break ties by file number
        return (f1->number < f2->number);
      }
    }
  };

  typedef std::set<FileMetaData*, BySmallestKey> FileSet;
  struct LevelState {
    std::set<uint64_t> deleted_files;
    FileSet* added_files;
  };

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[kNumLevels];

 public:
  // Initialize a builder with the files from *base and other info from *vset
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < kNumLevels; level++) {
      levels_[level].added_files = new FileSet(cmp);
    }
  }

  ~Builder() {
    for (int level = 0; level < kNumLevels; level++) {
      const FileSet* added = levels_[level].added_files;
      std::vector<FileMetaData*> to_unref;
      to_unref.reserve(added->size());
      for (FileSet::const_iterator it = added->begin(); it != added->end();
           ++it) {
        to_unref.push_back(*it);
      }
      delete added;
      for (uint32_t i = 0; i < to_unref.size(); i++) {
        FileMetaData* f = to_unref[i];
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  // Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers
    for (size_t i = 0; i < edit->compact_pointers_.size(); i++) {
      const int level = edit->compact_pointers_[i].first;
      vset_->compact_pointer_[level] =
          edit->compact_pointers_[i].second.Encode().ToString();
    }

    // Delete files
    for (const auto& deleted_file_set_kvp : edit->deleted_files_) {
      const int level = deleted_file_set_kvp.first;
      const uint64_t number = deleted_file_set_kvp.second;
      levels_[level].deleted_files.insert(number);
    }

    // Add new files
    for (size_t i = 0; i < edit->new_files_.size(); i++) {
      const int level = edit->new_files_[i].first;
      FileMetaData* f = new FileMetaData(edit->new_files_[i].second);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }
  }

  // Save the current state in *v.
  void SaveTo(Version* v) {
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < kNumLevels; level++) {
      // Merge the set of added files with the set of pre-existing files.
      // Drop any deleted files.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      std::vector<FileMetaData*>::const_iterator base_iter = base_files.begin();
      std::vector<FileMetaData*>::const_iterator base_end = base_files.end();
      const FileSet* added_files = levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files->size());
      for (const auto& added_file : *added_files) {
        // Add all smaller files listed in base_
        for (std::vector<FileMetaData*>::const_iterator bpos =
                 std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }

        MaybeAddFile(v, level, added_file);
      }

      // Add remaining base files
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }

      // Overlapping levels (L0 / tiering) are kept oldest run first, so
      // the newest run is the last file.
      if (IsOverlappingLevel(vset_->options_, level)) {
        std::sort(v->files_[level].begin(), v->files_[level].end(),
                  OlderRun);
      }

#ifndef NDEBUG
      // Make sure there is no overlap in sorted levels
      if (!IsOverlappingLevel(vset_->options_, level)) {
        for (uint32_t i = 1; i < v->files_[level].size(); i++) {
          const InternalKey& prev_end = v->files_[level][i - 1]->largest;
          const InternalKey& this_begin = v->files_[level][i]->smallest;
          if (vset_->icmp_.Compare(prev_end, this_begin) >= 0) {
            std::fprintf(stderr, "overlapping ranges in same level %s vs. %s\n",
                         prev_end.DebugString().c_str(),
                         this_begin.DebugString().c_str());
            std::abort();
          }
        }
      }
#endif
    }
  }

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) > 0) {
      // File is deleted: do nothing
    } else {
      std::vector<FileMetaData*>* files = &v->files_[level];
      if (level > 0 && !files->empty() &&
          !IsOverlappingLevel(vset_->options_, level)) {
        // Must not overlap
        assert(vset_->icmp_.Compare((*files)[files->size() - 1]->largest,
                                    f->smallest) < 0);
      }
      f->refs++;
      files->push_back(f);
    }
  }
};

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : env_(options->env),
      dbname_(dbname),
      options_(options),
      table_cache_(table_cache),
      icmp_(*cmp),
      next_file_number_(2),
      manifest_file_number_(0),  // Filled by Recover()
      last_sequence_(0),
      log_number_(0),
      descriptor_file_(nullptr),
      descriptor_log_(nullptr),
      edits_since_snapshot_(0),
      manifest_edits_replayed_(0),
      snapshots_written_(0),
      manifest_rotations_(0),
      torn_snapshots_skipped_(0),
      dummy_versions_(this),
      current_(nullptr) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // List must be empty
  delete descriptor_log_;
  delete descriptor_file_;
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit, Mutex* mu) {
  mu->AssertHeld();
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }

  // Rotate the descriptor once enough edits have accumulated since the last
  // snapshot: close the current MANIFEST and let the lazy-open branch below
  // start a fresh one headed by a checksummed snapshot record. Crash-safe at
  // every file op in between: CURRENT keeps naming the old (complete)
  // MANIFEST until SetCurrentFile repoints it. Must run before SetNextFile
  // below so the edit's recorded next-file exceeds the new MANIFEST's own
  // number (recovery derives the next descriptor name from that field).
  if (descriptor_log_ != nullptr && options_->manifest_snapshot_interval > 0 &&
      edits_since_snapshot_ >= options_->manifest_snapshot_interval) {
    // io: mutex-held -- MANIFEST rotation (closes the old descriptor)
    delete descriptor_log_;
    delete descriptor_file_;
    descriptor_log_ = nullptr;
    descriptor_file_ = nullptr;
    manifest_file_number_ = NewFileNumber();
    manifest_rotations_++;
  }

  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(LastSequence());

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }

  // Initialize new descriptor log file if necessary by creating a temporary
  // file that contains a snapshot of the current version.
  std::string new_manifest_file;
  Status s;
  if (descriptor_log_ == nullptr) {
    // No reason to unlock *mu here since we only hit this path in the first
    // call to LogAndApply (when opening the database).
    assert(descriptor_file_ == nullptr);
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    std::unique_ptr<WritableFile> file;
    // io: mutex-held -- first edit into a fresh MANIFEST (open or rotation)
    s = env_->NewWritableFile(new_manifest_file, &file);
    if (s.ok()) {
      descriptor_file_ = file.release();
      descriptor_log_ = new wal::Writer(descriptor_file_);
      s = WriteSnapshot(descriptor_log_);
    }
  }

  // Write new record to MANIFEST log
  if (s.ok()) {
    std::string record;
    edit->EncodeTo(&record);
    s = descriptor_log_->AddRecord(record);
    if (s.ok()) {
      s = descriptor_file_->Sync();
    }
  }

  // If we just created a new descriptor file, install it by writing a new
  // CURRENT file that points to it.
  if (s.ok() && !new_manifest_file.empty()) {
    s = SetCurrentFile(env_, dbname_, manifest_file_number_);
  }

  // Install the new version
  if (s.ok()) {
    AppendVersion(v);
    edits_since_snapshot_++;
    FoldEdit(*edit);
  } else {
    delete v;
    // Whatever failed -- the record append, the sync, or installing a fresh
    // descriptor -- the wal::Writer's block arithmetic may have diverged
    // from the bytes that actually reached the file, so retrying in place
    // could emit records a reader mis-parses. Abandon the descriptor: the
    // next LogAndApply (e.g. a background retry, see
    // DBImpl::RecordBackgroundError) lazily opens a brand-new MANIFEST
    // headed by a full snapshot and repoints CURRENT only after a
    // successful sync. Until then CURRENT keeps naming the last complete
    // MANIFEST, whose torn tail recovery already tolerates.
    // io: mutex-held -- abandon the possibly-desynced descriptor
    delete descriptor_log_;
    delete descriptor_file_;
    descriptor_log_ = nullptr;
    descriptor_file_ = nullptr;
    if (!new_manifest_file.empty()) {
      // io: mutex-held -- best-effort cleanup of the failed MANIFEST
      (void)env_->RemoveFile(new_manifest_file);
    }
    // Never reuse the abandoned number: if CURRENT already points at it,
    // reopening it would truncate the only complete MANIFEST on disk.
    manifest_file_number_ = NewFileNumber();
  }

  return s;
}

void VersionSet::FoldEdit(const VersionEdit& edit) {
  if (edit.has_log_number_) log_number_ = edit.log_number_;
  if (edit.has_next_file_number_) next_file_number_ = edit.next_file_number_;
  if (edit.has_last_sequence_) {
    last_sequence_.store(edit.last_sequence_, std::memory_order_release);
  }
  if (edit.has_monitor_written()) {
    journal_state_.written = edit.monitor_written();
  }
  if (edit.has_monitor_delta()) {
    journal_state_.persisted += edit.monitor_persisted();
    journal_state_.superseded += edit.monitor_superseded();
    journal_state_.latency.Merge(edit.monitor_latency());
  }
  if (edit.has_monitor_range_written()) {
    journal_state_.range_written = edit.monitor_range_written();
  }
  if (edit.has_monitor_range_delta()) {
    journal_state_.range_persisted += edit.monitor_range_persisted();
    journal_state_.range_superseded += edit.monitor_range_superseded();
    journal_state_.range_latency.Merge(edit.monitor_range_latency());
  }
  if (edit.has_vlog_monitor_delta()) {
    journal_state_.vlog_purged += edit.vlog_monitor_purged();
    journal_state_.vlog_latency.Merge(edit.vlog_monitor_latency());
  }
  for (const vlog::SegmentInfo& info : edit.vlog_segments()) {
    vlog_registry_[info.number] = info;
  }
  for (uint64_t seg : edit.vlog_removed_segments()) {
    vlog_registry_.erase(seg);
  }
  for (const vlog::SegmentDelta& delta : edit.vlog_deltas()) {
    vlog::ApplyDelta(&vlog_registry_, delta);
  }
}

Status VersionSet::WriteCleanCloseSnapshot() {
  if (descriptor_log_ == nullptr) {
    return Status::OK();
  }
  Status s = WriteSnapshot(descriptor_log_);
  if (s.ok()) {
    // io: mutex-held -- clean-close snapshot sync (DB is shutting down)
    s = descriptor_file_->Sync();
  }
  return s;
}

Status VersionSet::Recover(bool* save_manifest) {
  // Read "CURRENT" file, which contains a pointer to the current manifest
  // file.
  std::string current;
  // io: open/recovery
  Status s = env_->ReadFileToString(CurrentFileName(dbname_), &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current[current.size() - 1] != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);
  s = Replay(current, /*stop_at_bad_record=*/false);
  // A new MANIFEST is always written on open (no manifest reuse).
  if (s.ok()) *save_manifest = true;
  return s;
}

Status VersionSet::Replay(const std::string& fname, bool stop_at_bad_record) {
  struct LogReporter : public wal::Reader::Reporter {
    Status* status = nullptr;  // null: framing damage is not an error
    void Corruption(size_t, const Status& s) override {
      if (status != nullptr && status->ok()) *status = s;
    }
  };

  std::unique_ptr<SequentialFile> file;
  // io: open/recovery (RepairDB's bounded tier too)
  Status s = env_->NewSequentialFile(dbname_ + "/" + fname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file",
                                s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  std::unique_ptr<Builder> builder(new Builder(this, current_));
  uint64_t edits_replayed = 0;
  int read_records = 0;
  {
    LogReporter reporter;
    if (!stop_at_bad_record) reporter.status = &s;
    // Without framing checksums a torn tail record's WAL CRC is garbage but
    // the prefix still parses. Restart points are still never trusted
    // blindly: snapshot records carry their own inner CRC32C, which
    // DecodeFrom verifies.
    wal::Reader reader(file.get(), &reporter, !stop_at_bad_record);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      ++read_records;
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (!s.ok() && read_records > 1) {
        if (stop_at_bad_record) {
          // A torn record ends the useful prefix: everything before it is
          // a consistent version.
          s = Status::OK();
          break;
        }
        if (edit.IsSnapshot()) {
          // A non-head snapshot record that failed its inner CRC: skip it
          // and keep the state accumulated so far (previous snapshot +
          // suffix edits). A later snapshot adds no information the
          // preceding records lack, so dropping it is always safe -- unlike
          // a corrupt ordinary edit, which leaves a hole in the delta chain
          // and stays fatal. A corrupt HEAD snapshot is the file-set
          // baseline itself and remains fatal (RepairDB then falls back to
          // an older MANIFEST or salvage).
          torn_snapshots_skipped_++;
          s = Status::OK();
          continue;
        }
      }
      if (s.ok() && edit.has_comparator_ &&
          edit.comparator_ != icmp_.user_comparator()->Name()) {
        s = Status::InvalidArgument(
            edit.comparator_ + " does not match existing comparator ",
            icmp_.user_comparator()->Name());
      }
      if (!s.ok()) break;
      if (edit.IsSnapshot()) {
        // Valid snapshot: restart replay from here. The record carries the
        // complete file set and cumulative monitor state, so everything
        // accumulated before it is superseded.
        builder.reset();
        builder.reset(new Builder(this, new Version(this)));
        journal_state_ = MonitorJournal();
        vlog_registry_.clear();
        edits_replayed = 0;
      } else {
        edits_replayed++;
      }
      builder->Apply(&edit);
      FoldEdit(edit);
      have_log_number |= edit.has_log_number_;
      have_next_file |= edit.has_next_file_number_;
      have_last_sequence |= edit.has_last_sequence_;
    }
  }
  file.reset();

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  if (s.ok()) {
    Version* v = new Version(this);
    builder->SaveTo(v);
    // Install recovered version
    AppendVersion(v);
    // The next descriptor takes the recorded next-file number.
    manifest_file_number_ = next_file_number_;
    next_file_number_ = manifest_file_number_ + 1;
    manifest_edits_replayed_ = edits_replayed;
  }

  return s;
}

void VersionSet::MarkFileNumberUsed(uint64_t number) {
  if (next_file_number_ <= number) {
    next_file_number_ = number + 1;
  }
}

Status WriteDescriptor(Env* env, const std::string& dbname, uint64_t number,
                       const VersionEdit& edit) {
  const std::string fname = DescriptorFileName(dbname, number);
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);  // io: open/recovery
  if (!s.ok()) return s;
  std::string record;
  edit.EncodeTo(&record);
  s = wal::Writer(file.get()).AddRecord(record);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) {
    (void)env->RemoveFile(fname);  // io: open/recovery cleanup
    return s;
  }
  // CURRENT moves only once the descriptor is durable, so a crash between
  // the two steps leaves CURRENT naming the previous, complete MANIFEST.
  return SetCurrentFile(env, dbname, number);
}

void VersionSet::SnapshotEdit(VersionEdit* edit) const {
  // The snapshot is a self-contained restart point: beyond the file set it
  // records log/next-file/last-sequence and the cumulative monitor journal,
  // and its body is wrapped in an inner CRC32C (see version_edit.cc) so
  // recovery can trust it independently of WAL framing.
  edit->SetSnapshot();
  edit->SetComparatorName(icmp_.user_comparator()->Name());
  edit->SetLogNumber(log_number_);
  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(LastSequence());
  edit->SetMonitorWritten(journal_state_.written);
  edit->SetMonitorDelta(journal_state_.persisted, journal_state_.superseded,
                        journal_state_.latency);
  edit->SetMonitorRangeWritten(journal_state_.range_written);
  edit->SetMonitorRangeDelta(journal_state_.range_persisted,
                             journal_state_.range_superseded,
                             journal_state_.range_latency);
  edit->SetVlogMonitorDelta(journal_state_.vlog_purged,
                            journal_state_.vlog_latency);
  // Snapshot the vLog segment registry (cumulative: replay resets on the
  // snapshot record, then upserts each segment).
  for (const auto& entry : vlog_registry_) {
    edit->AddVlogSegment(entry.second);
  }
  for (int level = 0; level < kNumLevels; level++) {
    if (!compact_pointer_[level].empty()) {
      InternalKey key;
      key.DecodeFrom(compact_pointer_[level]);
      edit->SetCompactPointer(level, key);
    }
    for (FileMetaData* f : current_->files_[level]) {
      edit->AddFile(level, *f);
    }
  }
}

Status VersionSet::WriteSnapshot(wal::Writer* log) {
  VersionEdit edit;
  SnapshotEdit(&edit);
  std::string record;
  edit.EncodeTo(&record);
  Status s = log->AddRecord(record);
  if (s.ok()) {
    edits_since_snapshot_ = 0;
    snapshots_written_++;
  }
  return s;
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < kNumLevels);
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < kNumLevels);
  return current_->NumLevelBytes(level);
}

const char* VersionSet::LevelSummary(LevelSummaryStorage* scratch) const {
  int pos = std::snprintf(scratch->buffer, sizeof(scratch->buffer), "files[ ");
  for (int i = 0; i < kNumLevels; i++) {
    int ret = std::snprintf(scratch->buffer + pos,
                            sizeof(scratch->buffer) - pos, "%d ",
                            int(current_->files_[i].size()));
    if (ret < 0 || ret >= static_cast<int>(sizeof(scratch->buffer)) - pos)
      break;
    pos += ret;
  }
  std::snprintf(scratch->buffer + pos, sizeof(scratch->buffer) - pos, "]");
  return scratch->buffer;
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  // Level capacities grow geometrically from the write buffer size:
  // capacity(L_i) = write_buffer_size * T^i.
  double result = static_cast<double>(options_->write_buffer_size);
  for (int i = 0; i < level; i++) {
    result *= std::max(2, options_->size_ratio);
  }
  return static_cast<uint64_t>(result);
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < kNumLevels; level++) {
      const std::vector<FileMetaData*>& files = v->files_[level];
      for (size_t i = 0; i < files.size(); i++) {
        live->insert(files[i]->number);
      }
    }
  }
}

void VersionSet::AddLiveVlogSegments(std::set<uint64_t>* live) {
  for (const auto& entry : vlog_registry_) {
    live->insert(entry.first);
  }
  // A file's [min,max] span may cover numbers that are not vLog segments at
  // all (file numbers are shared across file kinds); the extra entries are
  // harmless since callers only test membership for actual .vlog files.
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileMetaData* f : v->files_[level]) {
        if (!f->has_vlog_pointers()) continue;
        for (uint64_t seg = f->min_vlog_segment; seg <= f->max_vlog_segment;
             seg++) {
          live->insert(seg);
        }
      }
    }
  }
}

// Stores the minimal range that covers all entries in inputs in *smallest,
// *largest. REQUIRES: inputs is not empty
void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest, *smallest) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest, *largest) > 0) {
        *largest = f->largest;
      }
    }
  }
}

// Stores the minimal range that covers all entries in inputs1 and inputs2
// in *smallest, *largest. REQUIRES: inputs is not empty
void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

Iterator* VersionSet::MakeInputIterator(Compaction* c) {
  ReadOptions options;
  options.verify_checksums = options_->paranoid_checks;
  options.fill_cache = false;

  // Level-0/tiering inputs have to be merged file-by-file; sorted level
  // inputs can use a concatenating iterator.
  const bool in0_overlapping = IsOverlappingLevel(options_, c->level());
  const size_t space = (in0_overlapping ? c->num_input_files(0) + 1 : 2);
  Iterator** list = new Iterator*[space];
  size_t num = 0;
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      const int lvl = (which == 0) ? c->level() : c->output_level();
      if (IsOverlappingLevel(options_, lvl)) {
        const std::vector<FileMetaData*>& files = c->inputs_[which];
        for (size_t i = 0; i < files.size(); i++) {
          list[num++] = table_cache_->NewIterator(options, files[i]->number,
                                                  files[i]->file_size);
        }
      } else {
        // Create concatenating iterator for the files from this level
        list[num++] = NewTwoLevelIterator(
            new LevelFileNumIterator(icmp_, &c->inputs_[which]),
            &GetFileIterator, table_cache_, options);
      }
    }
  }
  assert(num <= space);
  Iterator* result = NewMergingIterator(&icmp_, list, static_cast<int>(num));
  delete[] list;
  return result;
}

bool VersionSet::NeedsCompaction(const CompactionPlanner& planner,
                                 SequenceNumber droppable_horizon) const {
  CompactionPick pick = planner.Pick(current_, LastSequence(),
                                     droppable_horizon, compact_pointer_);
  return !pick.inputs.empty();
}

Compaction* VersionSet::PickCompaction(const CompactionPlanner& planner,
                                       SequenceNumber droppable_horizon) {
  CompactionPick pick = planner.Pick(current_, LastSequence(),
                                     droppable_horizon, compact_pointer_);
  if (pick.inputs.empty()) {
    return nullptr;
  }

  Compaction* c = new Compaction(options_, pick.level, pick.output_level,
                                 static_cast<CompactionReason>(pick.reason_tag));
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = pick.inputs;

  // Under leveling, also pull in transitively overlapping files from the
  // input level when it is overlapping (L0), then the next-level overlaps.
  if (options_->compaction_style == CompactionStyle::kLeveling &&
      IsOverlappingLevel(options_, pick.level) &&
      pick.output_level != pick.level) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    current_->GetOverlappingInputs(pick.level, &smallest, &largest,
                                   &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);
  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  if (c->output_level() == level) {
    // In-place rewrite (bottom-level TTL expiry): no second input set.
    return;
  }

  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);

  if (options_->compaction_style == CompactionStyle::kLeveling) {
    current_->GetOverlappingInputs(c->output_level(), &smallest, &largest,
                                   &c->inputs_[1]);
  }
  // Tiering: runs simply stack at the output level; nothing is merged from
  // there, so inputs_[1] stays empty.

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit to be
  // applied so that if the compaction fails, we will try a different key
  // range next time.
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  const int deepest = current_->DeepestNonEmptyLevel();
  const int output_level = (level >= deepest) ? level : level + 1;
  Compaction* c =
      new Compaction(options_, level, output_level, CompactionReason::kManual);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

const char* CompactionReasonName(CompactionReason reason) {
  switch (reason) {
    case CompactionReason::kNone:
      return "none";
    case CompactionReason::kL0FileCount:
      return "l0-count";
    case CompactionReason::kLevelSize:
      return "level-size";
    case CompactionReason::kTierFull:
      return "tier-full";
    case CompactionReason::kTtlExpiry:
      return "ttl-expiry";
    case CompactionReason::kManual:
      return "manual";
    case CompactionReason::kSecondaryPurge:
      return "secondary-purge";
  }
  return "unknown";
}

Compaction::Compaction(const Options* options, int level, int output_level,
                       CompactionReason reason)
    : level_(level),
      output_level_(output_level),
      reason_(reason),
      max_output_file_size_(
          options->compaction_style == CompactionStyle::kTiering
              ? UINT64_MAX  // a sorted run is one file under tiering
              : options->max_file_size),
      input_version_(nullptr) {
  for (int i = 0; i < kNumLevels; i++) {
    level_ptrs_[i] = 0;
  }
}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

uint64_t Compaction::TotalInputBytes() const {
  uint64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : inputs_[which]) {
      total += f->file_size;
    }
  }
  return total;
}

bool Compaction::IsTrivialMove() const {
  // A TTL rewrite exists to drop tombstones: never trivially move it.
  // Otherwise, a single input file with nothing to merge below can simply
  // be relinked into the next level.
  if (reason_ == CompactionReason::kTtlExpiry &&
      output_level_ == level_) {
    return false;
  }
  return num_input_files(0) == 1 && num_input_files(1) == 0 &&
         output_level_ != level_;
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    const int lvl = (which == 0) ? level_ : output_level_;
    for (size_t i = 0; i < inputs_[which].size(); i++) {
      edit->RemoveFile(lvl, inputs_[which][i]->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  const Comparator* user_cmp =
      input_version_->vset_->icmp_.user_comparator();
  const bool tiering = input_version_->vset_->options_->compaction_style ==
                       CompactionStyle::kTiering;

  // Levels strictly below the output never contain input files; scan them
  // with the monotonic-pointer optimization (files are sorted there under
  // leveling). Under tiering every level may overlap arbitrarily, so fall
  // back to a plain range scan, skipping this compaction's own inputs.
  const int start = tiering ? output_level_ : output_level_ + 1;
  for (int lvl = start; lvl < kNumLevels; lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    if (!tiering && lvl > 0) {
      while (level_ptrs_[lvl] < files.size()) {
        FileMetaData* f = files[level_ptrs_[lvl]];
        if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
          // We've advanced far enough
          if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
            // Key falls in this file's range, so definitely not base level
            return false;
          }
          break;
        }
        level_ptrs_[lvl]++;
      }
    } else {
      for (FileMetaData* f : files) {
        bool is_input = false;
        for (int which = 0; which < 2; which++) {
          const int input_lvl = (which == 0) ? level_ : output_level_;
          if (input_lvl != lvl) continue;
          for (FileMetaData* in : inputs_[which]) {
            if (in->number == f->number) {
              is_input = true;
              break;
            }
          }
        }
        if (is_input) continue;
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0 &&
            user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
          return false;
        }
      }
    }
  }
  return true;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace acheron
