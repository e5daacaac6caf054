#include "src/table/table.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "src/core/key_windows.h"
#include "src/env/env.h"
#include "src/lsm/dbformat.h"
#include "src/table/block.h"
#include "src/table/cache.h"
#include "src/table/format.h"
#include "src/table/two_level_iterator.h"
#include "src/util/bloom.h"
#include "src/util/coding.h"
#include "src/util/comparator.h"

namespace acheron {

static void DeleteCachedBlock(const Slice&, void* value);
static void DeleteCachedFilter(const Slice&, void* value);

// Block-cache key of the block at |offset| in the table with |cache_id|.
// Data, index and filter blocks share the scheme; their offsets differ.
static Slice BlockCacheKey(uint64_t cache_id, uint64_t offset,
                           char (&buf)[16]) {
  EncodeFixed64(buf, cache_id);
  EncodeFixed64(buf + 8, offset);
  return Slice(buf, sizeof(buf));
}

static const Comparator* TableComparator(const Options& options) {
  return options.comparator != nullptr ? options.comparator
                                       : BytewiseComparator();
}

struct Table::Rep {
  ~Rep() {
    // Metadata pinned in the block cache is released (the cache's deleter
    // frees it once it falls out of the LRU); un-cached metadata is owned
    // directly.
    if (index_cache_handle != nullptr) {
      options.block_cache->Release(index_cache_handle);
    } else {
      delete index_block;
    }
    if (filter_cache_handle != nullptr) {
      options.block_cache->Release(filter_cache_handle);
    } else {
      delete[] filter_data;
    }
    delete owned_filter_policy;
  }

  Options options;
  Status status;
  RandomAccessFile* file;
  uint64_t cache_id;
  // Normally aliases the DB-wide Options::filter_policy; standalone opens
  // (no policy in Options) fall back to a per-table owned policy so the
  // old behaviour is preserved for direct Table users.
  const FilterPolicy* filter_policy;        // may alias owned_filter_policy
  const FilterPolicy* owned_filter_policy;  // owned; null when shared
  const char* filter_data;  // filter block bytes; owned unless pinned/mapped
  Slice filter;             // view into the filter block contents
  TableProperties properties;
  Block* index_block;  // owned unless pinned in the block cache
  // Pinned cache handles for the index block and filter (null without a
  // block cache): the metadata every lookup touches stays resident for the
  // table's lifetime, and the cache's memory accounting covers it.
  Cache::Handle* index_cache_handle;
  Cache::Handle* filter_cache_handle;
  // Optional aggregate counter (TableCache's running total across all its
  // tables), bumped alongside the per-table filter_negatives.
  std::atomic<uint64_t>* filter_negatives_sink;
  std::atomic<uint64_t> filter_negatives{0};
  // Range tombstones decoded from the file's dedicated block at Open.
  std::vector<RangeTombstone> raw_range_dels;
  // Whether the comparator orders keys bytewise (see BlockSearch): over
  // whole keys when |key_trailer| is 0, or over the user-key part of
  // internal keys, then by tag, when it is 8. Under any other comparator
  // every search goes through the comparator.
  bool bytewise = false;
  size_t key_trailer = 0;
  // The index keys' windows (see KeyWindows), or empty when the keys are
  // not ordered bytewise or the index block is not one entry per restart
  // point. Over the key part before |key_trailer|.
  KeyWindows index_windows;
  // Whether |file| serves reads from its own memory (see
  // RandomAccessFile::Read): data blocks are then read in place and never
  // enter the block cache.
  bool in_place = false;
  // For an in-place table, the data blocks' offsets in index order, and one
  // bit per block, by the same ordinal, set once its trailer has checked
  // out. The bits are set with relaxed ordering: the bytes they vouch for
  // are immutable, so a reader that sees a bit set needs nothing else the
  // checker wrote.
  std::vector<uint64_t> block_offsets;
  std::vector<std::atomic<uint64_t>> checked;

  // Set bytewise and key_trailer from the comparator.
  void ClassifyComparator();
  // Index the index block's keys; see index_windows.
  void BuildIndexWindows();
  // Fill block_offsets and size checked from the index block. A walk that
  // meets a bad handle stops there: the blocks past it have no bit and are
  // checked on every use.
  void IndexDataBlocks();
  // The handle of the first index entry at or past |key|, and its ordinal.
  // False when no entry is.
  bool SeekIndex(const Slice& key, Slice* handle, size_t* ordinal) const;
  // The ordinal of the data block at |offset|, or kUnknownOrdinal.
  size_t BlockOrdinal(uint64_t offset) const;
  // Whether block |ordinal|'s trailer has checked out; false for
  // kUnknownOrdinal.
  bool Checked(size_t ordinal) const;
  void SetChecked(size_t ordinal);
};

void Table::Rep::ClassifyComparator() {
  const Comparator* cmp = TableComparator(options);
  const auto* icmp = dynamic_cast<const InternalKeyComparator*>(cmp);
  if (icmp != nullptr && OrdersBytewise(icmp->user_comparator())) {
    bytewise = true;
    key_trailer = 8;
  } else {
    bytewise = OrdersBytewise(cmp);
  }
}

void Table::Rep::BuildIndexWindows() {
  if (!bytewise) return;
  const uint32_t n = index_block->NumRestarts();
  Slice key, handle;
  for (uint32_t i = 0; i < n; i++) {
    if (!index_block->RestartEntry(i, &key, &handle) ||
        key.size() < key_trailer) {
      return;
    }
  }
  index_windows.Build(n, [this, &key, &handle](size_t i) {
    index_block->RestartEntry(static_cast<uint32_t>(i), &key, &handle);
    return Slice(key.data(), key.size() - key_trailer);
  });
}

void Table::Rep::IndexDataBlocks() {
  std::unique_ptr<Iterator> iter(
      index_block->NewIterator(TableComparator(options)));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    BlockHandle handle;
    Slice input = iter->value();
    if (!handle.DecodeFrom(&input).ok() ||
        (!block_offsets.empty() && handle.offset() <= block_offsets.back())) {
      break;
    }
    block_offsets.push_back(handle.offset());
  }
  std::vector<std::atomic<uint64_t>>((block_offsets.size() + 63) / 64)
      .swap(checked);
}

size_t Table::Rep::BlockOrdinal(uint64_t offset) const {
  auto it = std::lower_bound(block_offsets.begin(), block_offsets.end(),
                             offset);
  if (it == block_offsets.end() || *it != offset) return kUnknownOrdinal;
  return static_cast<size_t>(it - block_offsets.begin());
}

bool Table::Rep::Checked(size_t ordinal) const {
  if (ordinal >= block_offsets.size()) return false;
  return (checked[ordinal / 64].load(std::memory_order_relaxed) >>
          (ordinal % 64)) &
         1;
}

void Table::Rep::SetChecked(size_t ordinal) {
  if (ordinal >= block_offsets.size()) return;
  checked[ordinal / 64].fetch_or(uint64_t{1} << (ordinal % 64),
                                 std::memory_order_relaxed);
}

bool Table::Rep::SeekIndex(const Slice& target, Slice* handle,
                           size_t* ordinal) const {
  const Comparator* cmp = TableComparator(options);
  size_t lo, hi;
  index_windows.Ties(index_windows.Window(Slice(
                         target.data(), target.size() - key_trailer)),
                     &lo, &hi);
  // Among the ties, the comparator orders the keys (and an internal key's
  // sequence).
  Slice key;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    index_block->RestartEntry(static_cast<uint32_t>(mid), &key, handle);
    if (cmp->Compare(key, target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *ordinal = lo;
  return lo < index_windows.size() &&
         index_block->RestartEntry(static_cast<uint32_t>(lo), &key, handle);
}

Status Table::Open(const Options& options, RandomAccessFile* file,
                   uint64_t size, Table** table) {
  *table = nullptr;
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength,
                        &footer_input, footer_space);
  if (!s.ok()) return s;
  if (footer_input.size() < Footer::kEncodedLength) {
    return Status::Corruption("truncated sstable footer");
  }

  // A file that answered from its own memory answers every read so.
  const bool in_place = footer_input.data() != footer_space;

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Read the index block.
  BlockContents index_block_contents;
  s = ReadBlock(file, footer.index_handle(), in_place, /*verify=*/true,
                &index_block_contents);
  if (!s.ok()) return s;

  Rep* rep = new Table::Rep;
  rep->options = options;
  rep->file = file;
  rep->in_place = in_place;
  rep->index_block = new Block(index_block_contents);
  rep->cache_id =
      (options.block_cache ? options.block_cache->NewId() : 0);
  rep->owned_filter_policy = nullptr;
  if (options.filter_policy != nullptr) {
    rep->filter_policy = options.filter_policy;
  } else if (options.filter_bits_per_key > 0) {
    rep->owned_filter_policy =
        NewBloomFilterPolicy(options.filter_bits_per_key);
    rep->filter_policy = rep->owned_filter_policy;
  } else {
    rep->filter_policy = nullptr;
  }
  rep->ClassifyComparator();
  rep->BuildIndexWindows();
  if (in_place) rep->IndexDataBlocks();
  rep->filter_data = nullptr;
  rep->index_cache_handle = nullptr;
  rep->filter_cache_handle = nullptr;
  rep->filter_negatives_sink = nullptr;

  // Read the filter block.
  if (rep->filter_policy != nullptr && footer.filter_handle().size() > 0) {
    BlockContents filter_contents;
    if (ReadBlock(file, footer.filter_handle(), in_place, /*verify=*/true,
                  &filter_contents)
            .ok()) {
      if (filter_contents.heap_allocated) {
        rep->filter_data = filter_contents.data.data();
      }
      rep->filter = filter_contents.data;
    }
  }

  // Pin the index block (and the filter, when it was heap-allocated rather
  // than a view into the file, e.g. an mmap) in the block cache with a held
  // handle. Both are consulted on every lookup and live exactly as long as
  // the table either way; inserting them makes the cache's charge account
  // for their footprint instead of hiding it, without any per-read cache
  // lookups.
  if (options.block_cache != nullptr) {
    char key_buffer[16];
    rep->index_cache_handle = options.block_cache->Insert(
        BlockCacheKey(rep->cache_id, footer.index_handle().offset(),
                      key_buffer),
        rep->index_block, rep->index_block->size(), &DeleteCachedBlock);
    if (rep->filter_data != nullptr) {
      rep->filter_cache_handle = options.block_cache->Insert(
          BlockCacheKey(rep->cache_id, footer.filter_handle().offset(),
                        key_buffer),
          const_cast<char*>(rep->filter_data), rep->filter.size(),
          &DeleteCachedFilter);
    }
  }

  // Read the properties block.
  {
    BlockContents props_contents;
    Status ps = ReadBlock(file, footer.properties_handle(), in_place,
                          /*verify=*/true, &props_contents);
    if (ps.ok()) {
      ps = rep->properties.DecodeFrom(props_contents.data);
      if (props_contents.heap_allocated) {
        delete[] props_contents.data.data();
      }
    }
    if (!ps.ok() && options.paranoid_checks) {
      delete rep;
      return ps;
    }
  }

  // Read the range-tombstone block, if the properties advertise one. A bad
  // block fails the open even without paranoid checks: a silently dropped
  // range tombstone resurrects every key it covered.
  if (rep->properties.range_del_block_size > 0) {
    BlockHandle rd_handle;
    rd_handle.set_offset(rep->properties.range_del_block_offset);
    rd_handle.set_size(rep->properties.range_del_block_size);
    BlockContents rd_contents;
    Status rs =
        ReadBlock(file, rd_handle, in_place, /*verify=*/true, &rd_contents);
    if (rs.ok()) {
      rs = DecodeRangeTombstones(rd_contents.data, &rep->raw_range_dels);
      if (rd_contents.heap_allocated) {
        delete[] rd_contents.data.data();
      }
    }
    if (!rs.ok()) {
      delete rep;
      return rs;
    }
  }

  *table = new Table(rep);
  return Status::OK();
}

Table::~Table() { delete rep_; }

static void DeleteBlock(void* arg, void*) {
  delete reinterpret_cast<Block*>(arg);
}

static void DeleteCachedBlock(const Slice&, void* value) {
  Block* block = reinterpret_cast<Block*>(value);
  delete block;
}

static void DeleteCachedFilter(const Slice&, void* value) {
  delete[] reinterpret_cast<char*>(value);
}

static void ReleaseBlock(void* arg, void* h) {
  Cache* cache = reinterpret_cast<Cache*>(arg);
  Cache::Handle* handle = reinterpret_cast<Cache::Handle*>(h);
  cache->Release(handle);
}

Status Table::FetchBlock(const ReadOptions& options, const Slice& index_value,
                         size_t ordinal, BlockContents* contents, Block** block,
                         Cache::Handle** cache_handle) const {
  *block = nullptr;
  *cache_handle = nullptr;
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  // We intentionally allow extra stuff in index_value so that we can add
  // more features in the future.
  if (!s.ok()) return s;

  if (rep_->in_place) {
    if (ordinal == kUnknownOrdinal) {
      ordinal = rep_->BlockOrdinal(handle.offset());
    }
    assert(ordinal >= rep_->block_offsets.size() ||
           rep_->block_offsets[ordinal] == handle.offset());
    const bool verify = options.verify_checksums || !rep_->Checked(ordinal);
    s = ReadBlock(rep_->file, handle, /*in_place=*/true, verify, contents);
    if (s.ok() && verify) rep_->SetChecked(ordinal);
    return s;
  }

  Cache* block_cache =
      options.verify_checksums ? nullptr : rep_->options.block_cache;
  char cache_key_buffer[16];
  Slice key;
  if (block_cache != nullptr) {
    key = BlockCacheKey(rep_->cache_id, handle.offset(), cache_key_buffer);
    *cache_handle = block_cache->Lookup(key);
    if (*cache_handle != nullptr) {
      *block = reinterpret_cast<Block*>(block_cache->Value(*cache_handle));
      return s;
    }
  }
  s = ReadBlock(rep_->file, handle, /*in_place=*/false, /*verify=*/true,
                contents);
  if (!s.ok()) return s;
  *block = new Block(*contents);
  if (block_cache != nullptr && options.fill_cache) {
    *cache_handle = block_cache->Insert(key, *block, (*block)->size(),
                                        &DeleteCachedBlock);
  }
  return s;
}

Iterator* Table::BlockReader(void* arg, const ReadOptions& options,
                             const Slice& index_value) {
  const Table* table = reinterpret_cast<Table*>(arg);
  const Comparator* cmp = TableComparator(table->rep_->options);
  BlockContents contents;
  Block* block;
  Cache::Handle* cache_handle;
  Status s = table->FetchBlock(options, index_value, kUnknownOrdinal,
                               &contents, &block, &cache_handle);
  if (!s.ok()) return NewErrorIterator(s);
  if (block == nullptr) {
    // Read in place: the mapping outlives the iterator, and a block's
    // iterator needs only its bytes.
    return Block(contents).NewIterator(cmp);
  }
  Iterator* iter = block->NewIterator(cmp);
  if (cache_handle == nullptr) {
    iter->RegisterCleanup(&DeleteBlock, block, nullptr);
  } else {
    iter->RegisterCleanup(&ReleaseBlock, table->rep_->options.block_cache,
                          cache_handle);
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  return NewTwoLevelIterator(
      rep_->index_block->NewIterator(TableComparator(rep_->options)),
      &Table::BlockReader, const_cast<Table*>(this), options);
}

Status Table::InternalGet(const ReadOptions& options, const Slice& k,
                          const Slice& filter_key, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&),
                          uint64_t* filter_negatives_out) {
  // Consult the full-file Bloom filter first.
  if (rep_->filter_policy != nullptr && !rep_->filter.empty() &&
      !rep_->filter_policy->KeyMayMatch(filter_key, rep_->filter)) {
    rep_->filter_negatives.fetch_add(1, std::memory_order_relaxed);
    if (filter_negatives_out != nullptr) {
      // Batched accounting: the caller flushes its local count to the
      // shared sink once per operation.
      (*filter_negatives_out)++;
    } else if (rep_->filter_negatives_sink != nullptr) {
      rep_->filter_negatives_sink->fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  }

  // The data block that may hold |k|: by the index keys' windows, or
  // else by the index block's own search.
  Status s;
  Iterator* iiter = nullptr;
  Slice handle;
  size_t ordinal = kUnknownOrdinal;
  bool found;
  if (!rep_->index_windows.empty() && k.size() >= rep_->key_trailer) {
    found = rep_->SeekIndex(k, &handle, &ordinal);
  } else {
    iiter = rep_->index_block->NewIterator(TableComparator(rep_->options));
    iiter->Seek(k);
    found = iiter->Valid();
    if (found) handle = iiter->value();
  }
  BlockContents contents;
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  if (found) {
    s = FetchBlock(options, handle, ordinal, &contents, &block,
                   &cache_handle);
  }
  if (found && s.ok()) {
    // A block read in place is parsed on the stack.
    std::optional<Block> in_place;
    const Block& b = block != nullptr ? *block : in_place.emplace(contents);
    // In the block: a search on the stack when the keys compare bytewise,
    // else the block iterator's comparator-driven Seek.
    if (rep_->bytewise && k.size() >= rep_->key_trailer) {
      BlockSearch search;
      if (search.Seek(b, k, rep_->key_trailer)) {
        (*handle_result)(arg, search.key(), search.value());
      }
      s = search.status();
    } else {
      std::unique_ptr<Iterator> block_iter(
          b.NewIterator(TableComparator(rep_->options)));
      block_iter->Seek(k);
      if (block_iter->Valid()) {
        (*handle_result)(arg, block_iter->key(), block_iter->value());
      }
      s = block_iter->status();
    }
    if (cache_handle != nullptr) {
      rep_->options.block_cache->Release(cache_handle);
    } else {
      delete block;
    }
  }
  if (iiter != nullptr) {
    if (s.ok()) s = iiter->status();
    delete iiter;
  }
  return s;
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  Iterator* index_iter =
      rep_->index_block->NewIterator(TableComparator(rep_->options));
  index_iter->Seek(key);
  uint64_t result;
  if (index_iter->Valid()) {
    BlockHandle handle;
    Slice input = index_iter->value();
    Status s = handle.DecodeFrom(&input);
    if (s.ok()) {
      result = handle.offset();
    } else {
      // Strange: we can't decode the block handle in the index block.
      // We'll just return the offset of the properties block, which is
      // close to the whole file size for this case.
      result = 0;
    }
  } else {
    // key is past the last key in the file. Approximate the offset by
    // returning the offset of the properties block (which is right near the
    // end of the file).
    result = 0;
  }
  if (result == 0) {
    // Fallback: unknown; report "near end of data".
    result = rep_->properties.raw_key_bytes + rep_->properties.raw_value_bytes;
  }
  delete index_iter;
  return result;
}

const TableProperties& Table::properties() const { return rep_->properties; }

const std::vector<RangeTombstone>& Table::raw_range_tombstones() const {
  return rep_->raw_range_dels;
}

uint64_t Table::filter_negatives() const {
  return rep_->filter_negatives.load(std::memory_order_relaxed);
}

void Table::SetFilterNegativesSink(std::atomic<uint64_t>* sink) {
  rep_->filter_negatives_sink = sink;
}

}  // namespace acheron
