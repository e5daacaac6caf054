#include "src/table/table.h"

#include <atomic>
#include <memory>

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

  // Set bytewise and key_trailer from the comparator.
  void ClassifyComparator();
  // Index the index block's keys; see index_windows.
  void BuildIndexWindows();
  // The handle of the first index entry at or past |key|. False when no
  // entry is.
  bool SeekIndex(const Slice& key, Slice* handle) const;
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

bool Table::Rep::SeekIndex(const Slice& target, Slice* handle) const {
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

  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) return s;

  // Read the index block.
  BlockContents index_block_contents;
  s = ReadBlock(file, footer.index_handle(), &index_block_contents);
  if (!s.ok()) return s;

  Rep* rep = new Table::Rep;
  rep->options = options;
  rep->file = file;
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
  rep->filter_data = nullptr;
  rep->index_cache_handle = nullptr;
  rep->filter_cache_handle = nullptr;
  rep->filter_negatives_sink = nullptr;

  // Read the filter block.
  if (rep->filter_policy != nullptr && footer.filter_handle().size() > 0) {
    BlockContents filter_contents;
    if (ReadBlock(file, footer.filter_handle(), &filter_contents).ok()) {
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
    Status ps = ReadBlock(file, footer.properties_handle(), &props_contents);
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
    Status rs = ReadBlock(file, rd_handle, &rd_contents);
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
                         Block** block, Cache::Handle** cache_handle) const {
  *block = nullptr;
  *cache_handle = nullptr;
  Cache* block_cache = rep_->options.block_cache;
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  // We intentionally allow extra stuff in index_value so that we can add
  // more features in the future.
  if (!s.ok()) return s;

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
  BlockContents contents;
  s = ReadBlock(rep_->file, handle, &contents);
  if (!s.ok()) return s;
  *block = new Block(contents);
  // Cache the parsed Block even when its bytes are a view into an mmap'd
  // file (contents.cachable false): what the cache saves is the per-read
  // CRC + restart-array parse, not the bytes. A cached view Block is
  // unreachable once its Table dies -- cache ids are never reused and live
  // iterators pin the Table -- and its deleter frees only the Block object,
  // never unowned data.
  if (block_cache != nullptr && options.fill_cache) {
    *cache_handle = block_cache->Insert(key, *block, (*block)->size(),
                                        &DeleteCachedBlock);
  }
  return s;
}

Iterator* Table::BlockReader(void* arg, const ReadOptions& options,
                             const Slice& index_value) {
  const Table* table = reinterpret_cast<Table*>(arg);
  Block* block;
  Cache::Handle* cache_handle;
  Status s = table->FetchBlock(options, index_value, &block, &cache_handle);
  if (!s.ok()) return NewErrorIterator(s);
  Iterator* iter = block->NewIterator(TableComparator(table->rep_->options));
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
  bool found;
  if (!rep_->index_windows.empty() && k.size() >= rep_->key_trailer) {
    found = rep_->SeekIndex(k, &handle);
  } else {
    iiter = rep_->index_block->NewIterator(TableComparator(rep_->options));
    iiter->Seek(k);
    found = iiter->Valid();
    if (found) handle = iiter->value();
  }
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;
  if (found) s = FetchBlock(options, handle, &block, &cache_handle);
  if (block != nullptr) {
    // In the block: a search on the stack when the keys compare bytewise,
    // else the block iterator's comparator-driven Seek.
    if (rep_->bytewise && k.size() >= rep_->key_trailer) {
      BlockSearch search;
      if (search.Seek(*block, k, rep_->key_trailer)) {
        (*handle_result)(arg, search.key(), search.value());
      }
      s = search.status();
    } else {
      std::unique_ptr<Iterator> block_iter(
          block->NewIterator(TableComparator(rep_->options)));
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
