#include "src/table/table.h"

#include <atomic>

#include "src/env/env.h"
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
};

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
  // lookups. Keys reuse the BlockReader scheme (cache_id, block offset) —
  // data blocks live at other offsets, so there is no collision.
  if (options.block_cache != nullptr) {
    char key_buffer[16];
    EncodeFixed64(key_buffer, rep->cache_id);
    EncodeFixed64(key_buffer + 8, footer.index_handle().offset());
    rep->index_cache_handle = options.block_cache->Insert(
        Slice(key_buffer, sizeof(key_buffer)), rep->index_block,
        rep->index_block->size(), &DeleteCachedBlock);
    if (rep->filter_data != nullptr) {
      EncodeFixed64(key_buffer + 8, footer.filter_handle().offset());
      rep->filter_cache_handle = options.block_cache->Insert(
          Slice(key_buffer, sizeof(key_buffer)),
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

// Convert an index iterator value (an encoded BlockHandle) into an iterator
// over the contents of the corresponding block.
Iterator* Table::BlockReader(void* arg, const ReadOptions& options,
                             const Slice& index_value) {
  Table* table = reinterpret_cast<Table*>(arg);
  Cache* block_cache = table->rep_->options.block_cache;
  Block* block = nullptr;
  Cache::Handle* cache_handle = nullptr;

  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  // We intentionally allow extra stuff in index_value so that we can add
  // more features in the future.

  if (s.ok()) {
    BlockContents contents;
    if (block_cache != nullptr) {
      char cache_key_buffer[16];
      EncodeFixed64(cache_key_buffer, table->rep_->cache_id);
      EncodeFixed64(cache_key_buffer + 8, handle.offset());
      Slice key(cache_key_buffer, sizeof(cache_key_buffer));
      cache_handle = block_cache->Lookup(key);
      if (cache_handle != nullptr) {
        block = reinterpret_cast<Block*>(block_cache->Value(cache_handle));
      } else {
        s = ReadBlock(table->rep_->file, handle, &contents);
        if (s.ok()) {
          block = new Block(contents);
          // Cache the parsed Block even when its bytes are a view into an
          // mmap'd file (contents.cachable false): what the cache saves is
          // the per-read CRC + restart-array parse, not the bytes. A cached
          // view Block is unreachable once its Table dies -- cache ids are
          // never reused and live iterators pin the Table -- and its
          // deleter frees only the Block object, never unowned data.
          if (options.fill_cache) {
            cache_handle = block_cache->Insert(key, block, block->size(),
                                               &DeleteCachedBlock);
          }
        }
      }
    } else {
      s = ReadBlock(table->rep_->file, handle, &contents);
      if (s.ok()) {
        block = new Block(contents);
      }
    }
  }

  Iterator* iter;
  if (block != nullptr) {
    const Comparator* cmp = table->rep_->options.comparator
                                ? table->rep_->options.comparator
                                : BytewiseComparator();
    iter = block->NewIterator(cmp);
    if (cache_handle == nullptr) {
      iter->RegisterCleanup(&DeleteBlock, block, nullptr);
    } else {
      iter->RegisterCleanup(&ReleaseBlock, block_cache, cache_handle);
    }
  } else {
    iter = NewErrorIterator(s);
  }
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  const Comparator* cmp = rep_->options.comparator ? rep_->options.comparator
                                                   : BytewiseComparator();
  return NewTwoLevelIterator(rep_->index_block->NewIterator(cmp),
                             &Table::BlockReader, const_cast<Table*>(this),
                             options);
}

Status Table::InternalGet(const ReadOptions& options, const Slice& k,
                          const Slice& filter_key, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&),
                          uint64_t* filter_negatives_out) {
  TableReadRequest req;
  const TablePrepare prep =
      PrepareGet(options, k, filter_key, &req, filter_negatives_out);
  if (prep == TablePrepare::kFilteredOut || prep == TablePrepare::kNoBlock) {
    return req.status;
  }
  if (prep == TablePrepare::kNeedsRead) {
    // Synchronous completion: run the read and the parse hook inline.
    req.io.status = req.io.file->Read(req.io.offset, req.io.n, &req.io.result,
                                      req.io.scratch);
    ParseBlockOnComplete(&req.io);
  }
  return ReadInBlock(&req, k, arg, handle_result);
}

TablePrepare Table::PrepareGet(const ReadOptions& options, const Slice& k,
                               const Slice& filter_key, TableReadRequest* req,
                               uint64_t* filter_negatives_out) {
  req->table = this;
  req->options = options;
  req->buf = nullptr;
  req->block = nullptr;
  req->cache_handle = nullptr;
  req->status = Status::OK();

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
    return TablePrepare::kFilteredOut;
  }

  const Comparator* cmp = rep_->options.comparator ? rep_->options.comparator
                                                   : BytewiseComparator();
  Iterator* iiter = rep_->index_block->NewIterator(cmp);
  iiter->Seek(k);
  if (!iiter->Valid()) {
    // Past the last block, or an index error (kReady completes with it).
    req->status = iiter->status();
    delete iiter;
    return req->status.ok() ? TablePrepare::kNoBlock : TablePrepare::kReady;
  }
  Slice input = iiter->value();
  Status s = req->handle.DecodeFrom(&input);
  // Extra data after the handle in index values stays allowed, as in
  // BlockReader.
  delete iiter;
  if (!s.ok()) {
    req->status = s;
    return TablePrepare::kReady;
  }

  Cache* block_cache = rep_->options.block_cache;
  if (block_cache != nullptr) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, rep_->cache_id);
    EncodeFixed64(cache_key_buffer + 8, req->handle.offset());
    Cache::Handle* h =
        block_cache->Lookup(Slice(cache_key_buffer, sizeof(cache_key_buffer)));
    if (h != nullptr) {
      req->block = reinterpret_cast<Block*>(block_cache->Value(h));
      req->cache_handle = h;
      return TablePrepare::kReady;
    }
  }

  // Needs IO: one read covering block + trailer. The completion hook
  // CRC-checks and parses it on whichever thread completes the read, so a
  // batch of lookups overlaps its parses too.
  const size_t n = static_cast<size_t>(req->handle.size());
  req->buf = new char[n + kBlockTrailerSize];
  req->io.file = rep_->file;
  req->io.offset = req->handle.offset();
  req->io.n = n + kBlockTrailerSize;
  req->io.scratch = req->buf;
  req->io.on_complete = &Table::ParseBlockOnComplete;
  req->io.arg = req;
  return TablePrepare::kNeedsRead;
}

void Table::ParseBlockOnComplete(ReadRequest* io) {
  auto* req = static_cast<TableReadRequest*>(io->arg);
  char* buf = req->buf;
  req->buf = nullptr;
  if (!io->status.ok()) {
    delete[] buf;
    req->status = io->status;
    return;
  }
  BlockContents contents;
  Status s = FinishBlockRead(req->handle.size(), io->result, buf, &contents);
  if (!s.ok()) {
    req->status = s;
    return;
  }
  req->block = new Block(contents);
  // Cache the parsed Block under the BlockReader key scheme (view-backed
  // bytes included -- see the rationale there), so later lookups of this
  // block resolve as kReady without IO.
  Cache* block_cache = req->table->rep_->options.block_cache;
  if (block_cache != nullptr && req->options.fill_cache) {
    char cache_key_buffer[16];
    EncodeFixed64(cache_key_buffer, req->table->rep_->cache_id);
    EncodeFixed64(cache_key_buffer + 8, req->handle.offset());
    req->cache_handle = block_cache->Insert(
        Slice(cache_key_buffer, sizeof(cache_key_buffer)), req->block,
        req->block->size(), &DeleteCachedBlock);
  }
}

Status Table::ReadInBlock(TableReadRequest* req, const Slice& k, void* arg,
                          void (*handle_result)(void*, const Slice&,
                                                const Slice&)) {
  if (req->block == nullptr) {
    // Read/parse failure (status set), or kNoBlock (status OK, no entry).
    return req->status;
  }
  const Comparator* cmp = rep_->options.comparator ? rep_->options.comparator
                                                   : BytewiseComparator();
  Iterator* block_iter = req->block->NewIterator(cmp);
  block_iter->Seek(k);
  if (block_iter->Valid()) {
    (*handle_result)(arg, block_iter->key(), block_iter->value());
  }
  Status s = block_iter->status();
  delete block_iter;
  if (req->cache_handle != nullptr) {
    rep_->options.block_cache->Release(req->cache_handle);
    req->cache_handle = nullptr;
  } else {
    delete req->block;
  }
  req->block = nullptr;
  return s;
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  const Comparator* cmp = rep_->options.comparator ? rep_->options.comparator
                                                   : BytewiseComparator();
  Iterator* index_iter = rep_->index_block->NewIterator(cmp);
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
