#include "src/lsm/table_cache.h"

#include "src/env/env.h"
#include "src/lsm/filename.h"
#include "src/util/coding.h"

namespace acheron {

struct TableAndFile {
  RandomAccessFile* file;
  Table* table;
};

static void DeleteEntry(const Slice&, void* value) {
  TableAndFile* tf = reinterpret_cast<TableAndFile*>(value);
  delete tf->table;
  delete tf->file;
  delete tf;
}

static void UnrefEntry(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

TableCache::TableCache(const std::string& dbname, const Options& options,
                       int entries)
    : env_(options.env),
      dbname_(dbname),
      options_(options),
      cache_(NewLRUCache(entries)) {}

TableCache::~TableCache() { delete cache_; }

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  Status s;
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle == nullptr) {
    std::string fname = TableFileName(dbname_, file_number);
    std::unique_ptr<RandomAccessFile> file;
    Table* table = nullptr;
    s = env_->NewRandomAccessFile(fname, &file);  // io: unlocked
    if (s.ok()) {
      s = Table::Open(options_, file.get(), file_size, &table);
    }

    if (!s.ok()) {
      assert(table == nullptr);
      // We do not cache error results so that if the error is transient,
      // or somebody repairs the file, we recover automatically.
    } else {
      table->SetFilterNegativesSink(&filter_negatives_total_);
      TableAndFile* tf = new TableAndFile;
      tf->file = file.release();
      tf->table = table;
      *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
    }
  }
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  Iterator* result = table->NewIterator(options);
  result->RegisterCleanup(&UnrefEntry, cache_, handle);
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::Get(const ReadOptions& options, uint64_t file_number,
                       uint64_t file_size, const Slice& k,
                       const Slice& user_key, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&),
                       uint64_t* filter_negatives) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (s.ok()) {
    Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
    s = t->InternalGet(options, k, user_key, arg, handle_result,
                       filter_negatives);
    cache_->Release(handle);
  }
  return s;
}

Status TableCache::GetRangeTombstones(uint64_t file_number, uint64_t file_size,
                                      std::vector<RangeTombstone>* out) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) return s;
  Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  const std::vector<RangeTombstone>& raw = t->raw_range_tombstones();
  out->insert(out->end(), raw.begin(), raw.end());
  cache_->Release(handle);
  return s;
}

Status TableCache::PinTable(uint64_t file_number, uint64_t file_size,
                            Table** table, Cache::Handle** handle) {
  *table = nullptr;
  *handle = nullptr;
  Status s = FindTable(file_number, file_size, handle);
  if (s.ok()) {
    *table = reinterpret_cast<TableAndFile*>(cache_->Value(*handle))->table;
  }
  return s;
}

void TableCache::Unpin(Cache::Handle* handle) { cache_->Release(handle); }

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace acheron
