#include "src/vlog/vlog_reader.h"

#include <utility>
#include <vector>

#include "src/lsm/filename.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {
namespace vlog {

Status DecodeRecord(const Slice& record, Slice* key, Slice* value) {
  if (record.size() < kRecordCrcSize + 2) {
    return Status::Corruption("vlog record", "too short");
  }
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(record.data()));
  const Slice body(record.data() + kRecordCrcSize,
                   record.size() - kRecordCrcSize);
  if (crc32c::Value(body.data(), body.size()) != expected) {
    return Status::Corruption("vlog record", "checksum mismatch");
  }
  uint32_t klen = 0;
  uint32_t vlen = 0;
  const char* p = body.data();
  const char* limit = body.data() + body.size();
  p = GetVarint32Ptr(p, limit, &klen);
  if (p == nullptr) return Status::Corruption("vlog record", "bad key length");
  p = GetVarint32Ptr(p, limit, &vlen);
  if (p == nullptr) {
    return Status::Corruption("vlog record", "bad value length");
  }
  if (static_cast<uint64_t>(limit - p) !=
      static_cast<uint64_t>(klen) + vlen) {
    return Status::Corruption("vlog record", "length mismatch");
  }
  *key = Slice(p, klen);
  *value = Slice(p + klen, vlen);
  return Status::OK();
}

Status ScanSegment(Env* env, const std::string& fname, uint64_t* valid_bytes,
                   uint64_t* value_count) {
  *valid_bytes = 0;
  *value_count = 0;
  std::string contents;
  // io: open/recovery -- torn-tail scan of one segment during DB::Open
  Status s = env->ReadFileToString(fname, &contents);
  if (!s.ok()) return s;
  uint64_t off = 0;
  while (off < contents.size()) {
    const char* base = contents.data() + off;
    const uint64_t remaining = contents.size() - off;
    if (remaining < kRecordCrcSize + 2) break;
    // Frame the record: lengths live after the CRC; a torn or garbage tail
    // fails either the varint parse, the bounds check, or the CRC.
    uint32_t klen = 0;
    uint32_t vlen = 0;
    const char* p = base + kRecordCrcSize;
    const char* limit = base + remaining;
    p = GetVarint32Ptr(p, limit, &klen);
    if (p == nullptr) break;
    p = GetVarint32Ptr(p, limit, &vlen);
    if (p == nullptr) break;
    const uint64_t body_size =
        static_cast<uint64_t>(p - (base + kRecordCrcSize)) +
        static_cast<uint64_t>(klen) + vlen;
    const uint64_t record_size = kRecordCrcSize + body_size;
    if (record_size > remaining) break;
    const uint32_t expected = crc32c::Unmask(DecodeFixed32(base));
    if (crc32c::Value(base + kRecordCrcSize, body_size) != expected) break;
    off += record_size;
    (*value_count)++;
  }
  *valid_bytes = off;
  return Status::OK();
}

ReaderCache::ReaderCache(Env* env, std::string dbname)
    : env_(env), dbname_(std::move(dbname)) {}

Status ReaderCache::GetFile(uint64_t segment,
                            std::shared_ptr<RandomAccessFile>* file) {
  {
    MutexLock l(&mu_);
    auto it = files_.find(segment);
    if (it != files_.end()) {
      *file = it->second;
      return Status::OK();
    }
  }
  std::unique_ptr<RandomAccessFile> raw;
  // io: unlocked -- segment open on the mutex-free read path
  Status s = env_->NewRandomAccessFile(VlogFileName(dbname_, segment), &raw);
  if (!s.ok()) return s;
  std::shared_ptr<RandomAccessFile> shared(std::move(raw));
  MutexLock l(&mu_);
  auto it = files_.emplace(segment, std::move(shared)).first;
  *file = it->second;  // a racing opener may have won; use the cached handle
  return Status::OK();
}

Status ReaderCache::ReadRecord(const ValuePointer& ptr, Slice* raw,
                               char* scratch) {
  std::shared_ptr<RandomAccessFile> file;
  Status s = GetFile(ptr.segment, &file);
  if (!s.ok()) return s;
  return file->Read(ptr.offset, ptr.size, raw, scratch);
}

Status ReaderCache::Get(const ValuePointer& ptr, const Slice& expected_key,
                        std::string* value) {
  std::vector<char> scratch(ptr.size);
  Slice raw;
  Status s = ReadRecord(ptr, &raw, scratch.data());
  if (s.ok() && raw.size() != ptr.size) {
    // The cached handle can predate the record: PosixEnv maps a file at its
    // open-time length, and the head segment grows after that. Reopen once;
    // a short read through a fresh handle is corruption.
    Evict(ptr.segment);
    s = ReadRecord(ptr, &raw, scratch.data());
  }
  if (!s.ok()) return s;
  if (raw.size() != ptr.size) {
    return Status::Corruption("vlog record", "short read");
  }
  Slice key;
  Slice val;
  s = DecodeRecord(raw, &key, &val);
  if (!s.ok()) return s;
  if (key != expected_key) {
    // Keyed back-check: the record at this address belongs to another key,
    // so the pointer is stale (e.g. segment space reused after a bug).
    return Status::Corruption("vlog record", "key back-check failed");
  }
  value->assign(val.data(), val.size());
  return Status::OK();
}

Status ReaderCache::Resolve(const Slice& encoded, const Slice& user_key,
                            std::string* value) {
  ValuePointer ptr;
  if (!DecodeValuePointerStrict(encoded, &ptr)) {
    return Status::Corruption("bad vLog value pointer");
  }
  Status s = Get(ptr, user_key, value);
  if (s.ok()) reads_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

void ReaderCache::Evict(uint64_t segment) {
  MutexLock l(&mu_);
  files_.erase(segment);
}

}  // namespace vlog
}  // namespace acheron
