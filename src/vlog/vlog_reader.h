// Dereferences ValuePointers against vLog segment files.
//
// ReaderCache keeps one RandomAccessFile per segment behind its own mutex,
// so the lock-free read paths (DBImpl::Get / MultiGet / DBIter) never touch
// the DB mutex to resolve a pointer. Every read CRC-validates the record and
// back-checks the stored user key against the expected one, so a stale or
// corrupt pointer surfaces as Corruption instead of a wrong value.
#ifndef ACHERON_VLOG_VLOG_READER_H_
#define ACHERON_VLOG_VLOG_READER_H_

#include <map>
#include <memory>
#include <string>

#include "src/env/env.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/vlog/vlog_format.h"

namespace acheron {
namespace vlog {

// Split one raw record (as addressed by a ValuePointer) into key/value,
// verifying the record CRC and framing.
[[nodiscard]] Status DecodeRecord(const Slice& record, Slice* key,
                                  Slice* value);

// Sequentially scan segment file |fname| and report the length of its valid
// record prefix plus the record count within it -- recovery's torn-tail
// truncation. Unreadable or missing files return the error; a clean file
// with a torn suffix still returns OK (the suffix is simply excluded).
[[nodiscard]] Status ScanSegment(Env* env, const std::string& fname,
                                 uint64_t* valid_bytes, uint64_t* value_count);

// One pointer dereference of a batched lookup (see ReaderCache::MultiGet).
struct ReadItem {
  ValuePointer ptr;
  Slice expected_key;            // keyed back-check input
  std::string* value = nullptr;  // output, set on OK
  Status status;
};

class ReaderCache {
 public:
  ReaderCache(Env* env, std::string dbname);

  ReaderCache(const ReaderCache&) = delete;
  ReaderCache& operator=(const ReaderCache&) = delete;

  // Read, CRC-validate, and key-back-check the record |ptr| names; on OK
  // |*value| holds the user value. A short read reopens the segment once:
  // the cached handle may predate appends to the head segment.
  [[nodiscard]] Status Get(const ValuePointer& ptr, const Slice& expected_key,
                           std::string* value);

  // Batched Get: fans all reads out as one Env::SubmitReads submission so
  // pointer resolution pipelines with the caller's other IO (MultiGet).
  // Validation runs on the completion threads; each item's status/value are
  // final when this returns.
  void MultiGet(ReadItem* items, size_t count);

  // Drop the cached handle for |segment| (called after GC unlinks it).
  void Evict(uint64_t segment);

 private:
  [[nodiscard]] Status GetFile(uint64_t segment,
                               std::shared_ptr<RandomAccessFile>* file);
  // One read of |ptr|'s record bytes through the cached segment handle.
  [[nodiscard]] Status ReadRecord(const ValuePointer& ptr, Slice* raw,
                                  char* scratch);

  Env* const env_;
  const std::string dbname_;
  // Innermost leaf lock: held only across the map lookup/insert, never
  // while doing IO or acquiring any other lock.
  Mutex mu_;
  std::map<uint64_t, std::shared_ptr<RandomAccessFile>> files_ GUARDED_BY(mu_);
};

}  // namespace vlog
}  // namespace acheron

#endif  // ACHERON_VLOG_VLOG_READER_H_
