// Dereferences ValuePointers against vLog segment files.
//
// ReaderCache keeps one RandomAccessFile per segment behind its own mutex,
// so the lock-free read paths never touch the DB mutex to resolve a
// pointer. Every read CRC-validates the record and back-checks the stored
// user key against the expected one, so a stale or corrupt pointer surfaces
// as Corruption instead of a wrong value. Resolve is the one dereference of
// an encoded pointer that Get, MultiGet and DB iterators share; each
// pointer is one synchronous read.
#ifndef ACHERON_VLOG_VLOG_READER_H_
#define ACHERON_VLOG_VLOG_READER_H_

#include <atomic>
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

  // Strictly decode |encoded| (a kTypeValuePointer entry's payload) and Get
  // the value it names for |user_key|. Successful reads are counted in
  // reads().
  [[nodiscard]] Status Resolve(const Slice& encoded, const Slice& user_key,
                               std::string* value);

  // Pointers Resolve has dereferenced successfully.
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }

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
  std::atomic<uint64_t> reads_{0};
};

}  // namespace vlog
}  // namespace acheron

#endif  // ACHERON_VLOG_VLOG_READER_H_
