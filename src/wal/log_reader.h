// Reads records written by wal::Writer, detecting and skipping corruption.
#ifndef ACHERON_WAL_LOG_READER_H_
#define ACHERON_WAL_LOG_READER_H_

#include <cstdint>
#include <string>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace acheron {
namespace wal {

class Reader {
 public:
  // Interface for reporting errors found while parsing the log.
  class Reporter {
   public:
    virtual ~Reporter() = default;
    // |bytes| is the approximate number of bytes dropped due to corruption.
    virtual void Corruption(size_t bytes, const Status& status) = 0;
  };

  // The Reader extracts records from |*file| (which must stay live).
  // If |checksum| is true, verify record checksums. |*reporter| may be null.
  Reader(SequentialFile* file, Reporter* reporter, bool checksum);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  ~Reader();

  // Read the next record into *record. Returns true if read successfully,
  // false on EOF. *record may point into *scratch.
  bool ReadRecord(Slice* record, std::string* scratch);

 private:
  // Extended record types for internal error signalling.
  enum {
    kEof = kMaxRecordType + 1,
    kBadRecord = kMaxRecordType + 2,
  };

  // Return type, or one of the preceding special values.
  unsigned int ReadPhysicalRecord(Slice* result);

  // Called on a record that does not parse. Drops the rest of the current
  // block and returns true when bytes follow the record's first
  // |record_end| bytes and all of them, to the end of the file, are zero:
  // the record is then the last, torn append into a preallocated tail, and
  // the log ends there. A bad record at the very end of the file, with no
  // zero fill after it, is still reported. Otherwise returns false with
  // buffer_ holding the first later block that has data (empty if the data
  // was in the dropped block), so parsing resumes where it would have after
  // a plain block drop.
  bool OnlyZerosAfter(size_t record_end);

  void ReportCorruption(uint64_t bytes, const char* reason);
  void ReportDrop(uint64_t bytes, const Status& reason);

  SequentialFile* const file_;
  Reporter* const reporter_;
  bool const checksum_;
  char* const backing_store_;
  Slice buffer_;
  bool eof_;  // Last Read() indicated EOF by returning < kBlockSize
};

}  // namespace wal
}  // namespace acheron

#endif  // ACHERON_WAL_LOG_READER_H_
