// Appends length-prefixed, checksummed records to a WAL file.
#ifndef ACHERON_WAL_LOG_WRITER_H_
#define ACHERON_WAL_LOG_WRITER_H_

#include <cstdint>
#include <string>

#include "src/env/env.h"
#include "src/util/slice.h"
#include "src/util/status.h"
#include "src/wal/log_format.h"

namespace acheron {
namespace wal {

class Writer {
 public:
  // Create a writer that will append data to "*dest". "*dest" must remain
  // live while this Writer is in use.
  explicit Writer(WritableFile* dest);

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  // Append |slice| as one record: one WritableFile::Append (and Flush)
  // carrying its fragments, their headers and any block trailer.
  Status AddRecord(const Slice& slice);

 private:
  // Lay one fragment, header first, out at the end of record_.
  void EmitPhysicalRecord(RecordType type, const char* ptr, size_t length);

  WritableFile* dest_;
  int block_offset_;  // Current offset in block
  std::string record_;  // the record being built; capacity is reused

  // crc32c values for all supported record types, precomputed to reduce the
  // overhead of computing the crc of the type stored in the header.
  uint32_t type_crc_[kMaxRecordType + 1];
};

}  // namespace wal
}  // namespace acheron

#endif  // ACHERON_WAL_LOG_WRITER_H_
