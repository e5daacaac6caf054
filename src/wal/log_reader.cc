#include "src/wal/log_reader.h"

#include <algorithm>
#include <cstdio>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {
namespace wal {

Reader::Reader(SequentialFile* file, Reporter* reporter, bool checksum)
    : file_(file),
      reporter_(reporter),
      checksum_(checksum),
      backing_store_(new char[kBlockSize]),
      buffer_(),
      eof_(false) {}

Reader::~Reader() { delete[] backing_store_; }

bool Reader::ReadRecord(Slice* record, std::string* scratch) {
  scratch->clear();
  record->clear();
  bool in_fragmented_record = false;

  Slice fragment;
  while (true) {
    const unsigned int record_type = ReadPhysicalRecord(&fragment);
    switch (record_type) {
      case kFullType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end(1)");
        }
        scratch->clear();
        *record = fragment;
        return true;

      case kFirstType:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "partial record without end(2)");
        }
        scratch->assign(fragment.data(), fragment.size());
        in_fragmented_record = true;
        break;

      case kMiddleType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record(1)");
        } else {
          scratch->append(fragment.data(), fragment.size());
        }
        break;

      case kLastType:
        if (!in_fragmented_record) {
          ReportCorruption(fragment.size(),
                           "missing start of fragmented record(2)");
        } else {
          scratch->append(fragment.data(), fragment.size());
          *record = Slice(*scratch);
          return true;
        }
        break;

      case kEof:
        if (in_fragmented_record) {
          // This can be caused by the writer dying immediately after writing
          // a physical record but before completing the next one; don't
          // treat it as a corruption, just ignore the entire logical record.
          scratch->clear();
        }
        return false;

      case kBadRecord:
        if (in_fragmented_record) {
          ReportCorruption(scratch->size(), "error in middle of record");
          in_fragmented_record = false;
          scratch->clear();
        }
        break;

      default: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "unknown record type %u", record_type);
        ReportCorruption(
            (fragment.size() + (in_fragmented_record ? scratch->size() : 0)),
            buf);
        in_fragmented_record = false;
        scratch->clear();
        break;
      }
    }
  }
}

void Reader::ReportCorruption(uint64_t bytes, const char* reason) {
  ReportDrop(bytes, Status::Corruption(reason));
}

void Reader::ReportDrop(uint64_t bytes, const Status& reason) {
  if (reporter_ != nullptr) {
    reporter_->Corruption(static_cast<size_t>(bytes), reason);
  }
}

bool Reader::OnlyZerosAfter(size_t record_end) {
  auto all_zero = [](Slice s) {
    for (size_t i = 0; i < s.size(); i++) {
      if (s[i] != 0) return false;
    }
    return true;
  };
  Slice rest = buffer_;
  rest.remove_prefix(std::min(record_end, rest.size()));
  buffer_.clear();
  if (!all_zero(rest)) return false;
  bool zeros_follow = !rest.empty();
  while (!eof_) {
    Status status = file_->Read(kBlockSize, &buffer_, backing_store_);
    if (!status.ok()) {
      buffer_.clear();
      ReportDrop(kBlockSize, status);
      eof_ = true;
      return false;
    }
    if (buffer_.size() < static_cast<size_t>(kBlockSize)) eof_ = true;
    if (!all_zero(buffer_)) return false;
    zeros_follow = zeros_follow || !buffer_.empty();
  }
  buffer_.clear();
  return zeros_follow;
}

unsigned int Reader::ReadPhysicalRecord(Slice* result) {
  while (true) {
    if (buffer_.size() < static_cast<size_t>(kHeaderSize)) {
      if (!eof_) {
        // Last read was a full block; try another.
        buffer_.clear();
        Status status = file_->Read(kBlockSize, &buffer_, backing_store_);
        if (!status.ok()) {
          buffer_.clear();
          ReportDrop(kBlockSize, status);
          eof_ = true;
          return kEof;
        } else if (buffer_.size() < static_cast<size_t>(kBlockSize)) {
          eof_ = true;
        }
        continue;
      } else {
        // Note that if buffer_ is non-empty, we have a truncated header at
        // the end of the file, which can be caused by the writer crashing in
        // the middle of writing the header. Instead of considering this an
        // error, just report EOF.
        buffer_.clear();
        return kEof;
      }
    }

    // Parse the header.
    const char* header = buffer_.data();
    const uint32_t a = static_cast<uint32_t>(header[4]) & 0xff;
    const uint32_t b = static_cast<uint32_t>(header[5]) & 0xff;
    const unsigned int type = header[6];
    const uint32_t length = a | (b << 8);
    if (kHeaderSize + length > buffer_.size()) {
      size_t drop_size = buffer_.size();
      if (eof_) {
        // If the end of the file has been reached without reading |length|
        // bytes of payload, assume the writer died in the middle of writing
        // the record. Don't report a corruption.
        buffer_.clear();
        return kEof;
      }
      if (OnlyZerosAfter(drop_size)) return kEof;
      ReportCorruption(drop_size, "bad record length");
      return kBadRecord;
    }

    if (type == kZeroType && length == 0) {
      // Zero fill: the never-written tail of a preallocated log (end of
      // log), or, when data follows, a block skipped without reporting any
      // drops.
      return OnlyZerosAfter(kHeaderSize) ? kEof : kBadRecord;
    }

    // Check crc.
    if (checksum_) {
      uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
      uint32_t actual_crc = crc32c::Value(header + 6, 1 + length);
      if (actual_crc != expected_crc) {
        // Drop the rest of the buffer since "length" itself may have been
        // corrupted and if we trust it, we could find some fragment of a
        // real log record that just happens to look like a valid record.
        size_t drop_size = buffer_.size();
        if (OnlyZerosAfter(kHeaderSize + length)) return kEof;
        ReportCorruption(drop_size, "checksum mismatch");
        return kBadRecord;
      }
    }

    buffer_.remove_prefix(kHeaderSize + length);
    *result = Slice(header + kHeaderSize, length);
    return type;
  }
}

}  // namespace wal
}  // namespace acheron
