#include "src/lsm/version_edit.h"

#include <sstream>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace acheron {

// Tag numbers for serialized VersionEdit. These numbers are written to disk
// and should not be changed.
enum Tag {
  kComparator = 1,
  kLogNumber = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kCompactPointer = 5,
  kDeletedFile = 6,
  kNewFile = 7,
  // A full-version snapshot record: the tag is followed by a fixed32 CRC32C
  // of the remaining body, then the body itself (ordinary tag encoding).
  // The inner CRC makes snapshot validity independent of the WAL framing,
  // so a tolerant (checksum-off) MANIFEST scan in RepairDB can still tell a
  // good restart point from a torn one.
  kSnapshot = 8,
  // Delete-clock journal fields (see version_edit.h): the point-delete
  // written checkpoint and clock delta.
  kMonitorWritten = 9,
  kMonitorDelta = 10,
  // Range-delete counterparts of the two fields above.
  kMonitorRangeWritten = 11,
  kMonitorRangeDelta = 12,
  // ---- vLog segment registry (key-value separation) ----
  // Upsert of one segment's full registry state (see vlog::SegmentInfo).
  kVlogSegment = 13,
  // Segment collected by GC: drop it from the registry.
  kVlogRemove = 14,
  // One compaction's garbage/pending-purge charge (see vlog::SegmentDelta).
  kVlogDelta = 15,
  // Value-purge clock delta: purged count + latency histogram, with no
  // superseded count.
  kVlogMonitorDelta = 16,
};

// Each delete population's journal tags (0: none). The value-purge delta
// carries no superseded count.
struct ClockTags {
  uint32_t written;
  uint32_t delta;
};
constexpr ClockTags kClockTags[kNumDeletePopulations] = {
    {kMonitorWritten, kMonitorDelta},
    {kMonitorRangeWritten, kMonitorRangeDelta},
    {0, kVlogMonitorDelta},
};

void VersionEdit::Clear() {
  comparator_.clear();
  log_number_ = 0;
  next_file_number_ = 0;
  last_sequence_ = 0;
  has_comparator_ = false;
  has_log_number_ = false;
  has_next_file_number_ = false;
  has_last_sequence_ = false;
  is_snapshot_ = false;
  has_deletes_written_.fill(false);
  deletes_written_.fill(0);
  has_clock_delta_.fill(false);
  clock_deltas_.fill(DeleteClock());
  compact_pointers_.clear();
  deleted_files_.clear();
  new_files_.clear();
  vlog_segments_.clear();
  vlog_removed_segments_.clear();
  vlog_deltas_.clear();
}

void VersionEdit::EncodeTo(std::string* dst) const {
  if (is_snapshot_) {
    std::string body;
    EncodeBodyTo(&body);
    PutVarint32(dst, kSnapshot);
    PutFixed32(dst, crc32c::Value(body.data(), body.size()));
    dst->append(body);
    return;
  }
  EncodeBodyTo(dst);
}

void VersionEdit::EncodeBodyTo(std::string* dst) const {
  if (has_comparator_) {
    PutVarint32(dst, kComparator);
    PutLengthPrefixedSlice(dst, comparator_);
  }
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }

  for (const auto& [level, key] : compact_pointers_) {
    PutVarint32(dst, kCompactPointer);
    PutVarint32(dst, level);
    PutLengthPrefixedSlice(dst, key.Encode());
  }

  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, level);
    PutVarint64(dst, number);
  }

  for (const auto& [level, f] : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, level);
    PutVarint64(dst, f.number);
    PutVarint64(dst, f.file_size);
    PutLengthPrefixedSlice(dst, f.smallest.Encode());
    PutLengthPrefixedSlice(dst, f.largest.Encode());
    PutVarint64(dst, f.num_entries);
    PutVarint64(dst, f.num_tombstones);
    PutVarint64(dst, f.earliest_tombstone_seq);
    PutVarint64(dst, f.earliest_tombstone_wall_micros);
    PutLengthPrefixedSlice(dst, f.min_secondary_key);
    PutLengthPrefixedSlice(dst, f.max_secondary_key);
    PutVarint64(dst, f.run_id);
    PutVarint64(dst, f.num_range_tombstones);
    PutVarint64(dst, f.earliest_range_tombstone_seq);
    PutVarint64(dst, f.earliest_range_tombstone_wall_micros);
    PutLengthPrefixedSlice(dst, f.range_del_begin);
    PutLengthPrefixedSlice(dst, f.range_del_end);
    PutVarint64(dst, f.min_vlog_segment);
    PutVarint64(dst, f.max_vlog_segment);
  }

  EncodeClockTo(kPointDeletes, dst);
  EncodeClockTo(kRangeDeletes, dst);
  for (const vlog::SegmentInfo& info : vlog_segments_) {
    PutVarint32(dst, kVlogSegment);
    std::string enc;
    vlog::EncodeSegmentInfo(&enc, info);
    PutLengthPrefixedSlice(dst, enc);
  }
  for (uint64_t seg : vlog_removed_segments_) {
    PutVarint32(dst, kVlogRemove);
    PutVarint64(dst, seg);
  }
  for (const vlog::SegmentDelta& delta : vlog_deltas_) {
    PutVarint32(dst, kVlogDelta);
    std::string enc;
    vlog::EncodeSegmentDelta(&enc, delta);
    PutLengthPrefixedSlice(dst, enc);
  }
  // The value-purge clock follows the registry fields: the byte layout
  // predates the shared clock type and stays as written.
  EncodeClockTo(kValuePurges, dst);
}

void VersionEdit::EncodeClockTo(DeletePopulation p, std::string* dst) const {
  if (has_deletes_written_[p]) {
    PutVarint32(dst, kClockTags[p].written);
    PutVarint64(dst, deletes_written_[p]);
  }
  if (has_clock_delta_[p]) {
    const DeleteClock& delta = clock_deltas_[p];
    PutVarint32(dst, kClockTags[p].delta);
    PutVarint64(dst, delta.persisted);
    if (p != kValuePurges) PutVarint64(dst, delta.superseded);
    std::string hist;
    delta.latency.EncodeTo(&hist);
    PutLengthPrefixedSlice(dst, hist);
  }
}

static bool GetInternalKey(Slice* input, InternalKey* dst) {
  Slice str;
  if (GetLengthPrefixedSlice(input, &str)) {
    return dst->DecodeFrom(str);
  }
  return false;
}

static bool GetLevel(Slice* input, int* level) {
  uint32_t v;
  if (GetVarint32(input, &v) && v < static_cast<uint32_t>(kNumLevels)) {
    *level = v;
    return true;
  }
  return false;
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  Clear();
  Slice input = src;
  const char* msg = nullptr;
  uint32_t tag;

  // Snapshot envelope: tag, inner CRC over the rest, then an ordinary tag
  // stream. A failed inner CRC still reports IsSnapshot()==true so recovery
  // can skip the record and keep the previously accumulated state.
  {
    Slice peek = input;
    uint32_t first_tag;
    if (GetVarint32(&peek, &first_tag) && first_tag == kSnapshot) {
      is_snapshot_ = true;
      input = peek;
      uint32_t expected_crc;
      if (!GetFixed32(&input, &expected_crc)) {
        return Status::Corruption("VersionEdit", "snapshot record too short");
      }
      if (crc32c::Value(input.data(), input.size()) != expected_crc) {
        return Status::Corruption("VersionEdit",
                                  "snapshot record checksum mismatch");
      }
    }
  }

  // Temporary storage for parsing
  int level;
  uint64_t number;
  FileMetaData f;
  Slice str;
  InternalKey key;

  while (msg == nullptr && GetVarint32(&input, &tag)) {
    switch (tag) {
      case kComparator:
        if (GetLengthPrefixedSlice(&input, &str)) {
          comparator_ = str.ToString();
          has_comparator_ = true;
        } else {
          msg = "comparator name";
        }
        break;

      case kLogNumber:
        if (GetVarint64(&input, &log_number_)) {
          has_log_number_ = true;
        } else {
          msg = "log number";
        }
        break;

      case kNextFileNumber:
        if (GetVarint64(&input, &next_file_number_)) {
          has_next_file_number_ = true;
        } else {
          msg = "next file number";
        }
        break;

      case kLastSequence:
        if (GetVarint64(&input, &last_sequence_)) {
          has_last_sequence_ = true;
        } else {
          msg = "last sequence number";
        }
        break;

      case kCompactPointer:
        if (GetLevel(&input, &level) && GetInternalKey(&input, &key)) {
          compact_pointers_.push_back(std::make_pair(level, key));
        } else {
          msg = "compaction pointer";
        }
        break;

      case kDeletedFile:
        if (GetLevel(&input, &level) && GetVarint64(&input, &number)) {
          deleted_files_.insert(std::make_pair(level, number));
        } else {
          msg = "deleted file";
        }
        break;

      case kNewFile: {
        Slice min_sec, max_sec, rd_begin, rd_end;
        if (GetLevel(&input, &level) && GetVarint64(&input, &f.number) &&
            GetVarint64(&input, &f.file_size) &&
            GetInternalKey(&input, &f.smallest) &&
            GetInternalKey(&input, &f.largest) &&
            GetVarint64(&input, &f.num_entries) &&
            GetVarint64(&input, &f.num_tombstones) &&
            GetVarint64(&input, &f.earliest_tombstone_seq) &&
            GetVarint64(&input, &f.earliest_tombstone_wall_micros) &&
            GetLengthPrefixedSlice(&input, &min_sec) &&
            GetLengthPrefixedSlice(&input, &max_sec) &&
            GetVarint64(&input, &f.run_id) &&
            GetVarint64(&input, &f.num_range_tombstones) &&
            GetVarint64(&input, &f.earliest_range_tombstone_seq) &&
            GetVarint64(&input, &f.earliest_range_tombstone_wall_micros) &&
            GetLengthPrefixedSlice(&input, &rd_begin) &&
            GetLengthPrefixedSlice(&input, &rd_end) &&
            GetVarint64(&input, &f.min_vlog_segment) &&
            GetVarint64(&input, &f.max_vlog_segment)) {
          f.min_secondary_key = min_sec.ToString();
          f.max_secondary_key = max_sec.ToString();
          f.range_del_begin = rd_begin.ToString();
          f.range_del_end = rd_end.ToString();
          new_files_.push_back(std::make_pair(level, f));
        } else {
          msg = "new-file entry";
        }
        break;
      }

      case kMonitorWritten:
      case kMonitorRangeWritten: {
        const int p = tag == kMonitorWritten ? kPointDeletes : kRangeDeletes;
        if (GetVarint64(&input, &deletes_written_[p])) {
          has_deletes_written_[p] = true;
        } else {
          msg = "deletes-written checkpoint";
        }
        break;
      }

      case kMonitorDelta:
      case kMonitorRangeDelta:
      case kVlogMonitorDelta: {
        const int p = tag == kMonitorDelta        ? kPointDeletes
                      : tag == kMonitorRangeDelta ? kRangeDeletes
                                                  : kValuePurges;
        DeleteClock& delta = clock_deltas_[p];
        Slice hist;
        if (GetVarint64(&input, &delta.persisted) &&
            (p == kValuePurges || GetVarint64(&input, &delta.superseded)) &&
            GetLengthPrefixedSlice(&input, &hist) &&
            delta.latency.DecodeFrom(&hist) && hist.empty()) {
          has_clock_delta_[p] = true;
        } else {
          msg = "delete clock delta";
        }
        break;
      }

      case kVlogSegment: {
        Slice enc;
        vlog::SegmentInfo info;
        if (GetLengthPrefixedSlice(&input, &enc) &&
            vlog::DecodeSegmentInfo(&enc, &info) && enc.empty()) {
          vlog_segments_.push_back(std::move(info));
        } else {
          msg = "vlog segment";
        }
        break;
      }

      case kVlogRemove:
        if (GetVarint64(&input, &number)) {
          vlog_removed_segments_.push_back(number);
        } else {
          msg = "vlog remove";
        }
        break;

      case kVlogDelta: {
        Slice enc;
        vlog::SegmentDelta delta;
        if (GetLengthPrefixedSlice(&input, &enc) &&
            vlog::DecodeSegmentDelta(&enc, &delta) && enc.empty()) {
          vlog_deltas_.push_back(delta);
        } else {
          msg = "vlog delta";
        }
        break;
      }

      default:
        msg = "unknown tag";
        break;
    }
  }

  if (msg == nullptr && !input.empty()) {
    msg = "invalid tag";
  }

  Status result;
  if (msg != nullptr) {
    result = Status::Corruption("VersionEdit", msg);
  }
  return result;
}

std::string VersionEdit::DebugString() const {
  std::ostringstream ss;
  ss << "VersionEdit {";
  if (is_snapshot_) ss << "\n  Snapshot";
  if (has_comparator_) ss << "\n  Comparator: " << comparator_;
  static const char* const kPopulationNames[kNumDeletePopulations] = {
      "point", "range", "value"};
  for (int p = 0; p < kNumDeletePopulations; p++) {
    if (has_deletes_written_[p]) {
      ss << "\n  DeletesWritten(" << kPopulationNames[p]
         << "): " << deletes_written_[p];
    }
    if (has_clock_delta_[p]) {
      ss << "\n  ClockDelta(" << kPopulationNames[p]
         << "): persisted=" << clock_deltas_[p].persisted
         << " superseded=" << clock_deltas_[p].superseded;
    }
  }
  if (has_log_number_) ss << "\n  LogNumber: " << log_number_;
  if (has_next_file_number_) ss << "\n  NextFile: " << next_file_number_;
  if (has_last_sequence_) ss << "\n  LastSeq: " << last_sequence_;
  for (const auto& [level, key] : compact_pointers_) {
    ss << "\n  CompactPointer: " << level << " " << key.DebugString();
  }
  for (const auto& [level, number] : deleted_files_) {
    ss << "\n  RemoveFile: " << level << " " << number;
  }
  for (const auto& [level, f] : new_files_) {
    ss << "\n  AddFile: " << level << " " << f.number << " " << f.file_size
       << " " << f.smallest.DebugString() << " .. " << f.largest.DebugString()
       << " tombstones=" << f.num_tombstones
       << " range_tombstones=" << f.num_range_tombstones;
    if (f.has_vlog_pointers()) {
      ss << " vlog=[" << f.min_vlog_segment << "," << f.max_vlog_segment
         << "]";
    }
  }
  for (const vlog::SegmentInfo& info : vlog_segments_) {
    ss << "\n  VlogSegment: " << info.number
       << (info.sealed ? " sealed" : " head") << " bytes=" << info.total_bytes
       << " garbage=" << info.garbage_bytes
       << " pending=" << info.pending_count();
  }
  for (uint64_t seg : vlog_removed_segments_) {
    ss << "\n  VlogRemove: " << seg;
  }
  for (const vlog::SegmentDelta& d : vlog_deltas_) {
    ss << "\n  VlogDelta: segment=" << d.number << " garbage=" << d.garbage_bytes
       << " purges=" << d.purge_count;
  }
  ss << "\n}\n";
  return ss.str();
}

}  // namespace acheron
