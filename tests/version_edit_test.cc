#include "src/lsm/version_edit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace acheron {

static void TestEncodeDecode(const VersionEdit& edit) {
  std::string encoded, encoded2;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  Status s = parsed.DecodeFrom(encoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  parsed.EncodeTo(&encoded2);
  EXPECT_EQ(encoded, encoded2);
}

TEST(VersionEditTest, EncodeDecode) {
  static const uint64_t kBig = 1ull << 50;

  VersionEdit edit;
  for (int i = 0; i < 4; i++) {
    TestEncodeDecode(edit);
    FileMetaData f;
    f.number = kBig + 300 + i;
    f.file_size = kBig + 400 + i;
    f.smallest = InternalKey("foo", kBig + 500 + i, kTypeValue);
    f.largest = InternalKey("zoo", kBig + 600 + i, kTypeDeletion);
    f.num_entries = 1000 + i;
    f.num_tombstones = 17 + i;
    f.earliest_tombstone_seq = kBig + 700 + i;
    f.earliest_tombstone_wall_micros = kBig + 800 + i;
    f.min_secondary_key = "sec_min";
    f.max_secondary_key = "sec_max";
    f.run_id = kBig + 300 + i;
    edit.AddFile(3, f);
    edit.RemoveFile(4, kBig + 700 + i);
    edit.SetCompactPointer(i, InternalKey("x", kBig + 900 + i, kTypeValue));
  }

  edit.SetComparatorName("foo");
  edit.SetLogNumber(kBig + 100);
  edit.SetNextFile(kBig + 200);
  edit.SetLastSequence(kBig + 1000);
  TestEncodeDecode(edit);
}

TEST(VersionEditTest, TombstoneMetadataRoundTrips) {
  VersionEdit edit;
  FileMetaData f;
  f.number = 9;
  f.file_size = 1234;
  f.smallest = InternalKey("a", 5, kTypeValue);
  f.largest = InternalKey("z", 6, kTypeValue);
  f.num_entries = 77;
  f.num_tombstones = 13;
  f.earliest_tombstone_seq = 42;
  edit.AddFile(1, f);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(encoded).ok());
  std::string debug = parsed.DebugString();
  EXPECT_NE(std::string::npos, debug.find("tombstones=13"));
}

TEST(VersionEditTest, RejectsGarbage) {
  VersionEdit edit;
  EXPECT_TRUE(edit.DecodeFrom(Slice("\x42\x99 garbage")).IsCorruption());
  // Truncated new-file record.
  VersionEdit good;
  FileMetaData f;
  f.number = 1;
  f.file_size = 2;
  f.smallest = InternalKey("a", 1, kTypeValue);
  f.largest = InternalKey("b", 2, kTypeValue);
  good.AddFile(0, f);
  std::string enc;
  good.EncodeTo(&enc);
  EXPECT_TRUE(
      edit.DecodeFrom(Slice(enc.data(), enc.size() / 2)).IsCorruption());
}

TEST(VersionEditTest, FileMetaDataHelpers) {
  FileMetaData f;
  EXPECT_FALSE(f.has_tombstones());
  EXPECT_EQ(0.0, f.tombstone_density());
  f.num_entries = 100;
  f.num_tombstones = 25;
  EXPECT_TRUE(f.has_tombstones());
  EXPECT_DOUBLE_EQ(0.25, f.tombstone_density());
}

namespace {
std::string Hex(const std::string& bytes) {
  std::string hex;
  for (unsigned char c : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", c);
    hex += buf;
  }
  return hex;
}
}  // namespace

// The delete-clock journal fields keep the byte layout MANIFESTs already
// hold: tags 9-12 and 16, and no superseded count in the value-purge delta.
TEST(VersionEditTest, DeleteClockBytesArePinned) {
  DeleteClock point, range, value;
  point.persisted = 3;
  point.superseded = 2;
  point.latency.Add(7);
  range.persisted = 1;
  range.latency.Add(300);
  value.persisted = 6;
  value.latency.Add(12);
  VersionEdit edit;
  edit.SetDeletesWritten(kPointDeletes, 5);
  edit.SetClockDelta(kPointDeletes, point);
  edit.SetDeletesWritten(kRangeDeletes, 4);
  edit.SetClockDelta(kRangeDeletes, range);
  edit.SetClockDelta(kValuePurges, value);
  std::string encoded;
  edit.EncodeTo(&encoded);
  // clang-format off
  const std::string kPinned =
      "0905"                                  // point written = 5
      "0a" "03" "02" "24"                     // point delta 3, 2; 36 bytes:
      "0000000000001c40" "0000000000001c40"   //   min 7, max 7,
      "0000000000001c40" "0000000000804840"   //   sum 7, sum of squares 49,
      "01" "01" "0701"                        //   one sample in bucket 7
      "0b04"                                  // range written = 4
      "0c" "01" "00" "24"                     // range delta 1, 0; 36 bytes:
      "0000000000c07240" "0000000000c07240"   //   min 300, max 300,
      "0000000000c07240" "0000000000f9f540"   //   sum 300, sum of sq. 90000,
      "01" "01" "1901"                        //   one sample in bucket 25
      "10" "06" "24"                          // value purges 6; 36 bytes:
      "0000000000002840" "0000000000002840"   //   min 12, max 12,
      "0000000000002840" "0000000000006240"   //   sum 12, sum of sq. 144,
      "01" "01" "0a01";                       //   one sample in bucket 10
  // clang-format on
  EXPECT_EQ(kPinned, Hex(encoded));

  VersionEdit parsed;
  ASSERT_TRUE(parsed.DecodeFrom(encoded).ok());
  EXPECT_EQ(5u, parsed.deletes_written(kPointDeletes));
  EXPECT_EQ(4u, parsed.deletes_written(kRangeDeletes));
  EXPECT_FALSE(parsed.has_deletes_written(kValuePurges));
  EXPECT_EQ(2u, parsed.clock_delta(kPointDeletes).superseded);
  EXPECT_EQ(300, parsed.clock_delta(kRangeDeletes).latency.Max());
  EXPECT_EQ(6u, parsed.clock_delta(kValuePurges).persisted);
}

}  // namespace acheron
