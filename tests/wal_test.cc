// WAL writer/reader round-trip and corruption-handling tests, adapted to
// exercise block boundaries, fragmentation, and checksum failures.
#include <gtest/gtest.h>

#include <memory>

#include "src/env/env.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace acheron {
namespace wal {

// Construct a string of the specified length made out of the supplied
// partial string.
static std::string BigString(const std::string& partial_string, size_t n) {
  std::string result;
  while (result.size() < n) {
    result.append(partial_string);
  }
  result.resize(n);
  return result;
}

// Construct a string from a number.
static std::string NumberString(int n) {
  char buf[50];
  std::snprintf(buf, sizeof(buf), "%d.", n);
  return std::string(buf);
}

// Return a skewed potentially long string.
static std::string RandomSkewedString(int i, Random* rnd) {
  return BigString(NumberString(i), rnd->Skewed(17));
}

class LogTest : public ::testing::Test {
 public:
  LogTest()
      : env_(NewMemEnv()),
        reading_(false),
        dest_(nullptr),
        reader_(nullptr),
        writer_(nullptr) {
    EXPECT_TRUE(env_->NewWritableFile("/log", &dest_holder_).ok());
    writer_ = std::make_unique<Writer>(dest_holder_.get());
  }

  void Write(const std::string& msg) {
    ASSERT_TRUE(!reading_) << "Write() after starting to read";
    ASSERT_TRUE(writer_->AddRecord(Slice(msg)).ok());
  }

  size_t WrittenBytes() {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize("/log", &size).ok());
    return size;
  }

  std::string Read() {
    if (!reading_) {
      StartReading();
    }
    std::string scratch;
    Slice record;
    if (reader_->ReadRecord(&record, &scratch)) {
      return record.ToString();
    }
    return "EOF";
  }

  void StartReading() {
    reading_ = true;
    // Flush pending writes by destroying the writer (MemEnv keeps data).
    writer_.reset();
    dest_holder_.reset();
    ASSERT_TRUE(env_->NewSequentialFile("/log", &src_holder_).ok());
    reader_ = std::make_unique<Reader>(src_holder_.get(), &report_, true);
  }

  // Corruption helpers: rewrite the backing file with a mutation.
  void SetByte(size_t offset, char new_byte) {
    std::string contents = FileContents();
    contents[offset] = new_byte;
    RewriteFile(contents);
  }

  void ShrinkSize(size_t bytes) {
    std::string contents = FileContents();
    contents.resize(contents.size() - bytes);
    RewriteFile(contents);
  }

  void FixChecksum(int header_offset, int len) {
    std::string contents = FileContents();
    uint32_t crc =
        crc32c::Value(contents.data() + header_offset + 6, 1 + len);
    crc = crc32c::Mask(crc);
    EncodeFixed32(contents.data() + header_offset, crc);
    RewriteFile(contents);
  }

  std::string FileContents() {
    writer_.reset();
    dest_holder_.reset();
    std::string contents;
    EXPECT_TRUE(env_->ReadFileToString("/log", &contents).ok());
    return contents;
  }

  void RewriteFile(const std::string& contents) {
    ASSERT_TRUE(env_->WriteStringToFile(contents, "/log").ok());
  }

  size_t DroppedBytes() const { return report_.dropped_bytes_; }
  std::string ReportMessage() const { return report_.message_; }

 protected:
  class ReportCollector : public Reader::Reporter {
   public:
    ReportCollector() : dropped_bytes_(0) {}
    void Corruption(size_t bytes, const Status& status) override {
      dropped_bytes_ += bytes;
      message_.append(status.ToString());
    }

    size_t dropped_bytes_;
    std::string message_;
  };

  std::unique_ptr<Env> env_;
  ReportCollector report_;
  bool reading_;
  std::unique_ptr<WritableFile> dest_holder_;
  std::unique_ptr<SequentialFile> src_holder_;
  WritableFile* dest_;
  std::unique_ptr<Reader> reader_;
  std::unique_ptr<Writer> writer_;
};

TEST_F(LogTest, Empty) { EXPECT_EQ("EOF", Read()); }

TEST_F(LogTest, ReadWrite) {
  Write("foo");
  Write("bar");
  Write("");
  Write("xxxx");
  EXPECT_EQ("foo", Read());
  EXPECT_EQ("bar", Read());
  EXPECT_EQ("", Read());
  EXPECT_EQ("xxxx", Read());
  EXPECT_EQ("EOF", Read());
  EXPECT_EQ("EOF", Read());  // Make sure reads at eof work
}

TEST_F(LogTest, ManyBlocks) {
  for (int i = 0; i < 100000; i++) {
    Write(NumberString(i));
  }
  for (int i = 0; i < 100000; i++) {
    EXPECT_EQ(NumberString(i), Read());
  }
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, Fragmentation) {
  Write("small");
  Write(BigString("medium", 50000));
  Write(BigString("large", 100000));
  EXPECT_EQ("small", Read());
  EXPECT_EQ(BigString("medium", 50000), Read());
  EXPECT_EQ(BigString("large", 100000), Read());
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, MarginalTrailer) {
  // Make a trailer that is exactly the same length as an empty record.
  const int n = kBlockSize - 2 * kHeaderSize;
  Write(BigString("foo", n));
  EXPECT_EQ(static_cast<size_t>(kBlockSize - kHeaderSize), WrittenBytes());
  Write("");
  Write("bar");
  EXPECT_EQ(BigString("foo", n), Read());
  EXPECT_EQ("", Read());
  EXPECT_EQ("bar", Read());
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, ShortTrailer) {
  const int n = kBlockSize - 2 * kHeaderSize + 4;
  Write(BigString("foo", n));
  EXPECT_EQ(static_cast<size_t>(kBlockSize - kHeaderSize + 4), WrittenBytes());
  Write("");
  Write("bar");
  EXPECT_EQ(BigString("foo", n), Read());
  EXPECT_EQ("", Read());
  EXPECT_EQ("bar", Read());
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, AlignedEof) {
  const int n = kBlockSize - 2 * kHeaderSize + 4;
  Write(BigString("foo", n));
  EXPECT_EQ(static_cast<size_t>(kBlockSize - kHeaderSize + 4), WrittenBytes());
  EXPECT_EQ(BigString("foo", n), Read());
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, RandomRead) {
  const int N = 500;
  Random write_rnd(301);
  for (int i = 0; i < N; i++) {
    Write(RandomSkewedString(i, &write_rnd));
  }
  Random read_rnd(301);
  for (int i = 0; i < N; i++) {
    EXPECT_EQ(RandomSkewedString(i, &read_rnd), Read());
  }
  EXPECT_EQ("EOF", Read());
}

// Tests of all the error paths in log_reader.cc follow:

TEST_F(LogTest, ReadError) {
  Write("foo");
  ShrinkSize(4);  // Corrupt the record by truncation: header is incomplete.
  EXPECT_EQ("EOF", Read());
}

TEST_F(LogTest, BadRecordType) {
  Write("foo");
  // Type is stored in header[6]; also fix the checksum so only the type is
  // "valid" but unknown.
  SetByte(6, 100);
  FixChecksum(0, 3);
  EXPECT_EQ("EOF", Read());
  EXPECT_GT(DroppedBytes(), 0u);
  EXPECT_NE(std::string::npos, ReportMessage().find("unknown record type"));
}

TEST_F(LogTest, TruncatedTrailingRecordIsIgnored) {
  Write("foo");
  ShrinkSize(4);  // Drop all payload as well as a header byte
  EXPECT_EQ("EOF", Read());
  // Truncated last record is ignored, not treated as an error.
  EXPECT_EQ(0u, DroppedBytes());
  EXPECT_EQ("", ReportMessage());
}

TEST_F(LogTest, ChecksumMismatch) {
  Write("foo");
  SetByte(0, 'a');  // corrupt the stored checksum
  EXPECT_EQ("EOF", Read());
  EXPECT_GE(DroppedBytes(), 10u);
  EXPECT_NE(std::string::npos, ReportMessage().find("checksum mismatch"));
}

TEST_F(LogTest, CorruptedMiddleRecordDropsRestOfBlock) {
  Write("first");
  Write("second");
  Write("third");
  // Corrupt one payload byte of "second" (record 2 header starts after
  // record 1's header+payload: 7 + 5 = 12; its payload begins at 19).
  SetByte(19 + 2, 'X');
  EXPECT_EQ("first", Read());
  // A checksum mismatch drops the remainder of the block (the length field
  // itself cannot be trusted), so "third" is sacrificed too.
  EXPECT_EQ("EOF", Read());
  EXPECT_GT(DroppedBytes(), 0u);
  EXPECT_NE(std::string::npos, ReportMessage().find("checksum mismatch"));
}

TEST_F(LogTest, CorruptionInFirstBlockDoesNotAffectLaterBlocks) {
  // Fill block 0 and put more records in block 1; corrupt block 0.
  Write(BigString("a", kBlockSize - kHeaderSize));  // exactly block 0
  Write("block1_record");
  SetByte(10, 'Z');  // corrupt payload of the first record
  EXPECT_EQ("block1_record", Read());
  EXPECT_EQ("EOF", Read());
  EXPECT_GT(DroppedBytes(), 0u);
}

// ---- Zero tails --------------------------------------------------------
//
// A log whose writer died before Close ends in the zero fill of its
// preallocated tail, and the kill may land mid-append. A record that does
// not parse and that only zeros follow is that torn last append: end of
// log, nothing reported. A bad record with data after it is still reported.

class ZeroTailTest : public LogTest {
 protected:
  // Cuts the log to |keep| bytes and appends |zeros| zero bytes.
  void KeepPrefixThenZeros(size_t keep, size_t zeros) {
    std::string contents = FileContents();
    ASSERT_LE(keep, contents.size());
    contents.resize(keep);
    contents.append(zeros, '\0');
    RewriteFile(contents);
  }

  void ExpectNothingReported() {
    EXPECT_EQ(0u, DroppedBytes());
    EXPECT_EQ("", ReportMessage());
  }
};

TEST_F(ZeroTailTest, AfterFullRecordIsEof) {
  Write("foo");
  Write("bar");
  KeepPrefixThenZeros(2 * (kHeaderSize + 3), 3 * kBlockSize);
  EXPECT_EQ("foo", Read());
  EXPECT_EQ("bar", Read());
  EXPECT_EQ("EOF", Read());
  ExpectNothingReported();
}

TEST_F(ZeroTailTest, AfterTornFragmentIsEof) {
  // "small" then a record whose first fragment fills block 0 exactly; the
  // writer died before its last fragment reached block 1.
  Write("small");
  Write(BigString("x", 2 * kBlockSize));
  KeepPrefixThenZeros(kBlockSize, 2 * kBlockSize);
  EXPECT_EQ("small", Read());
  EXPECT_EQ("EOF", Read());
  ExpectNothingReported();
}

TEST_F(ZeroTailTest, TornMiddleFragmentIsEof) {
  // The second fragment is cut 100 bytes into its payload.
  Write(BigString("y", 2 * kBlockSize));
  KeepPrefixThenZeros(kBlockSize + kHeaderSize + 100, kBlockSize);
  EXPECT_EQ("EOF", Read());
  ExpectNothingReported();
}

TEST_F(ZeroTailTest, TornHeaderIsEof) {
  // Every prefix of the second record's header, and the header with its
  // payload cut short, reads as the end of the log.
  const size_t second = kHeaderSize + 5;  // "second" starts after "first"
  for (size_t keep = 1; keep <= kHeaderSize + 3; keep++) {
    {
      std::unique_ptr<WritableFile> file;
      ASSERT_TRUE(env_->NewWritableFile("/torn", &file).ok());
      Writer writer(file.get());
      ASSERT_TRUE(writer.AddRecord("first").ok());
      ASSERT_TRUE(writer.AddRecord("second").ok());
    }
    std::string contents;
    ASSERT_TRUE(env_->ReadFileToString("/torn", &contents).ok());
    contents.resize(second + keep);
    contents.append(kBlockSize, '\0');
    ASSERT_TRUE(env_->WriteStringToFile(contents, "/torn").ok());

    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(env_->NewSequentialFile("/torn", &file).ok());
    ReportCollector report;
    Reader reader(file.get(), &report, true);
    std::string scratch;
    Slice record;
    ASSERT_TRUE(reader.ReadRecord(&record, &scratch)) << keep;
    EXPECT_EQ("first", record.ToString()) << keep;
    EXPECT_FALSE(reader.ReadRecord(&record, &scratch)) << keep;
    EXPECT_EQ(0u, report.dropped_bytes_) << keep;
    EXPECT_EQ("", report.message_) << keep;
  }
}

TEST_F(ZeroTailTest, CorruptRecordBeforeValidOnesStillReports) {
  // Block 0: "first" (corrupted) then zero fill; block 1: a valid record.
  // The zeros after the bad record are not the end of the log, since data
  // follows them.
  Write("first");
  Write(BigString("f", kBlockSize - 2 * kHeaderSize - 5));  // fills block 0
  Write("block1");
  std::string contents = FileContents();
  contents[kHeaderSize + 1] = 'X';  // corrupt "first"'s payload
  std::fill(contents.begin() + kHeaderSize + 5, contents.begin() + kBlockSize,
            '\0');
  RewriteFile(contents);
  EXPECT_EQ("block1", Read());
  EXPECT_EQ("EOF", Read());
  EXPECT_GT(DroppedBytes(), 0u);
  EXPECT_NE(std::string::npos, ReportMessage().find("checksum mismatch"));
}

TEST_F(ZeroTailTest, ZeroBlockInsideFragmentedRecordStillReports) {
  // First fragment, a zeroed block where its middle was, then data.
  Write(BigString("m", 3 * kBlockSize));
  Write("after");
  std::string contents = FileContents();
  std::fill(contents.begin() + kBlockSize, contents.begin() + 2 * kBlockSize,
            '\0');
  RewriteFile(contents);
  EXPECT_EQ("after", Read());
  EXPECT_EQ("EOF", Read());
  EXPECT_GT(DroppedBytes(), 0u);
}

}  // namespace wal
}  // namespace acheron
