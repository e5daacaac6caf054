// Decoder robustness: random mutations/truncations of encoded structures
// (VersionEdit, TableProperties, WriteBatch, varints) must never crash or
// read out of bounds -- they either round-trip or fail cleanly.
#include <gtest/gtest.h>

#include "src/core/range_tombstone.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"
#include "src/lsm/write_batch.h"
#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"
#include "src/table/properties.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace acheron {

namespace {

std::string EncodedVersionEdit() {
  VersionEdit edit;
  edit.SetComparatorName("acheron.BytewiseComparator");
  edit.SetLogNumber(77);
  edit.SetNextFile(99);
  edit.SetLastSequence(123456789);
  for (int i = 0; i < 5; i++) {
    FileMetaData f;
    f.number = 100 + i;
    f.file_size = 5000 + i;
    f.smallest = InternalKey("aaa" + std::to_string(i), 10, kTypeValue);
    f.largest = InternalKey("zzz" + std::to_string(i), 20, kTypeDeletion);
    f.num_entries = 50;
    f.num_tombstones = 5;
    f.earliest_tombstone_seq = 12;
    f.min_secondary_key = "min";
    f.max_secondary_key = "max";
    edit.AddFile(i % 3, f);
    edit.RemoveFile(i % 3, 200 + i);
  }
  std::string out;
  edit.EncodeTo(&out);
  return out;
}

std::string EncodedProperties() {
  TableProperties props;
  props.num_entries = 1000;
  props.num_tombstones = 100;
  props.earliest_tombstone_time = 42;
  props.raw_key_bytes = 5000;
  props.raw_value_bytes = 9000;
  props.num_data_blocks = 7;
  props.min_secondary_key = "aaaa";
  props.max_secondary_key = "zzzz";
  std::string out;
  props.EncodeTo(&out);
  return out;
}

std::string EncodedBatch() {
  WriteBatch batch;
  for (int i = 0; i < 10; i++) {
    batch.Put("key" + std::to_string(i), std::string(50, 'v'));
    batch.Delete("dead" + std::to_string(i));
  }
  WriteBatchInternal::SetSequence(&batch, 555);
  return WriteBatchInternal::Contents(&batch).ToString();
}

std::string EncodedRangeTombstoneBlock() {
  // Deliberately overlapping, nested, and adjacent ranges: the mutated
  // block must never crash the decoder, and the clean block exercises every
  // fragmenter split case.
  std::vector<RangeTombstone> tombstones;
  tombstones.emplace_back("bbb", "ggg", 10);
  tombstones.emplace_back("ccc", "eee", 20);  // nested
  tombstones.emplace_back("aaa", "ddd", 15);  // overlaps the head
  tombstones.emplace_back("ggg", "kkk", 5);   // adjacent
  tombstones.emplace_back("mmm", "nnn", 30);  // disjoint
  std::string out;
  EncodeRangeTombstones(tombstones, &out);
  return out;
}

}  // namespace

class DecodeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecodeFuzz, VersionEditSurvivesMutations) {
  Random rnd(GetParam());
  const std::string base = EncodedVersionEdit();
  for (int trial = 0; trial < 2000; trial++) {
    std::string mutated = base;
    // Truncate and/or flip bytes.
    if (rnd.OneIn(2) && !mutated.empty()) {
      mutated.resize(rnd.Uniform(mutated.size() + 1));
    }
    int flips = static_cast<int>(rnd.Uniform(4));
    for (int f = 0; f < flips && !mutated.empty(); f++) {
      mutated[rnd.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rnd.Uniform(255));
    }
    VersionEdit edit;
    // Must not crash; status is either ok or corruption.
    (void)edit.DecodeFrom(mutated);
  }
}

TEST_P(DecodeFuzz, PropertiesSurviveMutations) {
  Random rnd(GetParam() + 1000);
  const std::string base = EncodedProperties();
  for (int trial = 0; trial < 2000; trial++) {
    std::string mutated = base;
    if (rnd.OneIn(2) && !mutated.empty()) {
      mutated.resize(rnd.Uniform(mutated.size() + 1));
    }
    int flips = static_cast<int>(rnd.Uniform(4));
    for (int f = 0; f < flips && !mutated.empty(); f++) {
      mutated[rnd.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rnd.Uniform(255));
    }
    TableProperties props;
    (void)props.DecodeFrom(mutated);  // ok or corruption; must not crash
  }
}

TEST_P(DecodeFuzz, WriteBatchIterateSurvivesMutations) {
  Random rnd(GetParam() + 2000);
  const std::string base = EncodedBatch();
  InternalKeyComparator icmp(BytewiseComparator());
  for (int trial = 0; trial < 500; trial++) {
    std::string mutated = base;
    if (rnd.OneIn(2)) {
      mutated.resize(12 + rnd.Uniform(mutated.size() - 11));
    }
    int flips = static_cast<int>(rnd.Uniform(4));
    for (int f = 0; f < flips; f++) {
      size_t pos = rnd.Uniform(mutated.size());
      if (pos < 12) continue;  // keep the header sane for SetContents
      mutated[pos] ^= static_cast<char>(1 + rnd.Uniform(255));
    }
    WriteBatch batch;
    WriteBatchInternal::SetContents(&batch, mutated);
    MemTable* mem = new MemTable(icmp, Options().write_buffer_size);
    mem->Ref();
    (void)WriteBatchInternal::InsertInto(&batch, mem);  // ok or corruption
    mem->Unref();
  }
}

TEST_P(DecodeFuzz, RangeTombstoneBlockSurvivesMutations) {
  Random rnd(GetParam() + 4000);
  const std::string base = EncodedRangeTombstoneBlock();
  const Comparator* ucmp = BytewiseComparator();
  for (int trial = 0; trial < 2000; trial++) {
    std::string mutated = base;
    // Truncation models a torn write of the block; byte flips model
    // on-disk corruption under the checksum (the decoder is the last line
    // of defense when the crc32c trailer was itself corrupted to match).
    if (rnd.OneIn(2) && !mutated.empty()) {
      mutated.resize(rnd.Uniform(mutated.size() + 1));
    }
    int flips = static_cast<int>(rnd.Uniform(4));
    for (int f = 0; f < flips && !mutated.empty(); f++) {
      mutated[rnd.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rnd.Uniform(255));
    }
    std::vector<RangeTombstone> decoded;
    Status s = DecodeRangeTombstones(Slice(mutated), &decoded);
    if (!s.ok()) continue;  // clean rejection is the expected outcome
    // A block that still decodes must be semantically valid, and feeding
    // it onward through the fragmenter and a coverage query must hold up.
    for (const RangeTombstone& t : decoded) {
      ASSERT_LT(ucmp->Compare(Slice(t.begin), Slice(t.end)), 0)
          << "decoder accepted an inverted range";
      ASSERT_LE(t.seq, kMaxSequenceNumber)
          << "decoder accepted an out-of-range sequence";
    }
    FragmentedRangeTombstoneList frags;
    frags.Build(ucmp, decoded);
    (void)frags.MaxCoveringSeq("ccc", kMaxSequenceNumber);
    (void)frags.MaxCoveringSeq("", 0);
  }
}

TEST_P(DecodeFuzz, RangeTombstoneFragmenterMatchesBruteForce) {
  // Randomized overlapping tombstone sets must round-trip through the wire
  // format exactly, and the fragmented coverage structure must agree with
  // a brute-force scan of the raw list at every probed (key, snapshot).
  Random rnd(GetParam() + 5000);
  const Comparator* ucmp = BytewiseComparator();
  auto key_at = [](uint32_t i) { return std::string(1, 'a' + i % 16); };
  for (int trial = 0; trial < 200; trial++) {
    std::vector<RangeTombstone> tombstones;
    const int n = 1 + rnd.Uniform(6);
    for (int i = 0; i < n; i++) {
      uint32_t b = rnd.Uniform(14);
      uint32_t e = b + 1 + rnd.Uniform(14 - b);
      tombstones.emplace_back(key_at(b), key_at(e), 1 + rnd.Uniform(100));
    }
    std::string encoded;
    EncodeRangeTombstones(tombstones, &encoded);
    std::vector<RangeTombstone> decoded;
    ASSERT_TRUE(DecodeRangeTombstones(Slice(encoded), &decoded).ok());
    ASSERT_EQ(tombstones.size(), decoded.size());
    for (size_t i = 0; i < decoded.size(); i++) {
      EXPECT_EQ(tombstones[i].begin, decoded[i].begin);
      EXPECT_EQ(tombstones[i].end, decoded[i].end);
      EXPECT_EQ(tombstones[i].seq, decoded[i].seq);
    }
    FragmentedRangeTombstoneList frags;
    frags.Build(ucmp, decoded);
    for (uint32_t k = 0; k < 16; k++) {
      const std::string probe = key_at(k);
      const SequenceNumber snapshot = rnd.OneIn(2) ? kMaxSequenceNumber
                                                   : rnd.Uniform(100);
      SequenceNumber expect = 0;
      for (const RangeTombstone& t : tombstones) {
        if (t.seq <= snapshot && t.seq > expect &&
            ucmp->Compare(Slice(t.begin), Slice(probe)) <= 0 &&
            ucmp->Compare(Slice(probe), Slice(t.end)) < 0) {
          expect = t.seq;
        }
      }
      EXPECT_EQ(expect, frags.MaxCoveringSeq(probe, snapshot))
          << "trial " << trial << " probe " << probe << " snapshot "
          << snapshot;
    }
  }
}

TEST_P(DecodeFuzz, VarintsSurviveGarbage) {
  Random rnd(GetParam() + 3000);
  for (int trial = 0; trial < 5000; trial++) {
    char buf[16];
    size_t len = rnd.Uniform(sizeof(buf) + 1);
    for (size_t i = 0; i < len; i++) {
      buf[i] = static_cast<char>(rnd.Next());
    }
    uint32_t v32;
    uint64_t v64;
    GetVarint32Ptr(buf, buf + len, &v32);
    GetVarint64Ptr(buf, buf + len, &v64);
    Slice in32(buf, len), in64(buf, len), inlp(buf, len);
    GetVarint32(&in32, &v32);
    GetVarint64(&in64, &v64);
    Slice result;
    GetLengthPrefixedSlice(&inlp, &result);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(1, 2, 3));

}  // namespace acheron
