// Tests for block building/reading and the full SSTable round trip,
// including the properties block and Bloom-filtered InternalGet.
#include "src/table/table.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/dbformat.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/format.h"
#include "src/table/table_builder.h"
#include "src/util/bloom.h"
#include "src/util/random.h"

namespace acheron {

TEST(BlockTest, EmptyBlock) {
  BlockBuilder builder(16);
  Slice raw = builder.Finish();
  std::string owned = raw.ToString();
  BlockContents contents{Slice(owned), false, false};
  Block block(contents);
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, RoundTripAndSeek) {
  BlockBuilder builder(4);  // small restart interval to exercise restarts
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04d", i);
    model[buf] = "value" + std::to_string(i);
  }
  for (const auto& [k, v] : model) {
    builder.Add(k, v);
  }
  std::string owned = builder.Finish().ToString();
  BlockContents contents{Slice(owned), false, false};
  Block block(contents);

  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  // Full forward scan matches the model.
  it->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(k, it->key().ToString());
    EXPECT_EQ(v, it->value().ToString());
    it->Next();
  }
  EXPECT_FALSE(it->Valid());

  // Backward scan.
  it->SeekToLast();
  for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(rit->first, it->key().ToString());
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());

  // Seeks land on lower bounds.
  it->Seek("key0100");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("key0100", it->key().ToString());
  it->Seek("key0100x");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("key0101", it->key().ToString());
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
  it->Seek("");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("key0000", it->key().ToString());
}

TEST(BlockTest, PrefixCompressionPreservesKeys) {
  BlockBuilder builder(16);
  std::vector<std::string> keys = {"app", "apple", "applesauce", "apply",
                                   "apt"};
  for (const auto& k : keys) {
    builder.Add(k, "v_" + k);
  }
  std::string owned = builder.Finish().ToString();
  BlockContents contents{Slice(owned), false, false};
  Block block(contents);
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  for (const auto& k : keys) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(k, it->key().ToString());
    EXPECT_EQ("v_" + k, it->value().ToString());
    it->Next();
  }
}

namespace {

// Builds a table in a MemEnv and reopens it for reading.
class TableHarness {
 public:
  TableHarness() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.block_size = 1024;  // several blocks for realistic index use
    options_.comparator = BytewiseComparator();
  }

  // keys must be added in sorted order.
  void Add(const std::string& key, const std::string& value) {
    model_[key] = value;
  }

  Status Build() {
    std::unique_ptr<WritableFile> sink;
    Status s = env_->NewWritableFile("/table", &sink);
    if (!s.ok()) return s;
    TableBuilder builder(options_, sink.get());
    for (const auto& [k, v] : model_) {
      builder.Add(k, v, k);
    }
    builder.mutable_properties()->num_tombstones = 42;
    builder.mutable_properties()->earliest_tombstone_time = 7;
    s = builder.Finish();
    if (!s.ok()) return s;
    file_size_ = builder.FileSize();
    s = sink->Close();
    if (!s.ok()) return s;

    s = env_->NewRandomAccessFile("/table", &source_);
    if (!s.ok()) return s;
    Table* t;
    s = Table::Open(options_, source_.get(), file_size_, &t);
    table_.reset(t);
    return s;
  }

  Table* table() { return table_.get(); }
  const std::map<std::string, std::string>& model() const { return model_; }
  Options options_;

 private:
  std::unique_ptr<Env> env_;
  std::map<std::string, std::string> model_;
  std::unique_ptr<RandomAccessFile> source_;
  std::unique_ptr<Table> table_;
  uint64_t file_size_ = 0;
};

struct GetResult {
  bool called = false;
  std::string key, value;
};
void SaveGet(void* arg, const Slice& k, const Slice& v) {
  auto* r = static_cast<GetResult*>(arg);
  r->called = true;
  r->key = k.ToString();
  r->value = v.ToString();
}

}  // namespace

TEST(TableTest, EmptyTable) {
  TableHarness h;
  ASSERT_TRUE(h.Build().ok());
  std::unique_ptr<Iterator> it(h.table()->NewIterator(ReadOptions()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST(TableTest, RoundTrip) {
  TableHarness h;
  Random rnd(42);
  for (int i = 0; i < 3000; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    h.Add(buf, "val" + std::to_string(rnd.Uniform(1000000)));
  }
  ASSERT_TRUE(h.Build().ok());

  // Scan matches the model exactly.
  std::unique_ptr<Iterator> it(h.table()->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (const auto& [k, v] : h.model()) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(k, it->key().ToString());
    EXPECT_EQ(v, it->value().ToString());
    it->Next();
  }
  EXPECT_FALSE(it->Valid());

  // Seeks.
  it->Seek("k001500");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("k001500", it->key().ToString());

  // Reverse scan from the end.
  it->SeekToLast();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(h.model().rbegin()->first, it->key().ToString());
}

TEST(TableTest, InternalGetFindsEntries) {
  TableHarness h;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i * 2);  // even keys only
    h.Add(buf, "v" + std::to_string(i));
  }
  ASSERT_TRUE(h.Build().ok());

  // Present key.
  GetResult r;
  ASSERT_TRUE(h.table()
                  ->InternalGet(ReadOptions(), "k00100", "k00100", &r, SaveGet)
                  .ok());
  ASSERT_TRUE(r.called);
  EXPECT_EQ("k00100", r.key);
  EXPECT_EQ("v50", r.value);

  // Absent key: callback may fire with the successor key (caller's job to
  // compare user keys), or the Bloom filter suppresses it entirely.
  GetResult r2;
  ASSERT_TRUE(h.table()
                  ->InternalGet(ReadOptions(), "k00101", "k00101", &r2, SaveGet)
                  .ok());
  if (r2.called) {
    EXPECT_NE("k00101", r2.key);
  }
}

TEST(TableTest, BloomFilterSuppressesMisses) {
  TableHarness h;
  for (int i = 0; i < 2000; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%06d", i);
    h.Add(buf, "v");
  }
  ASSERT_TRUE(h.Build().ok());

  uint64_t before = h.table()->filter_negatives();
  int suppressed = 0;
  for (int i = 0; i < 1000; i++) {
    GetResult r;
    std::string absent = "absent" + std::to_string(i);
    // Only whether the callback fired matters here, not the status.
    (void)h.table()->InternalGet(ReadOptions(), absent, absent, &r, SaveGet);
    if (!r.called) suppressed++;
  }
  // With 10 bits/key nearly all misses must be filtered without touching a
  // data block.
  EXPECT_GT(h.table()->filter_negatives() - before, 950u);
  EXPECT_GT(suppressed, 950);
}

TEST(TableTest, PropertiesRoundTrip) {
  TableHarness h;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    h.Add(buf, std::string(50, 'x'));
  }
  ASSERT_TRUE(h.Build().ok());
  const TableProperties& props = h.table()->properties();
  EXPECT_EQ(100u, props.num_entries);
  EXPECT_EQ(42u, props.num_tombstones);          // set via mutable_properties
  EXPECT_EQ(7u, props.earliest_tombstone_time);  // ditto
  EXPECT_GT(props.num_data_blocks, 1u);
  EXPECT_EQ(100u * 5, props.raw_key_bytes);  // "kNNNN" is 5 bytes
  EXPECT_EQ(100u * 50, props.raw_value_bytes);
}

// The builder keeps its filter keys in one flat buffer; the filter block it
// writes must be byte-identical to CreateFilter over the same keys, for key
// lengths on both sides of the small-string limit (0..40 bytes).
TEST(TableTest, FilterBlockMatchesCreateFilter) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  Options options;
  options.env = env.get();
  options.comparator = BytewiseComparator();
  options.filter_policy = policy.get();

  Random rnd(301);
  std::set<std::string> keys;
  for (size_t len = 0; len <= 40; len++) {
    for (int i = 0; i < 8; i++) {
      std::string k;
      for (size_t j = 0; j < len; j++) {
        k.push_back(static_cast<char>(rnd.Uniform(256)));
      }
      keys.insert(k);
    }
  }

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/filter_table", &file).ok());
  TableBuilder builder(options, file.get());
  std::vector<Slice> slices;
  for (const std::string& k : keys) {
    builder.Add(k, "v", k);
    slices.emplace_back(k);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());

  std::string contents;
  ASSERT_TRUE(env->ReadFileToString("/filter_table", &contents).ok());
  ASSERT_EQ(builder.FileSize(), contents.size());
  ASSERT_GE(contents.size(), static_cast<size_t>(Footer::kEncodedLength));
  Slice footer_input(contents.data() + contents.size() - Footer::kEncodedLength,
                     Footer::kEncodedLength);
  Footer footer;
  ASSERT_TRUE(footer.DecodeFrom(&footer_input).ok());
  const BlockHandle& h = footer.filter_handle();
  ASSERT_LE(h.offset() + h.size(), contents.size());
  const std::string written = contents.substr(h.offset(), h.size());

  std::string expected;
  policy->CreateFilter(slices.data(), static_cast<int>(slices.size()),
                       &expected);
  EXPECT_EQ(expected, written);
}

TEST(TableTest, CorruptFooterIsRejected) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  ASSERT_TRUE(env->WriteStringToFile(std::string(200, 'z'), "/bad").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/bad", &file).ok());
  Table* t = nullptr;
  Status s = Table::Open(options, file.get(), 200, &t);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(nullptr, t);
}

TEST(TableTest, TruncatedFileIsRejected) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  ASSERT_TRUE(env->WriteStringToFile("tiny", "/tiny").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/tiny", &file).ok());
  Table* t = nullptr;
  Status s = Table::Open(options, file.get(), 4, &t);
  EXPECT_TRUE(s.IsCorruption());
}

// Property sweep: tables round-trip across block sizes and restart
// intervals.
class TableParamTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TableParamTest, RoundTripAcrossShapes) {
  auto [block_size, restart_interval] = GetParam();
  TableHarness h;
  h.options_.block_size = block_size;
  h.options_.block_restart_interval = restart_interval;
  for (int i = 0; i < 500; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%05d", i * 3);
    h.Add(buf, "value" + std::to_string(i));
  }
  ASSERT_TRUE(h.Build().ok());
  std::unique_ptr<Iterator> it(h.table()->NewIterator(ReadOptions()));
  it->SeekToFirst();
  size_t n = 0;
  for (const auto& [k, v] : h.model()) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(k, it->key().ToString());
    EXPECT_EQ(v, it->value().ToString());
    it->Next();
    n++;
  }
  EXPECT_EQ(500u, n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TableParamTest,
    ::testing::Combine(::testing::Values(512, 1024, 4096, 65536),
                       ::testing::Values(1, 2, 16, 64)));

}  // namespace acheron
