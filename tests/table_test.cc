// Tests for block building/reading and the full SSTable round trip,
// including the properties block and Bloom-filtered InternalGet.
#include "src/table/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
#include "src/util/coding.h"
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

namespace {

// Random sorted keys whose neighbours share prefixes, some longer than
// BlockSearch's inline buffer. With |trailer| 8 they are internal keys,
// several sequences to a user key, in InternalKeyComparator order.
std::vector<std::string> RandomBlockKeys(Random* rnd, size_t trailer,
                                         const Comparator* cmp) {
  const std::string prefixes[] = {
      "", "app", "apple", std::string(BlockSearch::kInlineKey + 9, 'x')};
  std::vector<std::string> keys;
  const int n = 20 + static_cast<int>(rnd->Uniform(120));
  for (int i = 0; i < n; i++) {
    std::string user = prefixes[rnd->Uniform(4)];
    const uint64_t len = rnd->Uniform(6);
    for (uint64_t j = 0; j < len; j++) {
      user.push_back(static_cast<char>('a' + rnd->Uniform(4)));
    }
    if (trailer == 0) {
      keys.push_back(user);
      continue;
    }
    for (uint64_t j = 1 + rnd->Uniform(3); j > 0; j--) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(user, 1 + rnd->Uniform(50),
                                                 rnd->OneIn(4)
                                                     ? kTypeDeletion
                                                     : kTypeValue));
      keys.push_back(ikey);
    }
  }
  std::sort(keys.begin(), keys.end(), [cmp](const std::string& a,
                                            const std::string& b) {
    return cmp->Compare(a, b) < 0;
  });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// Every key, its neighbours (a byte more or less, a sequence up or down,
// the seek sequence) and keys before the first and past the last.
std::vector<std::string> SearchTargets(const std::vector<std::string>& keys,
                                       size_t trailer) {
  std::vector<std::string> users = {"", "\xff\xff"};
  std::vector<std::string> targets;
  for (const std::string& k : keys) {
    const std::string user = k.substr(0, k.size() - trailer);
    users.push_back(user);
    users.push_back(user + '\0');
    if (!user.empty()) users.push_back(user.substr(0, user.size() - 1));
    if (trailer == 0) continue;
    targets.push_back(k);
    const ParsedInternalKey parsed(user, DecodeFixed64(k.data() + user.size()) >> 8,
                                   kTypeValue);
    for (SequenceNumber seq : {parsed.sequence - 1, parsed.sequence + 1}) {
      std::string t;
      AppendInternalKey(&t, ParsedInternalKey(user, seq, kTypeValue));
      targets.push_back(t);
    }
  }
  for (const std::string& user : users) {
    if (trailer == 0) {
      targets.push_back(user);
      continue;
    }
    for (SequenceNumber seq : {kMaxSequenceNumber, SequenceNumber{0}}) {
      std::string t;
      AppendInternalKey(&t, ParsedInternalKey(user, seq, kValueTypeForSeek));
      targets.push_back(t);
    }
  }
  return targets;
}

// Seek every target with BlockSearch and with the block iterator under
// |cmp|; both must land on the same entry or report the same status.
// Returns how many seeks reported corruption.
int ExpectSearchesAgree(const std::string& contents,
                        const std::vector<std::string>& targets,
                        size_t trailer, const Comparator* cmp) {
  int corrupt = 0;
  BlockContents bc{Slice(contents), false, false};
  Block block(bc);
  BlockSearch search;
  for (const std::string& target : targets) {
    // A fresh iterator per target, as a Get takes: an iterator's status
    // stays corrupt once a seek hit a bad entry.
    std::unique_ptr<Iterator> it(block.NewIterator(cmp));
    it->Seek(target);
    const bool found = search.Seek(block, target, trailer);
    EXPECT_EQ(it->Valid(), found);
    EXPECT_EQ(it->status().ToString(), search.status().ToString());
    if (found && it->Valid()) {
      EXPECT_EQ(it->key().ToString(), search.key().ToString());
      EXPECT_EQ(it->value().ToString(), search.value().ToString());
    }
    if (search.status().IsCorruption()) corrupt++;
  }
  return corrupt;
}

// Offsets of each entry of a block whose entry headers are one byte per
// field (keys and values under 128 bytes), and of its restart points.
void EntryOffsets(const std::string& contents, std::vector<size_t>* entries,
                  std::vector<size_t>* restarts) {
  const size_t n = DecodeFixed32(contents.data() + contents.size() - 4);
  const size_t restart_array = contents.size() - 4 * (n + 1);
  for (size_t i = 0; i < n; i++) {
    restarts->push_back(DecodeFixed32(contents.data() + restart_array + 4 * i));
  }
  for (size_t off = 0; off < restart_array;) {
    entries->push_back(off);
    const auto* p = reinterpret_cast<const unsigned char*>(contents.data());
    off += 3 + p[off + 1] + p[off + 2];
  }
}

}  // namespace

// BlockSearch against Block::Iter::Seek on random blocks, at restart
// intervals 1 and 16, of plain keys (trailer 0, bytewise) and internal keys
// (trailer 8, InternalKeyComparator over bytewise), intact and corrupt.
TEST(BlockSearchTest, AgreesWithIterSeek) {
  const InternalKeyComparator icmp(BytewiseComparator());
  Random rnd(1234);
  int corrupt = 0;
  for (size_t trailer : {size_t{0}, size_t{8}}) {
    const Comparator* cmp =
        trailer == 0 ? BytewiseComparator()
                     : static_cast<const Comparator*>(&icmp);
    for (int restart_interval : {1, 16}) {
      for (int round = 0; round < 40; round++) {
        const std::vector<std::string> keys =
            RandomBlockKeys(&rnd, trailer, cmp);
        BlockBuilder builder(restart_interval);
        for (size_t i = 0; i < keys.size(); i++) {
          builder.Add(keys[i], "v" + std::to_string(i));
        }
        const std::string contents = builder.Finish().ToString();
        const std::vector<std::string> targets = SearchTargets(keys, trailer);
        EXPECT_EQ(0, ExpectSearchesAgree(contents, targets, trailer, cmp));

        // Corrupt copies. These keep every key the searches decode at
        // least |trailer| bytes long, which the iterator's comparator
        // assumes: the last entry's value running past the data, a restart
        // entry claiming shared bytes, and the data cut short under the
        // original restart array.
        std::vector<size_t> entries, restarts;
        EntryOffsets(contents, &entries, &restarts);
        std::string bad = contents;
        bad[entries.back() + 2] = 127;
        corrupt += ExpectSearchesAgree(bad, targets, trailer, cmp);
        bad = contents;
        bad[restarts[rnd.Uniform(restarts.size())]] = 1;
        corrupt += ExpectSearchesAgree(bad, targets, trailer, cmp);
        const size_t restart_array = contents.size() - 4 * (restarts.size() + 1);
        const size_t cut = rnd.Uniform(restart_array);
        bad = contents.substr(0, cut) + contents.substr(restart_array);
        corrupt += ExpectSearchesAgree(bad, targets, trailer, cmp);
        if (trailer == 0) {
          // Plain keys may come out any length: flip any bytes.
          bad = contents;
          for (int i = 0; i < 3; i++) {
            bad[rnd.Uniform(restart_array)] =
                static_cast<char>(rnd.Uniform(256));
          }
          corrupt += ExpectSearchesAgree(bad, targets, trailer, cmp);
        }
      }
    }
  }
  EXPECT_GT(corrupt, 0);
  // Too short to hold a restart count.
  EXPECT_EQ(1, ExpectSearchesAgree("ab", {"a"}, 0, BytewiseComparator()));
}

TEST(BlockSearchTest, KeysOutgrowTheInlineBuffer) {
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  for (size_t len : {size_t{8}, BlockSearch::kInlineKey,
                     BlockSearch::kInlineKey + 1, 4 * BlockSearch::kInlineKey}) {
    keys.push_back(std::string(len, 'k'));
  }
  for (const std::string& k : keys) builder.Add(k, k.substr(0, 3));
  const std::string contents = builder.Finish().ToString();
  BlockContents bc{Slice(contents), false, false};
  Block block(bc);
  BlockSearch search;
  for (const std::string& k : keys) {
    ASSERT_TRUE(search.Seek(block, k, 0));
    EXPECT_EQ(k, search.key().ToString());
  }
  // A search after a long key still finds a short one.
  ASSERT_TRUE(search.Seek(block, "a", 0));
  EXPECT_EQ(keys[0], search.key().ToString());
}

namespace {

// Reverse bytewise order under a name of its own, counting its calls.
class ReverseComparator : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    calls_++;
    return -a.compare(b);
  }
  const char* Name() const override { return "test.ReverseComparator"; }
  void FindShortestSeparator(std::string*, const Slice&) const override {}
  void FindShortSuccessor(std::string*) const override {}
  uint64_t calls() const { return calls_; }

 private:
  mutable uint64_t calls_ = 0;
};

}  // namespace

// A table whose comparator is not over a bytewise order searches its data
// blocks through the comparator (Block::Iter::Seek), not by memcmp: under a
// reverse order a memcmp search would land on the wrong entries.
TEST(TableTest, InternalGetUnderOtherComparatorUsesIt) {
  ReverseComparator ucmp;
  const InternalKeyComparator icmp(&ucmp);
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.comparator = &icmp;
  options.block_size = 256;
  std::vector<std::string> users;
  for (int i = 499; i >= 0; i--) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", i);
    users.push_back(buf);
  }
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/rev", &file).ok());
  TableBuilder builder(options, file.get());
  for (const std::string& u : users) {
    builder.Add(InternalKey(u, 7, kTypeValue).Encode(), "v" + u, u);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());
  std::unique_ptr<RandomAccessFile> source;
  ASSERT_TRUE(env->NewRandomAccessFile("/rev", &source).ok());
  Table* raw = nullptr;
  ASSERT_TRUE(Table::Open(options, source.get(), builder.FileSize(), &raw).ok());
  std::unique_ptr<Table> table(raw);
  ASSERT_GT(table->properties().num_data_blocks, 4u);

  const uint64_t before = ucmp.calls();
  for (const std::string& u : users) {
    GetResult r;
    ASSERT_TRUE(table
                    ->InternalGet(ReadOptions(),
                                  InternalKey(u, kMaxSequenceNumber,
                                              kValueTypeForSeek)
                                      .Encode(),
                                  u, &r, SaveGet)
                    .ok());
    ASSERT_TRUE(r.called) << u;
    EXPECT_EQ(InternalKey(u, 7, kTypeValue).Encode().ToString(), r.key);
    EXPECT_EQ("v" + u, r.value);
  }
  EXPECT_GT(ucmp.calls(), before);
}

}  // namespace acheron
