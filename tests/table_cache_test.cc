// TableCache: open-table handle caching, eviction, and error paths.
#include "src/lsm/table_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/filename.h"
#include "src/table/table_builder.h"

namespace acheron {

class TableCacheTest : public ::testing::Test {
 protected:
  TableCacheTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.comparator = &icmp_;
    cache_ = std::make_unique<TableCache>("/db", options_, /*entries=*/4);
    EXPECT_TRUE(env_->CreateDir("/db").ok());
  }

  // Builds table |number| holding keys k<base>..k<base+count-1> (internal
  // key encoded with seq 1..count). Returns the file size.
  uint64_t BuildTable(uint64_t number, int base, int count) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env_->NewWritableFile(TableFileName("/db", number), &file).ok());
    TableBuilder builder(options_, file.get());
    for (int i = 0; i < count; i++) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "k%06d", base + i);
      InternalKey ikey(buf, i + 1, kTypeValue);
      builder.Add(ikey.Encode(), "v" + std::to_string(base + i), buf);
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(file->Close().ok());
    return builder.FileSize();
  }

  InternalKeyComparator icmp_{BytewiseComparator()};
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<TableCache> cache_;
};

namespace {
struct GetState {
  bool found = false;
  std::string value;
};
void SaveEntry(void* arg, const Slice&, const Slice& v) {
  auto* s = static_cast<GetState*>(arg);
  s->found = true;
  s->value = v.ToString();
}
}  // namespace

TEST_F(TableCacheTest, IteratorAndGet) {
  uint64_t size = BuildTable(10, 0, 100);

  std::unique_ptr<Iterator> it(
      cache_->NewIterator(ReadOptions(), 10, size));
  it->SeekToFirst();
  int n = 0;
  for (; it->Valid(); it->Next()) n++;
  EXPECT_EQ(100, n);

  GetState state;
  InternalKey target("k000042", kMaxSequenceNumber, kValueTypeForSeek);
  ASSERT_TRUE(cache_->Get(ReadOptions(), 10, size, target.Encode(), "k000042",
                          &state, SaveEntry)
                  .ok());
  EXPECT_TRUE(state.found);
  EXPECT_EQ("v42", state.value);
}

TEST_F(TableCacheTest, ManyTablesExceedCacheCapacity) {
  // 10 tables through a 4-entry cache: all must stay readable (handles are
  // reopened on demand after eviction).
  uint64_t sizes[10];
  for (uint64_t t = 0; t < 10; t++) {
    sizes[t] = BuildTable(100 + t, static_cast<int>(t) * 1000, 50);
  }
  for (int round = 0; round < 3; round++) {
    for (uint64_t t = 0; t < 10; t++) {
      GetState state;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "k%06d",
                    static_cast<int>(t) * 1000 + 7);
      InternalKey target(buf, kMaxSequenceNumber, kValueTypeForSeek);
      ASSERT_TRUE(cache_->Get(ReadOptions(), 100 + t, sizes[t],
                              target.Encode(), buf, &state, SaveEntry)
                      .ok());
      EXPECT_TRUE(state.found) << "table " << t;
    }
  }
}

TEST_F(TableCacheTest, EvictDropsHandle) {
  uint64_t size = BuildTable(20, 0, 10);
  GetState state;
  InternalKey target("k000003", kMaxSequenceNumber, kValueTypeForSeek);
  ASSERT_TRUE(cache_->Get(ReadOptions(), 20, size, target.Encode(), "k000003",
                          &state, SaveEntry)
                  .ok());
  cache_->Evict(20);
  // Still readable: the cache reopens the file.
  state = GetState();
  ASSERT_TRUE(cache_->Get(ReadOptions(), 20, size, target.Encode(), "k000003",
                          &state, SaveEntry)
                  .ok());
  EXPECT_TRUE(state.found);

  // After deleting the underlying file and evicting, reads fail cleanly.
  cache_->Evict(20);
  ASSERT_TRUE(env_->RemoveFile(TableFileName("/db", 20)).ok());
  Status s = cache_->Get(ReadOptions(), 20, size, target.Encode(), "k000003",
                         &state, SaveEntry);
  EXPECT_FALSE(s.ok());
}

TEST_F(TableCacheTest, PinsStopAtCapacity) {
  // The 4-entry cache pins at most 4 handles; past that Pin hands out none
  // and makes no lookup, and an Unpin makes room again.
  uint64_t sizes[6];
  for (uint64_t t = 0; t < 6; t++) {
    sizes[t] = BuildTable(200 + t, static_cast<int>(t) * 1000, 20);
  }
  std::vector<Cache::Handle*> pins;
  for (uint64_t t = 0; t < 4; t++) {
    Cache::Handle* h = nullptr;
    ASSERT_TRUE(cache_->Pin(200 + t, sizes[t], &h).ok());
    ASSERT_NE(nullptr, h);
    EXPECT_EQ(cache_->table(h)->properties().num_entries, 20u);
    pins.push_back(h);
  }
  EXPECT_EQ(4, cache_->pinned());
  const uint64_t lookups = cache_->TEST_lookups();
  Cache::Handle* h = nullptr;
  ASSERT_TRUE(cache_->Pin(204, sizes[4], &h).ok());
  EXPECT_EQ(nullptr, h);
  EXPECT_EQ(lookups, cache_->TEST_lookups());
  EXPECT_EQ(4, cache_->pinned());

  // Unpinned tables stay readable through Get meanwhile.
  GetState state;
  InternalKey target("k005003", kMaxSequenceNumber, kValueTypeForSeek);
  ASSERT_TRUE(cache_->Get(ReadOptions(), 205, sizes[5], target.Encode(),
                          "k005003", &state, SaveEntry)
                  .ok());
  EXPECT_TRUE(state.found);

  cache_->Unpin(pins.back());
  pins.pop_back();
  ASSERT_TRUE(cache_->Pin(204, sizes[4], &h).ok());
  ASSERT_NE(nullptr, h);
  pins.push_back(h);
  // A table that cannot be opened reports its error and pins nothing.
  Cache::Handle* missing = nullptr;
  cache_->Unpin(pins.back());
  pins.pop_back();
  EXPECT_FALSE(cache_->Pin(999, 1234, &missing).ok());
  EXPECT_EQ(nullptr, missing);
  EXPECT_EQ(3, cache_->pinned());
  for (Cache::Handle* p : pins) cache_->Unpin(p);
  EXPECT_EQ(0, cache_->pinned());
}

TEST_F(TableCacheTest, MissingFileIsError) {
  std::unique_ptr<Iterator> it(
      cache_->NewIterator(ReadOptions(), 999, 1234));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
}

}  // namespace acheron
