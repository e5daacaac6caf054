#include "src/lsm/write_batch.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/lsm/options.h"
#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"

namespace acheron {

static std::string PrintContents(WriteBatch* b) {
  InternalKeyComparator cmp(BytewiseComparator());
  MemTable* mem = new MemTable(cmp, Options().write_buffer_size);
  mem->Ref();
  std::string state;
  Status s = WriteBatchInternal::InsertInto(b, mem);
  int count = 0;
  Iterator* iter = mem->NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey ikey;
    EXPECT_TRUE(ParseInternalKey(iter->key(), &ikey));
    switch (ikey.type) {
      case kTypeValue:
        state.append("Put(");
        state.append(ikey.user_key.ToString());
        state.append(", ");
        state.append(iter->value().ToString());
        state.append(")");
        count++;
        break;
      case kTypeDeletion:
        state.append("Delete(");
        state.append(ikey.user_key.ToString());
        state.append(")");
        count++;
        break;
      case kTypeRangeDeletion:
      case kTypeValuePointer:
        state.append("Unexpected()");  // never inserted by these batches
        break;
    }
    state.append("@");
    state.append(std::to_string(ikey.sequence));
  }
  delete iter;
  if (!s.ok()) {
    state.append("ParseError()");
  } else if (count != WriteBatchInternal::Count(b)) {
    state.append("CountMismatch()");
  }
  mem->Unref();
  return state;
}

TEST(WriteBatchTest, Empty) {
  WriteBatch batch;
  EXPECT_EQ("", PrintContents(&batch));
  EXPECT_EQ(0, WriteBatchInternal::Count(&batch));
}

TEST(WriteBatchTest, Multiple) {
  WriteBatch batch;
  batch.Put(Slice("foo"), Slice("bar"));
  batch.Delete(Slice("box"));
  batch.Put(Slice("baz"), Slice("boo"));
  WriteBatchInternal::SetSequence(&batch, 100);
  EXPECT_EQ(100u, WriteBatchInternal::Sequence(&batch));
  EXPECT_EQ(3, WriteBatchInternal::Count(&batch));
  EXPECT_EQ("Put(baz, boo)@102Delete(box)@101Put(foo, bar)@100",
            PrintContents(&batch));
}

TEST(WriteBatchTest, Corruption) {
  WriteBatch batch;
  batch.Put(Slice("foo"), Slice("bar"));
  batch.Delete(Slice("box"));
  WriteBatchInternal::SetSequence(&batch, 200);
  Slice contents = WriteBatchInternal::Contents(&batch);
  WriteBatchInternal::SetContents(&batch,
                                  Slice(contents.data(), contents.size() - 1));
  EXPECT_EQ("Put(foo, bar)@200ParseError()", PrintContents(&batch));
}

TEST(WriteBatchTest, Append) {
  WriteBatch b1, b2;
  WriteBatchInternal::SetSequence(&b1, 200);
  WriteBatchInternal::SetSequence(&b2, 300);
  b1.Append(b2);
  EXPECT_EQ("", PrintContents(&b1));
  b2.Put("a", "va");
  b1.Append(b2);
  EXPECT_EQ("Put(a, va)@200", PrintContents(&b1));
  b2.Clear();
  b2.Put("b", "vb");
  b1.Append(b2);
  EXPECT_EQ("Put(a, va)@200Put(b, vb)@201", PrintContents(&b1));
  b2.Delete("foo");
  b1.Append(b2);
  // Newer versions of the same user key sort first (sequence descending).
  EXPECT_EQ("Put(a, va)@200Put(b, vb)@202Put(b, vb)@201Delete(foo)@203",
            PrintContents(&b1));
}

TEST(WriteBatchTest, ApproximateSize) {
  WriteBatch batch;
  size_t empty_size = batch.ApproximateSize();

  batch.Put(Slice("foo"), Slice("bar"));
  size_t one_key_size = batch.ApproximateSize();
  EXPECT_LT(empty_size, one_key_size);

  batch.Put(Slice("baz"), Slice("boo"));
  size_t two_keys_size = batch.ApproximateSize();
  EXPECT_LT(one_key_size, two_keys_size);

  batch.Delete(Slice("box"));
  size_t post_delete_size = batch.ApproximateSize();
  EXPECT_LT(two_keys_size, post_delete_size);
}

TEST(WriteBatchTest, ClearResets) {
  WriteBatch batch;
  batch.Put("k", "v");
  batch.Delete("k2");
  EXPECT_EQ(2, batch.Count());
  batch.Clear();
  EXPECT_EQ(0, batch.Count());
  EXPECT_EQ("", PrintContents(&batch));
}

}  // namespace acheron
