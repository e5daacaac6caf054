// WriteBatchInternal provides static methods for manipulating a WriteBatch
// that we don't want in the public WriteBatch interface.
#ifndef ACHERON_LSM_WRITE_BATCH_INTERNAL_H_
#define ACHERON_LSM_WRITE_BATCH_INTERNAL_H_

#include "src/lsm/dbformat.h"
#include "src/lsm/write_batch.h"
#include "src/memtable/memtable.h"
#include "src/vlog/vlog_format.h"

namespace acheron {

class WriteBatchInternal {
 public:
  // Return the number of entries in the batch.
  static int Count(const WriteBatch* batch);

  // Set the count for the number of entries in the batch.
  static void SetCount(WriteBatch* batch, int n);

  // Return the sequence number for the start of this batch.
  static SequenceNumber Sequence(const WriteBatch* batch);

  // Store the specified number as the sequence number for the start of
  // this batch.
  static void SetSequence(WriteBatch* batch, SequenceNumber seq);

  static Slice Contents(const WriteBatch* batch) { return Slice(batch->rep_); }

  static size_t ByteSize(const WriteBatch* batch) { return batch->rep_.size(); }

  static void SetContents(WriteBatch* batch, const Slice& contents);

  // Add every entry of |batch| to |memtable|; with a |queue|, its nodes
  // are pushed there to be linked (MemTable::Add).
  static Status InsertInto(const WriteBatch* batch, MemTable* memtable,
                           MemTable::LinkQueue* queue = nullptr);

  // True if every value pointer in |batch| lies inside |extents| (see
  // vlog::PointerWithin).
  static bool PointersWithin(const WriteBatch* batch,
                             const vlog::Extents& extents);

  static void Append(WriteBatch* dst, const WriteBatch* src);
};

}  // namespace acheron

#endif  // ACHERON_LSM_WRITE_BATCH_INTERNAL_H_
