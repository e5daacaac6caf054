// TableBuilder: constructs an SSTable from keys added in sorted order.
// Produces prefix-compressed data blocks, a full-file Bloom filter, a
// properties block (tombstone metadata for FADE), a fence-pointer index
// block, and the footer.
#ifndef ACHERON_TABLE_TABLE_BUILDER_H_
#define ACHERON_TABLE_TABLE_BUILDER_H_

#include <cstdint>

#include "src/core/range_tombstone.h"
#include "src/lsm/options.h"
#include "src/table/properties.h"
#include "src/util/status.h"

namespace acheron {

class BlockBuilder;
class BlockHandle;
class WritableFile;

class TableBuilder {
 public:
  // Create a builder that will store the contents of the table it is
  // building in *file. Does not close the file.
  TableBuilder(const Options& options, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: Either Finish() or Abandon() has been called.
  ~TableBuilder();

  // Add key,value to the table being constructed.
  // REQUIRES: key is after any previously added key in comparator order.
  // REQUIRES: Finish(), Abandon() have not been called.
  // |filter_key| is the key the Bloom filter indexes (the user key, when
  // the stored key is an internal key); pass the stored key if identical.
  void Add(const Slice& key, const Slice& value, const Slice& filter_key);

  // Record a range tombstone [begin, end)@seq for the table's
  // range-tombstone block. May be called in any order relative to Add();
  // the block is emitted at Finish() with its handle stored in the
  // properties block. Inverted ranges (begin >= end) are dropped.
  // |ucmp| orders the USER keys begin/end -- options.comparator cannot,
  // because inside the engine it is the internal-key comparator, which
  // misreads a bare user key's tail as a sequence tag.
  // REQUIRES: Finish(), Abandon() have not been called.
  void AddRangeTombstone(const Slice& begin, const Slice& end,
                         SequenceNumber seq, const Comparator* ucmp);

  // Advanced: end the current data block and append it to the file,
  // starting a new block. The file may still buffer the bytes.
  void Flush();

  Status status() const;

  // Finish building the table; stops using the file after this returns.
  // The tail may still sit in the file's buffer: the owner Flushes, Syncs
  // or Closes the file.
  Status Finish();

  // Abandon the table contents (e.g. the caller will remove the file).
  void Abandon();

  // Number of Add() calls so far.
  uint64_t NumEntries() const;

  // Size of the file generated so far.
  uint64_t FileSize() const;

  // Caller-visible properties, written to the properties block at Finish().
  // The LSM layer fills in tombstone statistics here while adding entries;
  // entry/block counters are maintained by the builder itself.
  TableProperties* mutable_properties();

 private:
  bool ok() const { return status().ok(); }
  void WriteBlock(BlockBuilder* block, BlockHandle* handle);
  void WriteRawBlock(const Slice& data, BlockHandle* handle);

  struct Rep;
  Rep* rep_;
};

}  // namespace acheron

#endif  // ACHERON_TABLE_TABLE_BUILDER_H_
