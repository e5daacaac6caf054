#include "src/table/table_builder.h"

#include <cassert>
#include <vector>

#include "src/env/env.h"
#include "src/table/block_builder.h"
#include "src/table/format.h"
#include "src/util/bloom.h"
#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/crc32c.h"

namespace acheron {

struct TableBuilder::Rep {
  Rep(const Options& opt, WritableFile* f)
      : options(opt),
        file(f),
        offset(0),
        data_block(opt.block_restart_interval),
        index_block(1),
        num_entries(0),
        closed(false),
        // Prefer the DB-wide shared policy; allocate a per-builder fallback
        // only for standalone builders whose Options carry none.
        owned_filter_policy(opt.filter_policy == nullptr &&
                                    opt.filter_bits_per_key > 0
                                ? NewBloomFilterPolicy(opt.filter_bits_per_key)
                                : nullptr),
        filter_policy(opt.filter_policy != nullptr ? opt.filter_policy
                                                   : owned_filter_policy),
        pending_index_entry(false) {}

  ~Rep() { delete owned_filter_policy; }

  Options options;
  WritableFile* file;
  uint64_t offset;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::string last_key;
  int64_t num_entries;
  bool closed;  // Either Finish() or Abandon() has been called.
  const FilterPolicy* owned_filter_policy;  // null when Options shares one
  const FilterPolicy* filter_policy;        // may alias owned_filter_policy
  // Keys accumulated for the full-file Bloom filter: their bytes back to
  // back in one buffer, key i spanning [filter_key_ends[i-1],
  // filter_key_ends[i]). (One heap string per key would cost an allocation
  // for every key past the 15-byte small-string limit.)
  std::string filter_key_bytes;
  std::vector<size_t> filter_key_ends;
  // Raw range tombstones, emitted as a dedicated block at Finish().
  std::vector<RangeTombstone> range_tombstones;
  TableProperties properties;

  // We do not emit the index entry for a block until we have seen the first
  // key for the next data block. This allows us to use shorter keys in the
  // index block.
  bool pending_index_entry;
  BlockHandle pending_handle;  // Handle to add to index block

  std::string compressed_output;
};

TableBuilder::TableBuilder(const Options& options, WritableFile* file)
    : rep_(new Rep(options, file)) {}

TableBuilder::~TableBuilder() {
  assert(rep_->closed);  // Catch errors where caller forgot to call Finish()
  delete rep_;
}

void TableBuilder::Add(const Slice& key, const Slice& value,
                       const Slice& filter_key) {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  const Comparator* cmp =
      r->options.comparator ? r->options.comparator : BytewiseComparator();
  if (r->num_entries > 0) {
    assert(cmp->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    cmp->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(r->last_key, Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->filter_policy != nullptr) {
    r->filter_key_bytes.append(filter_key.data(), filter_key.size());
    r->filter_key_ends.push_back(r->filter_key_bytes.size());
  }

  r->last_key.assign(key.data(), key.size());
  r->num_entries++;
  r->properties.num_entries++;
  r->properties.raw_key_bytes += key.size();
  r->properties.raw_value_bytes += value.size();
  r->data_block.Add(key, value);

  const size_t estimated_block_size = r->data_block.CurrentSizeEstimate();
  if (estimated_block_size >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::AddRangeTombstone(const Slice& begin, const Slice& end,
                                     SequenceNumber seq,
                                     const Comparator* ucmp) {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  const Comparator* cmp = ucmp != nullptr ? ucmp : BytewiseComparator();
  if (cmp->Compare(begin, end) >= 0) return;  // covers nothing
  // Deliberately not added to the Bloom filter: range coverage queries go
  // straight to the decoded fragment list, never through the filter.
  r->range_tombstones.emplace_back(begin.ToString(), end.ToString(), seq);
  r->properties.num_range_tombstones++;
  if (seq < r->properties.earliest_range_tombstone_time) {
    r->properties.earliest_range_tombstone_time = seq;
  }
  if (r->properties.range_del_begin.empty() ||
      cmp->Compare(begin, r->properties.range_del_begin) < 0) {
    r->properties.range_del_begin = begin.ToString();
  }
  if (r->properties.range_del_end.empty() ||
      cmp->Compare(end, r->properties.range_del_end) > 0) {
    r->properties.range_del_end = end.ToString();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) return;
  if (r->data_block.empty()) return;
  assert(!r->pending_index_entry);
  WriteBlock(&r->data_block, &r->pending_handle);
  if (ok()) {
    r->pending_index_entry = true;
    r->properties.num_data_blocks++;
    // The block stays in the file's buffer, which coalesces blocks into
    // one write(2) per buffer; the owner's Flush/Sync before install pushes
    // the tail.
  }
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  // File format contains a sequence of blocks where each block has:
  //    block_data: uint8[n]
  //    type: uint8 (0 = uncompressed)
  //    crc: uint32
  assert(ok());
  Slice raw = block->Finish();
  WriteRawBlock(raw, handle);
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& block_contents,
                                 BlockHandle* handle) {
  Rep* r = rep_;
  handle->set_offset(r->offset);
  handle->set_size(block_contents.size());
  r->status = r->file->Append(block_contents);
  if (r->status.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;  // uncompressed
    uint32_t crc = crc32c::Value(block_contents.data(), block_contents.size());
    crc = crc32c::Extend(crc, trailer, 1);  // Extend crc to cover block type
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    r->status = r->file->Append(Slice(trailer, kBlockTrailerSize));
    if (r->status.ok()) {
      r->offset += block_contents.size() + kBlockTrailerSize;
    }
  }
}

Status TableBuilder::status() const { return rep_->status; }

Status TableBuilder::Finish() {
  Rep* r = rep_;
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle, properties_block_handle, index_block_handle;

  // Write filter block (full-file Bloom over all filter keys).
  if (ok()) {
    std::string filter_contents;
    if (r->filter_policy != nullptr && !r->filter_key_ends.empty()) {
      std::vector<Slice> key_slices;
      key_slices.reserve(r->filter_key_ends.size());
      size_t start = 0;
      for (size_t end : r->filter_key_ends) {
        key_slices.emplace_back(r->filter_key_bytes.data() + start,
                                end - start);
        start = end;
      }
      r->filter_policy->CreateFilter(key_slices.data(),
                                     static_cast<int>(key_slices.size()),
                                     &filter_contents);
    }
    WriteRawBlock(Slice(filter_contents), &filter_block_handle);
  }

  // Write range-tombstone block (if any) and record its handle in the
  // properties, since the fixed three-handle footer has no slot for it.
  if (ok() && !r->range_tombstones.empty()) {
    std::string range_contents;
    EncodeRangeTombstones(r->range_tombstones, &range_contents);
    BlockHandle range_handle;
    WriteRawBlock(Slice(range_contents), &range_handle);
    if (ok()) {
      r->properties.range_del_block_offset = range_handle.offset();
      r->properties.range_del_block_size = range_handle.size();
    }
  }

  // Write properties block.
  if (ok()) {
    std::string props_contents;
    r->properties.EncodeTo(&props_contents);
    WriteRawBlock(Slice(props_contents), &properties_block_handle);
  }

  // Write index block.
  if (ok()) {
    if (r->pending_index_entry) {
      const Comparator* cmp =
          r->options.comparator ? r->options.comparator : BytewiseComparator();
      cmp->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(r->last_key, Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Write footer.
  if (ok()) {
    Footer footer;
    footer.set_filter_handle(filter_block_handle);
    footer.set_properties_handle(properties_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(footer_encoding);
    if (r->status.ok()) {
      r->offset += footer_encoding.size();
    }
  }
  return r->status;
}

void TableBuilder::Abandon() {
  Rep* r = rep_;
  assert(!r->closed);
  r->closed = true;
}

uint64_t TableBuilder::NumEntries() const { return rep_->num_entries; }

uint64_t TableBuilder::FileSize() const { return rep_->offset; }

TableProperties* TableBuilder::mutable_properties() {
  return &rep_->properties;
}

}  // namespace acheron
