// RepairDB: best-effort recovery of a database whose MANIFEST/CURRENT is
// lost or corrupted. Repair runs in two tiers:
//
// Bounded repair (tried first): VersionSet::Replay the newest MANIFEST
// whose record stream yields a consistent picture -- the same replay
// DB::Open runs, with framing checksums off and the first torn record
// ending it (snapshot records carry an inner CRC32C over their body, so
// restart points stay trustworthy) -- then verify every referenced table
// and sealed vLog segment actually exists at (at least) its recorded size.
// On success a fresh descriptor holding the replayed version's snapshot
// record is written: it preserves the level structure, compaction pointers,
// persistence-monitor journal, vLog registry and the original log number,
// so the subsequent DB::Open replays the surviving WALs itself.
//
// Full salvage (fallback): the classic leveldb-style repair. The repairer
//   (1) salvages orphaned vLog segments: every .vlog file is CRC-scanned
//       and re-registered, sealed at its valid prefix, so surviving value
//       pointers dereference again,
//   (2) replays any WAL files into fresh L0 tables through a TableSink,
//       each up to its first value pointer past the salvaged extents,
//   (3) inspects every table file, re-deriving its key range and tombstone,
//       secondary-key and vLog metadata from the file itself by the table
//       sink's own fold (a full scan, which validates every block), and
//       leaves out a table pointing past the salvaged extents,
//   (4) writes a new MANIFEST placing every surviving table in level 0
//       (conservatively correct: L0 runs may overlap; subsequent
//       compactions restructure the tree), and
//   (5) leaves undecodable files in place but outside the new version.
//
// Both tiers write their descriptor through WriteDescriptor, which points
// CURRENT at it before the superseded manifests are removed. Sequence
// numbers embedded in the tables are preserved, so snapshots of logical
// time -- and with them Acheron's delete-persistence clock -- survive the
// repair.
#include <algorithm>
#include <string>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/table_sink.h"
#include "src/lsm/version_set.h"
#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"
#include "src/table/table.h"
#include "src/vlog/vlog_format.h"
#include "src/vlog/vlog_reader.h"
#include "src/wal/log_reader.h"

namespace acheron {
namespace {

class Repairer {
 public:
  Repairer(const std::string& dbname, const Options& options)
      : dbname_(dbname),
        env_(options.env ? options.env : DefaultEnv()),
        icmp_(options.comparator ? options.comparator
                                 : BytewiseComparator()),
        options_(options),
        next_file_number_(1) {
    options_.comparator = &icmp_;
    options_.env = env_;
    options_.block_cache = nullptr;  // tables opened once, uncached
  }

  Status Run() {
    Status status = FindFiles();
    if (status.ok()) {
      // Tier 1: bounded repair from the newest consistent MANIFEST. Falls
      // through to the full salvage on any inconsistency -- a missing or
      // undersized table, a corrupt head record, no manifest at all.
      if (BoundedRepair().ok()) {
        return Status::OK();
      }
      SalvageVlogSegments();
      ConvertLogFilesToTables();
      ExtractMetaData();
      status = WriteSalvagedDescriptor();
    }
    return status;
  }

 private:
  struct TableInfo {
    FileMetaData meta;
    SequenceNumber max_sequence = 0;
  };

  Status BoundedRepair() {
    // Newest incarnation first: a higher-numbered manifest supersedes the
    // ones before it, so fall back down the list only when replay or table
    // verification fails.
    std::vector<std::pair<uint64_t, std::string>> ordered;
    uint64_t number;
    FileType type;
    for (const std::string& m : manifests_) {
      if (ParseFileName(m, &number, &type)) {
        ordered.emplace_back(number, m);
      }
    }
    if (ordered.empty()) {
      return Status::NotFound(dbname_, "no MANIFEST to replay");
    }
    std::sort(ordered.rbegin(), ordered.rend());
    // Floor for the repaired manifest's own number: above every existing
    // manifest (never truncate one we might still fall back to) and above
    // every salvageable log/table number.
    const uint64_t min_new_number =
        std::max(ordered.front().first + 1, next_file_number_);

    Status status;
    for (const auto& entry : ordered) {
      VersionSet versions(dbname_, &options_, /*table_cache=*/nullptr,
                          &icmp_);
      status = versions.Replay(entry.second, /*stop_at_bad_record=*/true);
      if (status.ok()) status = VerifyTables(*versions.current());
      if (status.ok()) status = VerifyVlogSegments(versions.vlog_registry());
      if (status.ok()) {
        // The descriptor's recorded next-file number must exceed its own
        // number, or the next Open would allocate the same number for its
        // manifest and truncate this one.
        const uint64_t manifest_number =
            std::max(versions.ManifestFileNumber(), min_new_number);
        versions.MarkFileNumberUsed(manifest_number);
        VersionEdit edit;
        versions.SnapshotEdit(&edit);
        return InstallDescriptor(manifest_number, edit);
      }
    }
    return status;
  }

  Status VerifyTables(const Version& v) {
    // Every table the replayed version references must exist at no less
    // than its recorded size; a shorter file would fail at read time (the
    // footer offset comes from file_size), so reject it here and let the
    // salvage tier rebuild from what is actually on disk.
    for (int level = 0; level < kNumLevels; level++) {
      for (const FileMetaData* f : v.files(level)) {
        const std::string fname = TableFileName(dbname_, f->number);
        uint64_t size = 0;
        Status s = env_->GetFileSize(fname, &size);  // io: repair
        if (!s.ok()) return s;
        if (size < f->file_size) {
          return Status::Corruption(fname, "table shorter than recorded");
        }
      }
    }
    return Status::OK();
  }

  // A sealed segment with values must exist at no less than its recorded
  // extent, or pointers into it would dangle: fall back to salvage. The
  // crash-time head (unsealed) and empty segments are left as recorded;
  // DB::Open's RecoverVlog drops the missing ones and seals a present head
  // at its valid prefix, as after any crash.
  Status VerifyVlogSegments(const vlog::Registry& registry) {
    for (const auto& entry : registry) {
      const vlog::SegmentInfo& info = entry.second;
      if (!info.sealed) continue;
      const std::string fname = VlogFileName(dbname_, info.number);
      uint64_t size = 0;
      Status s = env_->GetFileSize(fname, &size);  // io: repair
      if (!s.ok() && info.value_count > 0) {
        return Status::Corruption(fname, "missing value log segment");
      }
      if (s.ok() && size < info.total_bytes) {
        return Status::Corruption(fname, "value log shorter than recorded");
      }
    }
    return Status::OK();
  }

  // Write the repaired descriptor (which points CURRENT at it), then
  // discard the manifests found at startup. Never touches the descriptor
  // just written, even if a stale file of the same name was in the startup
  // listing.
  Status InstallDescriptor(uint64_t manifest_number, const VersionEdit& edit) {
    Status status = WriteDescriptor(env_, dbname_, manifest_number, edit);
    if (!status.ok()) return status;
    uint64_t number;
    FileType type;
    for (const std::string& old_manifest : manifests_) {
      if (ParseFileName(old_manifest, &number, &type) &&
          number == manifest_number) {
        continue;
      }
      (void)env_->RemoveFile(dbname_ + "/" + old_manifest);  // io: repair
    }
    return status;
  }

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status status = env_->GetChildren(dbname_, &filenames);  // io: repair
    if (!status.ok()) return status;
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }

    uint64_t number;
    FileType type;
    for (const std::string& filename : filenames) {
      if (ParseFileName(filename, &number, &type)) {
        // Descriptors count toward next_file_number_ too: a crashed earlier
        // repair can leave a (possibly empty) MANIFEST behind, and reusing
        // its number would truncate it -- and then the old-manifest cleanup
        // would unlink the descriptor we just wrote under that name.
        if (number + 1 > next_file_number_) {
          next_file_number_ = number + 1;
        }
        if (type == kDescriptorFile) {
          manifests_.push_back(filename);
        } else if (type == kLogFile) {
          logs_.push_back(number);
        } else if (type == kTableFile) {
          table_numbers_.push_back(number);
        } else if (type == kVlogFile) {
          vlog_numbers_.push_back(number);
        }
      }
    }
    return status;
  }

  void ConvertLogFilesToTables() {
    for (uint64_t log_number : logs_) {
      (void)ConvertLogToTable(log_number);
      // The log is fully captured in a table now (or it was unreadable);
      // either way it is not consulted again. Leave it on disk -- the next
      // DB::Open garbage-collects files below the recovered log number.
    }
  }

  Status ConvertLogToTable(uint64_t log) {
    struct LogReporter : public wal::Reader::Reporter {
      void Corruption(size_t, const Status&) override {
        // Keep going: salvage as many records as possible.
      }
    };

    std::string logname = LogFileName(dbname_, log);
    std::unique_ptr<SequentialFile> lfile;
    Status status = env_->NewSequentialFile(logname, &lfile);  // io: repair
    if (!status.ok()) return status;

    LogReporter reporter;
    wal::Reader reader(lfile.get(), &reporter, false /*do not checksum*/);

    std::string scratch;
    Slice record;
    WriteBatch batch;
    MemTable* mem = new MemTable(icmp_);
    mem->Ref();
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) continue;
      WriteBatchInternal::SetContents(&batch, record);
      // A pointer past the salvaged vLog extents marks the log's unacked
      // suffix: stop here, as DB::Open's replay does.
      if (!WriteBatchInternal::PointersWithin(&batch, vlog_extents_)) break;
      // Ignore per-batch errors: salvage what parses.
      (void)WriteBatchInternal::InsertInto(&batch, mem);
    }

    // The table is built like a flush output; the sink derives its
    // metadata. An empty memtable yields no output.
    const Comparator* ucmp = icmp_.user_comparator();
    TableSink sink(options_, ucmp, env_, dbname_,
                   [this] { return next_file_number_++; }, /*worker=*/nullptr);
    TableSink::Run run;
    mem->CollectRangeTombstones(&run.range_tombstones);
    SequenceNumber max_sequence = 0;
    for (const RangeTombstone& t : run.range_tombstones) {
      max_sequence = std::max(max_sequence, t.seq);
    }
    if (!run.range_tombstones.empty()) {
      TableSink::RangeOnlyBounds(run.range_tombstones, ucmp,
                                 &run.range_only_smallest,
                                 &run.range_only_largest);
    }
    sink.BeginRun(std::move(run));
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    for (iter->SeekToFirst(); iter->Valid() && !sink.failed(); iter->Next()) {
      sink.Add(iter->key(), iter->value());
      max_sequence = std::max(max_sequence, ExtractSequence(iter->key()));
    }
    status = sink.Finish(iter->status());
    iter.reset();
    mem->Unref();
    if (status.ok()) {
      for (const TableSink::Output& out : sink.outputs()) {
        TableInfo t;
        t.meta = out.meta;
        t.meta.run_id = t.meta.number;
        t.max_sequence = max_sequence;
        tables_.push_back(t);
      }
    }
    return status;
  }

  void ExtractMetaData() {
    for (uint64_t number : table_numbers_) {
      TableInfo t;
      t.meta.number = number;
      // An unreadable table is excluded from the repaired version. The file
      // is left on disk for forensics; DB::Open's garbage collection will
      // not see it as live and removes it.
      if (ScanTable(&t).ok()) tables_.push_back(t);
    }
  }

  Status ScanTable(TableInfo* t) {
    std::string fname = TableFileName(dbname_, t->meta.number);
    Status status = env_->GetFileSize(fname, &t->meta.file_size);  // io: repair
    if (!status.ok()) return status;

    std::unique_ptr<RandomAccessFile> file;
    status = env_->NewRandomAccessFile(fname, &file);  // io: repair
    if (!status.ok()) return status;
    Table* raw_table = nullptr;
    status = Table::Open(options_, file.get(), t->meta.file_size, &raw_table);
    if (!status.ok()) return status;
    std::unique_ptr<Table> table(raw_table);

    // Re-derive the metadata by scanning, through the table sink's fold:
    // per-entry data beats a possibly stale properties block and validates
    // every block checksum along the way.
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
    bool bad_key = false;
    bool dangling = false;
    ParsedInternalKey parsed;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      if (!ParseInternalKey(iter->key(), &parsed)) {
        bad_key = true;
        continue;
      }
      if (parsed.type == kTypeValuePointer &&
          !vlog::PointerWithin(iter->value(), vlog_extents_)) {
        dangling = true;
      }
      TableSink::FoldEntry(options_, iter->key(), iter->value(), &t->meta);
      t->max_sequence = std::max(t->max_sequence, parsed.sequence);
    }
    status = iter->status();
    iter.reset();

    // Range tombstones live in their own block. (A table whose range-del
    // block failed to decode never passed Table::Open, so
    // raw_range_tombstones() here is trustworthy.)
    const std::vector<RangeTombstone>& range_dels =
        table->raw_range_tombstones();
    const Comparator* ucmp = icmp_.user_comparator();
    for (const RangeTombstone& rt : range_dels) {
      TableSink::FoldRangeTombstone(ucmp, rt, &t->meta);
      t->max_sequence = std::max(t->max_sequence, rt.seq);
    }
    if (!range_dels.empty()) {
      t->meta.earliest_range_tombstone_wall_micros =
          table->properties().earliest_range_tombstone_wall_micros;
      if (t->meta.num_entries == 0) {
        // Salvaged tables all land in level 0, where overlap is legal.
        TableSink::RangeOnlyBounds(range_dels, ucmp, &t->meta.smallest,
                                   &t->meta.largest);
      }
    }

    if (!status.ok()) return status;
    if (t->meta.num_entries == 0 && range_dels.empty()) {
      return Status::Corruption("table holds no decodable entries");
    }
    if (bad_key && options_.paranoid_checks) {
      return Status::Corruption("table holds undecodable keys");
    }
    if (dangling) {
      // Sync-before-install: no table that ever went live points past a
      // durable extent. This one never installed (a vLog-GC rewrite whose
      // relocation segment was not yet synced) or is an obsolete leftover
      // whose segment was collected; including it would shadow the live
      // copy of its entries with unreadable values.
      return Status::Corruption("table points past the salvaged value log");
    }
    t->meta.run_id = t->meta.number;
    return Status::OK();
  }

  // Full-salvage counterpart of VerifyVlogSegments: with the MANIFEST gone,
  // the registry is rebuilt from the .vlog files themselves. Each segment is
  // CRC-scanned and re-registered sealed at its valid prefix; garbage/
  // pending-purge accounting is lost (conservatively zero -- GC re-learns
  // garbage as compactions drop pointers). Unreadable or empty segments are
  // left on disk but outside the new version; the next Open's obsolete-file
  // pass removes them if no surviving table references their span.
  void SalvageVlogSegments() {
    for (uint64_t number : vlog_numbers_) {
      uint64_t valid_bytes = 0;
      uint64_t value_count = 0;
      // io: repair -- CRC scan of one orphaned segment
      Status s = vlog::ScanSegment(env_, VlogFileName(dbname_, number),
                                   &valid_bytes, &value_count);
      if (!s.ok() || value_count == 0) continue;
      vlog::SegmentInfo info;
      info.number = number;
      info.sealed = true;
      info.total_bytes = valid_bytes;
      info.value_count = value_count;
      salvaged_vlog_.push_back(info);
      vlog_extents_[number] = valid_bytes;
    }
  }

  Status WriteSalvagedDescriptor() {
    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(next_file_number_);  // beyond every salvaged log
    edit.SetNextFile(next_file_number_ + 1);
    // Highest sequence across all salvaged tables.
    SequenceNumber max_sequence = 0;
    for (const TableInfo& t : tables_) {
      max_sequence = std::max(max_sequence, t.max_sequence);
      edit.AddFile(0, t.meta);
    }
    edit.SetLastSequence(max_sequence);
    for (const vlog::SegmentInfo& info : salvaged_vlog_) {
      edit.AddVlogSegment(info);
    }
    return InstallDescriptor(next_file_number_ + 2, edit);
  }

  const std::string dbname_;
  Env* const env_;
  InternalKeyComparator const icmp_;
  Options options_;

  std::vector<std::string> manifests_;
  std::vector<uint64_t> table_numbers_;
  std::vector<uint64_t> logs_;
  std::vector<uint64_t> vlog_numbers_;
  std::vector<TableInfo> tables_;
  std::vector<vlog::SegmentInfo> salvaged_vlog_;
  vlog::Extents vlog_extents_;  // valid prefix of each salvaged segment
  uint64_t next_file_number_;
};

}  // namespace

Status RepairDB(const std::string& dbname, const Options& options) {
  Repairer repairer(dbname, options);
  return repairer.Run();
}

}  // namespace acheron
