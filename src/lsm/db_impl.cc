#include "src/lsm/db_impl.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/env/env.h"
#include "src/lsm/db_iter.h"
#include "src/lsm/filename.h"
#include "src/lsm/merger.h"
#include "src/lsm/table_cache.h"
#include "src/lsm/table_sink.h"
#include "src/lsm/write_batch_internal.h"
#include "src/memtable/memtable.h"
#include "src/util/bloom.h"
#include "src/util/clock.h"
#include "src/wal/log_reader.h"

namespace acheron {

// Per-compaction working state.
struct DBImpl::CompactionState {
  explicit CompactionState(Compaction* c)
      : compaction(c), smallest_snapshot(0) {}

  Compaction* const compaction;

  // Sequence numbers < smallest_snapshot are not significant since we will
  // never have to service a snapshot below smallest_snapshot. Therefore if
  // we have seen a sequence number S <= smallest_snapshot, we can drop all
  // entries for the same key with sequence numbers < S.
  SequenceNumber smallest_snapshot;

  // vLog GC: kept pointers into a victim move to the pass's relocation
  // segment.
  VlogRelocation* relocation = nullptr;
  // Secondary purge: values whose secondary key sorts below this drop.
  const Slice* purge_threshold = nullptr;
};

// One vLog GC pass's relocation segment, shared by the pass's rewrites.
struct DBImpl::VlogRelocation {
  explicit VlogRelocation(const std::set<uint64_t>& v) : victims(v) {}

  const std::set<uint64_t>& victims;
  // Reserved in pending_outputs_ while the pass runs, so RemoveObsoleteFiles
  // cannot unlink the file before an edit registers it.
  uint64_t number = 0;
  std::unique_ptr<vlog::Writer> writer;  // opened at the first relocation
  bool retire = false;  // the running rewrite is the pass's last
  uint64_t values = 0;
  uint64_t bytes = 0;
  std::string value;    // scratch: the record read back
  std::string pointer;  // scratch: the relocated pointer
};

// One queued write. The owning thread sleeps on |cv| until a group leader
// completes the write on its behalf (or it reaches the queue front itself).
struct DBImpl::Writer {
  explicit Writer(Mutex* mu) : batch(nullptr), sync(false), done(false),
                               cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  CondVar cv;
};

Options SanitizeOptions(const std::string&, const Options& src) {
  Options result = src;
  if (result.comparator == nullptr) result.comparator = BytewiseComparator();
  if (result.env == nullptr) result.env = DefaultEnv();
  auto clamp = [](auto v, auto lo, auto hi) {
    return v < lo ? lo : (v > hi ? hi : v);
  };
  result.write_buffer_size =
      clamp(result.write_buffer_size, size_t{4 << 10}, size_t{1} << 30);
  result.max_file_size =
      clamp(result.max_file_size, size_t{16 << 10}, size_t{1} << 30);
  result.block_size = clamp(result.block_size, size_t{512}, size_t{4} << 20);
  result.size_ratio = clamp(result.size_ratio, 2, 64);
  result.num_levels = clamp(result.num_levels, 1, kNumLevels);
  result.level0_compaction_trigger =
      clamp(result.level0_compaction_trigger, 1, 64);
  result.level0_slowdown_writes_trigger =
      clamp(result.level0_slowdown_writes_trigger, 1, 1 << 20);
  // A stop trigger below the slowdown trigger would block writers before
  // the soft throttle ever fires; keep them ordered.
  result.level0_stop_writes_trigger =
      clamp(result.level0_stop_writes_trigger,
            result.level0_slowdown_writes_trigger, 1 << 20);
  result.vlog_segment_size =
      clamp(result.vlog_segment_size, uint64_t{64} << 10, uint64_t{1} << 30);
  result.vlog_gc_live_ratio = clamp(result.vlog_gc_live_ratio, 0.0, 1.0);
  return result;
}

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : env_(raw_options.env ? raw_options.env : DefaultEnv()),
      internal_comparator_(raw_options.comparator ? raw_options.comparator
                                                  : BytewiseComparator()),
      options_(SanitizeOptions(dbname, raw_options)),
      owns_cache_(options_.block_cache == nullptr),
      owns_filter_policy_(options_.filter_policy == nullptr &&
                          options_.filter_bits_per_key > 0),
      dbname_(dbname),
      mem_(nullptr),
      imm_(nullptr),
      logfile_number_(0),
      linker_(std::make_unique<MemTableLinker>(env_)),
      compaction_active_(false),
      bg_compaction_scheduled_(false),
      background_work_finished_signal_(&mutex_),
      output_worker_(std::make_unique<TableSinkWorker>(env_)),
      planner_(options_, &internal_comparator_),
      vlog_readers_(env_, dbname) {
  // The Options copy held by the DB (and handed to tables) always carries a
  // usable block cache; build a private one when the caller didn't.
  Options* mutable_options = const_cast<Options*>(&options_);
  mutable_options->comparator = &internal_comparator_;
  if (owns_cache_) {
    mutable_options->block_cache = NewLRUCache(8 << 20);
  }
  // One filter policy shared by every table this DB opens or builds
  // (Table::Open used to allocate one per table).
  if (owns_filter_policy_) {
    mutable_options->filter_policy =
        NewBloomFilterPolicy(options_.filter_bits_per_key);
  }
  table_cache_ = std::make_unique<TableCache>(dbname_, options_,
                                             options_.max_open_files);
  versions_ = std::make_unique<VersionSet>(dbname_, &options_,
                                           table_cache_.get(),
                                           &internal_comparator_);
  version_set_lockfree_ = versions_.get();
}

DBImpl::~DBImpl() {
  // Flag shutdown, then wait for any queued/running background round and
  // any slot holder to drain before tearing state down.
  MutexLock l(&mutex_);
  shutting_down_.store(true, std::memory_order_release);
  while (bg_compaction_scheduled_ || compaction_active_ ||
         space_watcher_scheduled_) {
    background_work_finished_signal_.Wait();
  }
  // Nodes still pending belong to mem_, which is unreferenced below.
  linker_->Drain();
  // Unpublish and tear down the ReadState chain. The DB contract requires
  // all reads/iterators to have finished before the destructor runs, so
  // every retired node's refcount is (or is about to be) zero.
  ReadState* last = read_state_.exchange(nullptr, std::memory_order_acq_rel);
  if (last != nullptr) {
    retired_read_states_.push_back(last);
    last->refs.fetch_sub(1, std::memory_order_release);  // publication ref
  }
  DrainRetiredReadStates();
  assert(retired_read_states_.empty());
  for (ReadState* s : free_read_states_) delete s;
  free_read_states_.clear();
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
  // Close the WAL explicitly: sync-acked records are already durable and
  // unsynced ones were never promised, so a failed close here loses
  // nothing -- but dropping the status is a conscious choice, not a silent
  // one in the WritableFile destructor.
  log_.reset();
  if (logfile_ != nullptr) {
    // io: mutex-held -- clean close, no concurrent writers remain
    (void)logfile_->Close();
    logfile_.reset();
  }
  // Same contract for the value-log head: every acked value was already
  // individually synced, so a best-effort flush+close loses nothing. The
  // head stays "unsealed" in the MANIFEST; the next Open CRC-scans it and
  // seals it logically at its valid extent.
  if (vlog_ != nullptr) {
    // io: mutex-held -- clean close, no concurrent writers remain
    (void)vlog_->Flush();
    (void)vlog_->Close();
    vlog_.reset();
  }
  // Best-effort clean-close snapshot: the next Open seeks to it and replays
  // zero edits. Failure is harmless -- recovery replays the edit suffix.
  // io: mutex-held -- clean close, no concurrent writers remain
  (void)versions_->WriteCleanCloseSnapshot();
  versions_.reset();
  table_cache_.reset();
  if (owns_cache_) {
    delete options_.block_cache;
  }
  if (owns_filter_policy_) {
    delete options_.filter_policy;
  }
}

// ---------------------------------------------------------------------------
// ReadState: the lock-free read-path snapshot.
//
// Invariants (see DESIGN.md "Read path" for the full argument):
//  * read_state_ always points at a node whose refcount includes one
//    "publication" reference; fields of a published node never change.
//  * Nodes are type-stable: never freed while the DB is open, only moved
//    retired list -> freelist -> reuse. A reader may therefore bump the
//    refcount of a stale (even recycled) node safely; the recheck below
//    ensures it only *uses* the node it actually pinned.
//  * Teardown (Unref of mem/imm/current) happens only in
//    DrainRetiredReadStates, always under mutex_, on nodes with zero refs.
// ---------------------------------------------------------------------------

DBImpl::ReadState* DBImpl::AcquireReadState() {
  while (true) {
    ReadState* s = read_state_.load(std::memory_order_acquire);
    assert(s != nullptr);  // published before the DB is handed out
    s->refs.fetch_add(1, std::memory_order_relaxed);
    // Recheck: if s is still published, our reference is guaranteed to be
    // counted before the publisher's retire-side fetch_sub can drop the
    // node to zero, so the drain cannot tear it down under us. The acquire
    // reload synchronizes with the release publication, making the node's
    // fields (set before publish) visible. If s was swapped out (or even
    // recycled) between load and ref, retry; the stray ref we drop only
    // touched the atomic counter of a type-stable node.
    if (read_state_.load(std::memory_order_acquire) == s) {
      return s;
    }
    s->refs.fetch_sub(1, std::memory_order_release);
  }
}

void DBImpl::UnrefReadState(void* arg1, void* arg2) {
  // Readers only drop their count; teardown is the writer side's job. The
  // release order makes the reader's memtable/version accesses visible to
  // the drain that observes the zero.
  DBImpl* db = reinterpret_cast<DBImpl*>(arg1);
  ReadState* state = reinterpret_cast<ReadState*>(arg2);
  (void)db;
  state->refs.fetch_sub(1, std::memory_order_release);
}

void DBImpl::PublishReadState() {
  mutex_.AssertHeld();
  ReadState* s;
  if (!free_read_states_.empty()) {
    s = free_read_states_.back();
    free_read_states_.pop_back();
  } else {
    s = new ReadState();
  }
  s->mem = mem_;
  s->imm = imm_;
  s->current = versions_->current();
  s->mem->Ref();
  if (s->imm != nullptr) s->imm->Ref();
  s->current->Ref();
  // fetch_add rather than store(1): a racing reader may already have bumped
  // a recycled node's count (its recheck will fail and it will decrement);
  // overwriting the count would lose that transient and later underflow.
  s->refs.fetch_add(1, std::memory_order_relaxed);  // publication ref
  ReadState* old =
      read_state_.exchange(s, std::memory_order_acq_rel);  // release s
  if (old != nullptr) {
    retired_read_states_.push_back(old);
    old->refs.fetch_sub(1, std::memory_order_release);  // publication ref
  }
  DrainRetiredReadStates();
}

void DBImpl::PublishInstalledVersion() {
  PublishReadState();
  Version* v = versions_->current();
  v->Ref();
  mutex_.Unlock();
  // A table that cannot be opened fails the build; the first read that
  // needs the list retries it and reports the error.
  (void)v->BuildRangeTombstones();  // io: unlocked -- may open tables
  mutex_.Lock();
  v->Unref();
}

void DBImpl::DrainRetiredReadStates() {
  mutex_.AssertHeld();
  size_t kept = 0;
  for (size_t i = 0; i < retired_read_states_.size(); i++) {
    ReadState* s = retired_read_states_[i];
    if (s->refs.load(std::memory_order_acquire) == 0) {
      // No reader holds s, and none can complete a new acquisition of it:
      // it is no longer published, so any racing fetch_add fails its
      // recheck and backs out having touched only the counter.
      s->mem->Unref();
      if (s->imm != nullptr) s->imm->Unref();
      s->current->Unref();
      s->mem = nullptr;
      s->imm = nullptr;
      s->current = nullptr;
      free_read_states_.push_back(s);
    } else {
      retired_read_states_[kept++] = s;
    }
  }
  retired_read_states_.resize(kept);
}

Status DBImpl::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);
  return WriteDescriptor(env_, dbname_, 1, new_db);
}

void DBImpl::RemoveObsoleteFiles() {
  if (bg_error_state_ != BackgroundErrorState::kOk) {
    // Mid-episode we don't know whether a failed MANIFEST write may still
    // be readable on disk (a torn-but-valid tail could reference files the
    // in-memory version discarded), so we cannot safely garbage collect.
    // GC resumes once the episode recovers -- the retry's fresh
    // snapshot-headed MANIFEST supersedes any torn tail (see
    // VersionSet::LogAndApply's failure path).
    return;
  }

  // Make a set of all of the live files
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);
  // vLog liveness: a segment is live while the registry lists it OR while
  // any file in ANY live version spans it (old versions keep segments
  // readable for their iterators/snapshots until they die), OR while GC is
  // building it (pending_outputs_, folded into |live| above).
  std::set<uint64_t> live_vlog;
  versions_->AddLiveVlogSegments(&live_vlog);

  std::vector<std::string> filenames;
  // io: mutex-held -- the listing must be classified against a stable
  // pending_outputs_/versions_ snapshot; only the unlink loop drops the lock.
  (void)env_->GetChildren(dbname_, &filenames);  // errors ignored on purpose
  uint64_t number;
  FileType type;
  struct Doomed {
    std::string filename;
    FileType type;
    int level;  // former level if recorded, else -1
    uint64_t number;
  };
  std::vector<Doomed> files_to_delete;
  for (std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case kLogFile:
          keep = (number >= versions_->LogNumber());
          break;
        case kDescriptorFile:
          // Keep my manifest file, and any newer incarnations'.
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case kTableFile:
          keep = (live.find(number) != live.end());
          break;
        case kTempFile:
          // Any temp files that are currently being written to must be
          // recorded in pending_outputs_, which is inserted into "live".
          keep = (live.find(number) != live.end());
          break;
        case kVlogFile:
          keep = (live_vlog.find(number) != live_vlog.end() ||
                  live.find(number) != live.end());
          break;
        case kCurrentFile:
        case kDBLockFile:
          keep = true;
          break;
      }

      if (!keep) {
        int dead_level = -1;
        if (type == kTableFile) {
          auto it = dead_table_levels_.find(number);
          if (it != dead_table_levels_.end()) dead_level = it->second;
        }
        files_to_delete.push_back(
            Doomed{std::move(filename), type, dead_level, number});
      }
    }
  }

  // Unlink order is part of the crash-safety contract: if we die mid-loop,
  // RepairDB rebuilds the DB from whatever files remain, and an entry is
  // only ever shadowed by an entry in a *shallower* file (or a newer run of
  // the same level). Removing non-table files first, then tables deepest
  // level first and oldest run (smallest number) first within a level,
  // keeps every prefix of the removals resurrection-free: a tombstone file
  // is never unlinked while a value it masks is still on disk. Tables with
  // no recorded level (orphans from a previous incarnation, seen only
  // during Open) were never live and go last.
  std::stable_sort(files_to_delete.begin(), files_to_delete.end(),
                   [](const Doomed& a, const Doomed& b) {
                     const bool a_table = a.type == kTableFile;
                     const bool b_table = b.type == kTableFile;
                     if (a_table != b_table) return !a_table;
                     if (a.level != b.level) return a.level > b.level;
                     return a.number < b.number;
                   });

  // Unlink outside the lock: only dead files are in the list, and files
  // created concurrently (by the writer rotating the WAL) carry numbers
  // this pass never classified, so they cannot be removed by mistake. Dead
  // tables leave the table cache, dead vLog segments the reader cache, and
  // the pins of dead versions go back first, also unlocked: the last
  // reference to a table's reader or a segment's handle closes its file. No
  // live version names a dead table or segment, so no read looks it up.
  const std::vector<Cache::Handle*> dead_pins = versions_->TakeDeadPins();
  mutex_.Unlock();
  for (const Doomed& doomed : files_to_delete) {
    if (doomed.type == kTableFile) table_cache_->Evict(doomed.number);
    if (doomed.type == kVlogFile) vlog_readers_.Evict(doomed.number);
  }
  for (Cache::Handle* h : dead_pins) table_cache_->Unpin(h);
  for (const Doomed& doomed : files_to_delete) {
    (void)env_->RemoveFile(dbname_ + "/" + doomed.filename);  // io: unlocked
  }
  mutex_.Lock();
  for (const Doomed& doomed : files_to_delete) {
    if (doomed.type == kTableFile) dead_table_levels_.erase(doomed.number);
  }
}

void DBImpl::RecordDeadTableLevels(const VersionEdit& edit) {
  for (const auto& dead : edit.deleted_files()) {
    bool readded = false;
    for (const auto& added : edit.new_files()) {
      if (added.second.number == dead.second) {  // trivial move: still live
        readded = true;
        break;
      }
    }
    if (!readded) dead_table_levels_[dead.second] = dead.first;
  }
}

namespace {
// Counts the tombstones in a batch for the persistence monitor. Shared by
// the write path and WAL replay so live and recovered counts agree exactly.
class DeleteCounter : public WriteBatch::Handler {
 public:
  uint64_t deletes = 0;
  uint64_t range_deletes = 0;
  uint64_t bytes = 0;
  void Put(const Slice& key, const Slice& value) override {
    bytes += key.size() + value.size();
  }
  void PutPointer(const Slice& key, const Slice& pointer) override {
    // Only seen during WAL replay (separation happens after the batch is
    // counted on the live path); the value bytes live in the vLog.
    bytes += key.size() + pointer.size();
  }
  void Delete(const Slice& key) override {
    deletes++;
    bytes += key.size();
  }
  void DeleteRange(const Slice& begin, const Slice& end) override {
    range_deletes++;
    bytes += begin.size() + end.size();
  }
};

// Rewrites a write group so values at or above the separation threshold go
// to the value log and the batch carries (segment, offset, size) pointers
// instead. Runs in the leader's unlocked section; the single-leader group
// commit protocol is what serializes appends to the shared head writer.
class ValueSeparator : public WriteBatch::Handler {
 public:
  ValueSeparator(WriteBatch* out, vlog::Writer* vlog, size_t threshold)
      : out_(out), vlog_(vlog), threshold_(threshold) {}
  Status status;
  uint64_t separated = 0;
  uint64_t bytes_appended = 0;
  void Put(const Slice& key, const Slice& value) override {
    if (!status.ok()) return;
    if (value.size() < threshold_) {
      out_->Put(key, value);
      return;
    }
    vlog::ValuePointer ptr;
    status = vlog_->Add(key, value, &ptr);
    if (!status.ok()) return;
    encoded_.clear();
    vlog::EncodeValuePointer(&encoded_, ptr);
    out_->PutPointer(key, encoded_);
    separated++;
    bytes_appended += ptr.size;
  }
  void PutPointer(const Slice& key, const Slice& pointer) override {
    out_->PutPointer(key, pointer);
  }
  void Delete(const Slice& key) override { out_->Delete(key); }
  void DeleteRange(const Slice& begin, const Slice& end) override {
    out_->DeleteRange(begin, end);
  }

 private:
  WriteBatch* const out_;
  vlog::Writer* const vlog_;
  const size_t threshold_;
  std::string encoded_;
};

}  // namespace

Status DBImpl::Recover(VersionEdit* edit, bool* save_manifest) {
  (void)env_->CreateDir(dbname_);  // io: open/recovery (may already exist)

  if (!env_->FileExists(CurrentFileName(dbname_))) {  // io: open/recovery
    if (options_.create_if_missing) {
      Status s = NewDB();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_,
                                     "exists (error_if_exists is true)");
    }
  }

  Status s = versions_->Recover(save_manifest);
  if (!s.ok()) {
    return s;
  }
  SequenceNumber max_sequence(0);

  // Recover from all newer log files than the ones named in the descriptor
  // (new log files may have been added by the previous incarnation without
  // registering them in the descriptor).
  const uint64_t min_log = versions_->LogNumber();
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);  // io: open/recovery
  if (!s.ok()) {
    return s;
  }
  std::set<uint64_t> expected;
  versions_->AddLiveFiles(&expected);
  uint64_t number;
  FileType type;
  std::vector<uint64_t> logs;
  for (size_t i = 0; i < filenames.size(); i++) {
    if (ParseFileName(filenames[i], &number, &type)) {
      expected.erase(number);
      if (type == kLogFile && number >= min_log) logs.push_back(number);
    }
  }
  if (!expected.empty()) {
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%d missing table files",
                  static_cast<int>(expected.size()));
    return Status::Corruption(buf, TableFileName(dbname_, *expected.begin()));
  }

  // Seal the previous incarnation's value-log head at its valid CRC prefix
  // and collect per-segment durable extents before WAL replay needs them to
  // validate pointers.
  s = RecoverVlog(edit, save_manifest);
  if (!s.ok()) {
    return s;
  }

  // Recover in the order in which the logs were generated
  std::sort(logs.begin(), logs.end());
  uint64_t replayed_deletes = 0;
  uint64_t replayed_range_deletes = 0;
  for (size_t i = 0; i < logs.size(); i++) {
    s = RecoverLogFile(logs[i], (i == logs.size() - 1), save_manifest, edit,
                       &max_sequence, &replayed_deletes,
                       &replayed_range_deletes);
    if (!s.ok()) {
      return s;
    }

    // The previous incarnation may not have written any MANIFEST records
    // after allocating this log number. So we manually update the file
    // number allocation counter in VersionSet.
    versions_->MarkFileNumberUsed(logs[i]);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  // The journaled written counts were captured at each memtable swap, i.e.
  // they cover exactly the tombstones in WALs older than the descriptor's
  // log_number; the surviving WALs contribute the rest, so the recovered
  // FADE clock is exact, not conservative. Everything else in the clock is
  // the journal itself.
  const DeleteClocks& journal = versions_->monitor_journal();
  tombstones_written_ = journal[kPointDeletes].written + replayed_deletes;
  range_tombstones_written_ =
      journal[kRangeDeletes].written + replayed_range_deletes;
  stats_.manifest_edits_replayed = versions_->manifest_edits_replayed();

  recovered_vlog_extents_.clear();  // only needed during replay
  return Status::OK();
}

Status DBImpl::RecoverVlog(VersionEdit* edit, bool* save_manifest) {
  recovered_vlog_extents_.clear();
  for (const auto& entry : versions_->vlog_registry()) {
    const vlog::SegmentInfo& info = entry.second;
    const std::string fname = VlogFileName(dbname_, info.number);
    if (!env_->FileExists(fname)) {  // io: open/recovery
      if (info.sealed && info.value_count > 0) {
        // A sealed segment was synced before its seal installed; it cannot
        // legitimately vanish while the registry still lists it.
        return Status::Corruption("missing value log file", fname);
      }
      // A registered-but-never-written head (crash inside rotation, before
      // the first append was flushed): drop the registry entry.
      edit->RemoveVlogSegment(info.number);
      *save_manifest = true;
      continue;
    }
    if (info.sealed) {
      // Sealed extents were durable before the seal installed
      // (sync-before-install); trust the journaled byte count.
      recovered_vlog_extents_[info.number] = info.total_bytes;
      continue;
    }
    // The previous incarnation's head. Append-only writes plus a per-record
    // CRC make the valid prefix exact; seal the segment logically there.
    // Bytes past the scan point (a torn tail) were never sync-acked.
    uint64_t valid_bytes = 0;
    uint64_t value_count = 0;
    Status s = vlog::ScanSegment(env_, fname, &valid_bytes,
                                 &value_count);  // io: open/recovery
    if (!s.ok()) {
      return s;
    }
    vlog::SegmentInfo sealed = info;
    sealed.sealed = true;
    sealed.total_bytes = valid_bytes;
    sealed.value_count = value_count;
    edit->AddVlogSegment(sealed);
    *save_manifest = true;
    recovered_vlog_extents_[sealed.number] = valid_bytes;
  }
  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, bool, bool* save_manifest,
                              VersionEdit* edit, SequenceNumber* max_sequence,
                              uint64_t* replayed_deletes,
                              uint64_t* replayed_range_deletes) {
  struct LogReporter : public wal::Reader::Reporter {
    Status* status;
    void Corruption(size_t, const Status& s) override {
      if (this->status != nullptr && this->status->ok()) *this->status = s;
    }
  };

  // Open the log file
  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status status = env_->NewSequentialFile(fname, &file);  // io: open/recovery
  if (!status.ok()) {
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.status = (options_.paranoid_checks ? &status : nullptr);
  // We intentionally make the reader checksum mismatches tolerant unless
  // paranoid_checks is on, matching the common recovery posture.
  wal::Reader reader(file.get(), &reporter, true /*checksum*/);

  // Read all the records and add to a memtable
  std::string scratch;
  Slice record;
  WriteBatch batch;
  int compactions = 0;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (!recovered_vlog_extents_.empty()) {
      // Pointers are only acked after their value bytes are synced, so a
      // pointer past its segment's durable extent marks the unacked suffix
      // of the final WAL: stop replaying here. (Only the crash-time head
      // can have a short extent, and only the last WAL references it --
      // rotation seals the head before a new WAL accepts records.)
      if (!WriteBatchInternal::PointersWithin(&batch,
                                              recovered_vlog_extents_)) {
        break;
      }
    }

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_, options_.write_buffer_size);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    if (!status.ok()) {
      break;
    }
    DeleteCounter counter;
    (void)batch.Iterate(&counter);  // the batch just applied; cannot fail
    *replayed_deletes += counter.deletes;
    *replayed_range_deletes += counter.range_deletes;
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      compactions++;
      *save_manifest = true;
      status = WriteLevel0Table(mem, edit);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  if (status.ok() && mem != nullptr) {
    *save_manifest = true;
    status = WriteLevel0Table(mem, edit);
  }
  if (mem != nullptr) mem->Unref();
  (void)compactions;
  return status;
}

uint64_t DBImpl::NewOutputFileNumber() {
  MutexLock l(&mutex_);
  const uint64_t number = versions_->NewFileNumber();
  pending_outputs_.insert(number);
  return number;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit) {
  // Build the table with the mutex released. |mem| is frozen -- it is
  // either imm_ (no writer touches it again) or a recovery-time memtable
  // before any concurrency exists -- and the output number is protected
  // from GC by pending_outputs_.
  mutex_.Unlock();
  const Comparator* ucmp = internal_comparator_.user_comparator();
  TableSink sink(options_, ucmp, env_, dbname_,
                 [this] { return NewOutputFileNumber(); },
                 output_worker_.get());
  TableSink::Run run;
  // |mem| is frozen, so the push-front range-tombstone list is stable.
  mem->CollectRangeTombstones(&run.range_tombstones);
  run.tombstone_wall_micros = mem->earliest_tombstone_wall_micros();
  run.range_tombstone_wall_micros = mem->earliest_range_tombstone_wall_micros();
  if (!run.range_tombstones.empty()) {
    // A range-only memtable must still become an L0 file (the tombstones
    // have to reach the tree to age and drop). L0 files may overlap freely,
    // so span-derived bounds are safe here.
    TableSink::RangeOnlyBounds(run.range_tombstones, ucmp,
                               &run.range_only_smallest,
                               &run.range_only_largest);
  }
  sink.BeginRun(std::move(run));
  std::unique_ptr<Iterator> iter(mem->NewIterator());
  for (iter->SeekToFirst(); iter->Valid() && !sink.failed(); iter->Next()) {
    sink.Add(iter->key(), iter->value());
  }
  Status s = iter->status();
  Status finished = sink.Finish(s);
  if (s.ok()) s = finished;

  mutex_.Lock();
  for (FileMetaData meta : sink.outputs()) {
    pending_outputs_.erase(meta.number);
    if (s.ok()) {
      meta.run_id = meta.number;
      edit->AddFile(0, meta);
      stats_.flush_count++;
      stats_.flush_bytes_written += meta.file_size;
    }
  }
  return s;
}

Status DBImpl::CompactMemTable() {
  assert(compaction_active_);
  assert(imm_ != nullptr);

  VersionEdit edit;
  Status s = WriteLevel0Table(imm_, &edit);
  ErrorSubsystem failed_in = ErrorSubsystem::kFlush;

  if (s.ok()) {
    // The WAL was already rotated when mem_ moved to imm_; advancing the
    // manifest's log number to the swap-time log retires every log older
    // than it now that their contents are durable in L0. (Not the current
    // logfile_number_: a WAL-recovery rotation may have advanced it while
    // this flush was pending, and mem_'s acked records in the swap-time
    // log must keep replaying until mem_ itself flushes.)
    edit.SetLogNumber(pending_log_number_at_swap_);
    // Journal the FADE clock checkpoint captured at the swap: the written
    // count as of the moment the retiring WALs stopped receiving writes.
    // Recovery adds the replayed suffix of surviving WALs to this value to
    // reconstruct the exact (not conservative) count.
    edit.SetDeletesWritten(kPointDeletes, pending_written_at_swap_);
    edit.SetDeletesWritten(kRangeDeletes, pending_range_written_at_swap_);
    failed_in = ErrorSubsystem::kManifest;
    s = versions_->LogAndApply(&edit, &mutex_);
  }
  if (s.ok()) {
    imm_->Unref();
    imm_ = nullptr;
    // Readers switch to {mem_, no imm, flushed version}; the superseded
    // state keeps the old version's files live until its readers drain.
    PublishInstalledVersion();
    RemoveObsoleteFiles();
  } else {
    // The flush retries with imm_, its TTL floor, and its journaled swap
    // checkpoint all intact -- a successful retry installs exactly what
    // this attempt would have (orphan outputs of failed attempts are
    // collected by RemoveObsoleteFiles once the episode recovers).
    RecordBackgroundError(s, failed_in);
  }
  return s;
}

Status DBImpl::NewVlogHead(VersionEdit* edit) {
  const uint64_t number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> file;
  // io: mutex-held -- vLog head rotation; the segment must exist before the
  // next leader's unlocked section appends (same contract as WAL rotation)
  Status s = env_->NewWritableFile(VlogFileName(dbname_, number), &file);
  if (!s.ok()) {
    return s;
  }
  vlog_ = std::make_unique<vlog::Writer>(std::move(file), number);
  // Sync the empty segment before its (unsealed) registration installs:
  // the registry entry then always names a file that exists durably, and
  // the sync-before-install invariant holds for vLog outputs uniformly.
  s = vlog_->Sync();  // io: mutex-held -- empty-file sync at head creation
  if (!s.ok()) {
    vlog_.reset();
    return s;
  }
  vlog_rotation_pending_ = false;
  vlog::SegmentInfo info;
  info.number = number;
  info.sealed = false;
  edit->AddVlogSegment(info);
  stats_.vlog_segments_created++;
  return s;
}

Status DBImpl::SealVlogHead(VersionEdit* edit) {
  if (vlog_ == nullptr) {
    return Status::OK();
  }
  const uint64_t number = vlog_->segment_number();
  const bool poisoned = vlog_rotation_pending_;
  // io: mutex-held -- sealing the head; rotation must not interleave with a
  // leader's unlocked appends, and no leader is out while we hold the mutex
  Status s = vlog_->Flush();
  if (s.ok()) s = vlog_->Sync();
  if (s.ok()) s = vlog_->Close();
  if (!s.ok() && !poisoned) {
    // A healthy head must seal durably before its extent can be journaled
    // (sync-before-install); let the caller retry the whole rotation.
    return s;
  }
  vlog::SegmentInfo info;
  info.number = number;
  info.sealed = true;
  info.total_bytes = vlog_->offset();
  info.value_count = vlog_->value_count();
  if (poisoned) {
    // After an append/sync error the writer's own arithmetic is untrusted;
    // re-derive the extent from the file's valid CRC prefix. Every acked
    // value was individually synced before its ack, so it lies inside that
    // prefix by construction; the failed suffix was never acked.
    uint64_t valid_bytes = 0;
    uint64_t value_count = 0;
    // io: mutex-held -- bounded by one segment; only runs on the error path
    Status scan = vlog::ScanSegment(env_, VlogFileName(dbname_, number),
                                    &valid_bytes, &value_count);
    if (!scan.ok()) {
      return scan;
    }
    info.total_bytes = valid_bytes;
    info.value_count = value_count;
  }
  edit->AddVlogSegment(info);
  vlog_.reset();
  return Status::OK();
}

Status DBImpl::RotateVlogHead() {
  VersionEdit edit;
  Status s = SealVlogHead(&edit);
  if (s.ok() && VlogEnabled()) {
    s = NewVlogHead(&edit);
  }
  if (s.ok()) {
    // Install immediately: the next leader appends to the new head as soon
    // as the write queue advances, and its WAL records name the new segment
    // number -- replay validation rejects pointers into unregistered
    // segments, so registration must be durable before any ack.
    s = versions_->LogAndApply(&edit, &mutex_);
  }
  if (!s.ok()) {
    // Force a retry before any further separation: a head that is sealed
    // but unregistered (or not sealed at all) must not accept appends.
    vlog_rotation_pending_ = true;
  }
  return s;
}

void DBImpl::ComputeNextVlogGcDeadline() {
  next_vlog_gc_deadline_ = UINT64_MAX;
  const uint64_t dth = options_.delete_persistence_threshold;
  if (dth == 0) return;
  for (const auto& entry : versions_->vlog_registry()) {
    const vlog::SegmentInfo& info = entry.second;
    if (!info.sealed || info.pending.empty()) continue;
    // Collect at half the delete-persistence budget: the key purge already
    // spent up to ~D_th reaching the bottom level, and the *value* purge
    // must land within D_th of that key purge, not of the original delete.
    next_vlog_gc_deadline_ =
        std::min(next_vlog_gc_deadline_,
                 info.earliest_pending_seq() + dth / 2);
  }
}

Status DBImpl::MaybeVlogGc(SequenceNumber now) {
  assert(compaction_active_);
  const vlog::Registry& registry = versions_->vlog_registry();
  const uint64_t dth = options_.delete_persistence_threshold;
  const uint64_t head = (vlog_ != nullptr) ? vlog_->segment_number() : 0;
  std::set<uint64_t> victims;
  std::set<uint64_t> owing;  // segments carrying a pending purge
  bool deadline_reached = false;
  for (const auto& entry : registry) {
    const vlog::SegmentInfo& info = entry.second;
    if (!info.sealed || info.number == head) continue;
    if (!info.pending.empty()) {
      owing.insert(info.number);
      // FADE trigger: the oldest key purge charged to this segment is
      // waiting on its value bytes.
      deadline_reached = deadline_reached ||
                         (dth > 0 && now >= info.earliest_pending_seq() +
                                                dth / 2);
    } else if (info.value_count == 0) {
      // Empty segment (aborted rotation, or all values relocated):
      // nothing can reference it; reclaim immediately.
      victims.insert(info.number);
    }
    if (info.garbage_bytes > 0 &&
        info.live_ratio() <= options_.vlog_gc_live_ratio) {
      // Space trigger (Scavenger-style), independent of the delete clock.
      victims.insert(info.number);
    }
  }
  if (deadline_reached) {
    // Every segment that owes a purge has its deadline within D_th/2 of
    // now; collecting the rest early only shortens their key-purge ->
    // value-purge latency, and each table spanning them is rewritten once
    // instead of once per deadline.
    victims.insert(owing.begin(), owing.end());
  }
  Status s;
  if (!victims.empty() && !shutting_down_.load(std::memory_order_acquire)) {
    s = CollectVlogSegments(victims, now);
  }
  if (!s.ok()) {
    RecordBackgroundError(s, ErrorSubsystem::kCompaction);
  }
  ComputeNextVlogGcDeadline();
  return s;
}

Status DBImpl::CollectVlogSegments(const std::set<uint64_t>& victims,
                                   SequenceNumber now) {
  assert(compaction_active_);
  // Tables whose segment span admits a victim; those that really point
  // into one are rewritten. Rotation-at-swap confines a sealed segment's
  // pointers to one memtable generation, and a segment only becomes
  // eligible (garbage, purges, or emptiness) after that generation flushed
  // -- so scanning tables covers every live pointer; no memtable can hold
  // one.
  Version* base = versions_->current();
  base->Ref();
  std::vector<const FileMetaData*> spanning;
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileMetaData* f : base->files(level)) {
      auto v = victims.lower_bound(f->min_vlog_segment);
      if (f->has_vlog_pointers() && v != victims.end() &&
          *v <= f->max_vlog_segment) {
        spanning.push_back(f);
      }
    }
  }
  std::set<uint64_t> targets;
  Status s;
  mutex_.Unlock();
  for (const FileMetaData* f : spanning) {
    bool hit = false;
    s = PointsIntoVictims(*f, victims, &hit);
    if (!s.ok()) break;
    if (hit) targets.insert(f->number);
  }
  mutex_.Lock();
  base->Unref();
  if (!s.ok()) return s;

  VlogRelocation reloc(victims);
  if (targets.empty()) {
    // No table points into a victim: retiring them is an edit of its own.
    VersionEdit edit;
    RetireVlogVictims(victims, now, &edit);
    s = versions_->LogAndApply(&edit, &mutex_);
    if (s.ok()) {
      PublishInstalledVersion();
      RemoveObsoleteFiles();
    }
  } else {
    reloc.number = versions_->NewFileNumber();
    pending_outputs_.insert(reloc.number);
    s = RunRewrites(
        versions_->InPlaceCompactions(targets, CompactionReason::kVlogGc),
        now, &reloc, nullptr);
    pending_outputs_.erase(reloc.number);
  }
  if (s.ok()) {
    stats_.vlog_gc_runs++;
    stats_.vlog_gc_values_relocated += reloc.values;
    stats_.vlog_gc_bytes_relocated += reloc.bytes;
    // Relocation writes count toward write amplification like any other
    // vLog append; GC is not free and the WA metric must say so.
    stats_.vlog_bytes_written += reloc.bytes;
  }
  return s;
}

Status DBImpl::PointsIntoVictims(const FileMetaData& f,
                                 const std::set<uint64_t>& victims,
                                 bool* hit) {
  ReadOptions ropts;
  ropts.fill_cache = false;
  std::unique_ptr<Iterator> it(
      table_cache_->NewIterator(ropts, f.number, f.file_size));
  ParsedInternalKey parsed;
  vlog::ValuePointer ptr;
  *hit = false;
  for (it->SeekToFirst(); it->Valid() && !*hit; it->Next()) {
    *hit = ParseInternalKey(it->key(), &parsed) &&
           parsed.type == kTypeValuePointer &&
           (!vlog::DecodeValuePointerStrict(it->value(), &ptr) ||
            victims.count(ptr.segment) > 0);
  }
  return it->status();
}

Status DBImpl::RelocateValue(VlogRelocation* r, const Slice& user_key,
                             Slice* value) {
  vlog::ValuePointer ptr;
  if (!vlog::DecodeValuePointerStrict(*value, &ptr)) {
    return Status::Corruption("bad value pointer in table");
  }
  if (r->victims.count(ptr.segment) == 0) return Status::OK();
  r->value.clear();
  Status s = vlog_readers_.Get(ptr, user_key, &r->value);
  if (s.ok() && r->writer == nullptr) {
    std::unique_ptr<WritableFile> file;
    // io: unlocked -- GC relocation segment creation
    s = env_->NewWritableFile(VlogFileName(dbname_, r->number), &file);
    if (s.ok()) {
      r->writer = std::make_unique<vlog::Writer>(std::move(file), r->number);
    }
  }
  vlog::ValuePointer moved;
  if (s.ok()) s = r->writer->Add(user_key, r->value, &moved);
  if (!s.ok()) return s;
  r->pointer.clear();
  vlog::EncodeValuePointer(&r->pointer, moved);
  *value = Slice(r->pointer);
  r->values++;
  r->bytes += moved.size;
  return Status::OK();
}

void DBImpl::RetireVlogVictims(const std::set<uint64_t>& victims,
                               SequenceNumber now, VersionEdit* edit) {
  // The victims' pending purges complete the moment |edit| installs: only
  // then are the value bytes provably unreachable and the files
  // reclaimable. Latency = value-purge time - key-purge time, on the same
  // logical clock as the tombstone persistence bound.
  DeleteClock purged;
  auto complete = [&](SequenceNumber purge_seq, uint64_t count) {
    purged.persisted += count;
    const double l =
        now >= purge_seq ? static_cast<double>(now - purge_seq) : 0.0;
    for (uint64_t i = 0; i < count; i++) purged.latency.Add(l);
  };
  const vlog::Registry& registry = versions_->vlog_registry();
  for (uint64_t segment : victims) {
    for (const auto& p : registry.at(segment).pending) {
      complete(p.purge_seq, p.count);
    }
  }
  for (const vlog::SegmentDelta& d : edit->vlog_deltas()) {
    if (d.purge_count > 0 && victims.count(d.number) > 0) {
      complete(d.purge_seq, d.purge_count);
    }
  }
  for (uint64_t segment : victims) edit->RemoveVlogSegment(segment);
  if (purged.HasDelta()) edit->SetClockDelta(kValuePurges, purged);
}

void DBImpl::AcquireCompactionSlot() {
  while (compaction_active_) {
    background_work_finished_signal_.Wait();
  }
  compaction_active_ = true;
}

void DBImpl::ReleaseCompactionSlot() {
  assert(compaction_active_);
  compaction_active_ = false;
  background_work_finished_signal_.SignalAll();
}

Status DBImpl::RunCompactions() {
  AcquireCompactionSlot();
  Status s;
  // Each round is pinned to its own horizon: every pick, drop, stamp and
  // GC deadline in it uses the sequence captured when the round became due,
  // not wherever the writers' clock has moved to before this thread ran.
  // Rounds run in horizon order: a memtable swapped before a queued TTL
  // round's crossing flushes first, one swapped at or after it waits.
  bool ran = false;
  while (s.ok() && !shutting_down_.load(std::memory_order_acquire)) {
    const bool flush_first =
        imm_ != nullptr && (ttl_round_horizons_.empty() ||
                            pending_flush_horizon_ < ttl_round_horizons_.front());
    SequenceNumber horizon;
    if (flush_first) {
      horizon = pending_flush_horizon_;
    } else if (!ttl_round_horizons_.empty()) {
      horizon = ttl_round_horizons_.front();
    } else if (!ran) {
      horizon = versions_->LastSequence();
    } else {
      break;
    }
    ran = true;
    running_round_horizon_ = horizon;
    if (flush_first) {
      s = CompactMemTable();
      // Unthrottle writers waiting for the imm_ slot as soon as it clears,
      // not only when the whole round finishes.
      background_work_finished_signal_.SignalAll();
    }
    // Value-log GC rides the compaction slot: compactions may have charged
    // new garbage/pending purges, and the FADE deadline check inside picks
    // up exactly that state. A pass rewrites tables, which can make a size
    // pick due; the round runs until both are satisfied at its horizon, so
    // no later round inherits its work.
    for (uint64_t gc_runs = UINT64_MAX;
         s.ok() && gc_runs != stats_.vlog_gc_runs;) {
      gc_runs = stats_.vlog_gc_runs;
      s = MaybeCompact(horizon);
      if (s.ok()) s = MaybeVlogGc(horizon);
    }
    if (!s.ok()) break;  // the retry re-runs this round at the same horizon
    running_round_horizon_ = 0;
    if (!flush_first && !ttl_round_horizons_.empty()) {
      ttl_round_horizons_.pop_front();
    }
    // The rounds still pending leave a tree the floor fresh from here
    // bounds as well as the one set when they were added; keep the higher.
    pending_ttl_floor_ = (imm_ != nullptr || !ttl_round_horizons_.empty())
                             ? std::max(pending_ttl_floor_,
                                        PendingRoundsTtlFloor())
                             : UINT64_MAX;
    // Writers waiting at the floor re-check it after every round.
    background_work_finished_signal_.SignalAll();
  }
  running_round_horizon_ = 0;
  ReleaseCompactionSlot();
  return s;
}

void DBImpl::MaybeScheduleCompaction() {
  if (bg_compaction_scheduled_) return;  // one round in flight max
  if (shutting_down_.load(std::memory_order_acquire)) return;
  if (!BackgroundWorkAllowed()) return;  // fatal or degraded: work is paused
  // Rounds are driven by a pending flush or TTL round, with one exception:
  // while an error episode is retrying, the failed round must be re-queued
  // even if its flush already landed (the failure may have been
  // mid-compaction).
  if (imm_ == nullptr && ttl_round_horizons_.empty() &&
      bg_error_state_ != BackgroundErrorState::kRetrying) {
    return;
  }
  bg_compaction_scheduled_ = true;
  stats_.background_jobs_scheduled++;
  env_->Schedule(&DBImpl::BGWork, this);  // io: mutex-held -- thread handoff
                                          // only, no file I/O
}

void DBImpl::BGWork(void* db) { static_cast<DBImpl*>(db)->BackgroundCall(); }

void DBImpl::BackgroundCall() {
  MutexLock l(&mutex_);
  assert(bg_compaction_scheduled_);
  // If this round is an error retry, serve its backoff first, with the
  // mutex released (bg_compaction_scheduled_ stays true, so no second
  // round can be queued underneath the sleep). Jitterless by design:
  // fault-injection runs must be deterministic.
  const uint64_t backoff = retry_backoff_micros_;
  retry_backoff_micros_ = 0;
  if (backoff > 0 && !shutting_down_.load(std::memory_order_acquire)) {
    mutex_.Unlock();
    env_->SleepForMicroseconds(static_cast<int>(backoff));  // io: unlocked
    mutex_.Lock();
  }
  if (!shutting_down_.load(std::memory_order_acquire) &&
      BackgroundWorkAllowed()) {
    // Errors are recorded by the callees (advancing the error state
    // machine); a successful round while kRetrying ends the episode. The
    // status itself has no caller to return to.
    Status s = RunCompactions();
    if (s.ok()) ClearBackgroundError();
  }
  bg_compaction_scheduled_ = false;
  // The round above may have created new work (e.g. an L0->L1 merge that
  // overfilled L1), failed and scheduled a retry, or a writer may have
  // queued an imm_ meanwhile.
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
}

SequenceNumber DBImpl::SmallestSnapshot() const {
  return snapshots_.empty() ? versions_->LastSequence()
                            : snapshots_.oldest()->sequence_number();
}

Status DBImpl::RotateWal() {
  if (logfile_ != nullptr) {
    // Make the outgoing log's acked prefix durable before any write can land
    // in its successor: a Sync() ack in the new log must not outlive unsynced
    // records of the old one across a machine crash, or recovery would
    // replay a sequence with a hole in it (the classic rotation gap). After a
    // WAL failure this doubles as the retry of the failed sync.
    Status s = logfile_->Sync();
    // Close explicitly so a failed close surfaces instead of being swallowed
    // by the destructor. The synced prefix is already durable, but a close
    // error still marks the handle unhealthy -- treat it like a failed sync.
    if (s.ok()) s = logfile_->Close();
    if (!s.ok()) return s;
    log_.reset();
    logfile_.reset();
  }
  const uint64_t new_log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> lfile;
  Status s = env_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                   &lfile);  // io: mutex-held -- WAL rotation
  if (!s.ok()) return s;
  logfile_ = std::move(lfile);
  log_ = std::make_unique<wal::Writer>(logfile_.get());
  logfile_number_ = new_log_number;
  wal_rotation_pending_ = false;
  return s;
}

void DBImpl::RecordErrorAndBackoff(const Status& s, ErrorSubsystem subsystem) {
  RecordBackgroundError(s, subsystem);
  if (bg_error_state_ != BackgroundErrorState::kRetrying) return;
  const uint64_t backoff = retry_backoff_micros_;
  retry_backoff_micros_ = 0;
  if (backoff > 0 && !shutting_down_.load(std::memory_order_acquire)) {
    mutex_.Unlock();
    env_->SleepForMicroseconds(static_cast<int>(backoff));  // io: unlocked
    mutex_.Lock();
  }
}

Status DBImpl::MakeRoomForWrite(bool force) {
  assert(!writers_.empty());
  bool allow_delay = !force;
  Status s;
  // A failed step records its error and re-enters the loop: the loop head
  // then retries after the backoff (kRetrying), probes for space
  // (kDegradedReadOnly), or stops for good (kFatal) -- the retry budget
  // bounds the iterations either way.
  while (true) {
    if (bg_error_state_ == BackgroundErrorState::kFatal) {
      s = bg_error_;
      break;
    }
    if (bg_error_state_ == BackgroundErrorState::kDegradedReadOnly) {
      // Degraded read-only (ENOSPC): probe inline -- if space has come
      // back this very write proceeds; otherwise it fails with NoSpace
      // while reads and iterators stay fully live.
      s = TryResumeFromNoSpace();
      if (!s.ok()) break;
      continue;
    }

    // A WAL append/sync failure leaves the wal::Writer's block arithmetic
    // possibly out of step with the file, so the next record must open a
    // fresh log -- retrying in place could emit records recovery
    // mis-parses. mem_'s live records may then span two logs; recovery
    // handles that (it replays every log >= the flush edit's swap-time log
    // number, in order), and the flush that eventually swaps mem_ retires
    // both.
    if (wal_rotation_pending_ && !options_.disable_wal) {
      s = RotateWal();
      if (!s.ok()) {
        RecordErrorAndBackoff(s, ErrorSubsystem::kWalSync);
        continue;
      }
      ClearBackgroundError();
      continue;
    }

    // Value-log head rotation: poisoned by an append/sync error (the
    // writer's arithmetic is untrusted, exactly like the WAL case above),
    // or simply past the segment size cap. Must complete before the next
    // leader's unlocked section can separate values.
    if ((vlog_rotation_pending_ && VlogEnabled()) ||
        (vlog_ != nullptr &&
         vlog_->offset() >= options_.vlog_segment_size)) {
      s = RotateVlogHead();
      if (!s.ok()) {
        RecordErrorAndBackoff(s, ErrorSubsystem::kFlush);
        continue;
      }
    }

    // An empty memtable never flushes: it would emit no L0 file, and with a
    // write_buffer_size at the arena's block granularity a fresh (empty)
    // memtable can already sit at the usage threshold -- flushing it would
    // spin this loop forever.
    // Range tombstones live outside the skiplist, so "non-empty" means
    // point entries OR range tombstones (a range-only memtable must still
    // flush to an L0 file, or its tombstones would never age in the tree).
    const bool mem_nonempty =
        mem_->num_entries() > 0 || mem_->num_range_tombstones() > 0;
    bool flush;
    if (force) {
      flush = mem_nonempty;
    } else {
      flush = mem_nonempty &&
              mem_->ApproximateMemoryUsage() >= options_.write_buffer_size;
      // FADE also bounds how long a tombstone may sit in the *memtable*:
      // flush once the oldest buffered tombstone has consumed half of level
      // 0's TTL budget (the other half covers its L0 residency).
      //
      // This trigger is depth-dependent, and with a round queued or running
      // the live tree lags the rounds already owed (DeepestNonEmptyLevel()
      // may be shallower than it will be once they install). Depth is
      // monotone under pending rounds, PendingDepthBound() bounds it, and a
      // deeper tree only *shrinks* the L0 TTL, so: firing at the live depth
      // is always correct, and not firing at the bound is always correct.
      // Only the band in between depends on when the round's thread runs --
      // drain the pending rounds (the writer runs them inline, horizons
      // captured, so the work is identical) and re-evaluate against the
      // fresh tree. While a floor is set, the bound computed with it still
      // holds and is reused rather than walked again over every file on
      // each write; a round running with no floor set gets a fresh one.
      if (!flush && planner_.delete_aware() &&
          (mem_->num_tombstones() > 0 || mem_->num_range_tombstones() > 0)) {
        const int depth = versions_->current()->DeepestNonEmptyLevel() + 1;
        // Range tombstones age on the same clock; the trigger fires on the
        // oldest buffered tombstone of either kind (the unset side reads
        // kMaxSequenceNumber, so min() ignores it).
        const SequenceNumber earliest_any =
            std::min(mem_->earliest_tombstone_seq(),
                     mem_->earliest_range_tombstone_seq());
        const uint64_t age = versions_->LastSequence() - earliest_any;
        if (age > planner_.LevelTtl(0, depth) / 2) {
          flush = true;
        } else if (RoundsPending() &&
                   age > planner_.LevelTtl(
                             0, pending_ttl_floor_ != UINT64_MAX
                                    ? pending_depth_bound_
                                    : PendingDepthBound()) /
                             2) {
          // (A scheduled-but-idle BGWork with nothing pending is a stale
          // wakeup; the tree is already current, so it is excluded above --
          // waiting on it here would spin without releasing the mutex.)
          stats_.stall_memtable_age_waits++;
          const uint64_t t0 = SystemClock::NowMicros();
          Status ds = RunCompactionsWithRetry();
          stats_.stall_micros += SystemClock::NowMicros() - t0;
          if (!ds.ok()) {
            s = ds;
            break;
          }
          background_work_finished_signal_.SignalAll();
          continue;  // decide against the now-current depth
        }
      }
    }

    if (allow_delay && versions_->NumLevelFiles(0) >=
                           options_.level0_slowdown_writes_trigger) {
      // Soft backpressure: L0 is close to the stop trigger. Delay this
      // write group ~1ms (at most once) so the background worker gets CPU,
      // smearing the latency over many writes instead of stalling one
      // write for a whole compaction.
      const uint64_t t0 = SystemClock::NowMicros();
      mutex_.Unlock();
      env_->SleepForMicroseconds(1000);  // io: unlocked
      mutex_.Lock();
      stats_.stall_slowdown_writes++;
      stats_.stall_micros += SystemClock::NowMicros() - t0;
      allow_delay = false;  // do not delay a single write more than once
      MaybeScheduleCompaction();
      continue;
    }

    if (!flush) break;  // there is room in mem_

    if (imm_ != nullptr) {
      // The previous memtable is still being flushed.
      stats_.stall_memtable_waits++;
      const uint64_t t0 = SystemClock::NowMicros();
      MaybeScheduleCompaction();
      background_work_finished_signal_.Wait();
      stats_.stall_micros += SystemClock::NowMicros() - t0;
      continue;
    }

    if (versions_->NumLevelFiles(0) >= options_.level0_stop_writes_trigger &&
        (bg_compaction_scheduled_ || compaction_active_)) {
      // Hard backpressure: block until the in-flight round thins out L0.
      // Only applied while a round is actually running -- if the planner
      // tolerates this many L0 files (its own trigger is configured higher)
      // there is nothing to wait for.
      stats_.stall_stop_writes++;
      const uint64_t t0 = SystemClock::NowMicros();
      background_work_finished_signal_.Wait();
      stats_.stall_micros += SystemClock::NowMicros() - t0;
      continue;
    }

    // Rotate the value-log head with the memtable: every pointer into the
    // segment being sealed lives in the outgoing memtable (or in already
    // flushed tables), never in the new one. This is the invariant vLog GC
    // relies on to prove a collectable segment is memtable-free -- a
    // segment only accrues garbage or pending purges after a compaction
    // drops one of its pointers, which requires this generation's flush to
    // have installed first. Runs before the WAL rotation so a failure here
    // retries without burning a log file per attempt.
    if (vlog_ != nullptr && vlog_->value_count() > 0) {
      s = RotateVlogHead();
      if (!s.ok()) {
        RecordErrorAndBackoff(s, ErrorSubsystem::kFlush);
        continue;
      }
    }

    // Rotate the WAL and swap mem_ into the immutable slot. The new log
    // file must exist before any write lands in the new memtable, so this
    // one Env call stays under the mutex by design. A failure sets
    // wal_rotation_pending_, so the retry goes through the recovery
    // rotation above.
    if (options_.disable_wal) {
      logfile_number_ = versions_->NewFileNumber();
    } else {
      s = RotateWal();
      if (!s.ok()) {
        RecordErrorAndBackoff(s, ErrorSubsystem::kWalSync);
        continue;
      }
    }
    // The swap also satisfies any pending WAL-recovery rotation, and the
    // flush edit must retire exactly the logs older than *this* log --
    // capture it now; logfile_number_ itself may advance again (recovery
    // rotation) before the flush runs.
    wal_rotation_pending_ = false;
    pending_log_number_at_swap_ = logfile_number_;
    // The flush reads imm_'s skiplist, and the linker's ring holds only
    // mem_'s nodes: link every pending node before the swap.
    linker_->Drain();
    imm_ = mem_;
    // Capture the round's horizon: the round that flushes this memtable
    // picks and drops as of now, no matter when its thread actually runs.
    pending_flush_horizon_ = versions_->LastSequence();
    // Journal checkpoint for the FADE clock: at this instant the new WAL is
    // empty, so the written count equals exactly the tombstones
    // in WALs older than the new log. The flush edit that retires those
    // WALs carries this value (the edit's log number is the swap-time
    // capture above, so a later WAL-recovery rotation cannot widen the set
    // of logs it retires).
    pending_written_at_swap_ = tombstones_written_;
    pending_range_written_at_swap_ = range_tombstones_written_;
    // The flush round just became due: until it installs, the writer
    // checks the floor of the tree it will leave.
    pending_ttl_floor_ = PendingRoundsTtlFloor();
    mem_ = new MemTable(internal_comparator_, options_.write_buffer_size);
    mem_->Ref();
    stats_.memtable_swaps++;
    // Publish {new mem_, imm_, current} before the leader's batch lands in
    // the new memtable: a reader acquiring the pre-swap state still covers
    // every acked sequence (the swapped memtable is its mem), and readers
    // from here on see the swap atomically.
    PublishReadState();
    force = false;  // the swap satisfied the forced flush
    MaybeScheduleCompaction();
  }
  return s;
}

void DBImpl::ComputeNextTtlDeadline() {
  next_ttl_deadline_ = UINT64_MAX;
  if (!planner_.delete_aware()) return;
  Version* v = versions_->current();
  const int depth = v->DeepestNonEmptyLevel() + 1;
  for (int level = 0; level < kNumLevels; level++) {
    for (FileMetaData* f : v->files(level)) {
      if (!f->has_tombstones() && !f->has_range_tombstones()) continue;
      // Oldest tombstone of either kind: the unset side reads
      // kMaxSequenceNumber, so min() ignores it.
      const SequenceNumber earliest = std::min(
          f->earliest_tombstone_seq, f->earliest_range_tombstone_seq);
      // FileTtlExpired needs age > CumulativeTtl: the first expired
      // sequence is one past the budget.
      const uint64_t deadline =
          earliest + planner_.CumulativeTtl(level, depth) + 1;
      next_ttl_deadline_ = std::min(next_ttl_deadline_, deadline);
    }
  }
}

int DBImpl::PendingDepthBound() {
  // Every pending round's horizon is at most the current sequence.
  if (imm_ == nullptr) {
    return planner_.MaxDepth(versions_->current(), 0, kMaxSequenceNumber,
                             versions_->LastSequence());
  }
  return planner_.MaxDepth(versions_->current(),
                           imm_->ApproximateMemoryUsage(),
                           std::min(imm_->earliest_tombstone_seq(),
                                    imm_->earliest_range_tombstone_seq()),
                           versions_->LastSequence());
}

uint64_t DBImpl::PendingRoundsTtlFloor() {
  if (!planner_.delete_aware()) return UINT64_MAX;
  Version* v = versions_->current();
  const int deepest = v->DeepestNonEmptyLevel();
  const int depth_hi = PendingDepthBound();
  pending_depth_bound_ = depth_hi;
  uint64_t floor = UINT64_MAX;
  auto bound = [&](SequenceNumber earliest, int level) {
    floor = std::min(floor,
                     earliest + planner_.CumulativeTtl(level, depth_hi) + 1);
  };
  auto expired = [&](SequenceNumber earliest, int level, SequenceNumber at) {
    return at > earliest &&
           at - earliest > planner_.CumulativeTtl(level, deepest + 1);
  };
  // An L0 file leaves L0 only whole, through an L0 -> L1 merge, so its
  // tombstones are credited to L1 when a pending round certainly merges
  // it: the last queued TTL round, which compacts until nothing is expired
  // at its horizon, or a flush round that runs next and finds L0 at its
  // file-count trigger with nothing TTL-expired at its horizon. (A deeper
  // file gets no such credit: a pending merge into its level can carry its
  // younger tombstones into an output that is not yet expired, which
  // stays.)
  const SequenceNumber last_ttl =
      ttl_round_horizons_.empty() ? 0 : ttl_round_horizons_.back();
  const SequenceNumber h = pending_flush_horizon_;
  const SequenceNumber imm_earliest =
      imm_ == nullptr ? kMaxSequenceNumber
                      : std::min(imm_->earliest_tombstone_seq(),
                                 imm_->earliest_range_tombstone_seq());
  bool l0_merges =
      options_.compaction_style == CompactionStyle::kLeveling &&
      imm_ != nullptr &&
      v->NumFiles(0) + 1 >= options_.level0_compaction_trigger &&
      (ttl_round_horizons_.empty() || ttl_round_horizons_.front() > h) &&
      (running_round_horizon_ == 0 || running_round_horizon_ == h) &&
      !expired(imm_earliest, 0, h);
  for (int level = 0; l0_merges && level < kNumLevels; level++) {
    for (const FileMetaData* f : v->files(level)) {
      if (planner_.FileTtlExpired(*f, level, h, deepest + 1)) {
        l0_merges = false;
      }
    }
  }
  auto leaves_l0 = [&](SequenceNumber earliest) {
    return l0_merges || (last_ttl != 0 && expired(earliest, 0, last_ttl));
  };
  if (imm_earliest != kMaxSequenceNumber) {
    // imm_ is in L0 for the last TTL round only if swapped before it.
    const bool credited =
        l0_merges || (h < last_ttl && expired(imm_earliest, 0, last_ttl));
    bound(imm_earliest, credited ? 1 : 0);
  }
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileMetaData* f : v->files(level)) {
      if (!f->has_tombstones() && !f->has_range_tombstones()) continue;
      const SequenceNumber earliest = std::min(
          f->earliest_tombstone_seq, f->earliest_range_tombstone_seq);
      bound(earliest, level == 0 && leaves_l0(earliest) ? 1 : level);
    }
  }
  if (VlogEnabled()) {
    // A pending round may charge value purges stamped at its horizon; the
    // vLog GC deadline of those is D_th/2 later.
    SequenceNumber oldest = kMaxSequenceNumber;
    for (SequenceNumber pending :
         {running_round_horizon_,
          ttl_round_horizons_.empty() ? 0 : ttl_round_horizons_.front(),
          imm_ != nullptr ? h : 0}) {
      if (pending != 0) oldest = std::min(oldest, pending);
    }
    if (oldest != kMaxSequenceNumber) {
      floor = std::min<uint64_t>(
          floor, oldest + options_.delete_persistence_threshold / 2);
    }
  }
  return floor;
}

bool DBImpl::TtlRoundQueueable(SequenceNumber horizon) {
  if (options_.compaction_style == CompactionStyle::kTiering ||
      !snapshots_.empty() || bg_error_state_ != BackgroundErrorState::kOk ||
      horizon >= next_vlog_gc_deadline_) {
    return false;
  }
  // An expired file at the deepest level (L0 excepted) is rewritten in
  // place, and the floor has no level below it to credit.
  Version* v = versions_->current();
  const int deepest = v->DeepestNonEmptyLevel();
  if (deepest == 0) return true;
  for (const FileMetaData* f : v->files(deepest)) {
    if (planner_.FileTtlExpired(*f, deepest, horizon, deepest + 1)) {
      return false;
    }
  }
  return true;
}

Status DBImpl::EnforceFadeDeadlines() {
  while (true) {
    const SequenceNumber seq = versions_->LastSequence();
    // With a TTL round queued, next_ttl_deadline_ still shows the deadline
    // it was queued for; the floor stands in for it until the rounds end.
    const bool queued = !ttl_round_horizons_.empty();
    const uint64_t due =
        std::min({queued ? UINT64_MAX : next_ttl_deadline_,
                  pending_ttl_floor_, next_vlog_gc_deadline_});
    if (seq < due) return Status::OK();
    // This write crossed a deadline or the floor: its sequence is a TTL
    // round's horizon. Queued behind the pending rounds, the round raises
    // the floor past every file already expired here.
    if ((!queued || ttl_round_horizons_.back() < seq) &&
        TtlRoundQueueable(seq)) {
      ttl_round_horizons_.push_back(seq);
      stats_.ttl_rounds_queued++;
      pending_ttl_floor_ = PendingRoundsTtlFloor();
      MaybeScheduleCompaction();
      continue;  // the floor may still be due
    }
    if (queued) {
      // At the floor, or due for a round that cannot be queued: this write
      // may not return before the pending rounds install.
      stats_.stall_ttl_waits++;
      const uint64_t t0 = SystemClock::NowMicros();
      while (BackgroundWorkAllowed() &&
             !shutting_down_.load(std::memory_order_acquire) &&
             ((seq >= pending_ttl_floor_ && RoundsPending()) ||
              (seq >= next_vlog_gc_deadline_ &&
               !ttl_round_horizons_.empty()))) {
        MaybeScheduleCompaction();
        background_work_finished_signal_.Wait();
      }
      stats_.stall_micros += SystemClock::NowMicros() - t0;
      if (!BackgroundWorkAllowed()) return bg_error_;
      if (shutting_down_.load(std::memory_order_acquire)) return Status::OK();
      continue;
    }
    ttl_round_horizons_.push_back(seq);
    stats_.ttl_rounds_inline++;
    stats_.stall_ttl_waits++;
    const uint64_t t0 = SystemClock::NowMicros();
    Status s = RunCompactionsWithRetry();
    stats_.stall_micros += SystemClock::NowMicros() - t0;
    // A deadline still due after the round is snapshot-pinned; the next
    // write retries it rather than this one spinning.
    return s;
  }
}

Status DBImpl::MaybeCompact(SequenceNumber horizon) {
  assert(compaction_active_);
  // Run compactions until the planner is satisfied. The loop
  // terminates because every compaction either reduces the trigger that
  // caused it (run counts, level sizes) or eliminates expired tombstones.
  // Snapshots can only pin the horizon below the round's captured value.
  const SequenceNumber effective = std::min(horizon, SmallestSnapshot());
  // A retrying episode resumes the loop (that is the retry); only a fatal
  // or degraded state refuses to run.
  Status s = BackgroundWorkAllowed() ? Status::OK() : bg_error_;
  int safety = 0;
  while (s.ok()) {
    if (++safety > 10000) {
      s = Status::Corruption("compaction loop failed to converge");
      RecordBackgroundError(s, ErrorSubsystem::kCompaction);
      break;
    }
    if (shutting_down_.load(std::memory_order_acquire)) break;
    std::unique_ptr<Compaction> c(
        versions_->PickCompaction(planner_, horizon, effective));
    if (c == nullptr) break;

    CountCompaction(*c);

    if (c->IsTrivialMove()) {
      // Move file to next level
      assert(c->num_input_files(0) == 1);
      FileMetaData* f = c->input(0, 0);
      c->edit()->RemoveFile(c->level(), f->number);
      FileMetaData moved = *f;
      moved.refs = 0;
      if (options_.compaction_style == CompactionStyle::kTiering) {
        // The moved run is newer than every run already at the output
        // level; a fresh run_id says so (its old one may be lower).
        moved.run_id = versions_->NewFileNumber();
      }
      c->edit()->AddFile(c->output_level(), moved);
      s = versions_->LogAndApply(c->edit(), &mutex_);
      if (!s.ok()) {
        RecordBackgroundError(s, ErrorSubsystem::kManifest);
      } else {
        PublishInstalledVersion();
      }
      stats_.trivial_move_count++;
    } else {
      CompactionState compact(c.get());
      s = DoCompactionWork(&compact, horizon);
      if (!s.ok()) {
        RecordBackgroundError(s, ErrorSubsystem::kCompaction);
      }
      c->ReleaseInputs();
      RemoveObsoleteFiles();
    }
  }
  ComputeNextTtlDeadline();
  return s;
}

void DBImpl::CountCompaction(const Compaction& c) {
  stats_.compaction_count++;
  stats_.compactions_by_reason[static_cast<size_t>(c.reason())]++;
}

Status DBImpl::RunRewrites(
    const std::vector<std::unique_ptr<Compaction>>& rewrites,
    SequenceNumber horizon, VlogRelocation* relocation,
    const Slice* purge_threshold) {
  Status s;
  for (size_t i = 0; s.ok() && i < rewrites.size(); i++) {
    Compaction* c = rewrites[i].get();
    CompactionState compact(c);
    compact.relocation = relocation;
    compact.purge_threshold = purge_threshold;
    if (relocation != nullptr) relocation->retire = i + 1 == rewrites.size();
    CountCompaction(*c);
    s = DoCompactionWork(&compact, horizon);
    c->ReleaseInputs();
    if (s.ok()) RemoveObsoleteFiles();
  }
  return s;
}

void DBImpl::RearmFadeClocks() {
  ComputeNextTtlDeadline();
  ComputeNextVlogGcDeadline();
  if (imm_ != nullptr || !ttl_round_horizons_.empty()) {
    pending_ttl_floor_ = PendingRoundsTtlFloor();
  }
}

Status DBImpl::InstallCompactionResults(
    CompactionState* compact, const std::vector<FileMetaData>& outputs) {
  Compaction* const c = compact->compaction;
  c->AddInputDeletions(c->edit());
  // An in-place rewrite of one run keeps its recency: a rewritten old L0
  // file or tiering run must not read as the newest. Any other output is a
  // new run.
  const bool same_run = c->level() == c->output_level() &&
                        c->num_input_files(0) == 1;
  for (FileMetaData meta : outputs) {
    meta.run_id = same_run ? c->input(0, 0)->run_id : meta.number;
    c->edit()->AddFile(c->output_level(), meta);
  }
  Status s = versions_->LogAndApply(c->edit(), &mutex_);
  if (s.ok()) {
    RecordDeadTableLevels(*c->edit());
  }
  return s;
}

Status DBImpl::DoCompactionWork(CompactionState* compact,
                                SequenceNumber horizon) {
  assert(compaction_active_);
  assert(versions_->NumLevelFiles(compact->compaction->level()) > 0);

  // Both the drop horizon and the monitor's "persisted at" clock use the
  // round's captured horizon, so what a round records does not depend on
  // when its thread ran.
  compact->smallest_snapshot = std::min(horizon, SmallestSnapshot());
  stats_.compaction_bytes_read += compact->compaction->TotalInputBytes();
  const SequenceNumber now_seq = horizon;
  Compaction* const c = compact->compaction;

  Iterator* input = versions_->MakeInputIterator(c);

  // The merge loop runs with the mutex released: the input version is
  // pinned, output numbers are in pending_outputs_, and the compaction
  // slot keeps rival compactions out. Guarded counters are accumulated
  // locally and folded back in after relocking.
  mutex_.Unlock();

  // Range tombstones ride in dedicated blocks, not the merged key stream:
  // load every input file's raw tombstones up front. Queried at
  // smallest_snapshot, their fragmented union drives covered-entry drops
  // inside the merge loop. The input version is pinned, so the reads are
  // safe off the mutex.
  const Comparator* ucmp = internal_comparator_.user_comparator();
  std::vector<RangeTombstone> input_range_dels;
  Status status;
  // What the outputs inherit from the inputs: the earliest wall stamps
  // (approximate -- the oldest among the inputs) and, for an output that
  // ends up holding only range tombstones, the inputs' union key range.
  TableSink::Run run;
  run.max_output_size = c->MaxOutputFileSize();
  bool first_input = true;
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      const FileMetaData* f = c->input(which, i);
      run.tombstone_wall_micros = std::min(run.tombstone_wall_micros,
                                           f->earliest_tombstone_wall_micros);
      if (first_input || internal_comparator_.Compare(
                             f->smallest.Encode(),
                             run.range_only_smallest.Encode()) < 0) {
        run.range_only_smallest = f->smallest;
      }
      if (first_input || internal_comparator_.Compare(
                             f->largest.Encode(),
                             run.range_only_largest.Encode()) > 0) {
        run.range_only_largest = f->largest;
      }
      first_input = false;
      if (!f->has_range_tombstones() || !status.ok()) continue;
      run.range_tombstone_wall_micros =
          std::min(run.range_tombstone_wall_micros,
                   f->earliest_range_tombstone_wall_micros);
      status = table_cache_->GetRangeTombstones(
          f->number, f->file_size, &input_range_dels);  // io: unlocked
    }
  }
  FragmentedRangeTombstoneList range_cover;
  if (!input_range_dels.empty()) {
    range_cover.Build(ucmp, input_range_dels);
  }

  // Decide the fate of every input range tombstone. [b,e)@S drops -- the
  // range delete becomes persistent -- only when every live snapshot sees
  // it (S <= smallest_snapshot) and no file OUTSIDE this compaction
  // overlaps its span at any level: entries it covers that are not merged
  // here would otherwise resurrect. (Memtable data is always newer than a
  // flushed tombstone, so only files can resurrect.) Survivors are carried
  // forward into the last output. The verdicts do not depend on the merge.
  DeleteClock range_delta;
  if (status.ok() && !input_range_dels.empty()) {
    const Version* base = c->input_version();
    std::set<uint64_t> input_numbers;
    for (int which = 0; which < 2; which++) {
      for (int i = 0; i < c->num_input_files(which); i++) {
        input_numbers.insert(c->input(which, i)->number);
      }
    }
    auto blocked = [&](const RangeTombstone& t) {
      for (int level = 0; level < kNumLevels; level++) {
        for (const FileMetaData* g : base->files(level)) {
          if (input_numbers.count(g->number) != 0) continue;
          if (ucmp->Compare(g->smallest.user_key(), Slice(t.end)) < 0 &&
              ucmp->Compare(g->largest.user_key(), Slice(t.begin)) >= 0) {
            return true;
          }
        }
      }
      return false;
    };
    for (const RangeTombstone& t : input_range_dels) {
      if (t.seq <= compact->smallest_snapshot && !blocked(t)) {
        // smallest_snapshot <= horizon == now_seq.
        assert(t.seq <= now_seq);
        range_delta.persisted++;
        range_delta.latency.Add(static_cast<double>(now_seq - t.seq));
      } else {
        run.range_tombstones.push_back(t);
      }
    }
  }

  // Kept entries stream into the sink, whose worker builds, writes and
  // syncs the outputs while this loop merges. A GC rewrite builds inline
  // instead: its relocation appends and its table writes then run on one
  // thread, in one deterministic file-op order.
  VlogRelocation* const reloc = compact->relocation;
  TableSink sink(options_, ucmp, env_, dbname_,
                 [this] { return NewOutputFileNumber(); },
                 reloc != nullptr ? nullptr : output_worker_.get());
  sink.BeginRun(std::move(run));

  uint64_t shadowed_dropped = 0;
  uint64_t tombstones_dropped = 0;
  uint64_t purge_dropped = 0;
  // Clock deltas are accumulated locally and journaled on the compaction's
  // version edit; the clock advances when VersionSet folds the durably
  // installed edit, so recovery replays the identical Merge sequence
  // (bit-identical percentiles).
  DeleteClock point_delta;
  // Per-segment vLog charges for pointer entries this compaction drops:
  // garbage bytes always; additionally a pending purge (the FADE clock for
  // value bytes) when the drop is deletion-driven. Journaled as kVlogDelta
  // on the compaction's edit, like the clock deltas above.
  std::map<uint64_t, vlog::SegmentDelta> vlog_deltas;

  input->SeekToFirst();
  // Merge keys arrive in ascending user-key order, so coverage queries
  // walk the fragment list forward instead of searching it per entry.
  FragmentedRangeTombstoneList::Cursor covering(&range_cover);
  ParsedInternalKey ikey;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  ValueType last_type_for_key = kTypeValue;

  // A memtable swapped out mid-merge stays queued until this round ends:
  // flushing it here would install its L0 file between this round's
  // picks, making the schedule depend on thread timing (flushes land
  // only at round boundaries). BackgroundCall reschedules for it.
  while (status.ok() && input->Valid() && !sink.failed()) {
    Slice key = input->key();
    Slice value = input->value();
    bool drop = false;
    if (!ParseInternalKey(key, &ikey)) {
      // Do not hide error keys
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
      last_type_for_key = kTypeValue;
    } else {
      if (!has_current_user_key ||
          ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        // First occurrence of this user key
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
        last_type_for_key = kTypeValue;
      }

      bool deletion_driven = false;
      if (last_sequence_for_key <= compact->smallest_snapshot) {
        // Hidden by an newer entry for same user key
        drop = true;  // (A)
        shadowed_dropped++;
        if (ikey.type == kTypeDeletion) {
          // A newer write replaced this tombstone before it could persist.
          point_delta.superseded++;
        }
        // A pointer hidden by a *tombstone* is a deleted value: its bytes
        // join the segment's pending-purge clock. Hidden by a newer value
        // it is mere overwrite garbage (space trigger only).
        deletion_driven = (last_type_for_key == kTypeDeletion);
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= compact->smallest_snapshot &&
                 c->IsBaseLevelForKey(ikey.user_key)) {
        // For this user key:
        // (1) there is no data in higher levels
        // (2) data in lower levels will have larger sequence numbers
        // (3) data in layers that are being compacted here and have
        //     smaller sequence numbers will be dropped in the next
        //     few iterations of this loop (by rule (A) above).
        // Therefore this deletion marker is obsolete and can be dropped:
        // the delete is now *persistent*.
        drop = true;
        tombstones_dropped++;
        point_delta.persisted++;
        // smallest_snapshot <= horizon == now_seq.
        assert(ikey.sequence <= now_seq);
        point_delta.latency.Add(static_cast<double>(now_seq - ikey.sequence));
      } else if (!input_range_dels.empty() &&
                 covering.MaxCoveringSeq(ikey.user_key,
                                         compact->smallest_snapshot) >
                     ikey.sequence) {
        // Covered by a range tombstone visible to every live snapshot: no
        // reader can observe this entry again. A covered point tombstone is
        // superseded -- the range tombstone took over its job (and keeps
        // shadowing deeper levels until it drops itself).
        drop = true;
        shadowed_dropped++;
        if (ikey.type == kTypeDeletion) {
          point_delta.superseded++;
        }
        // Range-covered values are deletion-driven by definition.
        deletion_driven = true;
      } else if (compact->purge_threshold != nullptr &&
                 ikey.type == kTypeValue) {
        // Secondary purge: the value's retention key expired. It still
        // counts as the key's newest entry, so the older ones drop too.
        const std::string sec =
            options_.secondary_key_extractor(ikey.user_key, value);
        drop = !sec.empty() && Slice(sec).compare(*compact->purge_threshold) < 0;
        if (drop) purge_dropped++;
      }

      if (drop && ikey.type == kTypeValuePointer) {
        vlog::ValuePointer ptr;
        if (vlog::DecodeValuePointerStrict(value, &ptr)) {
          vlog::SegmentDelta& d = vlog_deltas[ptr.segment];
          d.number = ptr.segment;
          d.garbage_bytes += ptr.size;
          d.dead_count++;
          if (deletion_driven) {
            // Key purge happens when this edit installs; stamp the round's
            // horizon as the purge time (one clock for the whole round,
            // however late the round's thread runs).
            d.purge_count++;
            d.purge_seq = now_seq;
          }
        }
      } else if (!drop && reloc != nullptr && ikey.type == kTypeValuePointer) {
        status = RelocateValue(reloc, ikey.user_key, &value);
      }

      last_sequence_for_key = ikey.sequence;
      last_type_for_key = ikey.type;
    }

    if (!drop && status.ok()) {
      sink.Add(key, value);
    }

    input->Next();
  }

  if (status.ok()) {
    status = input->status();
  }
  delete input;
  input = nullptr;
  if (status.ok() && reloc != nullptr && reloc->writer != nullptr) {
    // Sync-before-install: the relocated bytes are durable before the edit
    // that points tables at them; the pass's last rewrite also closes the
    // segment.
    status = reloc->writer->Flush();
    if (status.ok()) status = reloc->writer->Sync();
    if (status.ok() && reloc->retire) status = reloc->writer->Close();
  }
  // The install wait: every output is built, synced and closed (or, on an
  // input error, abandoned and removed) before the edit can name it.
  Status finished = sink.Finish(status);
  if (status.ok()) status = finished;
  uint64_t bytes_written = 0;
  for (const FileMetaData& out : sink.outputs()) {
    bytes_written += out.file_size;
  }

  mutex_.Lock();
  stats_.compaction_bytes_written += bytes_written;
  stats_.entries_shadowed_dropped += shadowed_dropped;
  stats_.tombstones_dropped_bottom += tombstones_dropped;
  stats_.blocks_purged_secondary += purge_dropped;

  if (status.ok()) {
    if (point_delta.HasDelta()) {
      c->edit()->SetClockDelta(kPointDeletes, point_delta);
    }
    if (range_delta.HasDelta()) {
      c->edit()->SetClockDelta(kRangeDeletes, range_delta);
    }
    for (const auto& entry : vlog_deltas) {
      c->edit()->AddVlogDelta(entry.second);
    }
    if (reloc != nullptr && reloc->writer != nullptr) {
      // Registered, at its synced extent, by every edit that may point a
      // table into it.
      vlog::SegmentInfo info;
      info.number = reloc->number;
      info.sealed = true;
      info.total_bytes = reloc->writer->offset();
      info.value_count = reloc->writer->value_count();
      c->edit()->AddVlogSegment(info);
    }
    if (reloc != nullptr && reloc->retire) {
      RetireVlogVictims(reloc->victims, now_seq, c->edit());
    }
    status = InstallCompactionResults(compact, sink.outputs());
    if (status.ok()) {
      PublishInstalledVersion();
    }
  }
  for (const FileMetaData& out : sink.outputs()) {
    pending_outputs_.erase(out.number);
  }
  return status;
}

// ---------------- Background-error state machine ----------------
//
// All transitions run under mutex_ and only through the three functions
// below (tools/acheron_check.py enforces the locking half of that).

void DBImpl::RecordBackgroundError(const Status& s, ErrorSubsystem subsystem) {
  assert(!s.ok());
  if (bg_error_state_ == BackgroundErrorState::kFatal) {
    return;  // terminal; keep the first fatal error
  }
  bg_error_ = s;
  bg_error_subsystem_ = subsystem;
  if (subsystem == ErrorSubsystem::kWalSync) {
    // Whatever happens next, the wal::Writer's block arithmetic may have
    // diverged from the file; the next record must open a fresh log.
    wal_rotation_pending_ = true;
  }
  if (s.IsCorruption() || options_.max_background_retries <= 0) {
    // Corruption never retries (re-running the same work re-reads the same
    // bad bytes); retries disabled reproduces the old sticky behavior.
    bg_error_state_ = BackgroundErrorState::kFatal;
    stats_.errors_fatal++;
  } else if (s.IsNoSpace()) {
    // Space exhaustion: no retry budget to burn -- writing cannot succeed
    // until space returns. Degrade to read-only and watch for space.
    stats_.errors_transient++;
    bg_error_state_ = BackgroundErrorState::kDegradedReadOnly;
    MaybeStartSpaceWatcher();
  } else {
    stats_.errors_transient++;
    // WAL and MANIFEST failures escalate twice as fast: they sit on the
    // durability path of *acked* writes, where burning the full budget
    // means a long window of un-synced acks.
    const int cost = (subsystem == ErrorSubsystem::kWalSync ||
                      subsystem == ErrorSubsystem::kManifest)
                         ? 2
                         : 1;
    bg_error_attempts_ += cost;
    if (bg_error_attempts_ > options_.max_background_retries) {
      bg_error_state_ = BackgroundErrorState::kFatal;
      stats_.errors_fatal++;
    } else {
      bg_error_state_ = BackgroundErrorState::kRetrying;
      // Exponential, jitterless (deterministic under fault injection),
      // capped so a large budget cannot produce absurd sleeps.
      const int shift = std::min(bg_error_attempts_ - 1, 20);
      retry_backoff_micros_ =
          std::min<uint64_t>(options_.retry_backoff_base_micros << shift,
                             10 * 1000 * 1000);
    }
  }
  // FADE health: a background failure stalls the very compactions the
  // delete-persistence bound depends on. Raise dth_at_risk_ when a tombstone
  // TTL deadline is already due while the engine is erroring; the property
  // and delete-stats surface it as dth_at_risk.
  const uint64_t deadline = std::min(next_ttl_deadline_, pending_ttl_floor_);
  if (!ttl_round_horizons_.empty() ||
      (deadline != UINT64_MAX && versions_->LastSequence() >= deadline)) {
    dth_at_risk_ = true;
  }
}

void DBImpl::ReturnToOk(uint64_t* recoveries) {
  bg_error_state_ = BackgroundErrorState::kOk;
  bg_error_ = Status::OK();
  bg_error_attempts_ = 0;
  retry_backoff_micros_ = 0;
  (*recoveries)++;
  dth_at_risk_ = false;
}

void DBImpl::ClearBackgroundError() {
  if (bg_error_state_ != BackgroundErrorState::kRetrying) {
    return;  // nothing in flight, or a state only Resume/space can clear
  }
  ReturnToOk(&stats_.errors_retried);
}

Status DBImpl::RunCompactionsWithRetry() {
  Status s = RunCompactions();
  while (!s.ok() && bg_error_state_ == BackgroundErrorState::kRetrying &&
         !shutting_down_.load(std::memory_order_acquire)) {
    const uint64_t backoff = retry_backoff_micros_;
    retry_backoff_micros_ = 0;
    if (backoff > 0) {
      mutex_.Unlock();
      env_->SleepForMicroseconds(static_cast<int>(backoff));  // io: unlocked
      mutex_.Lock();
    }
    s = RunCompactions();
  }
  if (s.ok()) {
    ClearBackgroundError();
  }
  return s;
}

Status DBImpl::TryResumeFromNoSpace() {
  if (bg_error_state_ != BackgroundErrorState::kDegradedReadOnly) {
    return bg_error_state_ == BackgroundErrorState::kFatal ? bg_error_
                                                           : Status::OK();
  }
  if (resume_probe_active_) {
    // Another thread's probe is in flight (its I/O dropped the mutex);
    // report still-degraded rather than stacking probes.
    return bg_error_;
  }
  resume_probe_active_ = true;
  const std::string probe_name = dbname_ + "/SPACE_PROBE";
  mutex_.Unlock();
  Status probe;
  {
    std::unique_ptr<WritableFile> f;
    probe = env_->NewWritableFile(probe_name, &f);  // io: unlocked -- probe
    if (probe.ok()) probe = f->Append("acheron-space-probe");
    if (probe.ok()) probe = f->Sync();
    if (probe.ok()) probe = f->Close();
  }
  // Best-effort: under real ENOSPC unlink still works and keeps the probe
  // from occupying the space it just proved exists.
  (void)env_->RemoveFile(probe_name);  // io: unlocked -- probe cleanup
  mutex_.Lock();
  resume_probe_active_ = false;
  if (!probe.ok()) {
    return bg_error_;  // still out of space (or worse); stay degraded
  }
  if (bg_error_state_ == BackgroundErrorState::kDegradedReadOnly) {
    ReturnToOk(&stats_.resume_count);
    // Anything that stalled while degraded (a pending imm_, planner debt)
    // resumes now.
    MaybeScheduleCompaction();
    background_work_finished_signal_.SignalAll();
  }
  return Status::OK();
}

void DBImpl::MaybeStartSpaceWatcher() {
  if (options_.space_probe_interval_micros == 0) return;
  if (space_watcher_scheduled_) return;
  if (shutting_down_.load(std::memory_order_acquire)) return;
  space_watcher_scheduled_ = true;
  // io: mutex-held -- thread handoff only, no file I/O
  env_->Schedule(&DBImpl::SpaceWatcherWork, this);
}

void DBImpl::SpaceWatcherWork(void* db) {
  static_cast<DBImpl*>(db)->SpaceWatcherCall();
}

void DBImpl::SpaceWatcherCall() {
  // Sleep in small chunks so shutdown is never held up by a long interval.
  uint64_t remaining = options_.space_probe_interval_micros;
  while (remaining > 0 && !shutting_down_.load(std::memory_order_acquire)) {
    const uint64_t chunk = std::min<uint64_t>(remaining, 10 * 1000);
    env_->SleepForMicroseconds(static_cast<int>(chunk));  // io: unlocked
    remaining -= chunk;
  }
  MutexLock l(&mutex_);
  if (!shutting_down_.load(std::memory_order_acquire) &&
      bg_error_state_ == BackgroundErrorState::kDegradedReadOnly) {
    (void)TryResumeFromNoSpace();  // on failure we simply watch again
  }
  if (!shutting_down_.load(std::memory_order_acquire) &&
      bg_error_state_ == BackgroundErrorState::kDegradedReadOnly) {
    // Still degraded: keep watching. The scheduled flag stays set across
    // the handoff so the destructor keeps waiting for us.
    // io: mutex-held -- thread handoff only, no file I/O
    env_->Schedule(&DBImpl::SpaceWatcherWork, this);
    return;
  }
  space_watcher_scheduled_ = false;
  background_work_finished_signal_.SignalAll();
}

Status DBImpl::Resume() {
  MutexLock l(&mutex_);
  switch (bg_error_state_) {
    case BackgroundErrorState::kOk:
    case BackgroundErrorState::kRetrying:
      // Healthy, or the engine is already retrying on its own.
      return Status::OK();
    case BackgroundErrorState::kDegradedReadOnly:
      return TryResumeFromNoSpace();
    case BackgroundErrorState::kFatal:
      return bg_error_;  // past recovery; reopen the DB
  }
  return Status::OK();  // unreachable
}

// ---------------- Reads ----------------

Status DBImpl::RangeCovered(const ReadState& state, const Slice& key,
                            SequenceNumber floor, SequenceNumber snapshot,
                            bool* covered) {
  // Newest source first: the first cover decides.
  *covered = state.mem->RangeCovered(key, floor, snapshot) ||
             (state.imm != nullptr &&
              state.imm->RangeCovered(key, floor, snapshot));
  if (*covered) return Status::OK();
  return state.current->RangeCovered(key, floor, snapshot, covered);
}

SequenceNumber DBImpl::ReadSequence(const ReadOptions& options) const {
  if (options.snapshot != nullptr) {
    return static_cast<const SnapshotImpl*>(options.snapshot)
        ->sequence_number();
  }
  return version_set_lockfree_->LastSequenceAcquire();
}

Status DBImpl::GetFromState(const ReadOptions& options, const ReadState& state,
                            SequenceNumber snapshot, const Slice& key,
                            std::string* value, uint64_t* filter_negatives) {
  // Look in the active memtable, then the flushing one, then the tables.
  Status s;
  LookupKey lkey(key, snapshot);
  SequenceNumber found_seq = 0;
  bool is_pointer = false;
  if (state.mem->Get(lkey, value, &s, &found_seq, &is_pointer,
                     linker_.get())) {
    // Done
  } else if (state.imm != nullptr &&
             state.imm->Get(lkey, value, &s, &found_seq, &is_pointer)) {
    // Done
  } else {
    s = state.current->Get(options, lkey, value, filter_negatives,
                           &found_seq, &is_pointer);
  }

  // Range-tombstone coverage. Sequence numbers are global, so one coverage
  // test after point resolution is enough: any entry the point lookup could
  // have found below the deciding one has a smaller sequence and is hidden
  // by the same covering tombstone. Only a found value needs the test (a
  // point deletion stays NotFound either way), and only tombstones newer
  // than it can hide it. A table that cannot be opened fails the read
  // rather than reading as uncovered.
  if (s.ok()) {
    bool covered = false;
    s = RangeCovered(state, key, found_seq, snapshot, &covered);
    if (!s.ok() || covered) {
      value->clear();
      if (s.ok()) s = Status::NotFound(Slice());
    } else if (is_pointer) {
      // The raw hit is an encoded vLog pointer; swap in the value bytes.
      // Safe off the mutex: the pinned ReadState keeps the deciding
      // version alive, and its file's segment span keeps the segment file
      // on disk (RemoveObsoleteFiles' liveness rule).
      std::string encoded;
      encoded.swap(*value);
      s = vlog_readers_.Resolve(encoded, key, value);
    }
  }
  return s;
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  // Lock-free fast path: pin the published ReadState, then read the snapshot
  // sequence. Order matters for read-your-writes — a completed write W both
  // (a) landed in a memtable that is part of every state published at or
  // after W and (b) advanced last_sequence with a release store, so a state
  // acquired *before* the acquire-load of the sequence covers everything
  // the sequence admits.
  ReadState* state = AcquireReadState();
  const SequenceNumber snapshot = ReadSequence(options);
  // Counter accounting runs on locals flushed once at the end: the shared
  // relaxed atomics are touched a bounded number of times per op (not once
  // per bloom-filtered table), which is what keeps single-thread readrandom
  // at its pre-counter throughput.
  uint64_t filter_negatives = 0;
  Status s =
      GetFromState(options, *state, snapshot, key, value, &filter_negatives);
  // gets_ before gets_found_ (release): see MergeReadPathCounters.
  gets_.fetch_add(1, std::memory_order_relaxed);
  if (s.ok()) gets_found_.fetch_add(1, std::memory_order_release);
  table_cache_->AddFilterNegatives(filter_negatives);
  ReleaseReadState(state);
  return s;
}

std::vector<Status> DBImpl::MultiGet(const ReadOptions& options,
                                     std::span<const Slice> keys,
                                     std::vector<std::string>* values) {
  const size_t n = keys.size();
  std::vector<Status> statuses(n);
  values->clear();
  values->resize(n);
  if (n == 0) return statuses;

  // Get's protocol once for the whole batch: every key resolves against
  // one pinned ReadState at one sequence, without touching mutex_.
  ReadState* state = AcquireReadState();
  const SequenceNumber snapshot = ReadSequence(options);
  uint64_t filter_negatives = 0;
  uint64_t found = 0;
  for (size_t i = 0; i < n; i++) {
    statuses[i] = GetFromState(options, *state, snapshot, keys[i],
                               &(*values)[i], &filter_negatives);
    if (statuses[i].ok()) found++;
  }
  // One batched counter flush for the whole call.
  gets_.fetch_add(n, std::memory_order_relaxed);
  if (found > 0) gets_found_.fetch_add(found, std::memory_order_release);
  table_cache_->AddFilterNegatives(filter_negatives);
  ReleaseReadState(state);
  return statuses;
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot,
                                      ReadState** state_out) {
  // Same lock-free acquisition as Get: pin the state first, then read the
  // sequence, so the snapshot never admits writes the pinned memtables
  // missed. The ReadState's references back the iterator for its whole
  // lifetime; cleanup is a single lock-free unref (the writer-side drain
  // does the actual teardown), so iterator destruction never blocks on or
  // contends for mutex_ either.
  ReadState* state = AcquireReadState();
  *latest_snapshot = version_set_lockfree_->LastSequenceAcquire();
  // The memtable iterator walks the skiplist only: link the nodes the
  // snapshot admits first (every one pushed before the sequence load).
  linker_->Drain();

  // Collect together all needed child iterators
  std::vector<Iterator*> list;
  list.push_back(state->mem->NewIterator());
  if (state->imm != nullptr) {
    list.push_back(state->imm->NewIterator());
  }
  state->current->AddIterators(options, &list);
  Iterator* internal_iter = NewMergingIterator(
      &internal_comparator_, list.data(), static_cast<int>(list.size()));

  internal_iter->RegisterCleanup(&DBImpl::UnrefReadState, this, state);
  if (state_out != nullptr) *state_out = state;
  return internal_iter;
}

size_t DBImpl::TEST_PendingOutputs() {
  MutexLock l(&mutex_);
  return pending_outputs_.size();
}

Iterator* DBImpl::TEST_NewInternalIterator() {
  SequenceNumber ignored;
  return NewInternalIterator(ReadOptions(), &ignored);
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest_snapshot;
  ReadState* state = nullptr;
  Iterator* iter = NewInternalIterator(options, &latest_snapshot, &state);
  SequenceNumber seq =
      (options.snapshot != nullptr
           ? static_cast<const SnapshotImpl*>(options.snapshot)
                 ->sequence_number()
           : latest_snapshot);
  // Materialize every range tombstone visible to this iterator's snapshot
  // into one fragmented list (snapshot filtering happens at query time in
  // MaxCoveringSeq). The pinned ReadState keeps all sources stable; the
  // list is built once here so iteration itself never touches the tree.
  std::vector<RangeTombstone> raw;
  state->mem->CollectRangeTombstones(&raw);
  if (state->imm != nullptr) {
    state->imm->CollectRangeTombstones(&raw);
  }
  Status rs = state->current->CollectRangeTombstones(&raw);
  if (!rs.ok()) {
    // Dropping tombstones would resurrect deleted keys; fail the iterator.
    delete iter;
    return NewErrorIterator(rs);
  }
  FragmentedRangeTombstoneList* range_dels = nullptr;
  if (!raw.empty()) {
    range_dels = new FragmentedRangeTombstoneList();
    range_dels->Build(internal_comparator_.user_comparator(), std::move(raw));
  }
  return NewDBIterator(internal_comparator_.user_comparator(), iter, seq,
                       &iter_tombstones_skipped_, range_dels, &vlog_readers_);
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock l(&mutex_);
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  MutexLock l(&mutex_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// ---------------- Writes ----------------

Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  WriteBatch batch;
  batch.Put(key, val);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::DeleteRange(const WriteOptions& options, const Slice& begin,
                           const Slice& end) {
  WriteBatch batch;
  batch.DeleteRange(begin, end);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  Writer w(&mutex_);
  w.batch = updates;
  w.sync = options.sync || options_.sync_writes;
  w.done = false;

  MutexLock l(&mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.Wait();
  }
  if (w.done) {
    return w.status;  // a leader wrote this batch as part of its group
  }

  // This thread is now the group leader.
  Status status = MakeRoomForWrite(updates == nullptr);
  SequenceNumber last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    DeleteCounter counter;
    uint64_t wal_bytes = 0;
    uint64_t wal_syncs = 0;
    uint64_t vlog_appended_bytes = 0;
    uint64_t vlog_appended_values = 0;
    bool vlog_error = false;
    {
      // Apply the group to the WAL and memtable with the mutex released:
      // the leader is the only awake writer (followers sleep on their cv).
      // It prepares the memtable's nodes and pushes them to linker_, which
      // keeps one linker at a time; readers search its ring and the
      // skiplist concurrently. The pointers are captured under the lock;
      // nothing rotates them while this write group is in flight
      // (MakeRoomForWrite already ran).
      MemTable* mem = mem_;
      wal::Writer* log = log_.get();
      WritableFile* logfile = logfile_.get();
      vlog::Writer* vlog = vlog_.get();
      WriteBatch* applied = write_batch;
      if (vlog != nullptr && options_.value_separation_threshold > 0) {
        separated_batch_.Clear();
      }
      mutex_.Unlock();
      if (vlog != nullptr && options_.value_separation_threshold > 0) {
        // Key-value separation: route large values into the vLog head and
        // rewrite their entries into pointers. The WAL and memtable see the
        // transformed batch; the stats/monitor accounting below keeps using
        // the original batch so user byte counts stay honest.
        ValueSeparator sep(&separated_batch_, vlog,
                           options_.value_separation_threshold);
        status = write_batch->Iterate(&sep);
        if (status.ok()) status = sep.status;
        if (status.ok() && sep.separated > 0) {
          // Push the appended records to the OS so the lock-free read path
          // (pread on the segment) can see them the moment the memtable
          // pointers become visible.
          status = vlog->Flush();  // io: unlocked
        }
        if (!status.ok()) {
          // The head's write arithmetic is now untrusted; the next leader
          // seals it (scan-derived extent) and opens a fresh segment. This
          // group was never applied or acked.
          vlog_error = true;
        } else if (sep.separated > 0) {
          WriteBatchInternal::SetSequence(
              &separated_batch_, WriteBatchInternal::Sequence(write_batch));
          applied = &separated_batch_;
          vlog_appended_bytes = sep.bytes_appended;
          vlog_appended_values = sep.separated;
        }
      }
      if (status.ok() && !options_.disable_wal) {
        Slice contents = WriteBatchInternal::Contents(applied);
        status = log->AddRecord(contents);
        wal_bytes = contents.size();
        if (status.ok() && w.sync && vlog_appended_values > 0) {
          // Durability ordering: the vLog record must be durable before the
          // WAL record that points at it -- recovery trusts any pointer
          // inside a segment's synced extent. A failure here is a vLog
          // failure (poison the head), not a WAL failure.
          status = vlog->Sync();  // io: unlocked
          if (!status.ok()) vlog_error = true;
        }
        if (status.ok() && w.sync) {
          // Group commit's payoff: ONE fsync covers every batch in the
          // group (followers piggyback on the leader's sync; BuildBatchGroup
          // never puts a sync batch under a non-sync leader). The leader
          // blocks on it, so every writer in the group is acked only once
          // its record is durable.
          status = logfile->Sync();
          wal_syncs++;
        }
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(applied, mem, linker_.get());
      }
      if (status.ok()) {
        // Count deletes/bytes from the ORIGINAL batch (pre-separation), so
        // user_bytes_written reflects what the user wrote, not pointer
        // sizes. The batch was just applied, so re-iterating cannot fail.
        (void)write_batch->Iterate(&counter);
      }
      mutex_.Lock();
    }
    if (vlog_error) {
      // Force the next leader through RotateVlogHead before any further
      // separation: the current head is poisoned (unknown tail state).
      vlog_rotation_pending_ = true;
    }
    stats_.wal_bytes_written += wal_bytes;
    stats_.wal_syncs += wal_syncs;

    if (status.ok()) {
      versions_->SetLastSequence(last_sequence);
      stats_.user_bytes_written += counter.bytes;
      stats_.vlog_bytes_written += vlog_appended_bytes;
      stats_.vlog_values_written += vlog_appended_values;
      tombstones_written_ += counter.deletes;
      range_tombstones_written_ += counter.range_deletes;
    } else {
      // A WAL append/sync error leaves the tail of the log -- and the
      // wal::Writer's block arithmetic -- in an unknown state. Classify as
      // a WAL failure: with retries enabled the next write opens a fresh
      // log and continues (the failed group was never acked and never
      // reached the memtable); with retries disabled this poisons the DB
      // exactly as before.
      RecordBackgroundError(status, ErrorSubsystem::kWalSync);
    }
    if (write_batch == &tmp_batch_) tmp_batch_.Clear();

    // FADE: the logical clock just advanced.
    if (status.ok()) status = EnforceFadeDeadlines();
  }

  // Wake the followers whose batches were bundled into this group, and
  // promote the next queued writer (if any) to leader.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();
  }

  return status;
}

// REQUIRES: mutex_ held, writers_ non-empty, first writer has a non-null
// batch.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the original
  // write is small, limit the growth so we do not slow down the small
  // write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  int absorbed = 0;
  *last_writer = first;
  auto iter = writers_.begin();
  ++iter;  // advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // A sync write must not ride a group whose leader will skip Sync().
      break;
    }
    if (w->batch == nullptr) {
      // A forced-flush sentinel (FlushMemTable); it needs its own
      // MakeRoomForWrite pass, so it must become a leader itself.
      break;
    }
    size += WriteBatchInternal::ByteSize(w->batch);
    if (size > max_size) {
      break;  // do not make the group too large
    }
    // Append to *result
    if (result == first->batch) {
      // Switch to temporary batch instead of disturbing caller's batch
      result = &tmp_batch_;
      assert(WriteBatchInternal::Count(result) == 0);
      WriteBatchInternal::Append(result, first->batch);
    }
    WriteBatchInternal::Append(result, w->batch);
    absorbed++;
    *last_writer = w;
  }
  if (absorbed > 0) {
    stats_.group_commits++;
    stats_.writes_grouped += static_cast<uint64_t>(absorbed);
  }
  return result;
}

Status DBImpl::FlushMemTable() {
  // A null batch forces MakeRoomForWrite(force=true): swap mem_ out (if
  // non-empty); the wait below drains the round that flushes it.
  Status s = Write(WriteOptions(), nullptr);
  if (s.ok()) {
    s = WaitForCompactions();
  }
  return s;
}

Status DBImpl::WaitForCompactions() {
  MutexLock l(&mutex_);
  // The linker is background work too: nothing acked stays unlinked.
  linker_->Drain();
  // Drain to quiescence: wait out any in-flight background round, then run
  // rounds inline until there is no pending flush and the planner is
  // satisfied at the current horizon. Snapshot-pinned TTL work is not
  // pickable, so this terminates. A kRetrying episode does not stop the
  // drain -- the inline retry loop (or the scheduled background retry)
  // either recovers it or escalates to kFatal, and the retry budget bounds
  // how long that takes.
  while (!shutting_down_.load(std::memory_order_acquire)) {
    if (bg_compaction_scheduled_ || compaction_active_) {
      background_work_finished_signal_.Wait();
      continue;
    }
    if (!BackgroundWorkAllowed()) {
      return bg_error_;  // fatal or degraded: nothing will run
    }
    if (imm_ != nullptr || !ttl_round_horizons_.empty() ||
        versions_->NeedsCompaction(planner_, SmallestSnapshot()) ||
        bg_error_state_ == BackgroundErrorState::kRetrying) {
      Status s = RunCompactionsWithRetry();
      if (!s.ok()) return s;
      continue;
    }
    break;  // quiescent
  }
  return bg_error_;
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    MutexLock l(&mutex_);
    Version* base = versions_->current();
    for (int level = 1; level < kNumLevels; level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  // Best-effort: a failed flush is recorded in the background-error state
  // machine (retried, or surfacing on a later write once fatal);
  // CompactRange itself is void by API.
  (void)FlushMemTable();
  for (int level = 0; level <= max_level_with_files; level++) {
    TEST_CompactRange(level, begin, end);
  }
}

void DBImpl::TEST_CompactRange(int level, const Slice* begin,
                               const Slice* end) {
  assert(level >= 0);
  assert(level < kNumLevels);

  InternalKey begin_storage, end_storage;
  InternalKey* begin_key = nullptr;
  InternalKey* end_key = nullptr;
  if (begin != nullptr) {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    begin_key = &begin_storage;
  }
  if (end != nullptr) {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    end_key = &end_storage;
  }

  MutexLock l(&mutex_);
  // Exclusive slot: a background round must not pick inputs that overlap
  // this manual compaction once the mutex drops for the merge I/O.
  AcquireCompactionSlot();
  std::unique_ptr<Compaction> c(
      versions_->CompactRange(level, begin_key, end_key));
  if (c != nullptr) {
    CountCompaction(*c);
    CompactionState compact(c.get());
    Status s = DoCompactionWork(&compact, versions_->LastSequence());
    if (!s.ok()) {
      RecordBackgroundError(s, ErrorSubsystem::kCompaction);
    }
    c->ReleaseInputs();
    RemoveObsoleteFiles();
    RearmFadeClocks();
  }
  ReleaseCompactionSlot();
}

// ---------------- Properties & stats ----------------

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  MutexLock l(&mutex_);
  Slice in = property;
  Slice prefix("acheron.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(strlen("num-files-at-level"));
    uint64_t level = 0;
    bool ok = !in.empty();
    for (size_t i = 0; ok && i < in.size(); i++) {
      if (in[i] < '0' || in[i] > '9') {
        ok = false;
      } else {
        level = level * 10 + (in[i] - '0');
      }
    }
    if (!ok || level >= static_cast<uint64_t>(kNumLevels)) {
      return false;
    }
    *value = std::to_string(versions_->NumLevelFiles(static_cast<int>(level)));
    return true;
  } else if (in == "stats") {
    InternalStats merged = stats_;
    MergeReadPathCounters(&merged);
    merged.manifest_snapshots_written = versions_->manifest_snapshots_written();
    merged.manifest_rotations = versions_->manifest_rotations();
    merged.torn_snapshots_skipped = versions_->torn_snapshots_skipped();
    *value = merged.ToString();
    return true;
  } else if (in == "mutex-acquisitions") {
    // Diagnostic for the lock-free read path: total acquisitions of the DB
    // mutex since open. A quiesced DB doing N Gets must move this by
    // exactly 1 (this property call's own lock) regardless of N.
    *value = std::to_string(mutex_.acquisitions());
    return true;
  } else if (in == "manifest-edits-replayed") {
    // Edits applied after the last valid snapshot in the last Recover; the
    // bounded-replay tests assert this stays O(snapshot interval).
    *value = std::to_string(versions_->manifest_edits_replayed());
    return true;
  } else if (in == "next-ttl-deadline") {
    // The recovered FADE clock: sequence number at which the next tombstone
    // TTL lapses (UINT64_MAX when none is armed). The recovery-journal
    // tests assert this is exactly equal across a crash.
    *value = std::to_string(next_ttl_deadline_);
    return true;
  } else if (in == "sstables") {
    *value = versions_->current()->DebugString();
    return true;
  } else if (in == "level-summary") {
    // One line per populated level: "level files bytes tombstones".
    Version* v = versions_->current();
    for (int level = 0; level < kNumLevels; level++) {
      if (v->files(level).empty()) continue;
      uint64_t tombstones = 0;
      for (FileMetaData* f : v->files(level)) tombstones += f->num_tombstones;
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%d %d %lld %llu\n", level,
                    v->NumFiles(level),
                    static_cast<long long>(v->NumLevelBytes(level)),
                    static_cast<unsigned long long>(tombstones));
      value->append(buf);
    }
    return true;
  } else if (in == "total-bytes") {
    int64_t total = 0;
    for (int level = 0; level < kNumLevels; level++) {
      total += versions_->NumLevelBytes(level);
    }
    *value = std::to_string(total);
    return true;
  } else if (in == "total-tombstones") {
    *value = std::to_string(CountLiveTombstones().point);
    return true;
  } else if (in == "total-range-tombstones") {
    *value = std::to_string(CountLiveTombstones().range);
    return true;
  } else if (in == "max-tombstone-age") {
    const TombstoneCensus census = CountLiveTombstones();
    *value = std::to_string(
        std::max(census.oldest_point_age, census.oldest_range_age));
    return true;
  } else if (in == "delete-stats") {
    *value = ComputeDeleteStats().ToString();
    return true;
  } else if (in == "vlog-stats") {
    // Key-value separation observability: the segment registry plus the GC
    // and read counters. max_pending_age is the per-segment FADE clock --
    // the logical age of the oldest key purge whose value bytes are still
    // waiting for GC (must stay <= D_th under delete-compliant GC).
    const vlog::Registry& registry = versions_->vlog_registry();
    const SequenceNumber now = versions_->LastSequence();
    uint64_t segments = 0, sealed = 0, total_bytes = 0, garbage_bytes = 0;
    uint64_t backlog = 0, max_pending_age = 0;
    for (const auto& entry : registry) {
      const vlog::SegmentInfo& info = entry.second;
      segments++;
      if (info.sealed) sealed++;
      total_bytes += info.total_bytes;
      garbage_bytes += info.garbage_bytes;
      backlog += info.pending_count();
      if (!info.pending.empty()) {
        SequenceNumber earliest = info.earliest_pending_seq();
        if (now > earliest) {
          max_pending_age = std::max(max_pending_age, now - earliest);
        }
      }
    }
    const double live_ratio =
        total_bytes == 0
            ? 1.0
            : 1.0 - static_cast<double>(garbage_bytes) / total_bytes;
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "segments=%llu sealed=%llu total_bytes=%llu garbage_bytes=%llu "
        "live_ratio=%.3f value_purge_backlog=%llu max_pending_age=%llu "
        "gc_runs=%llu gc_values_relocated=%llu gc_bytes_relocated=%llu "
        "reads=%llu next_gc_deadline=%llu",
        static_cast<unsigned long long>(segments),
        static_cast<unsigned long long>(sealed),
        static_cast<unsigned long long>(total_bytes),
        static_cast<unsigned long long>(garbage_bytes), live_ratio,
        static_cast<unsigned long long>(backlog),
        static_cast<unsigned long long>(max_pending_age),
        static_cast<unsigned long long>(stats_.vlog_gc_runs),
        static_cast<unsigned long long>(stats_.vlog_gc_values_relocated),
        static_cast<unsigned long long>(stats_.vlog_gc_bytes_relocated),
        static_cast<unsigned long long>(vlog_readers_.reads()),
        static_cast<unsigned long long>(next_vlog_gc_deadline_));
    value->assign(buf);
    return true;
  } else if (in == "background-error") {
    const char* state = nullptr;
    switch (bg_error_state_) {
      case BackgroundErrorState::kOk:
        state = "ok";
        break;
      case BackgroundErrorState::kRetrying:
        state = "retrying";
        break;
      case BackgroundErrorState::kDegradedReadOnly:
        state = "degraded-read-only";
        break;
      case BackgroundErrorState::kFatal:
        state = "fatal";
        break;
    }
    const char* subsystem = nullptr;
    switch (bg_error_subsystem_) {
      case ErrorSubsystem::kFlush:
        subsystem = "flush";
        break;
      case ErrorSubsystem::kCompaction:
        subsystem = "compaction";
        break;
      case ErrorSubsystem::kWalSync:
        subsystem = "wal-sync";
        break;
      case ErrorSubsystem::kManifest:
        subsystem = "manifest";
        break;
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "state=%s subsystem=%s attempts=%d budget=%d "
                  "dth_at_risk=%d error=",
                  state,
                  bg_error_state_ == BackgroundErrorState::kOk ? "none"
                                                               : subsystem,
                  bg_error_attempts_, options_.max_background_retries,
                  dth_at_risk_ ? 1 : 0);
    value->assign(buf);
    value->append(bg_error_.ToString());
    return true;
  }
  return false;
}

DeleteStats DBImpl::GetDeleteStats() {
  MutexLock l(&mutex_);
  return ComputeDeleteStats();
}

static void FillLatency(const Histogram& h, double* p50, double* p90,
                        double* p99, double* max, double* avg) {
  *p50 = h.Percentile(50);
  *p90 = h.Percentile(90);
  *p99 = h.Percentile(99);
  *max = h.Max();
  *avg = h.Average();
}

DeleteStats DeleteStatsFromJournal(const DeleteClocks& journal) {
  DeleteStats ds;
  const DeleteClock& point = journal[kPointDeletes];
  ds.tombstones_persisted = point.persisted;
  ds.tombstones_superseded = point.superseded;
  FillLatency(point.latency, &ds.persistence_latency_p50,
              &ds.persistence_latency_p90, &ds.persistence_latency_p99,
              &ds.persistence_latency_max, &ds.persistence_latency_avg);
  const DeleteClock& range = journal[kRangeDeletes];
  ds.range_deletes_persisted = range.persisted;
  ds.range_deletes_superseded = range.superseded;
  FillLatency(range.latency, &ds.range_persistence_latency_p50,
              &ds.range_persistence_latency_p90,
              &ds.range_persistence_latency_p99,
              &ds.range_persistence_latency_max,
              &ds.range_persistence_latency_avg);
  const DeleteClock& value = journal[kValuePurges];
  ds.values_purged = value.persisted;
  FillLatency(value.latency, &ds.value_purge_latency_p50,
              &ds.value_purge_latency_p90, &ds.value_purge_latency_p99,
              &ds.value_purge_latency_max, &ds.value_purge_latency_avg);
  return ds;
}

TombstoneCensus DBImpl::CountLiveTombstones() {
  const SequenceNumber now = versions_->LastSequence();
  TombstoneCensus census;
  versions_->current()->AddToCensus(now, &census);
  // A leader adds its batch to mem_ with the mutex released and publishes
  // the batch's sequence only after: a memtable tombstone newer than |now|
  // is not live yet and has no age.
  for (const MemTable* m : {mem_, imm_}) {
    if (m == nullptr) continue;
    census.point += m->num_tombstones();
    census.range += m->num_range_tombstones();
    if (m->num_tombstones() > 0 && now >= m->earliest_tombstone_seq()) {
      census.oldest_point_age =
          std::max(census.oldest_point_age, now - m->earliest_tombstone_seq());
    }
    if (m->num_range_tombstones() > 0 &&
        now >= m->earliest_range_tombstone_seq()) {
      census.oldest_range_age = std::max(
          census.oldest_range_age, now - m->earliest_range_tombstone_seq());
    }
  }
  return census;
}

DeleteStats DBImpl::ComputeDeleteStats() {
  DeleteStats ds = DeleteStatsFromJournal(versions_->monitor_journal());
  const TombstoneCensus census = CountLiveTombstones();
  ds.tombstones_written = tombstones_written_;
  ds.tombstones_live = census.point;
  ds.oldest_live_tombstone_age = census.oldest_point_age;
  ds.range_deletes_written = range_tombstones_written_;
  ds.range_deletes_live = census.range;
  for (const auto& entry : versions_->vlog_registry()) {
    ds.value_purge_backlog += entry.second.pending_count();
  }
  ds.dth_at_risk = dth_at_risk_;
  return ds;
}

void DBImpl::MergeReadPathCounters(InternalStats* merged) const {
  merged->iter_tombstones_skipped =
      iter_tombstones_skipped_.load(std::memory_order_relaxed);
  // gets_found_ first, with acquire: every found-bump is a release that
  // follows its own gets_ bump, so the gets_ load below sees at least as
  // many Gets as the found count just read -- gets >= gets_found always.
  merged->gets_found = gets_found_.load(std::memory_order_acquire);
  merged->gets = gets_.load(std::memory_order_relaxed);
  merged->bloom_useful = table_cache_->filter_negatives_total();
  merged->vlog_reads = vlog_readers_.reads();
}

InternalStats DBImpl::GetStats() {
  MutexLock l(&mutex_);
  InternalStats merged = stats_;
  MergeReadPathCounters(&merged);
  merged.manifest_snapshots_written = versions_->manifest_snapshots_written();
  merged.manifest_rotations = versions_->manifest_rotations();
  merged.torn_snapshots_skipped = versions_->torn_snapshots_skipped();
  return merged;
}

// ---------------- Secondary (retention) purge, KiWi-lite ----------------

Status DBImpl::PurgeSecondaryRange(const Slice& threshold) {
  if (!options_.secondary_key_extractor) {
    return Status::NotSupported(
        "PurgeSecondaryRange requires Options::secondary_key_extractor");
  }
  // Flush so the memtable participates (simplest correct semantics).
  Status s = FlushMemTable();
  if (!s.ok()) return s;

  MutexLock l(&mutex_);
  // The rewrites release the mutex; holding the compaction slot keeps
  // background compactions from rewriting the same files.
  AcquireCompactionSlot();
  VersionEdit drops;
  bool any_drop = false;
  std::set<uint64_t> straddling;
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileMetaData* f : versions_->current()->files(level)) {
      if (f->max_secondary_key.empty()) {
        // File holds no secondary-keyed values (e.g. all tombstones); skip.
        continue;
      }
      if (Slice(f->max_secondary_key).compare(threshold) < 0 &&
          !f->has_range_tombstones()) {
        // Whole file is dead: drop it without reading a byte (this is the
        // KiWi-style wholesale drop the experiment measures). A file also
        // carrying range tombstones must be rewritten instead -- dropping
        // it wholesale would resurrect everything the tombstones cover.
        drops.RemoveFile(level, f->number);
        any_drop = true;
      } else if (Slice(f->min_secondary_key).compare(threshold) < 0) {
        // Straddles the threshold: rewrite it in place, dropping every
        // value whose secondary key sorts below |threshold|.
        straddling.insert(f->number);
      }
    }
  }
  if (any_drop) {
    s = versions_->LogAndApply(&drops, &mutex_);
    if (s.ok()) {
      RecordDeadTableLevels(drops);
      PublishInstalledVersion();
      RemoveObsoleteFiles();
    }
  }
  if (s.ok()) {
    s = RunRewrites(versions_->InPlaceCompactions(
                        straddling, CompactionReason::kSecondaryPurge),
                    versions_->LastSequence(), nullptr, &threshold);
    RearmFadeClocks();
  }
  ReleaseCompactionSlot();
  return s;
}

// ---------------- Open / Destroy ----------------

Status DB::Open(const Options& options, const std::string& dbname, DB** dbptr) {
  *dbptr = nullptr;

  DBImpl* impl = new DBImpl(options, dbname);
  impl->mutex_.Lock();
  VersionEdit edit;
  // Recover handles create_if_missing, error_if_exists
  bool save_manifest = false;
  Status s = impl->Recover(&edit, &save_manifest);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    if (!impl->options_.disable_wal) {
      std::unique_ptr<WritableFile> lfile;
      s = impl->env_->NewWritableFile(LogFileName(dbname, new_log_number),
                                      &lfile);  // io: open/recovery
      if (s.ok()) {
        impl->logfile_ = std::move(lfile);
        impl->log_ = std::make_unique<wal::Writer>(impl->logfile_.get());
      }
    }
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_number_ = new_log_number;
      impl->mem_ = new MemTable(impl->internal_comparator_,
                                impl->options_.write_buffer_size);
      impl->mem_->Ref();
    }
  }
  if (s.ok() && impl->VlogEnabled()) {
    // Every Open starts a fresh vLog head (the previous head was sealed at
    // its recovered extent by RecoverVlog). Registering it rides the same
    // edit that retires the replayed WALs, so the head is journaled before
    // the first write can put a pointer to it anywhere durable.
    s = impl->NewVlogHead(&edit);
    save_manifest = true;
  }
  if (s.ok() && save_manifest) {
    edit.SetLogNumber(impl->logfile_number_);
    // This edit retires the replayed WALs; journal the fully-restored
    // written count so a crash after this point recovers it from the
    // MANIFEST alone (the fresh WAL holds no tombstones yet).
    edit.SetDeletesWritten(kPointDeletes, impl->tombstones_written_);
    edit.SetDeletesWritten(kRangeDeletes, impl->range_tombstones_written_);
    s = impl->versions_->LogAndApply(&edit, &impl->mutex_);
  }
  if (s.ok()) {
    // First publication: reads become possible the moment Open returns.
    // Recovery's installs above happened before any reader exists, so they
    // did not need to publish individually.
    impl->PublishReadState();
    impl->RemoveObsoleteFiles();
    s = impl->RunCompactionsWithRetry();
  }
  impl->mutex_.Unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options) {
  Env* env = options.env ? options.env : DefaultEnv();
  std::vector<std::string> filenames;
  // io: unlocked -- DestroyDB runs with no DB open, so no DB mutex exists
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist
    return Status::OK();
  }

  uint64_t number;
  FileType type;
  for (size_t i = 0; i < filenames.size(); i++) {
    if (ParseFileName(filenames[i], &number, &type)) {
      Status del =
          env->RemoveFile(dbname + "/" + filenames[i]);  // io: unlocked
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
  }
  // Ignore error in case dir contains other files.
  (void)env->RemoveDir(dbname);  // io: unlocked
  return result;
}

}  // namespace acheron
