#include "src/lsm/table_sink.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/lsm/filename.h"
#include "src/table/table_builder.h"
#include "src/util/coding.h"
#include "src/vlog/vlog_format.h"

namespace acheron {

// ---------------- TableSinkWorker ----------------

TableSinkWorker::TableSinkWorker(Env* env)
    : env_(env), state_(std::make_shared<State>()) {}

TableSinkWorker::~TableSinkWorker() {
  MutexLock l(&state_->worker_mu);
  state_->stopping = true;
  state_->cv.SignalAll();
  while (state_->started && !state_->exited) {
    state_->cv.Wait();
  }
}

void TableSinkWorker::Submit(std::function<void()> work) {
  MutexLock l(&state_->worker_mu);
  state_->queue.push_back(std::move(work));
  if (!state_->started) {
    state_->started = true;
    // The thread adopts its own reference to the state (see ThreadMain).
    // io: unlocked -- thread start only, no file I/O
    env_->StartThread(
        &TableSinkWorker::ThreadMain,
        std::make_unique<std::shared_ptr<State>>(state_).release());
  }
  state_->cv.SignalAll();
}

std::string TableSinkWorker::TakeBuffer() {
  MutexLock l(&state_->worker_mu);
  if (state_->spare_buffers.empty()) return std::string();
  std::string buffer = std::move(state_->spare_buffers.back());
  state_->spare_buffers.pop_back();
  return buffer;
}

void TableSinkWorker::ReturnBuffer(std::string buffer) {
  buffer.clear();
  MutexLock l(&state_->worker_mu);
  state_->spare_buffers.push_back(std::move(buffer));
}

bool TableSinkWorker::Idle() const {
  MutexLock l(&state_->worker_mu);
  return state_->queue.empty() && !state_->running;
}

void TableSinkWorker::ThreadMain(void* arg) {
  std::unique_ptr<std::shared_ptr<State>> ref(
      static_cast<std::shared_ptr<State>*>(arg));
  State* s = ref->get();
  MutexLock l(&s->worker_mu);
  while (true) {
    if (s->queue.empty()) {
      if (s->stopping) break;
      s->cv.Wait();
      continue;
    }
    std::function<void()> work = std::move(s->queue.front());
    s->queue.pop_front();
    s->running = true;
    s->worker_mu.Unlock();
    work();
    work = nullptr;
    s->worker_mu.Lock();
    s->running = false;
  }
  s->exited = true;
  s->cv.SignalAll();
}

// ---------------- TableSink: caller side ----------------

TableSink::TableSink(const Options& options, const Comparator* ucmp,
                     Env* env, std::string dbname,
                     std::function<uint64_t()> new_file_number,
                     TableSinkWorker* worker)
    : options_(options),
      ucmp_(ucmp),
      env_(env),
      dbname_(std::move(dbname)),
      new_file_number_(std::move(new_file_number)),
      worker_(worker) {}

TableSink::~TableSink() {
  MutexLock l(&handoff_.batch_mu);
  assert(handoff_.in_flight == 0);
  assert(builder_ == nullptr);
  for (const std::unique_ptr<Batch>& b : handoff_.batches) {
    worker_->ReturnBuffer(std::move(b->data));
  }
}

TableSink::Batch* TableSink::FillBatch() {
  if (fill_ != nullptr) return fill_;
  MutexLock l(&handoff_.batch_mu);
  while (handoff_.free.empty() && handoff_.batches.size() >= kMaxBatches) {
    handoff_.cv.Wait();
  }
  if (handoff_.free.empty()) {
    handoff_.batches.push_back(std::make_unique<Batch>());
    fill_ = handoff_.batches.back().get();
    fill_->data = worker_->TakeBuffer();
    fill_->data.reserve(kBatchBytes + kBatchSlack);
  } else {
    fill_ = handoff_.free.back();
    handoff_.free.pop_back();
  }
  return fill_;
}

void TableSink::Dispatch() {
  Batch* b = fill_;
  fill_ = nullptr;
  if (b == nullptr) return;
  {
    MutexLock l(&handoff_.batch_mu);
    handoff_.in_flight++;
  }
  if (finishing_ && !handed_off_) {
    // The whole job fit in one batch: no merge is left to overlap, so
    // build it here rather than pay two thread hand-offs.
    Consume(b);
    Release(b);
    return;
  }
  handed_off_ = true;
  worker_->Submit([this, b] {
    Consume(b);
    Release(b);
  });
}

void TableSink::Release(Batch* b) {
  b->data.clear();
  b->run.reset();
  b->abandon = false;
  b->end_run = false;
  MutexLock l(&handoff_.batch_mu);
  handoff_.free.push_back(b);
  handoff_.in_flight--;
  handoff_.cv.SignalAll();
}

void TableSink::BeginRun(Run run) {
  assert(!run_open_);
  run_open_ = true;
  if (worker_ == nullptr) {
    StartRun(std::move(run));
    return;
  }
  Dispatch();
  FillBatch()->run = std::make_unique<Run>(std::move(run));
}

void TableSink::Add(const Slice& key, const Slice& value) {
  if (worker_ == nullptr) {
    if (status_.ok()) AddEntry(key, value);
    return;
  }
  Batch* b = FillBatch();
  PutVarint32(&b->data, static_cast<uint32_t>(key.size()));
  b->data.append(key.data(), key.size());
  PutVarint32(&b->data, static_cast<uint32_t>(value.size()));
  b->data.append(value.data(), value.size());
  if (b->data.size() >= kBatchBytes) Dispatch();
}

void TableSink::EndRun() {
  assert(run_open_);
  run_open_ = false;
  if (worker_ == nullptr) {
    FinishRun();
    return;
  }
  FillBatch()->end_run = true;
  Dispatch();
}

Status TableSink::Finish(const Status& input) {
  finishing_ = true;
  if (worker_ == nullptr) {
    if (!input.ok()) Fail(input);
  } else if (!input.ok()) {
    FillBatch()->abandon = true;
  }
  if (run_open_) {
    EndRun();
  } else {
    Dispatch();
  }
  {
    MutexLock l(&handoff_.batch_mu);
    while (handoff_.in_flight > 0) {
      handoff_.cv.Wait();
    }
  }
  assert(builder_ == nullptr);
  // The install wait: no output may become live before its fsync is done.
  syncs_.WaitFor(syncs_submitted_);
  Status s = input.ok() ? status_ : input;
  for (const std::unique_ptr<OutputFile>& out : files_) {
    if (s.ok() && out->sync.file != nullptr) s = out->sync.status;
  }
  for (const std::unique_ptr<OutputFile>& out : files_) {
    if (out->file == nullptr) continue;
    if (s.ok()) {
      s = out->file->Close();  // io: unlocked -- deferred output close
    } else {
      // The job failed and its outputs are removed below; close
      // deliberately -- the dropped status is a conscious choice.
      (void)out->file->Close();  // io: unlocked -- abandoned output
    }
    out->file.reset();
  }
  if (!s.ok()) {
    for (const Output& out : outputs_) {
      (void)env_->RemoveFile(
          TableFileName(dbname_, out.meta.number));  // io: unlocked
    }
    failed_.store(true, std::memory_order_release);
  }
  status_ = s;
  return s;
}

// ---------------- TableSink: builder side ----------------

void TableSink::Fail(const Status& s) {
  if (status_.ok()) status_ = s;
  failed_.store(true, std::memory_order_release);
}

void TableSink::StartRun(Run run) {
  runs_.push_back(std::move(run));
  run_first_output_ = outputs_.size();
}

void TableSink::Consume(Batch* b) {
  if (b->run != nullptr) StartRun(std::move(*b->run));
  Slice in(b->data);
  while (!in.empty()) {
    Slice key, value;
    const bool decoded = GetLengthPrefixedSlice(&in, &key) &&
                         GetLengthPrefixedSlice(&in, &value);
    assert(decoded);  // Add() wrote the batch
    (void)decoded;
    if (status_.ok()) AddEntry(key, value);
  }
  if (b->abandon) Fail(Status::IOError("table sink: input failed"));
  if (b->end_run) FinishRun();
}

void TableSink::OpenOutput() {
  assert(builder_ == nullptr);
  Output out;
  out.run = runs_.size() - 1;
  out.meta.number = new_file_number_();
  outputs_.push_back(out);
  files_.push_back(std::make_unique<OutputFile>());
  OutputFile* f = files_.back().get();
  Status s = env_->NewWritableFile(TableFileName(dbname_, out.meta.number),
                                   &f->file);  // io: unlocked
  if (!s.ok()) {
    f->file.reset();
    Fail(s);
    return;
  }
  builder_ = std::make_unique<TableBuilder>(options_, f->file.get());
}

void TableSink::AddEntry(const Slice& key, const Slice& value) {
  if (builder_ == nullptr) {
    OpenOutput();
    if (!status_.ok()) return;
  }
  builder_->Add(key, value, ExtractUserKey(key));
  if (!builder_->status().ok()) {
    Fail(builder_->status());
    builder_->Abandon();
    builder_.reset();
    return;
  }
  FoldEntry(options_, key, value, &outputs_.back().meta);
  if (builder_->FileSize() >= runs_.back().max_output_size) {
    FinishOutput();
  }
}

void TableSink::FoldEntry(const Options& options, const Slice& key,
                          const Slice& value, FileMetaData* meta) {
  if (meta->num_entries++ == 0) meta->smallest.DecodeFrom(key);
  meta->largest.DecodeFrom(key);
  ParsedInternalKey ikey;
  if (!ParseInternalKey(key, &ikey)) return;
  if (ikey.type == kTypeDeletion) {
    meta->num_tombstones++;
    meta->earliest_tombstone_seq =
        std::min(meta->earliest_tombstone_seq, ikey.sequence);
  } else if (ikey.type == kTypeValuePointer) {
    // Track the [min,max] vLog segment span: RemoveObsoleteFiles keeps
    // every segment inside a live file's span alive. (The secondary-key
    // extractor must never see a pointer payload.)
    vlog::FoldVlogSpan(value, &meta->min_vlog_segment,
                       &meta->max_vlog_segment);
  } else if (ikey.type == kTypeValue && options.secondary_key_extractor) {
    std::string sec = options.secondary_key_extractor(ikey.user_key, value);
    if (!sec.empty()) {
      if (meta->min_secondary_key.empty() || sec < meta->min_secondary_key) {
        meta->min_secondary_key = sec;
      }
      if (meta->max_secondary_key.empty() || sec > meta->max_secondary_key) {
        meta->max_secondary_key = sec;
      }
    }
  }
}

void TableSink::FoldRangeTombstone(const Comparator* ucmp,
                                   const RangeTombstone& t,
                                   FileMetaData* meta) {
  meta->num_range_tombstones++;
  meta->earliest_range_tombstone_seq =
      std::min(meta->earliest_range_tombstone_seq, t.seq);
  if (meta->range_del_begin.empty() ||
      ucmp->Compare(Slice(t.begin), Slice(meta->range_del_begin)) < 0) {
    meta->range_del_begin = t.begin;
  }
  if (meta->range_del_end.empty() ||
      ucmp->Compare(Slice(t.end), Slice(meta->range_del_end)) > 0) {
    meta->range_del_end = t.end;
  }
}

void TableSink::RangeOnlyBounds(const std::vector<RangeTombstone>& tombstones,
                                const Comparator* ucmp, InternalKey* smallest,
                                InternalKey* largest) {
  const RangeTombstone* lo = &tombstones[0];
  const RangeTombstone* hi = lo;
  SequenceNumber max_seq = 0;
  for (const RangeTombstone& t : tombstones) {
    if (ucmp->Compare(t.begin, lo->begin) < 0) lo = &t;
    if (ucmp->Compare(t.end, hi->end) > 0) hi = &t;
    max_seq = std::max(max_seq, t.seq);
  }
  *smallest = InternalKey(lo->begin, max_seq, kValueTypeForSeek);
  *largest = InternalKey(hi->end, 0, kTypeDeletion);
}

void TableSink::FinishRun() {
  const Run& run = runs_.back();
  if (status_.ok() && !run.range_tombstones.empty()) {
    const bool fresh_output = builder_ == nullptr;
    if (fresh_output) OpenOutput();
    if (status_.ok()) {
      FileMetaData* meta = &outputs_.back().meta;
      for (const RangeTombstone& t : run.range_tombstones) {
        builder_->AddRangeTombstone(t.begin, t.end, t.seq, ucmp_);
        FoldRangeTombstone(ucmp_, t, meta);
      }
      meta->earliest_range_tombstone_wall_micros =
          run.range_tombstone_wall_micros;
      if (fresh_output) {
        // No point entries to derive bounds from. Start just past the
        // run's previous output, if any: the same user key at the
        // next-lower sequence sorts strictly after, and that exact (key,
        // seq) pair exists nowhere else.
        InternalKey lo = run.range_only_smallest;
        InternalKey hi = run.range_only_largest;
        if (outputs_.size() - 1 > run_first_output_) {
          const FileMetaData& prev = outputs_[outputs_.size() - 2].meta;
          ParsedInternalKey pk;
          if (ParseInternalKey(prev.largest.Encode(), &pk)) {
            lo = InternalKey(pk.user_key, pk.sequence > 0 ? pk.sequence - 1 : 0,
                             pk.type);
            if (options_.comparator->Compare(hi.Encode(), lo.Encode()) < 0) {
              hi = lo;
            }
          }
        }
        meta->smallest = lo;
        meta->largest = hi;
      }
    }
  }
  if (builder_ == nullptr) return;
  if (status_.ok()) {
    FinishOutput();
  } else {
    builder_->Abandon();
    builder_.reset();
  }
}

void TableSink::FinishOutput() {
  FileMetaData* meta = &outputs_.back().meta;
  OutputFile* f = files_.back().get();
  if (meta->num_tombstones > 0) {
    meta->earliest_tombstone_wall_micros = runs_.back().tombstone_wall_micros;
  }
  // Mirror the metadata into the table's own properties block.
  // (AddRangeTombstone maintains the range count/seq/span itself.)
  TableProperties* props = builder_->mutable_properties();
  props->num_tombstones = meta->num_tombstones;
  props->earliest_tombstone_time = meta->earliest_tombstone_seq;
  props->earliest_tombstone_wall_micros = meta->earliest_tombstone_wall_micros;
  props->earliest_range_tombstone_wall_micros =
      meta->earliest_range_tombstone_wall_micros;
  props->min_secondary_key = meta->min_secondary_key;
  props->max_secondary_key = meta->max_secondary_key;
  Status s = builder_->Finish();
  meta->file_size = builder_->FileSize();
  builder_.reset();
  // Always synced, independent of Options::sync_writes: the manifest record
  // that makes the table live is synced at install, so the table must be
  // durable first or a crash could leave a live version pointing at a torn
  // file. SubmitSync needs the user-space buffer pushed first.
  if (s.ok()) s = f->file->Flush();
  if (s.ok()) {
    f->sync.file = f->file.get();
    syncs_submitted_++;
    env_->SubmitSync(&f->sync, &syncs_);  // io: unlocked
  }
  if (!s.ok()) Fail(s);
}

}  // namespace acheron
