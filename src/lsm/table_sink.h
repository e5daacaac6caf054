// TableSink: the one table-output path. Flush, compaction (vLog-GC and
// secondary-purge rewrites included) and RepairDB's WAL salvage stream the
// entries they keep into a sink, in sorted order. The sink builds the
// tables, cuts an output once its file reaches the run's size limit,
// derives every FileMetaData field from the entries it saw (bounds,
// point-tombstone count and earliest seq, vLog span, secondary-key range,
// range-tombstone count/seq/span) and mirrors them into the table's
// properties block. FoldEntry and FoldRangeTombstone are that derivation;
// RepairDB re-derives an orphan table's metadata through them too, so every
// table's metadata follows one rule. Each finished output is synced on the
// thread that built it before the next output is created, so every output
// is durable once Finish() returns: Finish() is the single
// sync-before-install point every caller passes before the LogAndApply
// that makes the outputs live.
//
// With a TableSinkWorker the builder runs on the worker's thread: Add()
// copies each entry into a bounded batch (kBatchBytes each, at most
// kMaxBatches in flight) and blocks only when every batch is in flight, so
// the caller's merge loop overlaps the table build, write and sync. A job
// that fits in one batch has nothing to overlap and is built on the
// caller's thread at Finish(). Without a worker the calling thread builds
// each entry as it arrives (vLog GC: its relocation appends share the
// entry stream, and keeping all of a job's mutating file ops on one thread
// keeps the crash matrix's op numbering deterministic).
//
// Every mutating file op of a job (create, append, sync) runs on the
// builder thread in stream order; only the Close of each output is
// deferred to Finish(), on the caller's thread. A failed job removes every
// output file it created.
#ifndef ACHERON_LSM_TABLE_SINK_H_
#define ACHERON_LSM_TABLE_SINK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/range_tombstone.h"
#include "src/env/env.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/options.h"
#include "src/lsm/version_edit.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace acheron {

class TableBuilder;

// A single background thread that runs table-sink work in submission
// order. The thread comes from Env::StartThread on the first Submit(); the
// destructor lets queued work finish, then waits for the thread to exit.
class TableSinkWorker {
 public:
  explicit TableSinkWorker(Env* env);
  ~TableSinkWorker();

  TableSinkWorker(const TableSinkWorker&) = delete;
  TableSinkWorker& operator=(const TableSinkWorker&) = delete;

  void Submit(std::function<void()> work);

  // Batch buffers outlive the jobs that fill them: re-growing a fresh
  // quarter-megabyte buffer per job would pay a page fault per 4 KiB.
  std::string TakeBuffer();
  void ReturnBuffer(std::string buffer);

  // True when no submitted work is queued or running.
  bool Idle() const;

 private:
  // Shared with the thread, which holds its own reference until it has
  // released the lock for the last time: the owner may be gone by then.
  struct State {
    State() : cv(&worker_mu) {}
    mutable Mutex worker_mu;
    CondVar cv;  // paired with worker_mu: work queued, thread exited
    std::deque<std::function<void()>> queue GUARDED_BY(worker_mu);
    bool started GUARDED_BY(worker_mu) = false;
    bool running GUARDED_BY(worker_mu) = false;
    bool stopping GUARDED_BY(worker_mu) = false;
    bool exited GUARDED_BY(worker_mu) = false;
    std::vector<std::string> spare_buffers GUARDED_BY(worker_mu);
  };

  static void ThreadMain(void* arg);

  Env* const env_;
  const std::shared_ptr<State> state_;
};

class TableSink {
 public:
  // The metadata a job's outputs share beyond what the entries themselves
  // say. Every job feeds one run: BeginRun, the entries, then Finish.
  struct Run {
    // Cut the current output once its file reaches this size.
    uint64_t max_output_size = UINT64_MAX;
    // Wall stamp of outputs holding point tombstones.
    uint64_t tombstone_wall_micros = UINT64_MAX;
    // Range tombstones written into the last output, and that output's
    // range-tombstone wall stamp.
    std::vector<RangeTombstone> range_tombstones;
    uint64_t range_tombstone_wall_micros = UINT64_MAX;
    // Bounds of a last output holding only range tombstones. When the job
    // already cut an output, the lower bound moves just past that output's
    // largest key so the outputs stay disjoint.
    InternalKey range_only_smallest;
    InternalKey range_only_largest;
  };

  // The metadata derivation: fold one stored entry (internal key, in key
  // order) or one range tombstone into |meta|.
  static void FoldEntry(const Options& options, const Slice& key,
                        const Slice& value, FileMetaData* meta);
  static void FoldRangeTombstone(const Comparator* ucmp,
                                 const RangeTombstone& t, FileMetaData* meta);
  // Bounds of a table holding only |tombstones| (non-empty): their user-key
  // span, above every entry they cover. Only level 0 may hold such a table
  // unclipped, since it may overlap its neighbours.
  static void RangeOnlyBounds(const std::vector<RangeTombstone>& tombstones,
                              const Comparator* ucmp, InternalKey* smallest,
                              InternalKey* largest);

  // Bounded hand-off between the caller and the worker.
  static constexpr size_t kBatchBytes = 256 << 10;
  static constexpr size_t kBatchSlack = 4 << 10;  // room for the last entry
  static constexpr size_t kMaxBatches = 4;

  // |new_file_number| allocates an output number (and protects it from
  // file GC); it runs on the builder thread with no sink lock held.
  // |options.comparator| orders the stored keys; |ucmp| orders user keys.
  // |worker| may be null: the caller's thread then builds inline.
  TableSink(const Options& options, const Comparator* ucmp, Env* env,
            std::string dbname, std::function<uint64_t()> new_file_number,
            TableSinkWorker* worker);
  // REQUIRES: Finish() has returned, or nothing was ever added.
  ~TableSink();

  TableSink(const TableSink&) = delete;
  TableSink& operator=(const TableSink&) = delete;

  // REQUIRES: called once, before any Add().
  void BeginRun(Run run);
  // REQUIRES: |key| is an internal key after the previous key.
  void Add(const Slice& key, const Slice& value);

  // True once building or writing an output failed; the caller may stop
  // feeding entries (Finish returns the error either way).
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Ends the run: hands over the last batch, waits for the builder to
  // finish and sync the last output, then closes the files. A non-OK
  // |input| (the caller's entry stream failed) abandons the open output
  // instead of finishing it and fails the job. Returns the first error; on
  // error every output file is removed.
  Status Finish(const Status& input = Status::OK());

  // Every output created, in creation order; valid after Finish(). On
  // error the list still names every allocated file number.
  const std::vector<FileMetaData>& outputs() const { return outputs_; }

 private:
  struct Batch {
    // Entries, each a length-prefixed key then a length-prefixed value.
    std::string data;
    bool last = false;     // Finish(): end the run after the entries
    bool abandon = false;  // fail the job before ending the run
  };

  // The batch pool shared by the caller and the worker.
  struct Handoff {
    Handoff() : cv(&batch_mu) {}
    Mutex batch_mu;
    CondVar cv;  // paired with batch_mu: a batch came back
    std::vector<std::unique_ptr<Batch>> batches GUARDED_BY(batch_mu);
    std::vector<Batch*> free GUARDED_BY(batch_mu);
    size_t in_flight GUARDED_BY(batch_mu) = 0;
  };

  Batch* FillBatch();
  void Dispatch();
  void Release(Batch* b);

  // Builder side: the worker's thread, or the caller's without a worker.
  void Consume(Batch* b);
  void AddEntry(const Slice& key, const Slice& value);
  void OpenOutput();
  void FinishOutput();
  void FinishRun();
  void Fail(const Status& s);

  const Options options_;
  const Comparator* const ucmp_;
  Env* const env_;
  const std::string dbname_;
  const std::function<uint64_t()> new_file_number_;
  TableSinkWorker* const worker_;

  // Set by BeginRun before the first batch goes to the worker (the
  // hand-off orders it before every builder-side read).
  Run run_;

  // Caller side.
  Batch* fill_ = nullptr;
  bool finishing_ = false;   // Finish() has begun
  bool handed_off_ = false;  // a batch went to the worker
  Handoff handoff_;
  std::atomic<bool> failed_{false};

  // Builder side; the caller reads it only after Finish() drained the
  // builder (the hand-off lock orders the accesses).
  Status status_;
  std::unique_ptr<TableBuilder> builder_;
  std::vector<FileMetaData> outputs_;
  std::vector<std::unique_ptr<WritableFile>> files_;  // parallel to outputs_
};

}  // namespace acheron

#endif  // ACHERON_LSM_TABLE_SINK_H_
