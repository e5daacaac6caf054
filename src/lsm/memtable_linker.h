// MemTableLinker: the memtable's skiplist search and link, taken off the
// write path.
//
// The write-group leader's MemTable::Add prepares each node -- arena,
// height, key filter, counters, everything that decides the flush points
// -- and pushes {memtable, node, height} onto a bounded single-producer
// ring. A linker thread links the pushed nodes in push order. Readers
// never wait for it: MemTable::Get asks FindPending for the newest pending
// entry of its key, then searches the skiplist, and keeps the larger
// sequence. Drain links everything pushed so far; DBImpl calls it before
// an iterator is built over the memtable, before the memtable swap and at
// close.
//
// The linker pays only while writes come fast. It spins while work keeps
// arriving and parks after kSpinMicros without any. While it is parked, a
// leader that finds the ring empty links inline under the link flag (the
// cost of a plain insert), and when kArmLinks consecutive inline links
// took less than kArmMicros the leader arms the linker again. Whether the
// linker runs thus depends only on the write arrival rate.
//
// Ring protocol. head_ counts pushes and is written by the leader only;
// tail_ counts links and is written only by the holder of the link flag
// (the linker thread, a draining thread, or an inline-linking leader).
// Push i fills slot i % kRingSize once tail_ > i - kRingSize: it marks
// the slot kBusy, stores the key tag, mem and node, stores pos = i, all
// with release, then head_ = i + 1. A reader loads tail_ and then head_, and
// for each i in [tail, head) newest first loads pos, the key tag, mem and
// node (all acquire) and pos again: a slot whose pos is not i both times
// was recycled and is skipped, and so is one whose tag is not the key's. An entry the reader skips or never sees in its
// window was linked before the reader's skiplist search. DESIGN.md "Write
// path" gives the argument.
#ifndef ACHERON_LSM_MEMTABLE_LINKER_H_
#define ACHERON_LSM_MEMTABLE_LINKER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/env/env.h"
#include "src/memtable/memtable.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace acheron {

class MemTableLinker final : public MemTable::LinkQueue {
 public:
  // Slots in the ring: pushes beyond this many unlinked nodes wait.
  static constexpr uint64_t kRingSize = 256;
  // The linker parks after this long without a node to link.
  static constexpr uint64_t kSpinMicros = 20;
  // A parked linker is armed when kArmLinks consecutive inline links take
  // less than kArmMicros (a write every 12.5 us or faster). point_read's
  // writes, one every ~50 us, then almost never arm it; at 8 links their
  // chance bursts did, and its Gets got slower.
  static constexpr uint32_t kArmLinks = 16;
  static constexpr uint64_t kArmMicros = 200;

  // The thread comes from env->StartThread when the linker is first armed.
  explicit MemTableLinker(Env* env);
  // Drains the ring and stops the thread.
  ~MemTableLinker() override;

  MemTableLinker(const MemTableLinker&) = delete;
  MemTableLinker& operator=(const MemTableLinker&) = delete;

  // MemTable::LinkQueue. Push is called by the write-group leader only.
  void Push(MemTable* mem, MemTable::Node* node, int height,
            uint32_t key_tag) override;
  const char* FindPending(const MemTable* mem, const LookupKey& key,
                          uint32_t key_tag,
                          SequenceNumber* seq) const override;

  // Link every node pushed before the call, on this thread if the link
  // flag is free, else by waiting for its holder. Lock-free.
  void Drain();

  // Test hooks. While held, the linker thread links nothing and leaders
  // never link inline, so pushed nodes stay pending until a drain (or a
  // full ring) links them. While kept armed, the linker never parks.
  void TEST_Hold(bool hold);
  void TEST_KeepArmed(bool keep);
  // Called by FindPending after it loads its window, before it reads a slot.
  void TEST_SetScanHook(std::function<void()> hook);
  // Nodes pushed and not yet linked.
  uint64_t TEST_Pending() const;
  // Whether the linker is armed (spinning or about to).
  bool TEST_Armed() const;

 private:
  static constexpr uint64_t kBusy = UINT64_MAX;

  struct alignas(32) Slot {
    std::atomic<uint64_t> pos{kBusy};  // push index held, kBusy if none
    std::atomic<MemTable*> mem{nullptr};
    std::atomic<MemTable::Node*> node{nullptr};
    std::atomic<int> height{0};
    // The user key's tag: a reader compares keys only where tags match.
    std::atomic<uint32_t> key_tag{0};
  };

  // Shared with the thread, which holds its own reference until it has
  // released the lock for the last time: the owner may be gone by then.
  struct State {
    State() : park_cv(&park_mu) {}
    Mutex park_mu;
    CondVar park_cv;  // paired with park_mu: armed, stopping, exited
    bool started GUARDED_BY(park_mu) = false;
    bool exited GUARDED_BY(park_mu) = false;
  };

  using ThreadArg = std::pair<std::shared_ptr<State>, MemTableLinker*>;
  static void ThreadMain(void* arg);
  // The thread body: wait to be armed, link until idle, repeat.
  void Run();
  void SpinWhileArmed();

  // Take the link flag if it is free, link [tail_, head_), release it.
  // Returns the nodes linked.
  uint64_t LinkPending();
  bool TryTakeLinkFlag();
  void ReleaseLinkFlag();

  // Leader side: count an inline link and arm by the rate rule.
  void CountInlineLink();
  void Arm();

  Env* const env_;
  const std::shared_ptr<State> state_;
  const std::unique_ptr<Slot[]> ring_;
  alignas(64) std::atomic<uint64_t> head_{0};
  // Leader-only: a tail_ value seen earlier, and the rate-rule state.
  // Atomic because leaders change threads.
  std::atomic<uint64_t> known_tail_{0};
  std::atomic<uint32_t> inline_links_{0};
  std::atomic<uint64_t> window_start_micros_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
  std::atomic<bool> link_flag_{false};
  alignas(64) std::atomic<bool> armed_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> held_{false};
  std::atomic<bool> keep_armed_{false};
  // Set before any concurrent use (test setup) and read by FindPending.
  std::function<void()> scan_hook_;
};

}  // namespace acheron

#endif  // ACHERON_LSM_MEMTABLE_LINKER_H_
