#include "src/lsm/memtable_linker.h"

#include <thread>
#include <utility>

#include "src/util/clock.h"

namespace acheron {

namespace {

// One spin-wait step: tell the core this thread is waiting.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// One step of a wait for another thread's progress: spin briefly, then
// yield, in case the thread waited for is the one without a core.
constexpr int kSpinsBeforeYield = 64;

inline void SpinWait(int* spins) {
  if (++*spins < kSpinsBeforeYield) {
    CpuRelax();
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

MemTableLinker::MemTableLinker(Env* env)
    : env_(env),
      state_(std::make_shared<State>()),
      ring_(std::make_unique<Slot[]>(kRingSize)) {}

MemTableLinker::~MemTableLinker() {
  Drain();
  stopping_.store(true, std::memory_order_release);
  MutexLock l(&state_->park_mu);
  state_->park_cv.SignalAll();
  while (state_->started && !state_->exited) {
    state_->park_cv.Wait();
  }
}

// ---------------- Leader side ----------------

void MemTableLinker::Push(MemTable* mem, MemTable::Node* node, int height,
                          uint32_t key_tag) {
  const uint64_t h = head_.load(std::memory_order_relaxed);  // ours alone
  const bool held = held_.load(std::memory_order_relaxed);
  if (!held && !armed_.load(std::memory_order_acquire) &&
      tail_.load(std::memory_order_acquire) == h && TryTakeLinkFlag()) {
    // Parked linker, empty ring: link here, as a plain insert would.
    mem->Link(node, height);
    ReleaseLinkFlag();
    CountInlineLink();
    return;
  }

  // Room is checked against a copy of tail_, so an armed linker's line is
  // read only when the copy says the ring is full.
  if (h - known_tail_.load(std::memory_order_relaxed) >= kRingSize) {
    int spins = 0;
    uint64_t t;
    while (h - (t = tail_.load(std::memory_order_acquire)) >= kRingSize) {
      if (LinkPending() == 0) SpinWait(&spins);  // help, or wait for room
    }
    known_tail_.store(t, std::memory_order_relaxed);
  }
  // Every store to a reused slot is a release after the loop above saw its
  // old node linked: a reader that reads any of them finds that node in
  // the skiplist search it makes next.
  Slot& slot = ring_[h % kRingSize];
  slot.pos.store(kBusy, std::memory_order_release);
  slot.key_tag.store(key_tag, std::memory_order_release);
  slot.mem.store(mem, std::memory_order_release);
  slot.node.store(node, std::memory_order_release);
  slot.height.store(height, std::memory_order_relaxed);
  slot.pos.store(h, std::memory_order_release);
  // seq_cst store and load pair with the linker's park (armed_ store, then
  // head_ load): one of the two sees the other, so a push never strands
  // behind a linker that has just parked.
  head_.store(h + 1, std::memory_order_seq_cst);
  if (held || armed_.load(std::memory_order_seq_cst)) return;
  // The linker parked: nobody else will link this node.
  int spins = 0;
  while (tail_.load(std::memory_order_acquire) <= h) {
    if (LinkPending() == 0) SpinWait(&spins);
  }
  CountInlineLink();
}

void MemTableLinker::CountInlineLink() {
  const uint32_t n = inline_links_.load(std::memory_order_relaxed) + 1;
  if (n < kArmLinks) {
    inline_links_.store(n, std::memory_order_relaxed);
    return;
  }
  inline_links_.store(0, std::memory_order_relaxed);
  const uint64_t now = SystemClock::NowMicros();
  const uint64_t start = window_start_micros_.load(std::memory_order_relaxed);
  window_start_micros_.store(now, std::memory_order_relaxed);
  if (now - start < kArmMicros) Arm();
}

void MemTableLinker::Arm() {
  armed_.store(true, std::memory_order_seq_cst);
  MutexLock l(&state_->park_mu);
  if (!state_->started) {
    state_->started = true;
    // The thread adopts its own reference to the state (see ThreadMain).
    // io: unlocked -- thread start only, no file I/O
    env_->StartThread(&MemTableLinker::ThreadMain,
                      std::make_unique<ThreadArg>(state_, this).release());
  }
  state_->park_cv.SignalAll();
}

// ---------------- Linking ----------------

bool MemTableLinker::TryTakeLinkFlag() {
  bool expected = false;
  return !link_flag_.load(std::memory_order_relaxed) &&
         link_flag_.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
}

void MemTableLinker::ReleaseLinkFlag() {
  link_flag_.store(false, std::memory_order_release);
}

uint64_t MemTableLinker::LinkPending() {
  // Read-only while there is nothing to link, so an idle linker spinning
  // here does not pull tail_'s line away from the leader.
  if (tail_.load(std::memory_order_acquire) ==
          head_.load(std::memory_order_acquire) ||
      !TryTakeLinkFlag()) {
    return 0;
  }
  const uint64_t t = tail_.load(std::memory_order_relaxed);
  const uint64_t h = head_.load(std::memory_order_acquire);
  for (uint64_t i = t; i < h; i++) {
    const Slot& slot = ring_[i % kRingSize];
    slot.mem.load(std::memory_order_acquire)
        ->Link(slot.node.load(std::memory_order_acquire),
               slot.height.load(std::memory_order_relaxed));
    // Per node, so a waiting push gets its room as soon as possible.
    tail_.store(i + 1, std::memory_order_release);
  }
  ReleaseLinkFlag();
  return h - t;
}

void MemTableLinker::Drain() {
  const uint64_t target = head_.load(std::memory_order_acquire);
  int spins = 0;
  while (tail_.load(std::memory_order_acquire) < target) {
    if (LinkPending() == 0) SpinWait(&spins);
  }
}

// ---------------- The linker thread ----------------

void MemTableLinker::ThreadMain(void* arg) {
  std::unique_ptr<ThreadArg> ref(static_cast<ThreadArg*>(arg));
  ref->second->Run();
}

void MemTableLinker::Run() {
  // Holds a reference through ThreadMain's |ref|: the last unlock below
  // may come after the owner has gone.
  State* s = state_.get();
  MutexLock l(&s->park_mu);
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!armed_.load(std::memory_order_acquire)) {
      s->park_cv.Wait();
      continue;
    }
    s->park_mu.Unlock();
    SpinWhileArmed();
    s->park_mu.Lock();
  }
  s->exited = true;
  s->park_cv.SignalAll();
}

void MemTableLinker::SpinWhileArmed() {
  uint64_t idle_since = SystemClock::NowMicros();
  while (!stopping_.load(std::memory_order_acquire)) {
    if (!held_.load(std::memory_order_relaxed) && LinkPending() > 0) {
      idle_since = SystemClock::NowMicros();
      continue;
    }
    if (keep_armed_.load(std::memory_order_relaxed) ||
        SystemClock::NowMicros() - idle_since < kSpinMicros) {
      CpuRelax();
      continue;
    }
    // Park, then look again: a push that raced the park is linked here,
    // or by its leader if that leader saw the park (see Push).
    armed_.store(false, std::memory_order_seq_cst);
    if (held_.load(std::memory_order_relaxed) ||
        head_.load(std::memory_order_seq_cst) ==
            tail_.load(std::memory_order_acquire)) {
      return;
    }
    armed_.store(true, std::memory_order_relaxed);
    idle_since = SystemClock::NowMicros();
  }
}

// ---------------- Readers ----------------

const char* MemTableLinker::FindPending(const MemTable* mem,
                                        const LookupKey& key,
                                        uint32_t key_tag,
                                        SequenceNumber* seq) const {
  uint64_t t = tail_.load(std::memory_order_acquire);
  const uint64_t h = head_.load(std::memory_order_acquire);
  if (t >= h) return nullptr;
  if (h - t > kRingSize) t = h - kRingSize;  // the older slots are reused
  if (scan_hook_) scan_hook_();
  for (uint64_t i = h; i-- > t;) {
    const Slot& slot = ring_[i % kRingSize];
    if (slot.pos.load(std::memory_order_acquire) != i ||
        slot.key_tag.load(std::memory_order_acquire) != key_tag) {
      continue;
    }
    const MemTable* m = slot.mem.load(std::memory_order_acquire);
    const MemTable::Node* x = slot.node.load(std::memory_order_acquire);
    // A field from a later push would come with its kBusy mark (acquire
    // loads above), so an unchanged pos means the fields are push i's. A
    // tag from a later push only skips a slot that push recycled.
    if (slot.pos.load(std::memory_order_relaxed) != i || m != mem) continue;
    const char* entry = MemTable::EntryOf(x);
    if (mem->EntryMatches(entry, key, seq)) return entry;
  }
  return nullptr;
}

// ---------------- Test hooks ----------------

void MemTableLinker::TEST_Hold(bool hold) {
  held_.store(hold, std::memory_order_relaxed);
}

void MemTableLinker::TEST_KeepArmed(bool keep) {
  keep_armed_.store(keep, std::memory_order_relaxed);
  if (keep) Arm();
}

void MemTableLinker::TEST_SetScanHook(std::function<void()> hook) {
  scan_hook_ = std::move(hook);
}

uint64_t MemTableLinker::TEST_Pending() const {
  const uint64_t t = tail_.load(std::memory_order_acquire);
  return head_.load(std::memory_order_acquire) - t;
}

bool MemTableLinker::TEST_Armed() const {
  return armed_.load(std::memory_order_acquire);
}

}  // namespace acheron
