// Epoch-based reclamation (Fraser, "Practical lock-freedom", 2004) for the
// cTrie's lock-free readers.
//
// A reader opens a Guard for the length of one operation and follows raw
// pointers inside it. A writer that unlinks a node does not free it: it
// hands the node to Retire(), and the node's release runs only after every
// guard that was open when it was unlinked has closed. That is the role the
// garbage collector plays in Prokopec et al.'s CTrie; with it, a read takes
// no lock and writes no shared cache line except its own thread's slot.
//
// Mechanics:
//   - a global epoch counter;
//   - one slot per thread, claimed on the thread's first guard or retire
//     and released at thread exit, holding the epoch the thread's open
//     guard observed (0 while no guard is open);
//   - one retire list per thread, stamped with the epoch read after the
//     unlink. Every kFlushEvery retirements the thread tries to advance the
//     epoch (possible once every open guard has observed the current one)
//     and releases entries at least two epochs old, so a single writer's
//     bulk build reclaims as it goes and its backlog stays bounded.
//   - at thread exit the list is drained as far as open guards allow; what
//     is left is handed to the next thread that flushes.
//
// Every announcement, epoch read and slot scan is a sequentially consistent
// atomic operation (no standalone fences, which ThreadSanitizer does not
// model). The readers' own pointer loads are sequentially consistent too
// (a plain load on x86): together they order a reader's loads after any
// unlink whose retirement its announced epoch does not cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace idf::epoch {

namespace detail {

struct Retired {
  void* ptr;
  void (*release)(void*);
  uint64_t epoch;
};

struct Slot {
  std::atomic<uint64_t> epoch{0};  // 0: no guard open on the owning thread
  std::atomic<bool> in_use{true};
  Slot* next = nullptr;  // immutable once the slot is published
};

struct Orphans {
  std::vector<Retired> items;
  Orphans* next = nullptr;
};

inline constexpr uint32_t kFlushEvery = 64;

// Process-wide state. Slots and orphan batches are never freed, so no
// thread can see them die, and the globals stay trivially destructible.
inline std::atomic<uint64_t> g_epoch{1};
inline std::atomic<Slot*> g_slots{nullptr};
inline std::atomic<Orphans*> g_orphans{nullptr};

inline Slot* ClaimSlot() {
  for (Slot* s = g_slots.load(); s != nullptr; s = s->next) {
    bool free_slot = false;
    if (!s->in_use.load(std::memory_order_relaxed) &&
        s->in_use.compare_exchange_strong(free_slot, true)) {
      return s;
    }
  }
  auto* s = new Slot;
  Slot* head = g_slots.load();
  do {
    s->next = head;
  } while (!g_slots.compare_exchange_weak(head, s));
  return s;
}

/// Moves the global epoch on by one if every open guard has observed the
/// current value; returns the epoch in force afterwards.
inline uint64_t TryAdvance() {
  uint64_t e = g_epoch.load();
  for (Slot* s = g_slots.load(); s != nullptr; s = s->next) {
    const uint64_t seen = s->epoch.load();
    if (seen != 0 && seen != e) return e;
  }
  return g_epoch.compare_exchange_strong(e, e + 1) ? e + 1 : e;
}

class ThreadState {
 public:
  ThreadState() : slot_(ClaimSlot()) {}
  ~ThreadState();
  ThreadState(const ThreadState&) = delete;
  ThreadState& operator=(const ThreadState&) = delete;

  void Enter() {
    if (depth_++ == 0) slot_->epoch.store(g_epoch.load());
  }
  void Exit() {
    // Release suffices: a reclaimer that reads 0 must see this guard's
    // reads as done; it never needs to order anything after them.
    if (--depth_ == 0) slot_->epoch.store(0, std::memory_order_release);
  }

  void Retire(void* ptr, void (*release)(void*)) {
    retired_.push_back({ptr, release, g_epoch.load()});
    if (++since_flush_ >= kFlushEvery) {
      since_flush_ = 0;
      AdoptOrphans();
      Reclaim(TryAdvance());
    }
  }

 private:
  void AdoptOrphans() {
    if (g_orphans.load(std::memory_order_relaxed) == nullptr) return;
    Orphans* batch = g_orphans.exchange(nullptr);
    while (batch != nullptr) {
      retired_.insert(retired_.end(), batch->items.begin(), batch->items.end());
      Orphans* next = batch->next;
      delete batch;
      batch = next;
    }
  }

  /// Releases every entry retired at least two epochs before `now`. The
  /// ready entries leave the list before any release runs, so a release
  /// that retires more (a value whose destructor drops a trie) is safe.
  void Reclaim(uint64_t now) {
    std::vector<Retired> ready;
    size_t kept = 0;
    for (const Retired& r : retired_) {
      if (r.epoch + 2 <= now) {
        ready.push_back(r);
      } else {
        retired_[kept++] = r;
      }
    }
    retired_.resize(kept);
    for (const Retired& r : ready) r.release(r.ptr);
  }

  Slot* const slot_;
  uint32_t depth_ = 0;
  uint32_t since_flush_ = 0;
  std::vector<Retired> retired_;
};

// Fast-path handle to the thread's state: a trivially initialized pointer,
// so the hot path reads TLS directly instead of through an init wrapper.
inline thread_local ThreadState* t_state = nullptr;
inline thread_local bool t_state_destroyed = false;

inline ThreadState& InitState() {
  if (t_state_destroyed) {
    // Used again from a later thread-exit destructor: a state that is never
    // destroyed (its slot stays claimed and idle) keeps guards correct.
    t_state = new ThreadState;
    return *t_state;
  }
  thread_local ThreadState state;
  t_state = &state;
  return state;
}

inline ThreadState& State() {
  ThreadState* s = t_state;
  return s != nullptr ? *s : InitState();
}

inline ThreadState::~ThreadState() {
  // No guard of this thread is open any more: a few advances usually free
  // everything. Whatever an open guard elsewhere still covers is orphaned.
  // (Releases that retire more land in this list, so it is orphaned last.)
  for (int round = 0; round < 3 && !retired_.empty(); ++round) {
    AdoptOrphans();
    Reclaim(TryAdvance());
  }
  if (!retired_.empty()) {
    auto* batch = new Orphans{std::move(retired_)};
    Orphans* head = g_orphans.load();
    do {
      batch->next = head;
    } while (!g_orphans.compare_exchange_weak(head, batch));
  }
  slot_->in_use.store(false);
  t_state = nullptr;
  t_state_destroyed = true;
}

}  // namespace detail

/// Marks the calling thread as reading shared nodes until destruction.
/// Guards nest; only the outermost one announces.
class Guard {
 public:
  Guard() : state_(detail::State()) { state_.Enter(); }
  ~Guard() { state_.Exit(); }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  detail::ThreadState& state_;
};

/// Runs `release(ptr)` once every guard open at the time of this call has
/// closed. Call it after `ptr` has been unlinked from every shared location.
inline void Retire(void* ptr, void (*release)(void*)) {
  detail::State().Retire(ptr, release);
}

}  // namespace idf::epoch
