// Memory governor: budgeted caching with batch-granular eviction and
// transparent spill/reload.
//
// The paper's Indexed DataFrame keeps everything in memory but notes the
// representation "could easily extend to store data out-of-core" (§III-C).
// This subsystem is that extension's control plane: a process-wide
// MemoryGovernor with a configurable byte budget tracks every governed
// allocation (row batches register through storage-layer hooks), and when
// the budget is exceeded it evicts *sealed* payloads — cost-aware LRU:
// oldest last access first, already-spilled payloads preferred because
// their reload cost is a read with no write — by spilling them to a spill
// directory and freeing the in-memory buffer. The owning object survives
// as a disk-backed stub; the next access faults the payload back in.
//
// Pinning: readers open an AccessScope (RAII, thread-local) around an
// operation — a scan, an indexed join probe, an append that chases a
// back-pointer — and every payload touched through the scope is pinned
// until the scope closes. Pinned payloads are never evicted mid-operation.
// Unsealed payloads (the open tail batch of a live version) are never
// registered and therefore never evicted.
//
// COW interplay: a sealed batch shared by N snapshot versions is one
// Evictable — it spills once, reloads once, and every sharer sees the
// reloaded buffer (§III-E sharing is by pointer, not by copy).
//
// Concurrency protocol (reader vs. evictor, Dekker-style):
//   reader:  pins_.fetch_add(seq_cst); load state_ (seq_cst);
//            resident  -> read the buffer,
//            otherwise -> lock the governor, reload, mark resident.
//   evictor: (governor lock held) store state_ = kEvicting (seq_cst);
//            load pins_ (seq_cst); nonzero -> roll back to kResident and
//            skip the victim, zero -> spill + free, state_ = kEvicted.
// Sequential consistency guarantees at least one side observes the other:
// either the evictor sees the pin and aborts, or the reader sees the
// eviction and takes the reload path (which waits on the governor lock
// until the transition completes).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace idf::obs {
struct QueryProfile;
}  // namespace idf::obs

namespace idf::mem {

class MemoryGovernor;
class AccessScope;

/// A spill file on disk, owned by the payload it holds and removed with it:
/// a spill file dies with its batch.
class SpillFile {
 public:
  explicit SpillFile(std::string path) : path_(std::move(path)) {}
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Thrown by AccessScope::Pin when a spilled payload cannot be reloaded
/// (spill file removed by tmp cleanup, disk error). Pointer-returning read
/// paths (e.g. PartitionStore::RowAt) have no Status channel, so the failure
/// unwinds as an exception; Cluster::ExecuteTask catches it at the task
/// boundary and turns it into a kUnavailable task status — a clean stage
/// failure the driver can react to — instead of aborting the process.
class ReloadFault : public std::exception {
 public:
  explicit ReloadFault(Status status)
      : status_(std::move(status)),
        message_("reload fault: " + status_.ToString()) {}
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  Status status_;
  std::string message_;
};

/// Identity of a governed payload: batch `index` of (owner rdd, shard
/// partition). The residency map, the flight recorder and the chaos reload
/// key read it.
struct SpillIdentity {
  uint64_t owner = 0;  // e.g. rdd id; 0 = anonymous
  uint32_t shard = 0;  // e.g. partition number
  uint32_t index = 0;  // position within the store, dense from 0
};

/// Aggregate residency of one (owner rdd, shard partition) — the scheduler's
/// per-PartitionStore view of where a partition's governed payloads live.
struct ResidencyInfo {
  uint64_t resident_bytes = 0;  // payload bytes currently in RAM
  uint64_t spilled_bytes = 0;   // payload bytes currently on disk only
  uint64_t last_access = 0;     // newest LRU tick across the payloads
};

/// Keyed by (owner, shard); only identity-tagged payloads appear.
using ResidencyMap = std::map<std::pair<uint64_t, uint32_t>, ResidencyInfo>;

/// Base class for anything the governor may evict. Storage objects (row
/// batches) derive from it, implement the payload I/O, and call
/// SealForGovernor() once the payload is immutable and RetireFromGovernor()
/// first thing in their destructor.
class Evictable {
 public:
  virtual ~Evictable();
  Evictable(const Evictable&) = delete;
  Evictable& operator=(const Evictable&) = delete;

  bool resident() const {
    return state_.load(std::memory_order_acquire) == kResident;
  }
  bool sealed_for_governor() const {
    return sealed_.load(std::memory_order_acquire);
  }

 protected:
  Evictable() = default;

  /// Declares the payload immutable and evictable from now on. Idempotent.
  void SealForGovernor();

  /// Must be the first statement of the most-derived destructor: blocks
  /// until any in-flight eviction of this payload finishes, then removes it
  /// from the governor. (The base-class destructor is too late — the
  /// derived payload vtable entries are already gone by then.)
  void RetireFromGovernor();

  /// Accounting hooks for the payload buffer's lifetime.
  void AccountAllocated(uint64_t bytes);

  void SetSpillIdentity(const SpillIdentity& id) { identity_ = id; }
  const SpillIdentity& spill_identity() const { return identity_; }

 private:
  friend class MemoryGovernor;
  friend class AccessScope;

  enum State : int { kResident = 0, kEvicting = 1, kEvicted = 2 };

  /// Writes the payload to `path`; returns bytes written. Called by the
  /// governor with its lock held and pins_ == 0.
  virtual Result<uint64_t> SpillPayload(const std::string& path) = 0;
  /// Frees the in-memory buffer (the payload survives on disk). Called by
  /// the governor after a successful spill, lock held, pins_ == 0.
  virtual void ReleasePayload() = 0;
  /// Restores the payload from a file SpillPayload wrote earlier. Must not
  /// call AccountAllocated — the governor does the reload accounting.
  virtual Status ReloadPayload(const std::string& path) = 0;
  /// Bytes of RAM the resident payload occupies (freed by eviction).
  virtual uint64_t PayloadBytes() const = 0;

  mutable std::atomic<int> state_{kResident};
  mutable std::atomic<uint32_t> pins_{0};
  mutable std::atomic<uint64_t> last_access_{0};
  // Last AccessScope that pinned this payload — lets the scope skip
  // re-pinning on every row of a batch it already holds.
  mutable std::atomic<uint64_t> scope_hint_{0};
  std::atomic<bool> sealed_{false};

  SpillIdentity identity_;
  uint64_t spill_bytes_ = 0;       // set at first spill
  std::unique_ptr<SpillFile> spill_file_;  // immutable payload: write once
  bool registered_ = false;        // guarded by the governor mutex
};

class MemoryGovernor {
 public:
  /// The process-wide governor (leaky singleton, like obs::Registry).
  static MemoryGovernor& Global();

  /// (Re)configures budget and spill directory. budget_bytes == 0 disables
  /// eviction (the governor still accounts). An empty spill_dir keeps the
  /// current one (default: <tmp>/idf-spill-<pid>); a non-empty one gets an
  /// idf-spill-<pid> subdirectory appended so concurrent processes sharing
  /// a directory never touch each other's spill files. Shrinking the budget
  /// below current residency evicts immediately.
  void Configure(uint64_t budget_bytes, const std::string& spill_dir = "");

  uint64_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }
  std::string spill_dir();

  /// True once a budget has ever been set in this process. Sticky: spilled
  /// payloads may outlive a later Configure(0), so access paths keep
  /// checking until process exit.
  static bool Engaged() {
    return engaged_.load(std::memory_order_relaxed);
  }

  uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }

  /// Evicts cost-ranked victims until resident_bytes() <= budget or no
  /// eviction candidate remains unpinned. Called from allocation and reload
  /// paths; callable directly (tests, benches).
  void EnforceBudget();

  // ---- admission reservations (query service, docs/SERVER.md) -----------

  /// Tries to reserve `bytes` of the budget for an admitted query. The
  /// reservation is bookkeeping for admission control — it does not pin or
  /// preallocate memory; the governor's eviction machinery remains the
  /// enforcement backstop. Fails with kResourceExhausted when the budget is
  /// nonzero and existing reservations plus `bytes` would exceed it (a
  /// single reservation larger than the whole budget is also rejected).
  /// With no budget configured every reservation succeeds.
  Status TryReserve(uint64_t bytes);

  /// Returns a reservation taken with TryReserve. Clamps at zero (releases
  /// never underflow, e.g. when Configure() raced a release).
  void ReleaseReservation(uint64_t bytes);

  /// Sum of outstanding admission reservations.
  uint64_t reserved_bytes() const {
    return reserved_bytes_.load(std::memory_order_relaxed);
  }

  // ---- residency map (spill-aware scheduling) ---------------------------

  /// Per-(owner, shard) aggregate of where governed payloads live right
  /// now. The stage scheduler snapshots this once per stage to order
  /// dispatch by residency; O(#sealed payloads) under the governor lock.
  ResidencyMap ResidencySnapshot();

  /// Force-evicts every sealed, unpinned, resident payload of (owner,
  /// shard); returns how many were evicted. Test/bench hook for
  /// constructing memory-pressure scenarios by hand — engages the governor
  /// (readers must take the pin/fault-in path afterwards).
  size_t EvictPartition(uint64_t owner, uint32_t shard);

  // ---- leak introspection (chaos determinism gate) ----------------------

  /// Sum of pins_ across every registered payload. Test-only: the chaos
  /// gate asserts zero after scrubbing transient pins — any remainder is a
  /// leaked AccessScope pin.
  uint64_t TotalPinsForTesting();

  /// Releases every thread's lingering transient pin (held by design until
  /// the thread's next scope-less pin; see AccessScope::Pin) so
  /// TotalPinsForTesting can distinguish leaks from linger. Returns how
  /// many pins were released. Safe concurrently with readers: a scrubbed
  /// slot just means the owning thread's next scope-less pin skips one
  /// release.
  size_t ScrubTransientPinsForTesting();

  // ---- hooks used by Evictable / AccessScope ----------------------------

  void OnAllocated(Evictable* e, uint64_t bytes);
  void OnSealed(Evictable* e);
  void OnRetired(Evictable* e);

  /// Slow path of AccessScope::Pin: the payload is (or may be) evicted.
  /// Reloads it under the governor lock. The caller already holds a pin.
  /// This is the only way a spilled payload comes back into memory.
  Status FaultIn(Evictable* e);

 private:
  friend class AccessScope;

  MemoryGovernor() = default;

  void EnforceBudgetLocked();
  bool EvictLocked(Evictable* victim);
  const std::string& SpillDirLocked();

  /// Scope-less pin (see AccessScope::Pin): pins `e` and releases the
  /// thread's previous transient pin. Serialized with eviction and retire
  /// by the governor mutex, so the stored pointers never dangle.
  void TransientPin(Evictable* e);

  static std::atomic<bool> engaged_;

  std::mutex mutex_;
  std::vector<Evictable*> registry_;  // sealed payloads, insertion order
  // One transient pin per thread that has ever accessed a payload outside
  // an AccessScope; a slot is replaced by the thread's next scope-less pin
  // and scrubbed by OnRetired when its payload dies. Guarded by mutex_.
  std::map<std::thread::id, Evictable*> transient_pins_;
  std::string spill_dir_;             // resolved lazily
  uint64_t next_spill_file_ = 0;
  bool warned_overcommit_ = false;    // guarded by mutex_

  std::atomic<uint64_t> budget_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> spilled_bytes_{0};
  std::atomic<uint64_t> reserved_bytes_{0};  // admission reservations
  std::atomic<uint64_t> clock_{1};  // LRU tick, bumped per pin
};

/// RAII pin scope. The outermost scope on a thread collects every payload
/// pinned through it and releases them all when it closes; nested scopes
/// are inert (pins accumulate in the outermost one, so an operator-level
/// scope keeps its working set pinned across helper calls). Construction
/// is a thread-local check plus one branch when the governor has never
/// been engaged. Declare whatever owns a pinned payload before the scope:
/// another thread may drop the payload's other owners, and the scope must
/// unpin it before the last owner frees it.
class AccessScope {
 public:
  AccessScope();
  ~AccessScope();
  AccessScope(const AccessScope&) = delete;
  AccessScope& operator=(const AccessScope&) = delete;

  /// Pins `e` into the innermost active scope (fault-in if evicted) and
  /// touches its LRU clock. Without an active scope the payload takes a
  /// *transient* pin — held until the same thread's next scope-less pin —
  /// so the pointer the caller is about to read cannot be evicted under it
  /// (not even by a same-thread allocation pushing residency over budget).
  /// Throws ReloadFault if an evicted payload cannot be reloaded.
  /// No-op until the governor is first engaged.
  static void Pin(Evictable* e) {
    if (!MemoryGovernor::Engaged()) return;
    PinSlow(e);
  }

 private:
  friend class Evictable;

  static void PinSlow(Evictable* e);
  /// Called by a dying payload: drops it from this thread's open scope, so
  /// a scope that outlives the payload's last owner (declared before it)
  /// never unpins freed memory.
  static void ForgetDying(Evictable* e);

  bool owner_ = false;
  uint64_t id_ = 0;
  std::vector<Evictable*> pinned_;
  // Per-query pinned-byte attribution: the outermost scope charges every
  // payload it pins (once resident) to the profile that was current when
  // the scope first pinned, and releases the whole charge on scope exit.
  // The raw pointer stays valid for the scope's lifetime because profiles
  // are never destroyed (registry entries are leaky, like the governor).
  obs::QueryProfile* profile_ = nullptr;
  uint64_t profile_pinned_bytes_ = 0;
};

/// Test/bench helper: sets a budget (and optionally a spill dir) for the
/// enclosing scope and restores the previous budget on exit.
class ScopedBudget {
 public:
  explicit ScopedBudget(uint64_t budget_bytes,
                        const std::string& spill_dir = "");
  ~ScopedBudget();

 private:
  uint64_t previous_;
};

/// Parses "256m" / "1g" / "4096" style byte sizes (suffixes k/m/g, case-
/// insensitive). Returns InvalidArgument on garbage.
Result<uint64_t> ParseByteSize(const std::string& text);

}  // namespace idf::mem
