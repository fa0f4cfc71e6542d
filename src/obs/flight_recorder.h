// Flight recorder (observability v2, part 1): an always-on, lock-free,
// fixed-size ring buffer of compact structured events — the last N things
// the engine's hot machinery actually did, available at any moment and
// especially at the moment of death.
//
// Why a ring and not the metrics registry: counters tell you *how many*
// evictions happened over the process lifetime; a memory-pressure bug needs
// to know *which* eviction ran between which two tasks. The recorder is
// cheap enough (one relaxed fetch_add plus five relaxed word stores) to stay
// on permanently, even in benches measuring the scheduler itself, and it is
// the process's only span source: events whose c (or a) word is a duration
// become Chrome trace slices offline (tools/idf_events.py --chrome).
//
// Writers never block and never allocate. Each ring slot is a small seqlock:
// a writer claims a ticket with one fetch_add, writes the five payload words
// (relaxed atomics — multi-writer lapping is race-free by construction),
// then publishes the slot by storing ticket+1 into the slot's sequence word
// with release order. Snapshot readers validate the sequence before and
// after copying a slot and drop slots a concurrent writer is overwriting —
// a flight recorder tolerates losing an event it is in the middle of
// replacing anyway.
//
// Event payloads are three uint64 words (a, b, c) plus an interned name id
// and the owning query id (q — stamped from the thread's QueryScope, see
// obs/query_profile.h). Names (stage names, mostly) intern into a fixed
// char pool so the fatal-signal dump path can read them without touching
// the heap. The per-type payload conventions are listed next to EventType
// below and mirrored in tools/idf_events.py.
//
// Counting: Record() is the one call for each counted fact. The kind table
// below (kCountedKinds) says which registry counter an event kind bumps and
// which QueryProfile field it feeds; both move in the same call, so the
// process-wide /metrics totals and the per-query /queries/<id> profiles
// cannot disagree. Call sites record the event and count nothing
// themselves. The counters are resolved once, at construction.
//
// Ring size: kCapacity events. Overwrites of not-yet-dumped slots count
// into the obs.ring.lapped metric so journal truncation is visible on
// /metrics.
//
// Crash dumps: InstallCrashHandler() (done automatically by the Cluster
// constructor when IDF_EVENTS_DIR is set) registers handlers for the fatal
// signals; on SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL the ring is written as
// JSONL to IDF_EVENTS_DIR/idf-crash-<pid>.events.jsonl using only
// async-signal-safe calls (open/write, hand-rolled formatting), then the
// default disposition is restored and the signal re-raised.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/query_profile.h"

namespace idf::obs {

/// Compact event kinds. Payload conventions (a, b, c):
enum class EventType : uint8_t {
  kTaskStart = 1,      // name=stage  a=task index  b=executor     c=0
  kTaskFinish = 2,     // name=stage  a=task index  b=executor     c=micros
  kTaskFail = 3,       // name=stage  a=task index  b=executor     c=micros
  kSteal = 4,          // name=stage  a=task index  b=host worker  c=0
  kResidentHit = 5,    // name=stage  a=task index  b=0            c=0
  kResidentMiss = 6,   // name=stage  a=task index  b=0            c=0
  kEvict = 7,          //             a=payload B   b=owner rdd    c=shard
  kSpillWrite = 8,     //             a=bytes       b=owner rdd    c=shard
  kReloadDemand = 9,   //             a=bytes       b=owner rdd    c=shard
  // 10 and 11 (the deleted prefetcher's reload and skip) are retired.
  kBatchSeal = 12,     //             a=payload B   b=owner rdd    c=shard
  kRecoveryBlock = 13, //             a=rdd         b=partition    c=micros
  kExecutorKill = 14,  //             a=executor    b=blocks lost  c=0
  kCrash = 15,         //             a=signal      b=0            c=0
  kShufflePush = 16,   //             a=bytes       b=map task     c=reduce part
  // 17 and 18 are retired; they stay unused so older journals decode.
  // Query-service lifecycle (src/server/query_service.h). a=query id for
  // all of them; name = the query's label when one was given.
  kQuerySubmit = 19,   //             a=query id    b=reserved B   c=queue depth
  kQueryAdmit = 20,    //             a=query id    b=reserved B   c=queued micros
  kQueryReject = 21,   //             a=query id    b=reserved B   c=0 queue full / 1 reservation
  kQueryStart = 22,    //             a=query id    b=reserved B   c=priority
  kQueryFinish = 23,   //             a=query id    b=status code  c=run micros
  kQueryCancel = 24,   //             a=query id    b=0 queued / 1 running  c=micros since submit
  kQueryDeadline = 25, //             a=query id    b=0 queued / 1 running  c=micros since submit
  // Chaos engine (src/testing/chaos.h). kChaosFault packs the injection
  // site and fault kind into a (site << 8 | fault); b is the stable logical
  // key the decision hashed, c a fault-specific aux (delay micros, reload
  // ordinal, evicted count).
  kChaosArm = 26,      //             a=seed        b=0            c=0
  kChaosFault = 27,    //             a=site<<8|kind  b=decision key  c=aux
  // Build identity (obs/build_info.h): name = "sha=.. build=.. san=..".
  // Recorded once at construction and again by the crash handler so every
  // journal — however lapped — says which binary wrote it.
  kBuildInfo = 28,     //             a=uptime secs b=0            c=0
  // One per successful RunStage, recorded as the stage's wall clock stops.
  kStageFinish = 29,   // name=stage  a=task count  b=DES micros   c=wall micros
};

/// One row of the counting table: what recording one event of `type`
/// counts. Each named registry counter and the current query's profile
/// field move in the Record() call that writes the event. The field moves
/// by a when the row has a per_a counter, else by 1.
struct CountedKind {
  EventType type;
  const char* per_event;  // registry counter bumped by 1, or nullptr
  const char* per_a;      // registry counter bumped by the a word, or nullptr
  std::atomic<uint64_t> QueryProfile::*field;  // profile field, or nullptr
};

/// The counting table. Kinds without a row count nothing. The task kinds
/// also fold the task's wall micros (c), its failure and its stage row into
/// the profile (QueryProfile::OnTaskDone).
inline constexpr CountedKind kCountedKinds[] = {
    {EventType::kTaskFinish, "engine.tasks", nullptr, &QueryProfile::tasks},
    {EventType::kTaskFail, "engine.tasks", nullptr, &QueryProfile::tasks},
    {EventType::kSteal, "engine.scheduler.steals", nullptr,
     &QueryProfile::steals},
    {EventType::kResidentHit, "sched.resident_hits", nullptr,
     &QueryProfile::resident_hits},
    {EventType::kResidentMiss, "sched.resident_misses", nullptr,
     &QueryProfile::resident_misses},
    {EventType::kEvict, "mem.evictions", nullptr, &QueryProfile::evictions},
    {EventType::kSpillWrite, nullptr, "mem.spill.write_bytes",
     &QueryProfile::bytes_spilled},
    {EventType::kReloadDemand, "mem.reload_faults", "mem.reload.read_bytes",
     &QueryProfile::bytes_reloaded},
    {EventType::kShufflePush, nullptr, "engine.shuffle.pushed_bytes",
     &QueryProfile::shuffle_pushed_bytes},
    {EventType::kRecoveryBlock, "engine.recovery.blocks", nullptr, nullptr},
    {EventType::kExecutorKill, "engine.executors.killed", nullptr, nullptr},
    {EventType::kChaosFault, "chaos.faults", nullptr, nullptr},
    {EventType::kQuerySubmit, "server.submitted", nullptr, nullptr},
    {EventType::kQueryAdmit, "server.admitted", nullptr, nullptr},
};

/// Stable wire name for an event type ("task_start", "evict", ...); used by
/// the JSONL dump and tools/idf_events.py. Unknown types render as "event".
const char* EventTypeName(EventType type);

/// One event copied out of the ring (Snapshot / dump paths).
struct FlightEvent {
  uint64_t seq = 0;    // global ticket — total order across threads
  uint64_t ts_us = 0;  // microseconds since the recorder's construction
  EventType type = EventType::kCrash;
  uint32_t tid = 0;    // dense per-thread id, 1-based, first-record order
  uint64_t q = 0;      // owning query id (obs/query_profile.h); 0 = none
  std::string name;    // interned name ("" when the event carries none)
  uint64_t a = 0, b = 0, c = 0;
};

/// One event rendered as its JSONL object (same encoding as ToJsonl, for
/// callers composing filtered slices, e.g. /queries/<id>).
std::string EventJson(const FlightEvent& event);

class Counter;

class FlightRecorder {
 public:
  /// Ring capacity in events (4 MB resident: 64-byte slots).
  static constexpr size_t kCapacity = 1u << 16;

  /// The process-wide recorder.
  static FlightRecorder& Global();

  /// Interns `name` into the fixed pool, returning its id (0 = no name).
  /// Idempotent per string; cold path (mutex + map). Callers cache the id —
  /// e.g. once per RunStage, not per task. When the pool is full, returns
  /// the id of the sentinel name "<pool-full>" rather than failing.
  uint32_t InternName(const std::string& name);

  /// Records one event. Lock-free and allocation-free: a relaxed fetch_add
  /// to claim a slot plus relaxed stores (BM_FlightRecorderRecord in
  /// bench/micro_storage.cpp measures it). Safe from any thread.
  /// The event is stamped with the thread's current query id, and a kind
  /// with a kCountedKinds row bumps its registry counters and the thread's
  /// QueryProfile in the same call.
  void Record(EventType type, uint32_t name_id, uint64_t a, uint64_t b,
              uint64_t c);

  /// Records an event that ends a span begun at `start_us` (a NowMicros()
  /// reading): c is the span's micros, taken from the same clock reading
  /// as the event's timestamp, so ts_us - c == start_us exactly.
  void RecordSpanEnd(EventType type, uint32_t name_id, uint64_t a, uint64_t b,
                     uint64_t start_us);

  /// Microseconds since construction (the event clock).
  uint64_t NowMicros() const;

  /// Events recorded since process start (monotonic; ring keeps the last
  /// kCapacity of them).
  uint64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Resolves an interned name id ("" for 0 / out of range). Stable for the
  /// process lifetime; safe from any thread.
  const char* NameForId(uint32_t id) const { return NameAt(id); }

  /// Copies out up to `max_events` of the newest valid events, oldest
  /// first (0 = the whole ring). Slots mid-overwrite are skipped.
  std::vector<FlightEvent> Snapshot(size_t max_events = 0) const;

  /// The snapshot as JSONL, one event object per line:
  ///   {"seq":..,"ts_us":..,"type":"evict","tid":..,"name":"..",
  ///    "a":..,"b":..,"c":..}
  std::string ToJsonl(size_t max_events = 0) const;

  /// Writes ToJsonl(max_events) to `path`.
  Status DumpJsonl(const std::string& path, size_t max_events = 0) const;

  /// Async-signal-safe dump of the ring tail to an open fd — write(2) and
  /// preallocated buffers only. Returns the number of events written.
  /// Public so tests can exercise the crash-dump encoder without dying.
  size_t DumpToFd(int fd, size_t max_events = 0) const;

  /// Records a kBuildInfo event using the name interned at construction.
  /// Allocation-free (async-signal-safe); the crash handler calls it so a
  /// lapped ring still identifies the binary.
  void RecordBuildInfo();

  /// Installs fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that dump the
  /// ring to <dir>/idf-crash-<pid>.events.jsonl and re-raise. `dir` empty
  /// means $IDF_EVENTS_DIR, falling back to the current directory.
  /// Idempotent; the first call wins.
  static void InstallCrashHandler(const std::string& dir = "");

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

 private:
  FlightRecorder();

  /// Record's body, with the timestamp given.
  void RecordAt(uint64_t ts_us, EventType type, uint32_t name_id, uint64_t a,
                uint64_t b, uint64_t c);

  /// One ring slot: a per-slot seqlock. seq == ticket+1 publishes the
  /// payload words; 0 means never written or mid-write. A slot fills its
  /// own cache line, so writers of consecutive tickets never share one.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> ts{0};
    std::atomic<uint64_t> meta{0};  // type(8) | tid(24) | name(32)
    std::atomic<uint64_t> q{0};     // owning query id
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> c{0};
  };

  /// Raw (still-packed) copy of one slot, validated against its seqlock.
  struct RawEvent {
    uint64_t seq, ts, meta, q, a, b, c;
  };

  /// Copies the newest valid slots, oldest first, into `out` (fixed caller
  /// buffer, no allocation — shared by Snapshot and the signal-safe dump).
  size_t CopyValid(RawEvent* out, size_t max_events) const;

  const char* NameAt(uint32_t id) const;  // "" for 0 / out of range

  /// A kCountedKinds row with its counters resolved (all null for a kind
  /// without a row).
  struct Feed {
    Counter* per_event = nullptr;
    Counter* per_a = nullptr;
    std::atomic<uint64_t> QueryProfile::*field = nullptr;
  };
  static constexpr size_t kEventKinds = 32;
  static_assert(static_cast<size_t>(EventType::kStageFinish) < kEventKinds);

  // The one word every writer increments has its cache line to itself:
  // the fields next to it are read by every writer.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) uint64_t epoch_ns_ = 0;  // steady_clock at construction
  std::vector<Slot> slots_;
  Counter* lapped_ = nullptr;  // obs.ring.lapped — overwritten-slot count
  Feed feeds_[kEventKinds];    // indexed by EventType
  uint32_t build_info_name_id_ = 0;  // interned at ctor for the crash path
  // Preallocated CopyValid buffer for the signal-safe dump (the crash path
  // must not allocate; exclusivity via the crash handler's dumping flag).
  std::unique_ptr<RawEvent[]> dump_buffer_;

  // Interned names: a fixed char pool + offset table so the signal handler
  // can resolve ids without the heap. Writers append under names_mutex_;
  // readers only consult entries below num_names_ (release/acquire pair).
  static constexpr uint32_t kMaxNames = 1024;
  static constexpr size_t kNamePoolBytes = 64 * 1024;
  std::mutex names_mutex_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  uint32_t name_offset_[kMaxNames] = {};
  char name_pool_[kNamePoolBytes] = {};
  size_t name_pool_used_ = 0;          // guarded by names_mutex_
  std::atomic<uint32_t> num_names_{1};  // id 0 reserved for "no name"
  uint32_t pool_full_id_ = 0;          // "<pool-full>" sentinel, set in ctor
};

}  // namespace idf::obs
