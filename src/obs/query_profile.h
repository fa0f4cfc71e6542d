// Per-query resource attribution (observability v3): a thread-local query
// identity plus a process-wide registry of per-query cost profiles.
//
// The flight recorder answers "what did the machinery just do"; the metrics
// registry answers "how much, in total". Neither answers the question a
// shared-budget serving process actually gets asked: *which query* paid for
// those 180 MiB of spills. This layer closes that gap.
//
// Identity: QueryScope installs a query id on the current thread (RAII,
// nestable, save/restore). The query service installs it around each
// driver's work; the engine re-installs it on every scheduler worker lane.
// Everything recorded while a scope is active — flight-recorder events and
// the profile feeds below — is attributed to that query. Id 0 is the
// "unattributed" bucket: work done outside any query (table builds, bench
// setup) lands there, so totals still conserve.
//
// Attribution rule for governor traffic: the query whose allocation or
// fault *triggered* an eviction/spill/reload is charged, not the query
// whose data was evicted. That is the actionable number — it is the
// pressure a query exerts on the shared budget.
//
// Accumulation: FlightRecorder::Record() is the one feed. Its kind table
// (kCountedKinds, obs/flight_recorder.h) names, per event kind, the
// registry counter and the profile field it moves; both move in the same
// call (tasks and their failures, steals, residency, evictions, spill and
// reload bytes, shuffle pushes), so the profiles sum to the global counters
// by construction. tests/query_profile_test.cpp checks that sum. Only
// admission wait and pinned bytes are fed directly (query service,
// governor access scopes); they have no registry counter.
//
// Everything here is allocation-free and lock-free on the hot path: profile
// fields are relaxed atomics, and feeds go through a per-thread cached
// profile pointer. Only a scope that changes the thread's query id touches
// the registry mutex, once to install (pinning the profile) and once to
// close. Pinning is what lets the registry stay bounded: a retired query's
// profile is freed when its last scope closes, never under a live pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace idf::obs {

/// Accumulating totals for one query. All counters are relaxed atomics —
/// many worker threads feed one profile concurrently. Owned by the
/// registry: a pointer stays valid while any QueryScope for its id is
/// installed, and until the query is retired (QueryProfileRegistry::Retire).
struct QueryProfile {
  explicit QueryProfile(uint64_t query_id) : id(query_id) {}

  const uint64_t id;

  // Fed by FlightRecorder::Record, with the registry counter of the same
  // event kind (kCountedKinds in obs/flight_recorder.h).
  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> task_fails{0};
  std::atomic<uint64_t> task_wall_us{0};      // summed per-task body wall
  std::atomic<uint64_t> steals{0};
  std::atomic<uint64_t> resident_hits{0};
  std::atomic<uint64_t> resident_misses{0};
  std::atomic<uint64_t> bytes_spilled{0};     // spill writes this query forced
  std::atomic<uint64_t> evictions{0};         // evictions this query forced
  std::atomic<uint64_t> bytes_reloaded{0};    // demand fault-ins
  std::atomic<uint64_t> shuffle_pushed_bytes{0};

  // Fed directly by the query service / governor access scopes.
  std::atomic<uint64_t> admission_wait_us{0};
  std::atomic<uint64_t> current_pinned_bytes{0};
  std::atomic<uint64_t> peak_pinned_bytes{0};  // CAS max of current

  /// Per-stage wall time and task counts (event-fed on task finish/fail).
  /// `name_id` is the flight recorder's interned stage-name id.
  struct StageTotals {
    uint32_t name_id = 0;
    uint64_t tasks = 0;
    uint64_t wall_us = 0;
  };

  /// Folds one finished/failed task into the totals (called from the
  /// recorder's feed; takes the small per-profile stage mutex).
  void OnTaskDone(uint32_t name_id, uint64_t wall_us, bool failed);

  /// Raises current_pinned_bytes and ratchets the peak.
  void AddPinned(uint64_t bytes);
  void ReleasePinned(uint64_t bytes);

  /// Copies the stage table (short; guarded by stages_mu_).
  std::vector<StageTotals> Stages() const;

  /// Adds every counter and stage of `other` into this profile (the
  /// retired-totals bucket absorbing a retired query).
  void Absorb(const QueryProfile& other);

 private:
  /// Adds `totals` to its stage's row, appending one if new (stages_mu_
  /// held).
  void AddStageLocked(const StageTotals& totals);

  mutable std::mutex stages_mu_;
  std::vector<StageTotals> stages_;
};

/// Non-atomic copy of one profile at a point in time.
struct QueryProfileSnapshot {
  uint64_t id = 0;
  uint64_t tasks = 0;
  uint64_t task_fails = 0;
  uint64_t task_wall_us = 0;
  uint64_t steals = 0;
  uint64_t resident_hits = 0;
  uint64_t resident_misses = 0;
  uint64_t bytes_spilled = 0;
  uint64_t evictions = 0;
  uint64_t bytes_reloaded = 0;
  uint64_t shuffle_pushed_bytes = 0;
  uint64_t admission_wait_us = 0;
  uint64_t current_pinned_bytes = 0;
  uint64_t peak_pinned_bytes = 0;
  struct Stage {
    std::string name;
    uint64_t tasks = 0;
    uint64_t wall_us = 0;
  };
  std::vector<Stage> stages;
};

/// Id of the bucket that holds the summed counters of every retired query,
/// so the registry's profiles still add up to the global counters.
inline constexpr uint64_t kRetiredQueryId = ~uint64_t{0};

/// Process-wide id -> profile map. Get() is get-or-create. A finished
/// query's profile stays inspectable until its owner retires it — the query
/// service does so when the query leaves its finished-queries tail — and
/// is then folded into the kRetiredQueryId bucket, which bounds the map to
/// live and recent queries.
class QueryProfileRegistry {
 public:
  static QueryProfileRegistry& Global();

  /// The profile for `id`, created on first use. Never null.
  QueryProfile* Get(uint64_t id);

  /// Folds `id`'s profile into the retired bucket and frees it; deferred
  /// until the last QueryScope for `id` closes. Unknown ids, bucket 0 and
  /// the retired bucket itself are left alone.
  void Retire(uint64_t id);

  /// All known ids (including 0 once anything unattributed was recorded).
  std::vector<uint64_t> Ids() const;

  /// Snapshot of one profile; false when the id is unknown.
  bool Snapshot(uint64_t id, QueryProfileSnapshot* out) const;

  /// Snapshot of every profile, sorted by id.
  std::vector<QueryProfileSnapshot> SnapshotAll() const;

  QueryProfileRegistry(const QueryProfileRegistry&) = delete;
  QueryProfileRegistry& operator=(const QueryProfileRegistry&) = delete;

 private:
  friend class QueryScope;

  QueryProfileRegistry() = default;

  struct Entry {
    std::unique_ptr<QueryProfile> profile;
    uint32_t scopes = 0;   // installed QueryScopes that resolved this entry
    bool retired = false;  // Retire() called; free once scopes drops to 0
  };

  /// The entry for `id`, its profile created on first use (mu_ held).
  Entry& EntryLocked(uint64_t id);
  /// Get() for a QueryScope: pins the profile until ReleaseScope(id).
  QueryProfile* Acquire(uint64_t id);
  void ReleaseScope(uint64_t id);

  /// Folds the entry into the retired bucket and erases it (mu_ held).
  void FoldLocked(std::unordered_map<uint64_t, Entry>::iterator it);

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> profiles_;
};

/// Renders one snapshot as a JSON object (the schema served by
/// /queries/<id> and embedded in BENCH_serve.json; docs/OBSERVABILITY.md).
std::string QueryProfileJson(const QueryProfileSnapshot& snap);

/// Allocates a process-unique query id (>= 1). All query-id producers (every
/// QueryService, EXPLAIN ANALYZE's ephemeral scopes) share this sequence so
/// the registry never merges two different queries.
uint64_t AllocateQueryId();

/// The query id attributed to work on this thread (0 = unattributed).
uint64_t CurrentQueryId();

/// The current thread's profile — the one for CurrentQueryId(), resolved
/// lazily (bucket 0 included). Never null. Counted costs flow through the
/// recorder's kind table; direct feeds are for uncounted fields (pinned
/// bytes).
QueryProfile* CurrentQueryProfile();

/// RAII install of a query identity on the current thread. Nestable;
/// restores the previous id (and cached profile) on destruction. A scope
/// that resolves its profile pins it against retirement until it closes.
class QueryScope {
 public:
  explicit QueryScope(uint64_t id);
  ~QueryScope();
  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  uint64_t id_;
  uint64_t previous_id_;
  QueryProfile* previous_profile_;
  bool acquired_ = false;  // resolved (and pinned) a profile of its own
};

}  // namespace idf::obs
