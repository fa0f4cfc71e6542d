// QueryService: concurrent multi-session query execution over one engine
// (docs/SERVER.md).
//
// The paper's Indexed DataFrame lives inside Spark, where many jobs share
// one executor fleet and one memory budget. This subsystem reproduces that
// regime: N client threads Submit() work against a shared Session, a small
// pool of query drivers executes it through the existing Cluster, and
// admission control keeps the aggregate declared working set inside the
// MemoryGovernor's budget.
//
// Admission model:
//  - Every query carries a byte *reservation* (declared working set;
//    QueryOptions::reservation_bytes, default from the service config).
//    Reservations are admission bookkeeping against the governor's budget —
//    the governor's eviction machinery remains the byte-level enforcer.
//  - Submit() enqueues into a FIFO-with-priority queue (higher priority
//    first, FIFO within a priority). A full queue rejects immediately with
//    kResourceExhausted regardless of policy.
//  - A query driver pops the next entry and calls
//    MemoryGovernor::TryReserve. On failure the policy decides:
//    kQueue (default) — the driver holds the query and waits for a running
//    query to release its reservation (other drivers keep serving, so one
//    over-sized query does not idle the whole pool); kReject — the query
//    fails immediately with kResourceExhausted.
//  - Completion (any path) releases the reservation and wakes waiters.
//
// Deadlines & cancellation: each query owns a QueryControl (engine/
// cancel.h) installed around its execution; Cluster::RunStage checks it at
// every task boundary, so Cancel() or an expired deadline unwinds the query
// with kCancelled / kDeadlineExceeded through the engine's first-error-wins
// machinery — pins, reservations, and shuffle buffers all release through
// their normal error paths, and shared state (catalog, versions, block
// manager) is never poisoned.
//
// Knobs (environment; the first two read by QueryServiceConfig::FromEnv,
// the third when a service is constructed):
//   IDF_SERVE_WORKERS      query driver threads            (default 4)
//   IDF_ADMIT_RESERVATION  default per-query reservation   (default 16m)
//   IDF_SLOW_QUERY_MS      slow-query log threshold        (default off)
//
// Attribution: every query gets a process-unique id (obs::AllocateQueryId)
// carried by its QueryControl; the engine re-installs it on pool workers so
// per-query profiles (obs/query_profile.h) charge spills, reloads, shuffle
// bytes and task time to the triggering query. /queries rows embed a profile
// summary; /queries/<id> serves the record, the full profile, and the
// query's slice of the flight-recorder ring; queries running longer than
// IDF_SLOW_QUERY_MS emit a structured `slow_query {...}` WARN line.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "engine/cancel.h"
#include "sql/session.h"

namespace idf::server {

/// What to do with a query whose reservation does not currently fit.
enum class AdmitPolicy {
  kQueue,   // hold it until a running query releases budget
  kReject,  // fail it immediately with kResourceExhausted
};

struct QueryServiceConfig {
  uint32_t workers = 4;             // query driver threads
  uint32_t max_queue = 64;          // queued (not yet running) queries
  uint64_t default_reservation_bytes = 16ull << 20;
  AdmitPolicy policy = AdmitPolicy::kQueue;

  /// Applies the IDF_SERVE_WORKERS / IDF_ADMIT_RESERVATION environment
  /// overrides on top of the defaults above.
  static QueryServiceConfig FromEnv();
};

struct QueryOptions {
  /// Declared working-set bytes; 0 = the service default.
  uint64_t reservation_bytes = 0;
  /// Higher runs first among queued queries; FIFO within equal priority.
  int32_t priority = 0;
  /// Wall-clock budget from submission; 0 = none. Expiry fails the query
  /// with kDeadlineExceeded whether it is still queued or already running.
  double deadline_seconds = 0;
  /// Optional label for events, /queries, and logs.
  std::string label;
};

enum class QueryState {
  kQueued,     // accepted, waiting for a driver + reservation
  kRunning,    // executing on a driver thread
  kDone,       // finished OK; result available
  kFailed,     // finished with an error status
  kCancelled,  // cancelled via QueryHandle::Cancel
  kExpired,    // deadline passed before completion
  kRejected,   // admission refused (queue full / reservation policy)
};

/// "queued", "running", "done", ...
const char* QueryStateName(QueryState state);

/// Execution context handed to the query's work function on the driver
/// thread. `control` is already installed thread-locally (the engine checks
/// it at task boundaries); long driver-side loops may poll it directly.
struct QueryContext {
  uint64_t query_id = 0;
  QueryControl& control;
  Session& session;
  /// Deliver the query's result here (what QueryHandle::TakeResult hands
  /// back to the client).
  CollectedTable result;
};

/// The query body, run on a driver thread. Returning non-OK fails the
/// query with that status.
using QueryWork = std::function<Status(QueryContext&)>;

namespace detail {
struct QueryRecord;
}  // namespace detail

/// Client-side handle to one submitted query. Cheap to copy (shared state);
/// valid() is false only for a default-constructed handle.
class QueryHandle {
 public:
  QueryHandle() = default;

  bool valid() const { return rec_ != nullptr; }
  uint64_t id() const;

  /// Blocks until the query reaches a terminal state; returns its final
  /// status (OK only for kDone).
  Status Wait();

  /// Non-blocking: true once the query reached a terminal state.
  bool Done() const;

  QueryState state() const;

  /// Final status; OK while not yet terminal.
  Status status() const;

  /// Requests cooperative cancellation. A queued query resolves to
  /// kCancelled when a driver reaches it; a running query unwinds at its
  /// next task boundary. Idempotent; no effect on terminal queries.
  void Cancel();

  /// Moves the result out after a successful Wait(). Fails with the
  /// query's status when it did not finish OK.
  Result<CollectedTable> TakeResult();

  /// Engine stages this query completed so far (live progress).
  uint32_t stages_completed() const;

 private:
  friend class QueryService;
  explicit QueryHandle(std::shared_ptr<detail::QueryRecord> rec)
      : rec_(std::move(rec)) {}

  std::shared_ptr<detail::QueryRecord> rec_;
};

class QueryService {
 public:
  /// The service drives queries against `session`, which must outlive it.
  /// Registers the /queries introspection source on first construction.
  explicit QueryService(Session& session,
                        QueryServiceConfig config = QueryServiceConfig::FromEnv());
  ~QueryService();  // Shutdown(/*cancel_pending=*/true)

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues `work`. Returns a handle in state kQueued, or one already in
  /// kRejected when the admission queue is full (its status() carries the
  /// kResourceExhausted reason).
  QueryHandle Submit(QueryWork work, QueryOptions options = {});

  /// Stops accepting work and joins the drivers. cancel_pending=false
  /// drains the queue first; true cancels queued queries (kCancelled) and
  /// cooperatively cancels running ones. Idempotent.
  void Shutdown(bool cancel_pending);

  const QueryServiceConfig& config() const { return config_; }
  Session& session() { return session_; }

  /// Queries currently queued or running (snapshot).
  size_t ActiveQueries() const;

  /// JSON document served at /queries: every live query plus a bounded
  /// tail of finished ones (age, state, reserved bytes, stages completed,
  /// and a summary of the query's resource profile — obs/query_profile.h).
  std::string QueriesJson() const;

  /// One query's /queries row by id, or "" when this service never saw it
  /// (or it aged out of the finished tail). Backs /queries/<id>.
  std::string QueryJson(uint64_t id) const;

 private:
  void WorkerLoop();
  /// Pops the best queued entry (priority, then FIFO). Caller holds mu_.
  std::shared_ptr<detail::QueryRecord> PopLocked();
  /// Runs one admitted record on the calling driver thread.
  void RunQuery(const std::shared_ptr<detail::QueryRecord>& rec);
  /// Transitions to a terminal state, releases the reservation, fires
  /// events/metrics, and wakes waiters.
  void Finish(const std::shared_ptr<detail::QueryRecord>& rec,
              QueryState state, Status status);

  Session& session_;
  QueryServiceConfig config_;
  const int64_t slow_query_ms_;  // IDF_SLOW_QUERY_MS; -1 = off

  mutable std::mutex mu_;
  std::condition_variable work_cv_;       // queue became non-empty / stop
  std::condition_variable admission_cv_;  // a reservation was released
  std::deque<std::shared_ptr<detail::QueryRecord>> queue_;
  std::vector<std::shared_ptr<detail::QueryRecord>> live_;     // queued+running
  std::deque<std::shared_ptr<detail::QueryRecord>> finished_;  // bounded tail
  bool stop_ = false;
  bool cancel_pending_ = false;
  bool shut_down_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace idf::server
