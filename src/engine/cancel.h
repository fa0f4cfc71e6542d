// Cooperative cancellation and deadlines for queries (docs/SERVER.md).
//
// A QueryControl is the per-query control block the query service hands the
// engine: a cancel flag, an optional absolute deadline, and a count of
// stages the query has completed. The query driver thread installs it with
// a ScopedQueryControl before executing the query's plan; Cluster::RunStage
// picks it up from the thread-local, re-installs it on every pool worker for
// the duration of each task (so nested stages and task bodies see it too),
// and consults Check() at every task boundary:
//
//  - at stage entry, before any task is dispatched;
//  - in ExecuteTask, immediately before each task body runs.
//
// A non-OK Check() fails the task with kCancelled / kDeadlineExceeded and
// the existing first-error-wins machinery unwinds the stage: remaining
// tasks are cancelled unstarted and the status propagates to the driver.
// Task bodies themselves are never interrupted — granularity is the task,
// which keeps every invariant (pins released by scope exit, shuffle buffers
// released by the operator's error path) intact. Long-running task bodies
// may poll CurrentQueryControl()->Check() to unwind sooner.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace idf {

class QueryControl {
 public:
  QueryControl() = default;
  QueryControl(const QueryControl&) = delete;
  QueryControl& operator=(const QueryControl&) = delete;

  /// Requests cancellation. Idempotent; takes effect at the next task
  /// boundary of whatever the query is running.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Sets an absolute deadline in microseconds on the steady clock used by
  /// NowMicros(). 0 clears the deadline.
  void SetDeadlineMicros(int64_t deadline_us) {
    deadline_us_.store(deadline_us, std::memory_order_release);
  }
  int64_t deadline_micros() const {
    return deadline_us_.load(std::memory_order_acquire);
  }

  /// Steady-clock time in microseconds (the deadline clock).
  static int64_t NowMicros();

  /// OK while the query may keep running; kCancelled once Cancel() was
  /// called; kDeadlineExceeded once the deadline passed. Cancellation wins
  /// over deadline expiry when both hold.
  Status Check() const;

  /// Stages this query has completed so far (live progress for /queries).
  uint32_t stages_completed() const {
    return stages_completed_.load(std::memory_order_relaxed);
  }
  void OnStageComplete() {
    stages_completed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The owning query's id for per-query attribution (obs/query_profile.h);
  /// 0 = none. Written once by the query service before the control is
  /// published to any worker (the submit queue's mutex provides the
  /// happens-before), so a plain field suffices.
  void set_query_id(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_us_{0};  // 0 = no deadline
  std::atomic<uint32_t> stages_completed_{0};
  uint64_t query_id_ = 0;
};

/// The control block governing work on the calling thread (nullptr outside
/// any query). Installed by ScopedQueryControl.
QueryControl* CurrentQueryControl();

/// RAII install of a query control on the current thread. The engine uses
/// this to propagate the driver thread's control onto pool workers for the
/// span of each task; the query service uses it around the whole query.
class ScopedQueryControl {
 public:
  explicit ScopedQueryControl(QueryControl* control);
  ~ScopedQueryControl();
  ScopedQueryControl(const ScopedQueryControl&) = delete;
  ScopedQueryControl& operator=(const ScopedQueryControl&) = delete;

 private:
  QueryControl* previous_;
};

}  // namespace idf
