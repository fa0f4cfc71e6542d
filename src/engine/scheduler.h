// Stage-level parallel task scheduling (the real-execution counterpart of
// the DES in engine/des.h).
//
// Cluster::RunStage dispatches every task to an *executor lane* — one FIFO
// queue per alive executor, filled in task-index order. Host worker threads
// each claim a home lane (locality: a thread drains "its" executor's tasks
// first) and steal from the longest other lane when their home lane runs
// dry. Stealing moves only which host thread runs a task; the task's
// executor assignment — and therefore its DES placement, block homes, and
// shuffle accounting — is fixed up front by the driver, so sequential and
// parallel runs produce identical results and metrics totals.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "engine/topology.h"

namespace idf {

/// Number of host threads Cluster::RunStage may use. Resolution order:
///  1. IDF_PARALLEL env var: 0 or 1 => sequential, N => N threads
///     (single-threaded debugging escape hatch, wins over config);
///  2. config.scheduler_threads when non-zero;
///  3. auto: min(config.total_executors(), hardware_concurrency).
/// Always >= 1; 1 means the sequential in-line path.
uint32_t ResolveSchedulerThreads(const ClusterConfig& config);

/// Per-stage work queues: one lane per alive executor. Thread-safe; built
/// by the driver before workers start, drained concurrently.
class TaskLanes {
 public:
  /// `lane_of[i]` is the lane (dense alive-executor index) of task i.
  /// Tasks enqueue in `dispatch_order` (the driver's residency-preferred
  /// ordering; task-index order when residency is moot, the default), so
  /// each lane pops its most-preferred queued task first.
  TaskLanes(const std::vector<uint32_t>& lane_of, size_t num_lanes,
            const std::vector<uint32_t>& dispatch_order = {});

  /// Claims the next task for a worker homed on lane `home`: the home lane
  /// if non-empty, else the longest other lane (work stealing). Returns
  /// false when every lane is empty. `*stolen` reports whether the task
  /// came from a foreign lane.
  bool Pop(size_t home, uint32_t* task_index, bool* stolen);

 private:
  std::mutex mutex_;
  std::vector<std::deque<uint32_t>> lanes_;
};

}  // namespace idf
