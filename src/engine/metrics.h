// Per-task and per-query metrics. The benches report these as the paper's
// figures do: wall/simulated runtimes, shuffle volume, hash-build vs probe
// breakdowns (Fig. 1), recovery overheads (Fig. 12), index hit rates, and
// the COW/snapshot work of multi-version appends (Fig. 9).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace idf {

struct TaskMetrics {
  double compute_seconds = 0;      // measured real CPU work of the task body
  uint64_t shuffle_bytes_read = 0;
  uint64_t shuffle_bytes_written = 0;
  uint64_t rows_read = 0;
  uint64_t rows_written = 0;
  uint64_t index_probes = 0;
  uint64_t index_hits = 0;         // probes that found at least one row
  uint64_t batch_copies = 0;       // COW row-batch opens/clones (Fig. 9)
  uint64_t ctrie_snapshots = 0;    // O(1) version snapshots taken
  double hash_build_seconds = 0;   // time spent (re)building hash tables
  double recovery_seconds = 0;     // lineage recomputation triggered by a task

  void MergeFrom(const TaskMetrics& other) {
    compute_seconds += other.compute_seconds;
    shuffle_bytes_read += other.shuffle_bytes_read;
    shuffle_bytes_written += other.shuffle_bytes_written;
    rows_read += other.rows_read;
    rows_written += other.rows_written;
    index_probes += other.index_probes;
    index_hits += other.index_hits;
    batch_copies += other.batch_copies;
    ctrie_snapshots += other.ctrie_snapshots;
    hash_build_seconds += other.hash_build_seconds;
    recovery_seconds += other.recovery_seconds;
  }

  /// Field-wise `*this - base`; `base` must be an earlier snapshot of the
  /// same accumulator (EXPLAIN ANALYZE attributes deltas to operators).
  TaskMetrics DeltaSince(const TaskMetrics& base) const {
    TaskMetrics d;
    d.compute_seconds = compute_seconds - base.compute_seconds;
    d.shuffle_bytes_read = shuffle_bytes_read - base.shuffle_bytes_read;
    d.shuffle_bytes_written =
        shuffle_bytes_written - base.shuffle_bytes_written;
    d.rows_read = rows_read - base.rows_read;
    d.rows_written = rows_written - base.rows_written;
    d.index_probes = index_probes - base.index_probes;
    d.index_hits = index_hits - base.index_hits;
    d.batch_copies = batch_copies - base.batch_copies;
    d.ctrie_snapshots = ctrie_snapshots - base.ctrie_snapshots;
    d.hash_build_seconds = hash_build_seconds - base.hash_build_seconds;
    d.recovery_seconds = recovery_seconds - base.recovery_seconds;
    return d;
  }
};

struct StageMetrics {
  TaskMetrics totals;          // summed across tasks
  double real_seconds = 0;     // summed per-task host wall time
  double wall_seconds = 0;     // driver-observed stage wall time; with the
                               // parallel scheduler this can be well below
                               // real_seconds (tasks overlap on host threads)
  double simulated_seconds = 0;  // DES makespan on the configured cluster
  double network_seconds = 0;  // portion of the makespan spent in transfers
  uint32_t num_tasks = 0;
  uint32_t recovered_tasks = 0;  // tasks that triggered lineage recompute
};

/// Per-physical-operator accounting for EXPLAIN ANALYZE. Deltas are
/// *inclusive* (children counted); self time is derived at render time by
/// subtracting the children's inclusive numbers.
struct OpProfile {
  std::string label;
  uint32_t executions = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  double wall_seconds = 0;   // inclusive driver-side wall time
  TaskMetrics inclusive;     // inclusive TaskMetrics delta
  /// The columns the operator emits, when its consumer named the ones it
  /// reads (a producer may leave the others out).
  std::optional<std::vector<std::string>> columns;
};

struct QueryMetrics {
  TaskMetrics totals;
  double real_seconds = 0;
  double wall_seconds = 0;
  double simulated_seconds = 0;
  double network_seconds = 0;
  uint32_t num_stages = 0;
  uint32_t recovered_tasks = 0;

  /// When set (EXPLAIN ANALYZE), PhysicalOp::Execute fills one OpProfile per
  /// operator node, keyed by the node's address.
  std::shared_ptr<std::map<const void*, OpProfile>> op_profile;

  void MergeStage(const StageMetrics& stage) {
    totals.MergeFrom(stage.totals);
    real_seconds += stage.real_seconds;
    wall_seconds += stage.wall_seconds;
    simulated_seconds += stage.simulated_seconds;
    network_seconds += stage.network_seconds;
    recovered_tasks += stage.recovered_tasks;
    ++num_stages;
  }
};

}  // namespace idf
