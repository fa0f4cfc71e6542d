// Cluster: the engine facade tying together topology, block manager, shuffle
// service, discrete-event simulation, lineage, and failure injection.
//
// Execution model (see DESIGN.md and docs/SCHEDULER.md):
//  - task bodies run for real on the host — concurrently, on a thread pool
//    with one work lane per executor (engine/scheduler.h) — and are
//    individually timed;
//  - the StageSimulator replays the stage on the configured (simulated)
//    topology to produce cluster-scale makespans;
//  - fault tolerance follows the paper's §III-D: lost blocks are recomputed
//    from registered lineage (for indexed partitions that means re-building
//    the index and replaying appends — the Fig. 12 recovery spike).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/threadpool.h"
#include "engine/block.h"
#include "engine/cancel.h"
#include "engine/des.h"
#include "engine/metrics.h"
#include "engine/shuffle.h"
#include "engine/topology.h"

namespace idf {

class Cluster;

/// Handed to every task body. Accumulates metrics and declared remote reads
/// for the simulator.
class TaskContext {
 public:
  TaskContext(Cluster* cluster, ExecutorId executor)
      : cluster_(cluster), executor_(executor) {}

  Cluster& cluster() { return *cluster_; }
  ExecutorId executor() const { return executor_; }
  TaskMetrics& metrics() { return metrics_; }

  /// Declares that this task read `bytes` produced at `source` (for network
  /// modeling). Local reads (source == this executor) are free.
  void AddRead(ExecutorId source, uint64_t bytes) {
    reads_.push_back(SimRead{source, bytes});
    if (source != executor_) metrics_.shuffle_bytes_read += bytes;
  }

  const std::vector<SimRead>& reads() const { return reads_; }

 private:
  Cluster* cluster_;
  ExecutorId executor_;
  TaskMetrics metrics_;
  std::vector<SimRead> reads_;
};

using TaskBody = std::function<Status(TaskContext&)>;

/// One partition a task will read, declared up front so the scheduler can
/// consult the memory governor's residency map (spill-aware dispatch).
struct PartitionInput {
  uint64_t rdd = 0;
  uint32_t partition = 0;
};

struct TaskSpec {
  ExecutorId preferred = kAnyExecutor;
  std::vector<SimRead> static_reads;  // known before the task runs
  /// Simulated-only compute time added to this task in the DES (used to model
  /// per-executor work the driver performed once for real, e.g. hash builds
  /// replicated to every executor after a broadcast).
  double extra_sim_seconds = 0;
  TaskBody body;
  /// Input partitions (optional). Tasks that declare them participate in
  /// residency-preferred dispatch; tasks that don't are treated as resident
  /// (no spill cost known).
  std::vector<PartitionInput> inputs;
};

struct StageSpec {
  std::string name;
  std::vector<TaskSpec> tasks;
};

/// One side's shuffle as its map tasks see it; Cluster::RunExchange
/// allocates and releases it. Map task m routes its rows into Writer(ctx, m)
/// and, once its body has succeeded, publishes them with Commit: a failed
/// map task publishes nothing.
class MapOutput {
 public:
  MapOutput(ShuffleService& service, uint64_t shuffle, uint32_t num_reduce)
      : service_(&service), shuffle_(shuffle), num_reduce_(num_reduce) {}

  ShuffleWriter Writer(TaskContext& ctx, uint32_t map_task) const {
    return ShuffleWriter(*service_, shuffle_, map_task, num_reduce_,
                         ctx.executor());
  }
  /// Publishes the writer's buffers and counts their bytes in the task's
  /// shuffle_bytes_written.
  void Commit(TaskContext& ctx, ShuffleWriter& writer) const {
    writer.Finish();
    ctx.metrics().shuffle_bytes_written += writer.bytes_written();
  }

 private:
  ShuffleService* service_;
  uint64_t shuffle_;
  uint32_t num_reduce_;
};

/// One input side of an exchange: `num_map_tasks` map tasks, which
/// `produce` runs (with RunStage, merging each stage's metrics into the
/// query's metrics, which it captures), each routing its rows through
/// `out`. The map tasks may be a producing operator's own tasks (a
/// pipeline, sql/physical.h) or a stage over a materialized table's
/// partitions (ShuffleByKey).
struct ExchangeSide {
  uint32_t num_map_tasks = 0;
  std::function<Status(const MapOutput& out)> produce;
};

/// A hash-partitioned exchange: one shuffle per side, then a reduce stage
/// named `reduce_stage_name` with `num_reduce` tasks. Reduce task r runs on
/// HomeExecutorFor(reduce_rdd, r) and, when `reduce_reads_rdd`, declares
/// partition r of `reduce_rdd` as its input. `reduce` gets, per side in
/// order, everything routed to r in map-task order; each buffer counts as
/// a read from the executor that wrote it.
struct ExchangeSpec {
  std::vector<ExchangeSide> sides;
  std::string reduce_stage_name;
  uint32_t num_reduce = 0;
  uint64_t reduce_rdd = 0;
  bool reduce_reads_rdd = false;
  std::function<Status(TaskContext& ctx, uint32_t partition,
                       const std::vector<ShuffleInputs>& inputs)>
      reduce;
};

/// Recomputes one partition of an RDD at a specific version (lineage).
using PartitionComputeFn =
    std::function<Result<BlockPtr>(uint32_t partition, uint64_t version,
                                   TaskContext& ctx)>;

/// Shared ownership of one RDD's blocks. Every holder that can still reach
/// the RDD (a TableHandle copy, an IndexedRdd) shares one lease; when the
/// last copy goes, Cluster::ReleaseRdd erases the RDD's blocks and lineage.
/// A lease may outlive its Cluster: released after the cluster is gone, it
/// does nothing (the cluster's blocks died with it).
class RddLease {
 public:
  ~RddLease();
  RddLease(const RddLease&) = delete;
  RddLease& operator=(const RddLease&) = delete;

  uint64_t rdd() const { return rdd_; }

 private:
  friend class Cluster;
  struct Anchor;  // the cluster's liveness cell, shared with its leases
  RddLease(std::shared_ptr<Anchor> anchor, uint64_t rdd)
      : anchor_(std::move(anchor)), rdd_(rdd) {}

  std::shared_ptr<Anchor> anchor_;
  uint64_t rdd_;
};
using RddLeasePtr = std::shared_ptr<const RddLease>;

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  /// Detaches outstanding leases before the blocks die.
  ~Cluster();

  const ClusterConfig& config() const { return config_; }
  BlockManager& blocks() { return blocks_; }
  ShuffleService& shuffle() { return shuffle_; }
  StageSimulator& simulator() { return simulator_; }

  uint64_t NewRddId() {
    return next_rdd_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Runs a stage. The driver assigns every task an executor up front, in
  /// task-index order (preferred executor when alive, else round-robin over
  /// the alive set); tasks then execute concurrently on the scheduler's
  /// thread pool — one work lane per executor, idle threads stealing from
  /// the longest lane — and their results merge back in task-index order,
  /// so metrics totals, DES accounting, and EXPLAIN ANALYZE profiles are
  /// identical to a sequential run. First task failure wins: its Status
  /// aborts the stage and unstarted tasks are cancelled. Runs in-line
  /// sequentially when scheduler_threads() == 1 or when called from inside
  /// a task body (re-entrancy guard).
  ///
  /// Cooperative cancellation: when the calling thread has a QueryControl
  /// installed (ScopedQueryControl — the query service does this around
  /// each query), the stage checks it at entry and before every task body;
  /// a cancelled or past-deadline query fails with kCancelled /
  /// kDeadlineExceeded via the same first-error-wins unwinding as any task
  /// failure. Granularity is the task boundary — running bodies finish
  /// undisturbed, so pins and shuffle state release through their normal
  /// error/success paths (engine/cancel.h).
  Result<StageMetrics> RunStage(const StageSpec& stage);

  /// Runs an exchange (docs/SHUFFLE.md): allocates one shuffle per side,
  /// runs each side's map tasks in order (ExchangeSide::produce), then the
  /// reduce stage. Stage metrics merge into `metrics` as each stage
  /// finishes. The shuffles are released before returning on every path:
  /// success, a failed stage, a cancelled or expired query.
  Status RunExchange(const ExchangeSpec& spec, QueryMetrics& metrics);

  /// Host threads RunStage may use (resolved once at construction from
  /// ClusterConfig::scheduler_threads and IDF_PARALLEL). 1 = sequential.
  uint32_t scheduler_threads() const { return scheduler_threads_; }

  // ---- placement -----------------------------------------------------

  /// Deterministic home executor for a partition, among alive executors.
  /// When an executor dies its partitions re-home consistently.
  ExecutorId HomeExecutorFor(uint64_t rdd, uint32_t partition) const;

  bool IsAlive(ExecutorId e) const;
  std::vector<ExecutorId> AliveExecutors() const;

  // ---- failure injection (§IV-D Fault-Tolerance) ------------------------

  /// Kills an executor: drops its blocks, excludes it from placement.
  /// Returns the number of blocks lost.
  size_t KillExecutor(ExecutorId e);
  void ReviveExecutor(ExecutorId e);

  /// Guarded kill for concurrent injectors (the chaos engine fires kills
  /// from racing task boundaries): refuses — instead of CHECK-failing —
  /// when `e` is already dead or is the last alive executor. The check and
  /// the kill are atomic under alive_mutex_, so two racing chaos kills can
  /// never take the cluster to zero executors.
  bool TryKillExecutor(ExecutorId e);

  // ---- lineage -------------------------------------------------------

  void RegisterLineage(uint64_t rdd, PartitionComputeFn fn);

  /// Allocates a fresh RDD id and the lease on its blocks. Producers take
  /// it before they Put the RDD's first block, so a producer that fails
  /// midway releases what it already wrote.
  RddLeasePtr NewRdd();

  /// Fetches a block, recomputing it from lineage when missing (lost
  /// executor, never materialized). Recompute time lands in
  /// ctx.metrics().recovery_seconds, reproducing the Fig. 12 spike.
  Result<BlockPtr> GetOrCompute(const BlockId& id, TaskContext& ctx);

 private:
  friend class RddLease;

  /// Erases every block of `rdd` (all partitions, all versions) and its
  /// lineage entry: what the last lease does. The erased blocks' governor
  /// registrations and spill files go with them.
  void ReleaseRdd(uint64_t rdd);

  struct TaskResult;  // per-task outcome slot (cluster.cpp)

  /// The driver-side plan for one stage: executor assignment (task-index
  /// order, determinism-bearing), lanes, and the residency-preferred claim
  /// order.
  struct StagePlan {
    std::vector<ExecutorId> assigned;
    std::vector<uint32_t> lane_of;
    std::vector<uint32_t> order;   // dispatch (claim) order
    std::vector<char> resident;    // all declared inputs in memory?
    bool have_residency = false;   // any spilled inputs this stage?
  };
  StagePlan BuildStagePlan(const StageSpec& stage,
                           const std::vector<ExecutorId>& alive);

  /// Executes one task body: context, timing, global counters, flight-
  /// recorder task events (stage_name_id is the stage name interned once by
  /// RunStage). The outcome lands in `out`; merging happens later, on the
  /// driver, in task-index order. `control` is the owning query's
  /// cancellation token (nullptr outside a served query): checked before
  /// the body runs and installed on this thread for the body's duration so
  /// nested stages and polling bodies observe it.
  void ExecuteTask(const StageSpec& stage, uint32_t index, ExecutorId executor,
                   uint32_t stage_name_id, QueryControl* control,
                   TaskResult& out);

  /// Task-boundary chaos site: consults the chaos engine (scripted hooks +
  /// armed probability faults) and applies the returned TaskAction with
  /// engine/mem facilities — delay the lane, evict the world, squeeze the
  /// budget, kill this task's executor, or fire the owning query's
  /// cancel/deadline. One relaxed load when chaos is inactive.
  void ApplyTaskChaos(const StageSpec& stage, uint32_t index,
                      ExecutorId executor, QueryControl* control);

  /// Post-kill bookkeeping shared by KillExecutor and TryKillExecutor:
  /// drops the dead executor's blocks and records the kill. Returns the
  /// number of blocks lost.
  size_t DropKilledExecutor(ExecutorId e);

  /// Lazily started pool of scheduler_threads() workers, shared by every
  /// stage this cluster runs.
  ThreadPool& pool();

  std::vector<ExecutorId> AliveExecutorsLocked() const;  // alive_mutex_ held

  ClusterConfig config_;
  BlockManager blocks_;
  ShuffleService shuffle_;
  StageSimulator simulator_;
  mutable std::mutex alive_mutex_;  // guards alive_ (kills vs. placement)
  std::vector<bool> alive_;
  std::atomic<uint64_t> next_rdd_id_{1};

  uint32_t scheduler_threads_ = 1;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex lineage_mutex_;
  std::map<uint64_t, PartitionComputeFn> lineage_;

  std::shared_ptr<RddLease::Anchor> anchor_;
};

}  // namespace idf
