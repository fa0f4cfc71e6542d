// Tests for the engine substrate: topology validation, the NUMA model,
// block manager versioning/staleness, the discrete-event stage simulator,
// the shuffle service, and the cluster facade with failure injection +
// lineage recomputation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "engine/block.h"
#include "engine/cluster.h"
#include "engine/des.h"
#include "engine/scheduler.h"
#include "engine/shuffle.h"
#include "engine/topology.h"
#include "obs/metrics_registry.h"

namespace idf {
namespace {

// ---- topology ---------------------------------------------------------------

TEST(TopologyTest, ValidateAcceptsReasonableConfigs) {
  ClusterConfig c;
  c.num_workers = 4;
  c.executors_per_worker = 4;
  c.cores_per_executor = 4;
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.total_executors(), 16u);
  EXPECT_EQ(c.total_cores(), 64u);
}

TEST(TopologyTest, ValidateRejectsOversubscription) {
  ClusterConfig c;
  c.executors_per_worker = 4;
  c.cores_per_executor = 8;  // 32 > 16 cores per worker
  EXPECT_EQ(c.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TopologyTest, ValidateRejectsZeroDimensions) {
  ClusterConfig c;
  c.num_workers = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(TopologyTest, WorkerOfMapsExecutors) {
  ClusterConfig c;
  c.num_workers = 3;
  c.executors_per_worker = 2;
  EXPECT_EQ(c.WorkerOf(0), 0u);
  EXPECT_EQ(c.WorkerOf(1), 0u);
  EXPECT_EQ(c.WorkerOf(2), 1u);
  EXPECT_EQ(c.WorkerOf(5), 2u);
}

TEST(TopologyTest, NumaFactorOrdering) {
  // Fig. 4's qualitative result: pinned small executors < unpinned < spanning.
  ClusterConfig pinned;
  pinned.executors_per_worker = 4;
  pinned.cores_per_executor = 4;
  pinned.numa_pinned = true;

  ClusterConfig unpinned = pinned;
  unpinned.numa_pinned = false;

  ClusterConfig spanning;
  spanning.executors_per_worker = 1;
  spanning.cores_per_executor = 16;  // one fat executor spans both sockets

  EXPECT_DOUBLE_EQ(pinned.NumaFactor(), 1.0);
  EXPECT_GT(unpinned.NumaFactor(), pinned.NumaFactor());
  EXPECT_GT(spanning.NumaFactor(), unpinned.NumaFactor());
}

// ---- BlockManager --------------------------------------------------------------

class TestBlock : public Block {
 public:
  explicit TestBlock(uint64_t bytes, int payload = 0)
      : bytes_(bytes), payload_(payload) {}
  uint64_t ByteSize() const override { return bytes_; }
  int payload() const { return payload_; }

 private:
  uint64_t bytes_;
  int payload_;
};

TEST(BlockManagerTest, PutGetRoundTrip) {
  BlockManager bm;
  BlockId id{1, 0, 0};
  bm.Put(id, 2, std::make_shared<TestBlock>(100, 7));
  auto got = bm.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(static_cast<const TestBlock*>(got->get())->payload(), 7);
  EXPECT_EQ(bm.LocationOf(id), std::optional<ExecutorId>(2));
}

TEST(BlockManagerTest, MissingBlockIsNotFound) {
  BlockManager bm;
  EXPECT_EQ(bm.Get(BlockId{9, 9, 9}).status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(bm.LocationOf(BlockId{9, 9, 9}).has_value());
}

TEST(BlockManagerTest, VersionsAreDistinctBlocks) {
  // §III-D consistency: the same partition at different versions must be
  // distinguishable so stale replicas are never served for a newer version.
  BlockManager bm;
  bm.Put(BlockId{1, 0, 0}, 0, std::make_shared<TestBlock>(10, 100));
  bm.Put(BlockId{1, 0, 1}, 1, std::make_shared<TestBlock>(10, 101));

  auto v0 = bm.Get(BlockId{1, 0, 0});
  auto v1 = bm.Get(BlockId{1, 0, 1});
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(static_cast<const TestBlock*>(v0->get())->payload(), 100);
  EXPECT_EQ(static_cast<const TestBlock*>(v1->get())->payload(), 101);

  // A request for version 2 must NOT silently fall back to version 1.
  EXPECT_EQ(bm.Get(BlockId{1, 0, 2}).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bm.VersionsOf(1, 0), (std::vector<uint64_t>{0, 1}));
}

TEST(BlockManagerTest, DropExecutorRemovesItsBlocks) {
  BlockManager bm;
  bm.Put(BlockId{1, 0, 0}, 0, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{1, 1, 0}, 1, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{1, 2, 0}, 0, std::make_shared<TestBlock>(10));
  EXPECT_EQ(bm.DropExecutor(0), 2u);
  EXPECT_FALSE(bm.Get(BlockId{1, 0, 0}).ok());
  EXPECT_TRUE(bm.Get(BlockId{1, 1, 0}).ok());
  EXPECT_EQ(bm.NumBlocks(), 1u);
}

TEST(BlockManagerTest, DropRddRemovesAllVersions) {
  BlockManager bm;
  bm.Put(BlockId{1, 0, 0}, 0, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{1, 0, 1}, 0, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{1, 3, 7}, 1, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{0, 9, 4}, 0, std::make_shared<TestBlock>(10));
  bm.Put(BlockId{2, 0, 0}, 0, std::make_shared<TestBlock>(10));
  EXPECT_EQ(bm.DropRdd(1), 3u);
  // The neighbours on both sides of the erased range survive.
  EXPECT_EQ(bm.NumBlocks(), 2u);
  EXPECT_TRUE(bm.Get(BlockId{0, 9, 4}).ok());
  EXPECT_TRUE(bm.Get(BlockId{2, 0, 0}).ok());
  EXPECT_TRUE(bm.VersionsOf(1, 0).empty());
  EXPECT_EQ(bm.DropRdd(1), 0u);
}

TEST(BlockManagerTest, TotalBytesSums) {
  BlockManager bm;
  bm.Put(BlockId{1, 0, 0}, 0, std::make_shared<TestBlock>(100));
  bm.Put(BlockId{1, 1, 0}, 0, std::make_shared<TestBlock>(250));
  EXPECT_EQ(bm.TotalBytes(), 350u);
}

// ---- StageSimulator --------------------------------------------------------------

ClusterConfig SmallCluster(uint32_t workers, uint32_t executors_per_worker,
                           uint32_t cores) {
  ClusterConfig c;
  c.num_workers = workers;
  c.executors_per_worker = executors_per_worker;
  c.cores_per_executor = cores;
  c.numa_pinned = true;
  return c;
}

TEST(StageSimTest, SingleTaskTakesItsComputeTime) {
  StageSimulator sim(SmallCluster(1, 1, 1));
  SimOutcome out = sim.RunStage({SimTask{1.0, 0, {}}});
  EXPECT_DOUBLE_EQ(out.makespan_seconds, 1.0);
  EXPECT_DOUBLE_EQ(out.network_seconds, 0.0);
}

TEST(StageSimTest, PerfectParallelismAcrossCores) {
  StageSimulator sim(SmallCluster(1, 1, 4));
  std::vector<SimTask> tasks(4, SimTask{1.0, kAnyExecutor, {}});
  SimOutcome out = sim.RunStage(tasks);
  EXPECT_NEAR(out.makespan_seconds, 1.0, 1e-9);
}

TEST(StageSimTest, MoreTasksThanCoresSerializes) {
  StageSimulator sim(SmallCluster(1, 1, 2));
  std::vector<SimTask> tasks(4, SimTask{1.0, kAnyExecutor, {}});
  SimOutcome out = sim.RunStage(tasks);
  EXPECT_NEAR(out.makespan_seconds, 2.0, 1e-9);
}

TEST(StageSimTest, VerticalScalingIsNearLinear) {
  // Fig. 6 (bottom): with one executor per worker and ample tasks, doubling
  // cores halves the makespan.
  std::vector<SimTask> tasks(64, SimTask{0.1, kAnyExecutor, {}});
  auto single_socket = [](uint32_t cores) {
    ClusterConfig c = SmallCluster(1, 1, cores);
    c.sockets_per_worker = 1;  // isolate core scaling from the NUMA model
    return c;
  };
  double t1, t4, t16;
  {
    StageSimulator sim(single_socket(1));
    t1 = sim.RunStage(tasks).makespan_seconds;
  }
  {
    StageSimulator sim(single_socket(4));
    t4 = sim.RunStage(tasks).makespan_seconds;
  }
  {
    StageSimulator sim(single_socket(16));
    t16 = sim.RunStage(tasks).makespan_seconds;
  }
  EXPECT_NEAR(t1 / t4, 4.0, 0.2);
  EXPECT_NEAR(t1 / t16, 16.0, 1.0);
}

TEST(StageSimTest, RemoteReadsChargeNetworkTime) {
  ClusterConfig c = SmallCluster(2, 1, 1);
  c.network.latency_s = 0.01;
  c.network.bandwidth_bytes_per_s = 1e6;  // 1 MB/s for visible costs
  StageSimulator sim(c);
  // Task on executor 1 reads 1 MB produced on executor 0 (cross-worker).
  SimTask task{0.5, 1, {SimRead{0, 1000000}}};
  SimOutcome out = sim.RunStage({task});
  EXPECT_NEAR(out.makespan_seconds, 0.5 + 0.01 + 1.0, 1e-6);
  EXPECT_NEAR(out.network_seconds, 1.01, 1e-6);
}

TEST(StageSimTest, LocalReadsAreFree) {
  StageSimulator sim(SmallCluster(2, 1, 1));
  SimTask task{0.5, 1, {SimRead{1, 1000000}}};
  SimOutcome out = sim.RunStage({task});
  EXPECT_NEAR(out.makespan_seconds, 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(out.network_seconds, 0.0);
}

TEST(StageSimTest, IntraWorkerReadsAreCheaperThanCrossWorker) {
  ClusterConfig c = SmallCluster(2, 2, 1);
  c.network.latency_s = 0;
  StageSimulator sim_intra(c), sim_cross(c);
  // Executors 0,1 share worker 0; executor 2 lives on worker 1.
  SimOutcome intra =
      sim_intra.RunStage({SimTask{0.0, 1, {SimRead{0, 100 << 20}}}});
  SimOutcome cross =
      sim_cross.RunStage({SimTask{0.0, 2, {SimRead{0, 100 << 20}}}});
  EXPECT_LT(intra.makespan_seconds, cross.makespan_seconds);
}

TEST(StageSimTest, NicSerializationCreatesContention) {
  // Many reducers all fetching from worker 0 must queue on its out-NIC.
  ClusterConfig c = SmallCluster(4, 1, 4);
  c.network.latency_s = 0;
  c.network.bandwidth_bytes_per_s = 1e6;
  StageSimulator sim(c);
  std::vector<SimTask> tasks;
  for (int i = 0; i < 3; ++i) {
    // Three tasks on three different remote workers, each pulling 1 MB
    // from worker 0: the source NIC serializes them (~1s each).
    tasks.push_back(SimTask{0.0, static_cast<ExecutorId>(i + 1),
                            {SimRead{0, 1000000}}});
  }
  SimOutcome out = sim.RunStage(tasks);
  EXPECT_GT(out.makespan_seconds, 2.5);  // not 1.0: transfers serialized
}

TEST(StageSimTest, HorizontalScalingIsSubLinear) {
  // Fig. 6 (top): with shuffle traffic, doubling workers does not halve
  // runtime — network costs erode the speedup.
  auto run = [](uint32_t workers) {
    ClusterConfig c = SmallCluster(workers, 1, 4);
    c.network.latency_s = 1e-4;
    c.network.bandwidth_bytes_per_s = 1.25e9;
    StageSimulator sim(c);
    std::vector<SimTask> tasks;
    for (uint32_t t = 0; t < 64; ++t) {
      // Every task reads ~32 MB scattered across all workers.
      std::vector<SimRead> reads;
      for (uint32_t w = 0; w < workers; ++w) {
        reads.push_back(SimRead{w, (32u << 20) / workers});
      }
      tasks.push_back(SimTask{0.2, static_cast<ExecutorId>(t % workers),
                              std::move(reads)});
    }
    return sim.RunStage(tasks).makespan_seconds;
  };
  const double t2 = run(2), t8 = run(8), t32 = run(32);
  EXPECT_GT(t2, t8);
  EXPECT_GT(t8, t32);
  EXPECT_LT(t2 / t8, 4.0);    // speedup below the ideal 4x
  EXPECT_LT(t8 / t32, 4.0);
}

TEST(StageSimTest, StagesActAsBarriers) {
  StageSimulator sim(SmallCluster(1, 1, 2));
  sim.RunStage({SimTask{1.0, kAnyExecutor, {}}});
  // Second stage starts only after the first finishes everywhere.
  SimOutcome out = sim.RunStage({SimTask{0.5, kAnyExecutor, {}}});
  EXPECT_NEAR(sim.Now(), 1.5, 1e-9);
  EXPECT_NEAR(out.makespan_seconds, 0.5, 1e-9);
}

TEST(StageSimTest, BroadcastCostGrowsWithWorkers) {
  ClusterConfig c2 = SmallCluster(2, 1, 1);
  ClusterConfig c16 = SmallCluster(16, 1, 1);
  c2.network.bandwidth_bytes_per_s = c16.network.bandwidth_bytes_per_s = 1e9;
  StageSimulator s2(c2), s16(c16);
  const double b2 = s2.Broadcast(100 << 20);
  const double b16 = s16.Broadcast(100 << 20);
  EXPECT_GT(b16, b2);
}

TEST(StageSimTest, NumaFactorStretchesCompute) {
  ClusterConfig spanning = SmallCluster(1, 1, 16);
  spanning.numa_pinned = false;
  StageSimulator sim(spanning);
  SimOutcome out = sim.RunStage({SimTask{1.0, 0, {}}});
  EXPECT_GT(out.makespan_seconds, 1.2);
}

TEST(StageSimTest, ResetClearsClocks) {
  StageSimulator sim(SmallCluster(1, 1, 1));
  sim.RunStage({SimTask{1.0, 0, {}}});
  sim.Reset();
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
}

// ---- HashPartition --------------------------------------------------------------

TEST(HashPartitionTest, DeterministicAndInRange) {
  for (uint64_t k = 0; k < 1000; ++k) {
    const uint32_t p = HashPartition(k, 16);
    EXPECT_LT(p, 16u);
    EXPECT_EQ(p, HashPartition(k, 16));
  }
}

TEST(HashPartitionTest, BalancedOverSequentialKeys) {
  constexpr uint32_t kParts = 8;
  std::vector<int> counts(kParts, 0);
  for (uint64_t k = 0; k < 80000; ++k) ++counts[HashPartition(k, kParts)];
  for (int c : counts) {
    EXPECT_GT(c, 80000 / kParts * 0.9);
    EXPECT_LT(c, 80000 / kParts * 1.1);
  }
}

// ---- ShuffleService --------------------------------------------------------------

ShuffleBuffer MakeBuffer(std::initializer_list<uint32_t> row_sizes,
                         ExecutorId source) {
  ShuffleBuffer buf;
  buf.source = source;
  for (uint32_t size : row_sizes) {
    std::vector<uint8_t> row(size, 0);
    std::memcpy(row.data(), &size, sizeof(size));
    buf.AppendRow(row.data(), size);
  }
  return buf;
}

uint64_t BytesOf(const ShuffleInputs& inputs) {
  uint64_t total = 0;
  for (const auto& buf : inputs) total += buf->bytes.size();
  return total;
}

TEST(ShuffleServiceTest, MapOutputsRoutedToReducers) {
  ShuffleService svc;
  const uint64_t id = svc.NewShuffle(2, 2);
  svc.PutMapOutput(id, 0, 0, MakeBuffer({32, 48}, 0));
  svc.PutMapOutput(id, 0, 1, MakeBuffer({16}, 0));
  svc.PutMapOutput(id, 1, 0, MakeBuffer({64}, 1));

  auto r0 = svc.FetchReduceInputs(id, 0);
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0]->num_rows, 2u);
  EXPECT_EQ(r0[1]->num_rows, 1u);
  EXPECT_EQ(BytesOf(r0), 32u + 48 + 64);

  auto r1 = svc.FetchReduceInputs(id, 1);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(BytesOf(r1), 16u);
  EXPECT_EQ(BytesOf(r0) + BytesOf(r1), 160u);
}

TEST(ShuffleServiceTest, EmptyOutputsSkipped) {
  ShuffleService svc;
  const uint64_t id = svc.NewShuffle(3, 1);
  svc.PutMapOutput(id, 1, 0, MakeBuffer({24}, 0));
  auto inputs = svc.FetchReduceInputs(id, 0);
  EXPECT_EQ(inputs.size(), 1u);
}

TEST(ShuffleServiceTest, ReaderWalksRows) {
  ShuffleBuffer buf = MakeBuffer({24, 40, 16}, 0);
  std::vector<const uint8_t*> rows;
  buf.SplitRows(rows);
  std::vector<uint32_t> sizes;
  for (const uint8_t* row : rows) {
    uint32_t size;
    std::memcpy(&size, row, sizeof(size));
    sizes.push_back(size);
  }
  EXPECT_EQ(sizes, (std::vector<uint32_t>{24, 40, 16}));
}

TEST(ShuffleServiceTest, TruncatedRowFailsTheWalkAsItFailsSplitRows) {
  // The shuffled-hash join walks its probe side with ForEachRow and splits
  // its build side with SplitRows: one iterator, so one check.
  ShuffleBuffer truncated = MakeBuffer({24, 40, 16}, 0);
  truncated.bytes.resize(truncated.bytes.size() - 5);  // the last row overruns
  ShuffleBuffer short_header = MakeBuffer({24, 40}, 0);
  const uint32_t bad_size = 8;  // shorter than the 16-byte row header
  std::memcpy(short_header.bytes.data() + 24, &bad_size, sizeof(bad_size));
  for (const ShuffleBuffer* buf : {&truncated, &short_header}) {
    std::vector<const uint8_t*> split;
    std::vector<const uint8_t*> walked;
    EXPECT_FALSE(
        RowLayout::SplitRows(buf->bytes.data(), buf->bytes.size(), split));
    EXPECT_FALSE(RowLayout::ForEachRow(
        buf->bytes.data(), buf->bytes.size(),
        [&](const uint8_t* row) { walked.push_back(row); }));
    EXPECT_EQ(walked, split);
    EXPECT_EQ(split.size(), buf == &truncated ? 2u : 1u);
    EXPECT_DEATH(buf->SplitRows(split), "corrupt shuffle buffer");
    EXPECT_DEATH(buf->ForEachRow([](const uint8_t*) {}),
                 "corrupt shuffle buffer");
  }
}

TEST(ShuffleServiceTest, ReleaseFreesShuffle) {
  ShuffleService svc;
  const uint64_t id = svc.NewShuffle(1, 1);
  svc.PutMapOutput(id, 0, 0, MakeBuffer({32}, 0));
  svc.Release(id);
  EXPECT_DEATH(svc.FetchReduceInputs(id, 0), "unknown shuffle");
}

// ---- Cluster facade --------------------------------------------------------------

TEST(ClusterTest, RunStageExecutesAllTasks) {
  Cluster cluster(SmallCluster(2, 2, 2));
  std::atomic<int> executed{0};
  StageSpec stage;
  stage.name = "count";
  for (int i = 0; i < 10; ++i) {
    stage.tasks.push_back(TaskSpec{
        kAnyExecutor, {}, 0, [&](TaskContext&) {
          executed++;
          return Status::OK();
        }, {}});
  }
  auto metrics = cluster.RunStage(stage);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(executed.load(), 10);
  EXPECT_EQ(metrics->num_tasks, 10u);
  EXPECT_GT(metrics->real_seconds, 0.0);
  EXPECT_GT(metrics->simulated_seconds, 0.0);
}

TEST(ClusterTest, TaskFailureAbortsStage) {
  Cluster cluster(SmallCluster(1, 1, 1));
  StageSpec stage;
  stage.name = "failing";
  stage.tasks.push_back(TaskSpec{
      kAnyExecutor, {}, 0, [](TaskContext&) {
        return Status::Internal("task exploded");
      }, {}});
  auto metrics = cluster.RunStage(stage);
  EXPECT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
}

TEST(ClusterTest, HomePlacementDeterministicAndAlive) {
  Cluster cluster(SmallCluster(4, 2, 2));
  const ExecutorId home = cluster.HomeExecutorFor(7, 3);
  EXPECT_EQ(home, cluster.HomeExecutorFor(7, 3));
  EXPECT_TRUE(cluster.IsAlive(home));
  cluster.KillExecutor(home);
  const ExecutorId rehomed = cluster.HomeExecutorFor(7, 3);
  EXPECT_NE(rehomed, home);
  EXPECT_TRUE(cluster.IsAlive(rehomed));
}

TEST(ClusterTest, KillExecutorDropsBlocks) {
  Cluster cluster(SmallCluster(2, 2, 2));
  cluster.blocks().Put(BlockId{1, 0, 0}, 1, std::make_shared<TestBlock>(10));
  cluster.blocks().Put(BlockId{1, 1, 0}, 2, std::make_shared<TestBlock>(10));
  EXPECT_EQ(cluster.KillExecutor(1), 1u);
  EXPECT_FALSE(cluster.IsAlive(1));
  EXPECT_FALSE(cluster.blocks().Get(BlockId{1, 0, 0}).ok());
  EXPECT_TRUE(cluster.blocks().Get(BlockId{1, 1, 0}).ok());
  cluster.ReviveExecutor(1);
  EXPECT_TRUE(cluster.IsAlive(1));
}

TEST(ClusterTest, GetOrComputeFetchesExisting) {
  Cluster cluster(SmallCluster(2, 1, 1));
  cluster.blocks().Put(BlockId{5, 0, 0}, 0,
                       std::make_shared<TestBlock>(64, 42));
  TaskContext ctx(&cluster, 0);
  auto block = cluster.GetOrCompute(BlockId{5, 0, 0}, ctx);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(static_cast<const TestBlock*>(block->get())->payload(), 42);
  EXPECT_EQ(ctx.metrics().recovery_seconds, 0.0);
}

TEST(ClusterTest, GetOrComputeRemoteBlockChargesNetwork) {
  Cluster cluster(SmallCluster(2, 1, 1));
  cluster.blocks().Put(BlockId{5, 0, 0}, 1,
                       std::make_shared<TestBlock>(1 << 20, 42));
  TaskContext ctx(&cluster, 0);  // task on executor 0, block homed at 1
  auto block = cluster.GetOrCompute(BlockId{5, 0, 0}, ctx);
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(ctx.reads().size(), 1u);
  EXPECT_EQ(ctx.reads()[0].source, 1u);
  EXPECT_EQ(ctx.reads()[0].bytes, 1u << 20);
}

TEST(ClusterTest, GetOrComputeRecomputesFromLineage) {
  // §III-D: a lost indexed partition is rebuilt by replaying its lineage.
  Cluster cluster(SmallCluster(2, 1, 1));
  const uint64_t rdd = cluster.NewRddId();
  std::atomic<int> recomputes{0};
  cluster.RegisterLineage(
      rdd, [&](uint32_t partition, uint64_t version, TaskContext&) {
        recomputes++;
        return Result<BlockPtr>(std::make_shared<TestBlock>(
            32, static_cast<int>(partition * 100 + version)));
      });

  TaskContext ctx(&cluster, 0);
  auto block = cluster.GetOrCompute(BlockId{rdd, 3, 2}, ctx);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(static_cast<const TestBlock*>(block->get())->payload(), 302);
  EXPECT_EQ(recomputes.load(), 1);
  EXPECT_GE(ctx.metrics().recovery_seconds, 0.0);

  // Now cached: no second recompute.
  TaskContext ctx2(&cluster, 0);
  auto again = cluster.GetOrCompute(BlockId{rdd, 3, 2}, ctx2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(recomputes.load(), 1);
}

TEST(ClusterTest, MissingBlockWithoutLineageIsUnavailable) {
  Cluster cluster(SmallCluster(1, 1, 1));
  TaskContext ctx(&cluster, 0);
  auto block = cluster.GetOrCompute(BlockId{777, 0, 0}, ctx);
  EXPECT_EQ(block.status().code(), StatusCode::kUnavailable);
}

TEST(ClusterTest, DeadPreferredExecutorFallsBack) {
  Cluster cluster(SmallCluster(2, 1, 1));
  cluster.KillExecutor(1);
  StageSpec stage;
  stage.name = "fallback";
  ExecutorId ran_on = kAnyExecutor;
  stage.tasks.push_back(TaskSpec{1, {}, 0, [&](TaskContext& ctx) {
                                   ran_on = ctx.executor();
                                   return Status::OK();
                                 }, {}});
  ASSERT_TRUE(cluster.RunStage(stage).ok());
  EXPECT_EQ(ran_on, 0u);
}

TEST(ClusterTest, DeadExecutorTasksRoundRobinAcrossAlive) {
  // Regression: tasks whose home executor died used to all pile onto
  // AliveExecutors()[0]; they must spread round-robin over the alive set.
  Cluster cluster(SmallCluster(2, 2, 1));  // executors 0..3
  cluster.KillExecutor(0);
  StageSpec stage;
  stage.name = "spread";
  std::vector<ExecutorId> ran_on(8, kAnyExecutor);
  for (uint32_t i = 0; i < 8; ++i) {
    stage.tasks.push_back(TaskSpec{0, {}, 0, [&, i](TaskContext& ctx) {
                                     ran_on[i] = ctx.executor();
                                     return Status::OK();
                                   }, {}});
  }
  ASSERT_TRUE(cluster.RunStage(stage).ok());
  const std::vector<ExecutorId> expected{1, 2, 3, 1, 2, 3, 1, 2};
  EXPECT_EQ(ran_on, expected);
}

TEST(ClusterTest, ParallelStageMatchesSequentialTotals) {
  // The scheduler contract: metrics totals and executor assignment are
  // identical whether tasks ran on 1 host thread or 4.
  auto run = [](uint32_t threads) {
    ClusterConfig config = SmallCluster(2, 2, 2);
    config.scheduler_threads = threads;
    Cluster cluster(config);
    StageSpec stage;
    stage.name = "parity";
    for (uint32_t i = 0; i < 16; ++i) {
      stage.tasks.push_back(TaskSpec{
          static_cast<ExecutorId>(i % 4), {}, 0, [i](TaskContext& ctx) {
            ctx.metrics().rows_read += 10 * (i + 1);
            ctx.metrics().index_probes += i;
            ctx.metrics().index_hits += i / 2;
            return Status::OK();
          }, {}});
    }
    auto metrics = cluster.RunStage(stage);
    EXPECT_TRUE(metrics.ok());
    return *metrics;
  };
  obs::Counter& tasks = obs::Registry::Global().GetCounter("engine.tasks");
  const uint64_t before_seq = tasks.value();
  const StageMetrics seq = run(1);
  const uint64_t before_par = tasks.value();
  EXPECT_EQ(before_par - before_seq, 16u);
  const StageMetrics par = run(4);
  EXPECT_EQ(tasks.value() - before_par, 16u);
  EXPECT_EQ(par.num_tasks, seq.num_tasks);
  EXPECT_EQ(par.totals.rows_read, seq.totals.rows_read);
  EXPECT_EQ(par.totals.index_probes, seq.totals.index_probes);
  EXPECT_EQ(par.totals.index_hits, seq.totals.index_hits);
}

TEST(ClusterTest, ParallelFirstErrorWinsAndCancelsRemainder) {
  ClusterConfig config = SmallCluster(2, 2, 2);
  config.scheduler_threads = 4;
  Cluster cluster(config);
  StageSpec stage;
  stage.name = "failing-parallel";
  std::atomic<int> executed{0};
  for (uint32_t i = 0; i < 64; ++i) {
    stage.tasks.push_back(
        TaskSpec{kAnyExecutor, {}, 0, [&, i](TaskContext&) -> Status {
          executed++;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (i == 5) return Status::Internal("task 5 exploded");
          return Status::OK();
        }, {}});
  }
  auto metrics = cluster.RunStage(stage);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
  EXPECT_NE(metrics.status().message().find("failing-parallel"),
            std::string::npos);
  // Cancellation: the failure surfaces long before all 64 ran.
  EXPECT_LT(executed.load(), 64);
}

TEST(ClusterTest, NestedStageFromTaskBodyRunsInline) {
  // A task body that launches its own stage must not deadlock the pool:
  // nested stages execute in-line on the calling worker.
  ClusterConfig config = SmallCluster(2, 2, 2);
  config.scheduler_threads = 4;
  Cluster cluster(config);
  std::atomic<int> inner_runs{0};
  StageSpec outer;
  outer.name = "outer";
  for (uint32_t i = 0; i < 4; ++i) {
    outer.tasks.push_back(
        TaskSpec{kAnyExecutor, {}, 0, [&](TaskContext& ctx) {
          StageSpec inner;
          inner.name = "inner";
          for (int j = 0; j < 2; ++j) {
            inner.tasks.push_back(
                TaskSpec{kAnyExecutor, {}, 0, [&](TaskContext&) {
                  inner_runs++;
                  return Status::OK();
                }, {}});
          }
          return ctx.cluster().RunStage(inner).status();
        }, {}});
  }
  ASSERT_TRUE(cluster.RunStage(outer).ok());
  EXPECT_EQ(inner_runs.load(), 8);
}

// ---- stage scheduler primitives ------------------------------------------

TEST(SchedulerTest, TaskLanesHomeFirstThenStealOldestFromLongest) {
  // tasks 0..4 on lanes 0,1,1,1,0 → lane0 = {0,4}, lane1 = {1,2,3}.
  TaskLanes lanes({0, 1, 1, 1, 0}, 2);
  uint32_t idx = 0;
  bool stolen = false;
  ASSERT_TRUE(lanes.Pop(0, &idx, &stolen));
  EXPECT_EQ(idx, 0u);
  EXPECT_FALSE(stolen);
  ASSERT_TRUE(lanes.Pop(0, &idx, &stolen));
  EXPECT_EQ(idx, 4u);
  EXPECT_FALSE(stolen);
  // Home lane dry: steal the oldest task of the longest other lane.
  ASSERT_TRUE(lanes.Pop(0, &idx, &stolen));
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(stolen);
  ASSERT_TRUE(lanes.Pop(1, &idx, &stolen));
  EXPECT_EQ(idx, 2u);
  EXPECT_FALSE(stolen);
  ASSERT_TRUE(lanes.Pop(1, &idx, &stolen));
  EXPECT_EQ(idx, 3u);
  EXPECT_FALSE(stolen);
  EXPECT_FALSE(lanes.Pop(0, &idx, &stolen));
}

TEST(SchedulerTest, ResolveSchedulerThreadsHonorsConfigAndEnv) {
  // An ambient IDF_PARALLEL (an IDF_PARALLEL=0 ctest run) would override
  // the config knob this test exercises: clear it here, restore it at exit.
  const char* ambient = std::getenv("IDF_PARALLEL");
  const std::string saved = ambient != nullptr ? ambient : "";
  const bool had_ambient = ambient != nullptr;
  unsetenv("IDF_PARALLEL");
  ClusterConfig c = SmallCluster(2, 2, 1);
  c.scheduler_threads = 3;
  EXPECT_EQ(ResolveSchedulerThreads(c), 3u);
  c.scheduler_threads = 0;
  const uint32_t auto_threads = ResolveSchedulerThreads(c);
  EXPECT_GE(auto_threads, 1u);
  EXPECT_LE(auto_threads, c.total_executors());
  // IDF_PARALLEL is the debugging escape hatch and beats the config knob.
  c.scheduler_threads = 8;
  setenv("IDF_PARALLEL", "0", 1);
  EXPECT_EQ(ResolveSchedulerThreads(c), 1u);
  setenv("IDF_PARALLEL", "6", 1);
  EXPECT_EQ(ResolveSchedulerThreads(c), 6u);
  if (had_ambient) {
    setenv("IDF_PARALLEL", saved.c_str(), 1);
  } else {
    unsetenv("IDF_PARALLEL");
  }
}

TEST(ClusterTest, StaleVersionNeverServed) {
  // End-to-end §III-D scenario: partition recomputed on another executor at
  // version 0 (duplicate), then appended to (version 1). A task requiring
  // version 1 must not get the stale replica.
  Cluster cluster(SmallCluster(2, 1, 1));
  const uint64_t rdd = cluster.NewRddId();
  // Original copy and a stale duplicate on another executor, both v0.
  cluster.blocks().Put(BlockId{rdd, 0, 0}, 0,
                       std::make_shared<TestBlock>(8, 1000));
  cluster.blocks().Put(BlockId{rdd, 0, 0}, 1,
                       std::make_shared<TestBlock>(8, 1000));
  // Append produced v1 on executor 0 only.
  cluster.blocks().Put(BlockId{rdd, 0, 1}, 0,
                       std::make_shared<TestBlock>(8, 2000));

  TaskContext ctx(&cluster, 1);
  auto got = cluster.GetOrCompute(BlockId{rdd, 0, 1}, ctx);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(static_cast<const TestBlock*>(got->get())->payload(), 2000);
}

}  // namespace
}  // namespace idf
