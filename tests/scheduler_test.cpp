// Stress tests for the parallel stage scheduler (engine/scheduler.h +
// Cluster::RunStage): sequential/parallel result and accounting parity,
// concurrent sessions, concurrent queries against one cached indexed table,
// task events from pool threads nesting inside their stage's interval, the
// shuffle's byte identity across every scheduler thread count, and the
// release of every exchange's shuffles when its query fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "engine/cluster.h"
#include "mem/governor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "sql/columnar.h"
#include "sql/session.h"
#include "typed_keys.h"
#include "workload/snb.h"

namespace idf {
namespace {

SessionOptions Options(uint32_t scheduler_threads) {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.scheduler_threads = scheduler_threads;
  opts.default_partitions = 4;
  return opts;
}

SchemaPtr EventSchema() {
  return std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt64, false},
      {"cat", TypeId::kString, false},
      {"v", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> EventRows(int n) {
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i % 50),
                    Value::String(i % 2 == 0 ? "a" : "b"),
                    Value::Float64(static_cast<double>(i % 17))});
  }
  return rows;
}

SchemaPtr ProbeSchema() {
  return std::make_shared<Schema>(Schema({
      {"pk", TypeId::kInt64, false},
      {"tag", TypeId::kString, false},
  }));
}

std::vector<RowVec> ProbeRows() {
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value::Int64(i * 3 % 60),  // some keys miss
                    Value::String("t" + std::to_string(i))});
  }
  return rows;
}

struct WorkloadResult {
  std::vector<std::string> filter_rows;
  std::vector<std::string> join_rows;
};

/// The full filter+join workload in a fresh session: create + index the
/// events table, filter on v, indexed-join against a probe table. When
/// `working_set` is non-null it receives the governed resident bytes while
/// the session (and its cached tables) is still alive.
WorkloadResult RunWorkload(uint32_t scheduler_threads,
                           uint64_t* working_set = nullptr) {
  Session session(Options(scheduler_threads));
  DataFrame events =
      session.CreateTable("events", EventSchema(), EventRows(400)).value();
  IndexedDataFrame indexed = IndexedDataFrame::Create(events, "k").value();
  DataFrame probe =
      session.CreateTable("probe", ProbeSchema(), ProbeRows()).value();

  WorkloadResult out;
  out.filter_rows = events.Filter(Ge(Col("v"), Lit(9.0)))
                        .Collect()
                        .value()
                        .SortedRowStrings();
  out.join_rows =
      indexed.Join(probe, "pk").Collect().value().SortedRowStrings();
  if (working_set != nullptr) {
    *working_set = mem::MemoryGovernor::Global().resident_bytes();
  }
  return out;
}

uint64_t TasksCounter() {
  return obs::Registry::Global().GetCounter("engine.tasks").value();
}

// Parallel execution must be invisible in the results and in the metrics:
// same rows, same per-op EXPLAIN ANALYZE cardinalities, same exact
// engine.tasks totals as the sequential scheduler.
TEST(SchedulerStressTest, ParallelWorkloadMatchesSequential) {
  const uint64_t t0 = TasksCounter();
  const WorkloadResult seq = RunWorkload(1);
  const uint64_t seq_tasks = TasksCounter() - t0;

  const uint64_t t1 = TasksCounter();
  const WorkloadResult par = RunWorkload(4);
  const uint64_t par_tasks = TasksCounter() - t1;

  EXPECT_EQ(par.filter_rows, seq.filter_rows);
  EXPECT_EQ(par.join_rows, seq.join_rows);
  EXPECT_EQ(par_tasks, seq_tasks);
  EXPECT_GT(seq_tasks, 0u);
}

TEST(SchedulerStressTest, ExplainAnalyzeCardinalitiesMatchSequential) {
  auto profile = [](uint32_t threads) {
    Session session(Options(threads));
    DataFrame events =
        session.CreateTable("events", EventSchema(), EventRows(400)).value();
    IndexedDataFrame indexed = IndexedDataFrame::Create(events, "k").value();
    DataFrame probe =
        session.CreateTable("probe", ProbeSchema(), ProbeRows()).value();
    QueryMetrics metrics;
    metrics.op_profile =
        std::make_shared<std::map<const void*, OpProfile>>();
    (void)indexed.Join(probe, "pk").Collect(&metrics).value();
    // Addresses differ across runs; compare (label, rows, bytes) sorted.
    std::vector<std::string> ops;
    for (const auto& [node, prof] : *metrics.op_profile) {
      ops.push_back(prof.label + "|" + std::to_string(prof.rows_out) + "|" +
                    std::to_string(prof.bytes_out) + "|" +
                    std::to_string(prof.inclusive.index_probes) + "|" +
                    std::to_string(prof.inclusive.index_hits));
    }
    std::sort(ops.begin(), ops.end());
    return ops;
  };
  EXPECT_EQ(profile(4), profile(1));
}

// Two sessions (own clusters, own pools) running the same filter+join
// workload from two host threads: identical results, and the global
// engine.tasks counter advances by exactly twice one workload's tasks.
TEST(SchedulerStressTest, ConcurrentSessionsExactTaskAccounting) {
  const uint64_t t0 = TasksCounter();
  const WorkloadResult expected = RunWorkload(1);
  const uint64_t one_run = TasksCounter() - t0;
  ASSERT_GT(one_run, 0u);

  const uint64_t before = TasksCounter();
  WorkloadResult a, b;
  std::thread ta([&] { a = RunWorkload(4); });
  std::thread tb([&] { b = RunWorkload(4); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.filter_rows, expected.filter_rows);
  EXPECT_EQ(a.join_rows, expected.join_rows);
  EXPECT_EQ(b.filter_rows, expected.filter_rows);
  EXPECT_EQ(b.join_rows, expected.join_rows);
  EXPECT_EQ(TasksCounter() - before, 2 * one_run);
}

// Two threads issuing queries against the SAME session and the SAME cached
// indexed table: concurrent stages interleave on one cluster (shared block
// manager, shuffle service, DES clocks) without corrupting results.
TEST(SchedulerStressTest, ConcurrentQueriesOnSharedCachedIndexedTable) {
  Session session(Options(4));
  DataFrame events =
      session.CreateTable("events", EventSchema(), EventRows(400)).value();
  IndexedDataFrame indexed = IndexedDataFrame::Create(events, "k").value();
  DataFrame probe =
      session.CreateTable("probe", ProbeSchema(), ProbeRows()).value();
  DataFrame filter_q = events.Filter(Ge(Col("v"), Lit(9.0)));
  DataFrame join_q = indexed.Join(probe, "pk");

  const std::vector<std::string> expected_filter =
      filter_q.Collect().value().SortedRowStrings();
  const std::vector<std::string> expected_join =
      join_q.Collect().value().SortedRowStrings();

  constexpr int kIters = 8;
  std::atomic<int> mismatches{0};
  auto worker = [&] {
    for (int i = 0; i < kIters; ++i) {
      if (filter_q.Collect().value().SortedRowStrings() != expected_filter) {
        mismatches++;
      }
      if (join_q.Collect().value().SortedRowStrings() != expected_join) {
        mismatches++;
      }
    }
  };
  const uint64_t before = TasksCounter();
  std::thread ta(worker);
  std::thread tb(worker);
  ta.join();
  tb.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Exact accounting: every iteration runs the same deterministic stages.
  const uint64_t t2 = TasksCounter();
  (void)filter_q.Collect().value();
  (void)join_q.Collect().value();
  const uint64_t per_iter = TasksCounter() - t2;
  EXPECT_EQ(t2 - before, 2ull * kIters * per_iter);
}

// Task events recorded on pool threads must nest inside the stage's
// stage_finish interval, which the driver records: that interval (event
// time minus wall micros) is the stage slice tools/idf_events.py --chrome
// draws around the task slices.
TEST(SchedulerStressTest, TaskSpansNestUnderStageAcrossThreads) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  const uint64_t first_seq = fr.total_recorded();
  ClusterConfig config;
  config.num_workers = 2;
  config.executors_per_worker = 2;
  config.cores_per_executor = 2;
  config.scheduler_threads = 4;
  Cluster cluster(config);
  StageSpec stage;
  stage.name = "traced-stage";
  for (int i = 0; i < 8; ++i) {
    stage.tasks.push_back(TaskSpec{kAnyExecutor,
                                   {},
                                   0,
                                   [](TaskContext&) {
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(1));
                                     return Status::OK();
                                   },
                                   {}});
  }
  ASSERT_TRUE(cluster.RunStage(stage).ok());
  std::vector<obs::FlightEvent> events;
  for (obs::FlightEvent& ev : fr.Snapshot()) {
    if (ev.seq >= first_seq && ev.name == "traced-stage") {
      events.push_back(std::move(ev));
    }
  }
  const obs::FlightEvent* finish = nullptr;
  for (const obs::FlightEvent& ev : events) {
    if (ev.type == obs::EventType::kStageFinish) finish = &ev;
  }
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(finish->a, 8u);
  const uint64_t stage_start = finish->ts_us - finish->c;
  int task_events = 0;
  for (const obs::FlightEvent& ev : events) {
    if (ev.type != obs::EventType::kTaskStart &&
        ev.type != obs::EventType::kTaskFinish) {
      continue;
    }
    if (cluster.scheduler_threads() > 1) {
      EXPECT_NE(ev.tid, finish->tid) << "task ran on the driver thread";
    }
    EXPECT_GE(ev.ts_us, stage_start);
    EXPECT_LE(ev.ts_us, finish->ts_us);
    ++task_events;
  }
  EXPECT_EQ(task_events, 16);
}

// ---- spill-aware scheduling (residency map x dispatch order) ---------------

uint64_t MemCounter(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).value();
}

SchemaPtr OneColSchema() {
  return std::make_shared<Schema>(Schema({{"x", TypeId::kInt64, false}}));
}

/// A sealed, governed columnar chunk tagged (owner, shard) — synthetic
/// residency for dispatch-order tests.
std::shared_ptr<ColumnarChunk> GovernedChunk(uint64_t owner, uint32_t shard) {
  auto chunk = std::make_shared<ColumnarChunk>(OneColSchema());
  for (int64_t i = 0; i < 64; ++i) {
    IDF_CHECK_OK(chunk->AppendRow({Value::Int64(i)}));
  }
  chunk->SealForCache(owner, shard);
  return chunk;
}

TEST(ResidencySchedulingTest, EvictedInputTasksDispatchLast) {
  // Four tasks over four partitions of one owner; partitions 1 and 3 are
  // force-evicted. Resident-preferred dispatch must run {0, 2} before
  // {1, 3}, preserving task-index order inside each group.
  ::unsetenv("IDF_MEMORY_BUDGET");
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  mem::ScopedBudget engage(gov.resident_bytes() + (64 << 20));
  constexpr uint64_t kOwner = 990001;
  std::vector<std::shared_ptr<ColumnarChunk>> chunks;
  for (uint32_t p = 0; p < 4; ++p) chunks.push_back(GovernedChunk(kOwner, p));
  ASSERT_EQ(gov.EvictPartition(kOwner, 1), 1u);
  ASSERT_EQ(gov.EvictPartition(kOwner, 3), 1u);

  const mem::ResidencyMap residency = gov.ResidencySnapshot();
  ASSERT_GT(residency.at({kOwner, 0}).resident_bytes, 0u);
  ASSERT_GT(residency.at({kOwner, 1}).spilled_bytes, 0u);
  ASSERT_EQ(residency.at({kOwner, 1}).resident_bytes, 0u);

  ClusterConfig config;
  config.num_workers = 1;
  config.executors_per_worker = 1;
  config.cores_per_executor = 1;
  config.scheduler_threads = 1;
  Cluster cluster(config);
  std::vector<uint32_t> order;
  StageSpec stage;
  stage.name = "residency-order";
  for (uint32_t p = 0; p < 4; ++p) {
    stage.tasks.push_back(TaskSpec{kAnyExecutor,
                                   {},
                                   0,
                                   [&order, p](TaskContext&) {
                                     order.push_back(p);
                                     return Status::OK();
                                   },
                                   {{kOwner, p}}});
  }
  const uint64_t hits_before = MemCounter("sched.resident_hits");
  const uint64_t misses_before = MemCounter("sched.resident_misses");
  ASSERT_TRUE(cluster.RunStage(stage).ok());
  const std::vector<uint32_t> expected{0, 2, 1, 3};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(MemCounter("sched.resident_hits") - hits_before, 2u);
  EXPECT_EQ(MemCounter("sched.resident_misses") - misses_before, 2u);
}

TEST(ResidencySchedulingTest, DemandFaultInNeverEvictsPinnedWorkingSet) {
  // With zero headroom and the running task's chunk pinned, reading an
  // evicted partition faults it in (overcommitting if it must) and never
  // trades it against the pin.
  ::unsetenv("IDF_MEMORY_BUDGET");
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  mem::ScopedBudget engage(gov.resident_bytes() + (64 << 20));
  constexpr uint64_t kOwner = 990002;
  auto a = GovernedChunk(kOwner, 0);
  auto b = GovernedChunk(kOwner, 1);
  ASSERT_EQ(gov.EvictPartition(kOwner, 1), 1u);
  ASSERT_FALSE(b->resident());
  mem::AccessScope scope;
  (void)a->RowAt(0);  // pins a for the scope: the "running task" working set
  mem::ScopedBudget zero_headroom(gov.resident_bytes());
  EXPECT_EQ(b->RowAt(0)[0], Value::Int64(0));
  EXPECT_TRUE(b->resident());
  EXPECT_TRUE(a->resident());  // pinned throughout
}

TEST(ResidencySchedulingTest, QuarterBudgetParallelMatchesSequential) {
  // The determinism contract survives memory pressure: at 25% of the
  // working set, with IDF_PARALLEL forcing the pool, results are identical
  // to the sequential unbudgeted run (residency-preferred dispatch only
  // reorders claim order, never assignment or merge order).
  ::unsetenv("IDF_MEMORY_BUDGET");
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t base = gov.resident_bytes();
  uint64_t with_workload = 0;
  WorkloadResult reference;
  {
    mem::ScopedBudget engage(base + (256 << 20));  // roomy: registers chunks
    reference = RunWorkload(1, &with_workload);
  }
  ASSERT_GT(with_workload, base);
  const uint64_t budget = base + (with_workload - base) / 4;

  WorkloadResult seq_budgeted;
  {
    mem::ScopedBudget tight(budget);
    seq_budgeted = RunWorkload(1);
  }
  EXPECT_EQ(seq_budgeted.filter_rows, reference.filter_rows);
  EXPECT_EQ(seq_budgeted.join_rows, reference.join_rows);

  ::setenv("IDF_PARALLEL", "4", 1);
  WorkloadResult par_budgeted;
  {
    mem::ScopedBudget tight(budget);
    par_budgeted = RunWorkload(4);
  }
  ::unsetenv("IDF_PARALLEL");
  EXPECT_EQ(par_budgeted.filter_rows, reference.filter_rows);
  EXPECT_EQ(par_budgeted.join_rows, reference.join_rows);
}

// ---- shuffle under every scheduler thread count ------------------------------

TEST(SchedulerDeadlockTest, CreateIndexWithFewerThreadsThanExecutorsFinishes) {
  // An index build must finish with fewer scheduler threads than
  // executors, under a budget tight enough to spill. The test's ctest
  // TIMEOUT turns a hang into a failure.
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts = Options(/*scheduler_threads=*/2);
  opts.default_partitions = 8;
  Session session(opts);
  mem::ScopedBudget tight(8 << 20);
  SnbGenerator generator(SnbConfig::ScaleFactor(0.1));
  DataFrame edges = generator.Edges(session).value();
  IndexedDataFrame indexed =
      IndexedDataFrame::Create(edges, "edge_source").value();
  EXPECT_EQ(indexed.num_rows(), 100000u);
}

/// The thread counts the sweep runs: 1 (the reference) through one more
/// thread than the 2x2 topology has executors.
constexpr uint32_t kSweepMaxThreads = 5;

SchemaPtr SweepSchema() {
  return std::make_shared<Schema>(Schema({
      {"user", TypeId::kInt64, false},
      {"event", TypeId::kInt64, false},
      {"score", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> SweepRows(int64_t n, int64_t salt = 0) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64((i * 7 + salt) % 131),
                    Value::Int64(i + salt * 1000000),
                    Value::Float64(0.5 * static_cast<double>(i))});
  }
  return rows;
}

SessionOptions SweepOptions(uint32_t scheduler_threads, uint64_t budget) {
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts = Options(scheduler_threads);
  opts.cluster.memory_budget_bytes = budget;
  return opts;
}

/// One partition's physical layout: rows, batches and bytes.
struct PartitionShape {
  uint64_t num_rows;
  uint32_t num_batches;
  uint64_t data_bytes;
  uint64_t allocated_bytes;

  bool operator==(const PartitionShape&) const = default;
};

std::vector<PartitionShape> ShapesOf(Session& session,
                                     const IndexedDataFrame& idf) {
  std::vector<PartitionShape> shapes;
  TaskContext ctx(&session.cluster(), 0);
  for (uint32_t p = 0; p < idf.num_partitions(); ++p) {
    auto part = idf.rdd()->GetPartition(p, idf.version(), ctx);
    IDF_CHECK_OK(part.status());
    shapes.push_back({(*part)->num_rows(), (*part)->num_batches(),
                      (*part)->data_bytes(), (*part)->allocated_bytes()});
  }
  return shapes;
}

/// The TaskMetrics totals that must not depend on the thread count (timing
/// fields legitimately do).
struct InvariantTotals {
  uint64_t rows_read, rows_written, shuffle_read, shuffle_written;
  uint64_t index_probes, index_hits, batch_copies, ctrie_snapshots;
  uint32_t num_stages;

  static InvariantTotals Of(const QueryMetrics& m) {
    return {m.totals.rows_read,          m.totals.rows_written,
            m.totals.shuffle_bytes_read, m.totals.shuffle_bytes_written,
            m.totals.index_probes,       m.totals.index_hits,
            m.totals.batch_copies,       m.totals.ctrie_snapshots,
            m.num_stages};
  }
  bool operator==(const InvariantTotals&) const = default;
};

struct IndexBuild {
  std::vector<std::string> scan;  // full scan, in scan order
  std::vector<PartitionShape> shapes;
  InvariantTotals totals;
};

IndexBuild BuildIndex(uint32_t scheduler_threads, uint64_t budget) {
  Session session(SweepOptions(scheduler_threads, budget));
  auto events = *session.CreateTable("events", SweepSchema(), SweepRows(12000));
  IndexOptions options;
  options.batch_capacity = 16 << 10;
  QueryMetrics metrics;
  auto indexed = *IndexedDataFrame::Create(events, "user", options, &metrics);
  IndexBuild out;
  const CollectedTable scan = *indexed.AsDataFrame().Collect();
  for (const RowVec& row : scan.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.scan.push_back(std::move(line));
  }
  out.shapes = ShapesOf(session, indexed);
  out.totals = InvariantTotals::Of(metrics);
  return out;
}

void ExpectSameBuild(const IndexBuild& got, const IndexBuild& want,
                     uint32_t threads) {
  EXPECT_EQ(got.scan, want.scan) << threads << " threads: scan order";
  EXPECT_EQ(got.shapes, want.shapes) << threads << " threads: batch layout";
  EXPECT_TRUE(got.totals == want.totals) << threads << " threads: metrics";
}

TEST(ShuffleThreadSweepTest, CreateIndexIsByteIdenticalAtEveryThreadCount) {
  const IndexBuild reference = BuildIndex(1, 0);
  ASSERT_EQ(reference.scan.size(), 12000u);
  for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
    ExpectSameBuild(BuildIndex(threads, 0), reference, threads);
  }
}

TEST(ShuffleThreadSweepTest, CreateIndexIsByteIdenticalUnderTightBudget) {
  // A 512 KiB budget makes the governor spill mid-build.
  const IndexBuild reference = BuildIndex(1, 512 << 10);
  EXPECT_EQ(reference.scan, BuildIndex(1, 0).scan);
  for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
    ExpectSameBuild(BuildIndex(threads, 512 << 10), reference, threads);
  }
}

struct AppendChain {
  std::vector<std::string> final_scan;
  uint64_t final_rows;
  std::vector<InvariantTotals> per_append;
};

AppendChain RunAppendChain(uint32_t scheduler_threads) {
  Session session(SweepOptions(scheduler_threads, 0));
  auto base = *session.CreateTable("base", SweepSchema(), SweepRows(6000));
  IndexOptions options;
  options.batch_capacity = 16 << 10;
  IndexedDataFrame head = *IndexedDataFrame::Create(base, "user", options);
  AppendChain out;
  for (int64_t step = 1; step <= 3; ++step) {
    auto delta = *session.CreateTable("delta" + std::to_string(step),
                                      SweepSchema(), SweepRows(1500, step));
    QueryMetrics metrics;
    head = *head.AppendRows(delta, &metrics);
    out.per_append.push_back(InvariantTotals::Of(metrics));
  }
  out.final_scan = head.AsDataFrame().Collect()->SortedRowStrings();
  out.final_rows = head.num_rows();
  return out;
}

TEST(ShuffleThreadSweepTest, ThreeDeepAppendChainIsIdenticalAtEveryThreadCount) {
  const AppendChain reference = RunAppendChain(1);
  ASSERT_EQ(reference.final_rows, 6000u + 3 * 1500u);
  for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
    const AppendChain got = RunAppendChain(threads);
    EXPECT_EQ(got.final_rows, reference.final_rows) << threads << " threads";
    EXPECT_EQ(got.final_scan, reference.final_scan) << threads << " threads";
    ASSERT_EQ(got.per_append.size(), reference.per_append.size());
    for (size_t i = 0; i < reference.per_append.size(); ++i) {
      // COW batch opens and cTrie snapshots are the Fig. 9 costs.
      EXPECT_TRUE(got.per_append[i] == reference.per_append[i])
          << threads << " threads: append " << i << " metrics diverged";
    }
  }
}

struct ShuffledJoin {
  std::vector<std::string> rows;
  InvariantTotals totals;
};

ShuffledJoin RunShuffledJoin(uint32_t scheduler_threads, uint64_t budget) {
  SessionOptions opts = SweepOptions(scheduler_threads, budget);
  opts.broadcast_threshold_bytes = 0;  // force the shuffled probe path
  Session session(opts);
  auto build = *session.CreateTable("build", SweepSchema(), SweepRows(8000));
  auto probe = *session.CreateTable("probe", SweepSchema(), SweepRows(900, 7));
  IndexOptions options;
  options.batch_capacity = 16 << 10;
  auto indexed = *IndexedDataFrame::Create(build, "user", options);
  QueryMetrics metrics;
  auto joined = indexed.Join(probe, "user").Collect(&metrics);
  IDF_CHECK_OK(joined.status());
  return {joined->SortedRowStrings(), InvariantTotals::Of(metrics)};
}

TEST(ShuffleThreadSweepTest, ShuffledJoinIsIdenticalAtEveryThreadCount) {
  const ShuffledJoin reference = RunShuffledJoin(1, 0);
  // Proof this exercised the shuffle path at all.
  EXPECT_GT(reference.totals.index_probes, 0u);
  EXPECT_GT(reference.totals.shuffle_written, 0u);
  EXPECT_EQ(RunShuffledJoin(1, 512 << 10).rows, reference.rows);
  EXPECT_EQ(RunShuffledJoin(kSweepMaxThreads, 512 << 10).rows, reference.rows);
  for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
    const ShuffledJoin got = RunShuffledJoin(threads, 0);
    EXPECT_EQ(got.rows, reference.rows) << threads << " threads";
    EXPECT_TRUE(got.totals == reference.totals) << threads << " threads";
  }
}

SchemaPtr NullableKeySchema() {
  return std::make_shared<Schema>(Schema({
      {"user", TypeId::kInt64, true},
      {"event", TypeId::kInt64, false},
  }));
}

/// Rows whose every fifth key is null.
std::vector<RowVec> NullableKeyRows(int64_t n) {
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64((i * 11) % 97), Value::Int64(i)});
    if (i % 5 == 0) rows.back()[0] = Value::Null(TypeId::kInt64);
  }
  return rows;
}

ShuffledJoin RunVanillaJoin(uint32_t scheduler_threads, JoinType join_type) {
  SessionOptions opts = SweepOptions(scheduler_threads, 0);
  opts.join_mode = JoinExec::Mode::kShuffledHash;
  Session session(opts);
  auto left =
      *session.CreateTable("left", NullableKeySchema(), NullableKeyRows(3000));
  auto right = *session.CreateTable("right", SweepSchema(), SweepRows(900, 7));
  QueryMetrics metrics;
  auto joined = left.Join(right, "user", "user", join_type).Collect(&metrics);
  IDF_CHECK_OK(joined.status());
  ShuffledJoin out{{}, InvariantTotals::Of(metrics)};
  for (const RowVec& row : joined->rows) {  // in result order
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.rows.push_back(std::move(line));
  }
  return out;
}

TEST(ShuffleThreadSweepTest, VanillaShuffledJoinsAreIdenticalAtEveryThreadCount) {
  for (JoinType join_type : {JoinType::kInner, JoinType::kLeftOuter}) {
    SCOPED_TRACE(join_type == JoinType::kInner ? "inner" : "left outer");
    const ShuffledJoin reference = RunVanillaJoin(1, join_type);
    EXPECT_GT(reference.totals.shuffle_written, 0u);
    ASSERT_FALSE(reference.rows.empty());
    // A left-outer join keeps its null-key rows, routed to partition 0.
    const bool has_null_key = std::any_of(
        reference.rows.begin(), reference.rows.end(),
        [](const std::string& row) { return row.starts_with("NULL|"); });
    EXPECT_EQ(has_null_key, join_type == JoinType::kLeftOuter);
    for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
      const ShuffledJoin got = RunVanillaJoin(threads, join_type);
      EXPECT_EQ(got.rows, reference.rows) << threads << " threads";
      EXPECT_TRUE(got.totals == reference.totals) << threads << " threads";
    }
  }
}

/// The shuffled-hash join on typed keys (tests/typed_keys.h): its reduce
/// buckets string and double keys by their codes and verifies each pair.
ShuffledJoin RunTypedKeyShuffledHash(uint32_t scheduler_threads, bool strings,
                                     JoinType join_type) {
  SessionOptions opts = SweepOptions(scheduler_threads, 0);
  opts.join_mode = JoinExec::Mode::kShuffledHash;
  Session session(opts);
  const SchemaPtr schema = TypedKeySchema(strings);
  auto left = *session.CreateTable("left", schema, TypedKeyRows(strings, 30, 0));
  auto right =
      *session.CreateTable("right", schema, TypedKeyRows(strings, 24, 3));
  QueryMetrics metrics;
  auto joined = left.Join(right, "key", "key", join_type).Collect(&metrics);
  IDF_CHECK_OK(joined.status());
  ShuffledJoin out{{}, InvariantTotals::Of(metrics)};
  for (const RowVec& row : joined->rows) {  // in result order
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.rows.push_back(std::move(line));
  }
  return out;
}

TEST(ShuffleThreadSweepTest, ShuffledHashOnStringAndDoubleKeysIsIdenticalAtEveryThreadCount) {
  for (bool strings : {true, false}) {
    for (JoinType join_type : {JoinType::kInner, JoinType::kLeftOuter}) {
      SCOPED_TRACE(::testing::Message()
                   << (strings ? "string" : "double") << " keys, "
                   << (join_type == JoinType::kInner ? "inner" : "left outer"));
      const ShuffledJoin reference =
          RunTypedKeyShuffledHash(1, strings, join_type);
      ASSERT_FALSE(reference.rows.empty());
      for (uint32_t threads = 2; threads <= kSweepMaxThreads; ++threads) {
        const ShuffledJoin got =
            RunTypedKeyShuffledHash(threads, strings, join_type);
        EXPECT_EQ(got.rows, reference.rows) << threads << " threads";
        EXPECT_TRUE(got.totals == reference.totals) << threads << " threads";
      }
    }
  }
}

// Every exchange releases its shuffles when its query fails: each case
// fails one exchange, through an already-cancelled query control or, for
// the aggregations, MIN and MAX of a 600-byte string, whose partial row is
// over the 1 KB row bound so the map tasks fail.
TEST(ShuffleReleaseTest, FailedOrCancelledExchangesReleaseTheirShuffles) {
  const SchemaPtr schema = std::make_shared<Schema>(
      Schema({{"k", TypeId::kInt64, true}, {"v", TypeId::kString, true}}));
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value::Int64(i), Value::String(std::string(600, 'a'))});
  }
  const std::vector<AggSpec> too_wide = {AggSpec::Min("v"), AggSpec::Max("v")};
  using Query = std::function<Status(const DataFrame& table,
                                     const IndexedDataFrame& indexed)>;
  struct Case {
    std::string name;
    JoinExec::Mode join_mode;
    bool cancelled;
    StatusCode expected;
    Query query;
  };
  const auto join = [](const DataFrame& table, const IndexedDataFrame&) {
    return table.Join(table, "k", "k").Collect().status();
  };
  const std::vector<Case> cases = {
      {"shuffled-hash join", JoinExec::Mode::kShuffledHash, true,
       StatusCode::kCancelled, join},
      {"indexed join, shuffle path", JoinExec::Mode::kAuto, true,
       StatusCode::kCancelled,
       [](const DataFrame& table, const IndexedDataFrame& indexed) {
         return indexed.Join(table, "k").Collect().status();
       }},
      {"index build", JoinExec::Mode::kAuto, true, StatusCode::kCancelled,
       [](const DataFrame& table, const IndexedDataFrame&) {
         return IndexedDataFrame::Create(table, "k").status();
       }},
      {"append", JoinExec::Mode::kAuto, true, StatusCode::kCancelled,
       [](const DataFrame& table, const IndexedDataFrame& indexed) {
         return indexed.AppendRows(table).status();
       }},
      {"hash aggregation", JoinExec::Mode::kAuto, false,
       StatusCode::kInvalidArgument,
       [&](const DataFrame& table, const IndexedDataFrame&) {
         return table.Agg({"k"}, too_wide).Collect().status();
       }},
      {"indexed-source aggregation", JoinExec::Mode::kAuto, false,
       StatusCode::kInvalidArgument,
       [&](const DataFrame&, const IndexedDataFrame& indexed) {
         return indexed.AsDataFrame().Agg({"k"}, too_wide).Collect().status();
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SessionOptions opts = Options(2);
    opts.join_mode = c.join_mode;
    opts.broadcast_threshold_bytes = 0;  // joins take their shuffle paths
    Session session(opts);
    auto table = *session.CreateTable("wide", schema, rows);
    auto indexed = *IndexedDataFrame::Create(table, "k");
    const size_t live = session.cluster().shuffle().num_shuffles();
    QueryControl control;
    if (c.cancelled) control.Cancel();
    Status status = Status::OK();
    {
      ScopedQueryControl scope(&control);
      status = c.query(table, indexed);
    }
    EXPECT_EQ(status.code(), c.expected) << status.ToString();
    EXPECT_EQ(session.cluster().shuffle().num_shuffles(), live);
  }
}

}  // namespace
}  // namespace idf
