// Deterministic memory-pressure harness (tests/pressure_test.cpp).
//
// The mem_test suite provokes pressure organically (tight budgets, file
// truncation); this suite drives the chaos engine's scripted hooks
// (chaos::ChaosHooks, src/testing/chaos.h) to place evictions, reload
// failures, and fault-in delays at *exact* points in an execution:
//  - on_task_start fires at every task boundary (Cluster::ExecuteTask),
//    without governor locks — force-evicting between tasks is deterministic
//    no matter how the scheduler interleaves threads;
//  - on_reload is consulted before every payload reload (the demand
//    fault-in, the only reload path), with a global 1-based ordinal —
//    failing the Nth reload or delaying every fault-in needs no filesystem
//    tricks.
// Scenarios: evict-everything-between-tasks, Nth-reload demand failure (a
// scan and a GetRows each fail kUnavailable, then succeed once the fault
// passes), delayed fault-in under concurrent scans, and double executor
// loss with forced eviction (lineage recompute under maximum pressure).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "sql/session.h"
#include "testing/chaos.h"

namespace idf {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).value();
}

/// Installs hooks for the enclosing scope and always clears them on exit —
/// leaked hooks would make every later test in the process nondeterministic.
class ScopedHooks {
 public:
  explicit ScopedHooks(chaos::ChaosHooks hooks) {
    chaos::ChaosEngine::SetHooks(std::move(hooks));
  }
  ~ScopedHooks() { chaos::ChaosEngine::SetHooks({}); }
  ScopedHooks(const ScopedHooks&) = delete;
  ScopedHooks& operator=(const ScopedHooks&) = delete;
};

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"src", TypeId::kInt64, false},
      {"dst", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
  }));
}

RowVec Edge(int64_t src, int64_t dst, double w = 1.0) {
  return {Value::Int64(src), Value::Int64(dst), Value::Float64(w)};
}

std::vector<RowVec> DenseEdges(int64_t n) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Edge(i % 97, i, 0.25 * static_cast<double>(i)));
  }
  return rows;
}

SessionOptions ClusterOptions(uint64_t budget = 0) {
  // The harness pins exact budgets through ClusterConfig; an external
  // IDF_MEMORY_BUDGET (which by design overrides the config) would change
  // the pressure pattern under test.
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.memory_budget_bytes = budget;
  opts.default_partitions = 4;
  return opts;
}

/// The hook body for maximum deterministic pressure: force-evict every
/// governed, unpinned payload of every (owner, shard) at a task boundary.
size_t EvictEverything() {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  size_t evicted = 0;
  for (const auto& [key, info] : gov.ResidencySnapshot()) {
    evicted += gov.EvictPartition(key.first, key.second);
  }
  return evicted;
}

TEST(PressureTest, EvictEverythingBetweenTasksKeepsResultsIdentical) {
  constexpr int64_t kRows = 8000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  // Reference run: no budget, no hooks.
  std::vector<std::string> expected_join;
  size_t expected_hits = 0;
  {
    Session session(ClusterOptions());
    auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
    auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    expected_hits = indexed.GetRows(Value::Int64(13)).value().rows.size();
    expected_join = indexed.Join(probe, "src").Collect()->SortedRowStrings();
  }

  // Pressured run: before EVERY task body, evict every governed payload.
  // Each task demand-faults its own working set back in; results must not
  // change by a byte.
  Session session(ClusterOptions(512 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);

  std::atomic<uint64_t> forced{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&forced] { forced += EvictEverything(); };
  ScopedHooks guard(std::move(hooks));

  EXPECT_EQ(indexed.GetRows(Value::Int64(13)).value().rows.size(),
            expected_hits);
  EXPECT_EQ(indexed.Join(probe, "src").Collect()->SortedRowStrings(),
            expected_join);
  EXPECT_GT(forced.load(), 0u);
}

TEST(PressureTest, NthDemandReloadFailureFailsQueryThenRecovers) {
  // Port of MemGovernorTest.LostSpillFileFailsTheQueryInsteadOfAborting onto
  // the harness: instead of truncating spill files on disk, fail one demand
  // reload by ordinal. The query must fail kUnavailable (ReloadFault caught
  // at the task boundary) — and succeed once the fault has passed, because
  // nothing on disk was actually harmed.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  std::vector<std::string> expected;
  std::vector<std::string> expected_lookup;
  {
    Session session(ClusterOptions());
    auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    expected = indexed.AsDataFrame().Collect()->SortedRowStrings();
    expected_lookup = indexed.GetRows(Value::Int64(5))->SortedRowStrings();
  }

  Session session(ClusterOptions(128 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  ASSERT_GT(CounterValue("mem.evictions"), 0u);

  // The hook keeps its own count beside the ordinal so the lookup below can
  // re-arm it: exactly the first fault-in after each arming fails.
  std::atomic<uint64_t> demand_reloads{0};
  chaos::ChaosHooks hooks;
  hooks.on_reload = [&demand_reloads](uint64_t, uint32_t, uint32_t,
                                      uint64_t ordinal) {
    if (demand_reloads.fetch_add(1) == 0) {
      return Status::Unavailable("injected reload failure (ordinal " +
                                 std::to_string(ordinal) + ")");
    }
    return Status::OK();
  };
  ScopedHooks guard(std::move(hooks));

  const auto failed = indexed.AsDataFrame().Collect();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(demand_reloads.load(), 1u);

  // The fault was transient: the very next run reloads cleanly and matches
  // the unbudgeted reference.
  EXPECT_EQ(indexed.AsDataFrame().Collect()->SortedRowStrings(), expected);

  // A point lookup walks its key's chain across the partition's batches,
  // most of them evicted, inside the lookup's stage task: a failed reload
  // there fails GetRows the same way, and the next lookup recovers.
  demand_reloads = 0;
  const auto failed_lookup = indexed.GetRows(Value::Int64(5));
  ASSERT_FALSE(failed_lookup.ok());
  EXPECT_EQ(failed_lookup.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(indexed.GetRows(Value::Int64(5))->SortedRowStrings(),
            expected_lookup);
}

TEST(PressureTest, DelayedFaultInUnderConcurrentScansStaysCorrect) {
  // Port of MemGovernorTest.ConcurrentScansUnderTightBudgetStayCorrect with
  // the harness widening the eviction/reload race: every reload sleeps
  // inside the governor lock, so concurrent readers of the same payload
  // pile up behind in-flight fault-ins far more often than they would
  // naturally. Every lookup must still see all of its rows.
  ::unsetenv("IDF_MEMORY_BUDGET");
  IndexedPartition part(EdgeSchema(), 0, 8 << 10);
  constexpr int64_t kKeys = 16;
  constexpr int64_t kRowsPerKey = 40;
  for (int64_t r = 0; r < kRowsPerKey; ++r) {
    for (int64_t k = 0; k < kKeys; ++k) {
      IDF_CHECK_OK(part.InsertRow(Edge(k, r)));
    }
  }
  std::shared_ptr<IndexedPartition> snap = part.Snapshot();

  chaos::ChaosHooks hooks;
  hooks.on_reload = [](uint64_t, uint32_t, uint32_t, uint64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Status::OK();
  };
  ScopedHooks guard(std::move(hooks));

  mem::ScopedBudget tight(1);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 15; ++iter) {
        const int64_t key = (t * 15 + iter) % kKeys;
        const auto rows = snap->LookupRows(Value::Int64(key));
        if (rows.size() != static_cast<size_t>(kRowsPerKey)) {
          failures.fetch_add(1);
          continue;
        }
        for (const RowVec& row : rows) {
          if (row[0] != Value::Int64(key)) failures.fetch_add(1);
        }
      }
    });
  }
  std::thread evictor([&] {
    for (int i = 0; i < 100; ++i) mem::MemoryGovernor::Global().EnforceBudget();
  });
  for (std::thread& t : readers) t.join();
  evictor.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PressureTest, DoubleExecutorLossWithForcedEvictionStillRecovers) {
  // Executor loss with the screws tightened: every task boundary of the
  // recovery itself force-evicts everything, so recompute runs against a
  // cache that keeps vanishing under it. Lineage recompute plus demand
  // fault-in must still reproduce the exact rows.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  Session session(ClusterOptions(256 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  ASSERT_GT(CounterValue("mem.evictions"), 0u);

  const auto before = indexed.GetRows(Value::Int64(29)).value();
  ASSERT_FALSE(before.rows.empty());

  // Precondition for `forced`: a partition homed on an executor that
  // survives the kills is resident when the recovery task starts. A lookup
  // on one of its keys faults the batch holding that key's rows in as the
  // most recently used payload.
  const uint64_t rdd = indexed.rdd()->rdd_id();
  const uint32_t lost_partition =
      indexed.rdd()->PartitionOf(IndexKeyCode(Value::Int64(29)));
  int64_t survivor_key = -1;
  uint32_t survivor_partition = 0;
  for (int64_t key = 0; key < 97 && survivor_key < 0; ++key) {
    const uint32_t p =
        indexed.rdd()->PartitionOf(IndexKeyCode(Value::Int64(key)));
    const auto home =
        session.cluster().blocks().LocationOf(BlockId{rdd, p, 0});
    if (p != lost_partition && home.has_value() && *home != 1 && *home != 2) {
      survivor_key = key;
      survivor_partition = p;
    }
  }
  ASSERT_GE(survivor_key, 0);
  ASSERT_FALSE(
      indexed.GetRows(Value::Int64(survivor_key)).value().rows.empty());
  const auto residency = mem::MemoryGovernor::Global().ResidencySnapshot();
  const auto survivor = residency.find({rdd, survivor_partition});
  ASSERT_NE(survivor, residency.end());
  ASSERT_GT(survivor->second.resident_bytes, 0u);

  std::atomic<uint64_t> forced{0};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&forced] { forced += EvictEverything(); };
  ScopedHooks guard(std::move(hooks));

  // The lost partition's batches are on disk when its executor dies (the
  // lookup of key 29 above faulted in the batch holding that key's rows).
  ASSERT_GT(mem::MemoryGovernor::Global().EvictPartition(rdd, lost_partition),
            0u);
  session.cluster().KillExecutor(1);
  session.cluster().KillExecutor(2);
  const auto after = indexed.GetRows(Value::Int64(29)).value();

  ASSERT_EQ(after.rows.size(), before.rows.size());
  for (size_t i = 0; i < after.rows.size(); ++i) {
    EXPECT_EQ(after.rows[i], before.rows[i]);
  }
  EXPECT_GT(forced.load(), 0u);
}

}  // namespace
}  // namespace idf
