// Tests for the memory governor (src/mem/governor.h): budget parsing,
// cost-aware LRU eviction ordering, transparent spill/reload, pinning under
// concurrent scans, COW-shared batches spilling once, appends chasing chains
// into spilled batches, per-session budgets producing identical query
// results, and lineage recovery after an executor loss reproducing rows and
// batch bytes while spill files die with their batches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "mem/governor.h"
#include "obs/metrics_registry.h"
#include "storage/row_batch.h"

namespace idf {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::Registry::Global().GetCounter(name).value();
}

double GaugeValue(const std::string& name) {
  return obs::Registry::Global().GetGauge(name).value();
}

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

/// A sealed batch filled with a recognizable byte pattern.
std::shared_ptr<RowBatch> PatternBatch(uint32_t capacity, uint8_t seed) {
  auto batch = RowBatch::Create(capacity);
  const uint32_t len = capacity - 64;
  const uint32_t offset = *batch->Allocate(len);
  uint8_t* dst = batch->MutableData() + offset;
  for (uint32_t i = 0; i < len; ++i) {
    dst[i] = static_cast<uint8_t>(seed + i * 31);
  }
  batch->Seal();
  return batch;
}

bool PatternIntact(const RowBatch& batch, uint8_t seed) {
  mem::AccessScope scope;
  batch.EnsureReadable();
  const uint32_t len = batch.used();
  for (uint32_t i = 0; i < len; ++i) {
    if (batch.data()[i] != static_cast<uint8_t>(seed + i * 31)) return false;
  }
  return true;
}

TEST(ParseByteSizeTest, ParsesSuffixes) {
  EXPECT_EQ(*mem::ParseByteSize("4096"), 4096u);
  EXPECT_EQ(*mem::ParseByteSize("16k"), 16u << 10);
  EXPECT_EQ(*mem::ParseByteSize("256m"), 256u << 20);
  EXPECT_EQ(*mem::ParseByteSize("2G"), 2ull << 30);
  EXPECT_EQ(*mem::ParseByteSize("100kb"), 100u << 10);
  EXPECT_FALSE(mem::ParseByteSize("").ok());
  EXPECT_FALSE(mem::ParseByteSize("12x").ok());
  EXPECT_FALSE(mem::ParseByteSize("lots").ok());
  // std::stoull would wrap "-1" to UINT64_MAX; sizes must start with a digit.
  EXPECT_FALSE(mem::ParseByteSize("-1").ok());
  EXPECT_FALSE(mem::ParseByteSize("-1g").ok());
  EXPECT_FALSE(mem::ParseByteSize("+1").ok());
  EXPECT_FALSE(mem::ParseByteSize(" 1").ok());
}

TEST(MemGovernorTest, EvictsLeastRecentlyUsedSealedBatch) {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  auto b0 = PatternBatch(64 << 10, 1);
  auto b1 = PatternBatch(64 << 10, 2);
  auto b2 = PatternBatch(64 << 10, 3);

  // Engage with a roomy budget first so LRU touches register, then shrink
  // to force exactly one eviction.
  mem::ScopedBudget roomy(gov.resident_bytes() + (1 << 20));
  {
    mem::AccessScope scope;
    b0->EnsureReadable();
    b2->EnsureReadable();
  }
  const uint64_t evictions_before = CounterValue("mem.evictions");
  mem::ScopedBudget tight(gov.resident_bytes() - 1);

  EXPECT_EQ(CounterValue("mem.evictions"), evictions_before + 1);
  EXPECT_TRUE(b0->resident());
  EXPECT_FALSE(b1->resident());  // never touched => oldest => victim
  EXPECT_TRUE(b2->resident());
  EXPECT_GT(gov.spilled_bytes(), 0u);
}

TEST(MemGovernorTest, EvictedBatchReloadsTransparentlyAndIntact) {
  auto batch = PatternBatch(64 << 10, 42);
  const uint64_t faults_before = CounterValue("mem.reload_faults");
  {
    mem::ScopedBudget tight(1);
    EXPECT_FALSE(batch->resident());
    // Reading through EnsureReadable faults the payload back in.
    EXPECT_TRUE(PatternIntact(*batch, 42));
    EXPECT_TRUE(batch->resident());
    EXPECT_EQ(CounterValue("mem.reload_faults"), faults_before + 1);

    // Re-evict: the payload is immutable, so the existing spill file is
    // reused — bytes are freed without a second write.
    const uint64_t written_before = CounterValue("mem.spill.write_bytes");
    mem::MemoryGovernor::Global().EnforceBudget();
    EXPECT_FALSE(batch->resident());
    EXPECT_EQ(CounterValue("mem.spill.write_bytes"), written_before);
    EXPECT_TRUE(PatternIntact(*batch, 42));
  }
}

TEST(MemGovernorTest, PinnedBatchesAreNeverEvicted) {
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  auto batch = PatternBatch(64 << 10, 7);
  mem::ScopedBudget roomy(gov.resident_bytes() + (1 << 20));
  {
    mem::AccessScope scope;
    batch->EnsureReadable();  // pinned for the scope's lifetime
    const uint64_t blocks_before = CounterValue("mem.pin_blocks");
    mem::ScopedBudget tight(1);
    EXPECT_TRUE(batch->resident());  // budget overcommitted, but pinned
    EXPECT_GT(CounterValue("mem.pin_blocks"), blocks_before);
    // Scope still open: the data stays readable without any reload.
    EXPECT_TRUE(PatternIntact(*batch, 7));
    EXPECT_TRUE(batch->resident());

    // Once the pin drops, the same budget evicts it.
  }
  mem::ScopedBudget tight(1);
  EXPECT_FALSE(batch->resident());
}

TEST(MemGovernorTest, PayloadDyingInsideItsPinningScopeIsForgotten) {
  // The last owner of a pinned payload may die while the scope that pinned
  // it is still open (a scope declared before the owning pointer). Closing
  // the scope must not unpin the freed payload (under ASan: no
  // heap-use-after-free) and must still release its other pins.
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  auto survivor = PatternBatch(64 << 10, 8);
  mem::ScopedBudget roomy(gov.resident_bytes() + (1 << 20));
  {
    mem::AccessScope scope;
    auto doomed = PatternBatch(64 << 10, 9);
    doomed->EnsureReadable();
    survivor->EnsureReadable();
    EXPECT_TRUE(PatternIntact(*doomed, 9));
    doomed.reset();  // last owner dies; the scope is still open
  }
  mem::ScopedBudget tight(1);
  EXPECT_FALSE(survivor->resident());
}

TEST(MemGovernorTest, ScopelessAccessTakesTransientPin) {
  // Access without an AccessScope must still protect the pointer the caller
  // is reading: a transient pin — held until the thread's next scope-less
  // pin — blocks eviction even when a same-thread allocation pushes
  // residency over budget between the access and the read.
  auto batch = PatternBatch(64 << 10, 5);
  mem::ScopedBudget tight(batch->padded_bytes() + 1);
  ASSERT_TRUE(batch->resident());
  batch->EnsureReadable();  // no scope active: takes the transient pin
  auto other = PatternBatch(64 << 10, 6);  // allocation forces enforcement
  EXPECT_TRUE(batch->resident());  // data() is still safe to read here
  // The next scope-less access on this thread hands the pin over.
  other->EnsureReadable();
  mem::MemoryGovernor::Global().EnforceBudget();
  EXPECT_FALSE(batch->resident());
  EXPECT_TRUE(other->resident());
}

TEST(MemGovernorTest, ResidentGaugeTracksBudget) {
  auto b0 = PatternBatch(64 << 10, 1);
  auto b1 = PatternBatch(64 << 10, 2);
  auto b2 = PatternBatch(64 << 10, 3);
  const uint64_t budget = b0->padded_bytes() + 1;
  mem::ScopedBudget tight(budget);
  EXPECT_LE(mem::MemoryGovernor::Global().resident_bytes(), budget);
  EXPECT_LE(GaugeValue("mem.resident_bytes"), static_cast<double>(budget));
  EXPECT_EQ(GaugeValue("mem.budget_bytes"), static_cast<double>(budget));
  EXPECT_GT(GaugeValue("mem.spilled_bytes"), 0.0);
}

TEST(MemGovernorTest, StorageGaugesTrackBatchLifecycle) {
  const double batches_before = GaugeValue("storage.num_batches");
  const double resident_before = GaugeValue("storage.resident_bytes");
  {
    auto batch = PatternBatch(64 << 10, 9);
    EXPECT_EQ(GaugeValue("storage.num_batches"), batches_before + 1);
    EXPECT_EQ(GaugeValue("storage.resident_bytes"),
              resident_before + static_cast<double>(batch->padded_bytes()));
    // Eviction frees the buffer: resident drops while the batch count
    // (the disk-backed stub still exists) does not.
    mem::ScopedBudget tight(1);
    EXPECT_EQ(GaugeValue("storage.num_batches"), batches_before + 1);
    EXPECT_EQ(GaugeValue("storage.resident_bytes"), resident_before);
  }
  EXPECT_EQ(GaugeValue("storage.num_batches"), batches_before);
  EXPECT_EQ(GaugeValue("storage.resident_bytes"), resident_before);
}

TEST(MemGovernorTest, CowSharedBatchSpillsOnceAndReloadsOnce) {
  // A snapshot shares the sealed tail between two versions; the shared
  // batch is one Evictable, so it spills once and a reload through either
  // version serves both.
  IndexedPartition part(EdgeSchema(), 0, 16 << 10);
  for (int64_t i = 0; i < 200; ++i) {
    IDF_CHECK_OK(part.InsertRow(Edge(i % 10, i)));
  }
  std::shared_ptr<IndexedPartition> snap = part.Snapshot();

  const uint64_t faults_before = CounterValue("mem.reload_faults");
  mem::ScopedBudget tight(1);
  ASSERT_GT(CounterValue("mem.evictions"), 0u);

  const std::vector<RowVec> from_parent = part.LookupRows(Value::Int64(3));
  const uint64_t faults_after_parent = CounterValue("mem.reload_faults");
  EXPECT_GT(faults_after_parent, faults_before);

  // The snapshot walks the same shared batches: already reloaded, so no
  // further faults.
  const std::vector<RowVec> from_snap = snap->LookupRows(Value::Int64(3));
  EXPECT_EQ(CounterValue("mem.reload_faults"), faults_after_parent);

  ASSERT_EQ(from_parent.size(), 20u);
  ASSERT_EQ(from_snap.size(), from_parent.size());
  for (size_t i = 0; i < from_parent.size(); ++i) {
    EXPECT_EQ(from_parent[i], from_snap[i]);
  }
}

TEST(MemGovernorTest, ConcurrentScansUnderTightBudgetStayCorrect) {
  // Readers pin chain batches while the governor churns evictions under a
  // 1-byte budget (every fault-in immediately re-evicts something). Each
  // lookup must still see all of its rows.
  IndexedPartition part(EdgeSchema(), 0, 8 << 10);
  constexpr int64_t kKeys = 16;
  constexpr int64_t kRowsPerKey = 40;
  for (int64_t r = 0; r < kRowsPerKey; ++r) {
    for (int64_t k = 0; k < kKeys; ++k) {
      IDF_CHECK_OK(part.InsertRow(Edge(k, r)));
    }
  }
  std::shared_ptr<IndexedPartition> snap = part.Snapshot();

  mem::ScopedBudget tight(1);
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 25; ++iter) {
        const int64_t key = (t * 25 + iter) % kKeys;
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
  // Extra churn: keep forcing enforcement while readers fault batches in.
  std::thread evictor([&] {
    for (int i = 0; i < 200; ++i) mem::MemoryGovernor::Global().EnforceBudget();
  });
  for (std::thread& t : readers) t.join();
  evictor.join();
  EXPECT_EQ(failures.load(), 0);
}

SchemaPtr MixedSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"name", TypeId::kString, true},
      {"score", TypeId::kFloat64, true},
  }));
}

TEST(MemGovernorTest, AppendsAfterEvictionMatchUnboundedRun) {
  // Two identical partitions; one lives under a tight budget with appends
  // landing after its earlier batches were spilled. Results must match the
  // unbounded twin exactly.
  auto build = [](IndexedPartition& part, int64_t from, int64_t to) {
    for (int64_t i = from; i < to; ++i) {
      IDF_CHECK_OK(part.InsertRow({Value::Int64(i % 50),
                                   Value::String("v" + std::to_string(i)),
                                   Value::Float64(i)}));
    }
  };
  IndexedPartition unbounded(MixedSchema(), 0, 16 << 10);
  build(unbounded, 0, 1500);
  build(unbounded, 1500, 2000);

  IndexedPartition budgeted(MixedSchema(), 0, 16 << 10);
  build(budgeted, 0, 1500);
  budgeted.Snapshot();  // seal, making the first 1500 rows evictable
  {
    mem::ScopedBudget tight(1);
    // Appends chase back-pointers into evicted batches: each insert must
    // transparently fault the chain head's batch back in.
    build(budgeted, 1500, 2000);
    for (int64_t k = 0; k < 50; ++k) {
      auto expected = unbounded.LookupRows(Value::Int64(k));
      auto actual = budgeted.LookupRows(Value::Int64(k));
      ASSERT_EQ(actual.size(), expected.size()) << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i]);
      }
    }
  }
}

SessionOptions ClusterOptions(uint64_t budget = 0) {
  // These session tests pin an exact budget through ClusterConfig; an
  // externally imposed IDF_MEMORY_BUDGET (which by design overrides the
  // config) would change the eviction pattern under test.
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.memory_budget_bytes = budget;
  opts.default_partitions = 4;
  return opts;
}

std::vector<RowVec> DenseEdges(int64_t n) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Edge(i % 97, i, 0.25 * static_cast<double>(i)));
  }
  return rows;
}

TEST(MemBudgetedSessionTest, HalfBudgetProducesIdenticalResults) {
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;  // many sealed batches

  // Reference run: unbounded (budget 0 never evicts).
  std::vector<std::string> expected_join;
  size_t expected_hits = 0;
  uint64_t working_set = 0;
  {
    Session session(ClusterOptions());
    auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
    auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
    auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
    working_set = mem::MemoryGovernor::Global().resident_bytes();
    expected_hits = indexed.GetRows(Value::Int64(13)).value().rows.size();
    expected_join = indexed.Join(probe, "src").Collect()->SortedRowStrings();
  }
  ASSERT_GT(working_set, 0u);

  // Budgeted run at half the working set: every result must be identical,
  // and residency must respect the budget (asserted via the exported gauge).
  const uint64_t budget = working_set / 2;
  Session session(ClusterOptions(budget));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto probe = *session.CreateTable("probe", EdgeSchema(), DenseEdges(300));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  EXPECT_GT(CounterValue("mem.evictions"), 0u);

  EXPECT_EQ(indexed.GetRows(Value::Int64(13)).value().rows.size(),
            expected_hits);
  EXPECT_EQ(indexed.Join(probe, "src").Collect()->SortedRowStrings(),
            expected_join);

  mem::MemoryGovernor::Global().EnforceBudget();
  EXPECT_LE(GaugeValue("mem.resident_bytes"), static_cast<double>(budget));
}

TEST(MemBudgetedSessionTest, DroppedResultTakesItsSpillFilesAndRegistrations) {
  // A query result forced out to disk: once its handle drops, the chunks
  // retire from the governor and their seg-*.spill files are deleted.
  Session session(ClusterOptions(64 << 20));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(4000));
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  auto spill_files = [&gov] {
    std::set<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(gov.spill_dir())) {
      if (entry.path().extension() == ".spill") {
        files.insert(entry.path().string());
      }
    }
    return files;
  };
  auto registered = [&gov](uint64_t rdd) {
    size_t shards = 0;
    for (const auto& [key, info] : gov.ResidencySnapshot()) {
      if (key.first == rdd) ++shards;
    }
    return shards;
  };

  uint64_t rdd = 0;
  std::set<std::string> result_files;
  {
    const TableHandle result =
        *edges.Filter(Gt(Col("weight"), Lit(100.0))).Execute();
    rdd = result.rdd_id;
    ASSERT_GT(registered(rdd), 0u);
    const std::set<std::string> before = spill_files();
    size_t evicted = 0;
    for (uint32_t p = 0; p < result.num_partitions; ++p) {
      evicted += gov.EvictPartition(rdd, p);
    }
    ASSERT_GT(evicted, 0u);
    for (const std::string& file : spill_files()) {
      if (before.count(file) == 0) result_files.insert(file);
    }
    ASSERT_EQ(result_files.size(), evicted);
  }
  EXPECT_EQ(registered(rdd), 0u);
  for (const std::string& file : result_files) {
    EXPECT_FALSE(std::filesystem::exists(file)) << file;
  }
  // The cached table the result came from is untouched.
  EXPECT_EQ(*edges.Count(), 4000u);
}

size_t SpillFileCount() {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           mem::MemoryGovernor::Global().spill_dir())) {
    if (entry.path().extension() == ".spill") ++files;
  }
  return files;
}

TEST(MemGovernorTest, ExecutorLossCyclesKeepSpillDirFlat) {
  // A spill file dies with its batch: a lost partition recomputes from
  // lineage, so the lost instance's spill files go with its blocks, and
  // kill/revive cycles leave the spill directory no larger than the build.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  Session session(ClusterOptions(256 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  const std::vector<std::string> clean =
      indexed.AsDataFrame().Collect()->SortedRowStrings();
  { mem::ScopedBudget drain(1); }
  const size_t after_build = SpillFileCount();
  ASSERT_GT(after_build, 0u);

  for (int cycle = 0; cycle < 6; ++cycle) {
    const std::vector<ExecutorId> lost =
        cycle % 2 == 0 ? std::vector<ExecutorId>{1, 2}
                       : std::vector<ExecutorId>{0, 3};
    for (ExecutorId e : lost) session.cluster().KillExecutor(e);
    EXPECT_EQ(indexed.AsDataFrame().Collect()->SortedRowStrings(), clean)
        << "cycle " << cycle;
    { mem::ScopedBudget drain(1); }
    for (ExecutorId e : lost) session.cluster().ReviveExecutor(e);
    EXPECT_LE(SpillFileCount(), after_build) << "cycle " << cycle;
  }
}

TEST(MemGovernorTest, RepeatedRecomputeAfterAppendKeepsRowsExact) {
  // Recompute replays the append chain into the same store as the re-routed
  // base rows. A partition rebuilt that way, spilled, and lost again must
  // recompute to the same rows: no append row duplicated, no base row
  // dropped.
  constexpr int64_t kRows = 12000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  Session session(ClusterOptions(192 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  // Append rows distinct from every base row, so a duplicated append or a
  // dropped base row cannot cancel out in the comparison below.
  std::vector<RowVec> appends;
  for (int64_t i = 0; i < 2000; ++i) {
    appends.push_back(Edge(i % 97, (1 << 20) + i, 0.5));
  }
  auto extra = *session.CreateTable("extra", EdgeSchema(), appends);
  auto base = *IndexedDataFrame::Create(edges, "src", index_options);
  auto appended = *base.AppendRows(extra);
  ASSERT_GT(CounterValue("mem.evictions"), 0u);

  const std::vector<std::string> expected =
      appended.AsDataFrame().Collect()->SortedRowStrings();

  // First loss: every lost partition recomputes (base re-route + append
  // replay), and the rebuilt batches spill.
  session.cluster().KillExecutor(1);
  EXPECT_EQ(appended.AsDataFrame().Collect()->SortedRowStrings(), expected);
  { mem::ScopedBudget drain(1); }

  // Second loss, aimed at the executor the first round's recomputed blocks
  // landed on.
  session.cluster().ReviveExecutor(1);
  session.cluster().KillExecutor(0);
  session.cluster().KillExecutor(2);
  session.cluster().KillExecutor(3);
  EXPECT_EQ(appended.AsDataFrame().Collect()->SortedRowStrings(), expected);
}

/// Each row batch of `part`, as bytes (back-pointer headers included).
std::vector<std::vector<uint8_t>> BatchBytes(const IndexedPartition& part) {
  std::vector<std::vector<uint8_t>> batches;
  part.ForEachBatch([&](const uint8_t* data, uint32_t used) {
    batches.emplace_back(data, data + used);
  });
  return batches;
}

TEST(MemGovernorTest, RecomputeRebuildsBaseAndAppendedBatchesByteIdentical) {
  // Recompute reproduces the build's batch layout byte for byte, back
  // pointers included, at version 0 and at an appended version: the base
  // rows are inserted as the build's reduce task inserted them, and the
  // tail is sealed before the first replayed append row lands.
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;
  Session session(ClusterOptions(64 << 20));  // engaged; nothing spills
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 12000; ++i) rows.push_back(Edge(i % 13, i, 0.5 * i));
  std::vector<RowVec> appends;
  for (int64_t i = 0; i < 3000; ++i) {
    appends.push_back(Edge(1000 + i, (1 << 20) + i, 0.5));
  }
  auto edges = *session.CreateTable("edges", EdgeSchema(), rows);
  auto extra = *session.CreateTable("extra", EdgeSchema(), appends);
  auto base = *IndexedDataFrame::Create(edges, "src", index_options);
  auto appended = *base.AppendRows(extra);
  ASSERT_EQ(CounterValue("mem.evictions"), 0u);

  const std::shared_ptr<IndexedRdd>& rdd = base.rdd();
  const std::vector<uint64_t> versions = {base.version(), appended.version()};
  // Batch bytes of every (version, partition), in that order.
  auto snapshot = [&] {
    std::vector<std::vector<std::vector<uint8_t>>> bytes;
    TaskContext ctx(&session.cluster(), session.cluster().AliveExecutors()[0]);
    for (uint64_t version : versions) {
      for (uint32_t p = 0; p < rdd->num_partitions(); ++p) {
        bytes.push_back(BatchBytes(**rdd->GetPartition(p, version, ctx)));
      }
    }
    return bytes;
  };
  const auto original = snapshot();
  size_t lost = 0;
  for (uint64_t version : versions) {
    for (uint32_t p = 0; p < rdd->num_partitions(); ++p) {
      const auto home = session.cluster().blocks().LocationOf(
          BlockId{rdd->rdd_id(), p, version});
      ASSERT_TRUE(home.has_value());
      if (*home == 1 || *home == 2) ++lost;
    }
  }
  ASSERT_GT(lost, 0u);

  session.cluster().KillExecutor(1);
  session.cluster().KillExecutor(2);
  const auto rebuilt = snapshot();
  ASSERT_EQ(rebuilt.size(), original.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_TRUE(rebuilt[i] == original[i])
        << "version " << versions[i / rdd->num_partitions()] << " partition "
        << i % rdd->num_partitions();
  }
}

TEST(MemGovernorTest, LostSpillFileFailsTheQueryInsteadOfAborting) {
  // An external tmp cleaner (or disk fault) removing spill files must not
  // crash the process: the reload failure unwinds as mem::ReloadFault, the
  // task boundary converts it to a kUnavailable status, and the query
  // surfaces the error.
  constexpr int64_t kRows = 20000;
  IndexOptions index_options;
  index_options.batch_capacity = 16 << 10;

  Session session(ClusterOptions(128 << 10));
  auto edges = *session.CreateTable("edges", EdgeSchema(), DenseEdges(kRows));
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  ASSERT_GT(CounterValue("mem.evictions"), 0u);

  // Truncate every spill file behind the governor's back. (Unlinking is not
  // enough of a test on POSIX-like semantics anyway; a short read is the
  // same failure class.)
  size_t clobbered = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           mem::MemoryGovernor::Global().spill_dir())) {
    if (entry.path().extension() == ".spill") {
      std::filesystem::resize_file(entry.path(), 0);
      ++clobbered;
    }
  }
  ASSERT_GT(clobbered, 0u);

  const auto result = indexed.AsDataFrame().Collect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace idf
