// Pipelined execution (sql/physical.h): narrow operators and the partial
// aggregate run inside their producer's tasks, so nothing between a
// producer and a fused Filter, Project or partial aggregate is
// materialized; an indexed source's row blocks reach the partial aggregate
// undecoded; results stay byte-identical at every scheduler thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/indexed_dataframe.h"
#include "sql/session.h"
#include "testing/chaos.h"

namespace idf {
namespace {

constexpr uint32_t kMaxThreads = 5;

SessionOptions Options(uint32_t scheduler_threads, uint64_t budget) {
  ::unsetenv("IDF_MEMORY_BUDGET");
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.cluster.scheduler_threads = scheduler_threads;
  opts.cluster.memory_budget_bytes = budget;
  opts.default_partitions = 4;
  opts.broadcast_threshold_bytes = 0;  // the indexed join takes its shuffle
  return opts;
}

SchemaPtr EdgeSchema() {
  return std::make_shared<Schema>(Schema({
      {"edge_source", TypeId::kInt64, false},
      {"edge_dest", TypeId::kInt64, false},
      {"creation_date", TypeId::kInt64, false},
      {"weight", TypeId::kFloat64, true},
      {"label", TypeId::kString, false},
  }));
}

std::vector<RowVec> EdgeRows(int64_t n) {
  std::vector<RowVec> rows;
  rows.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i % 499), Value::Int64((i * 31) % 1009),
                    Value::Int64(1000 + i), Value::Float64(0.1 * (i % 97)),
                    Value::String("edge-" + std::to_string(i % 13))});
    if (i % 11 == 0) rows.back()[3] = Value::Null(TypeId::kFloat64);
  }
  return rows;
}

SchemaPtr ProbeSchema() {
  return std::make_shared<Schema>(Schema({
      {"p_source", TypeId::kInt64, false},
      {"p_date", TypeId::kInt64, false},
  }));
}

std::vector<RowVec> ProbeRows(int64_t n) {
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64((i * 7) % 600), Value::Int64(i)});
  }
  return rows;
}

/// An indexed edge table and a probe table on one session.
struct Fixture {
  explicit Fixture(uint32_t threads, uint64_t budget = 0, int64_t edges = 6000)
      : session(Options(threads, budget)) {
    IndexOptions options;
    options.batch_capacity = 16 << 10;  // several row batches per partition
    auto table = *session.CreateTable("edges", EdgeSchema(), EdgeRows(edges));
    indexed = *IndexedDataFrame::Create(table, "edge_source", options);
    probe = *session.CreateTable("probe", ProbeSchema(), ProbeRows(300));
  }

  DataFrame FilterProject() const {  // SQ5's shape
    return indexed.AsDataFrame()
        .Filter(Gt(Col("creation_date"), Lit(int64_t{4000})))
        .Select({"creation_date", "weight"});
  }
  DataFrame ProjectAgg() const {  // SQ6's shape
    return indexed.AsDataFrame()
        .Select({"edge_dest", "weight"})
        .Agg({}, {AggSpec::Count("messages"), AggSpec::Avg("weight")});
  }
  DataFrame FilterProjectAgg() const {
    return indexed.AsDataFrame()
        .Filter(Gt(Col("creation_date"), Lit(int64_t{2500})))
        .Select({"label", "weight", "edge_dest"})
        .Agg({"label"}, {AggSpec::Count("n"), AggSpec::Sum("weight"),
                         AggSpec::Min("edge_dest"), AggSpec::Avg("weight")});
  }
  DataFrame JoinAgg() const {
    return indexed.Join(probe, "p_source")
        .Agg({}, {AggSpec::Count("pairs"), AggSpec::Sum("edge_dest"),
                  AggSpec::Sum("p_date"), AggSpec::Sum("weight")});
  }

  Session session;
  IndexedDataFrame indexed;
  DataFrame probe;
};

std::vector<std::string> RowStrings(const CollectedTable& table) {
  std::vector<std::string> out;
  for (const RowVec& row : table.rows) {  // in result order
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

// ---- no intermediate blocks ---------------------------------------------------

/// Runs `df` with a task-boundary hook that samples the block manager, and
/// returns the most blocks it held at any task start minus the blocks
/// before the query. `result` receives the query's (still held) table.
size_t PeakBlocksAdded(Session& session, const DataFrame& df,
                       TableHandle* result, QueryMetrics* metrics) {
  BlockManager& blocks = session.cluster().blocks();
  const size_t before = blocks.NumBlocks();
  std::atomic<size_t> peak{before};
  chaos::ChaosHooks hooks;
  hooks.on_task_start = [&] {
    const size_t now = blocks.NumBlocks();
    size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
  };
  chaos::ChaosEngine::SetHooks(std::move(hooks));
  Result<TableHandle> handle = df.Execute(metrics);
  chaos::ChaosEngine::SetHooks({});
  IDF_CHECK_OK(handle.status());
  *result = *handle;
  EXPECT_EQ(blocks.NumBlocks(), before + handle->num_partitions);
  return std::max(peak.load(), blocks.NumBlocks()) - before;
}

TEST(PipelineTest, FusedOperatorsMaterializeOnlyTheirResult) {
  // An 8 MB budget keeps the governor engaged, as under the CI budget legs.
  Fixture fx(2, 8 << 20);
  struct Case {
    const char* name;
    DataFrame df;
  };
  const std::vector<Case> cases = {{"filter-project", fx.FilterProject()},
                                   {"project-aggregate", fx.ProjectAgg()},
                                   {"indexed join-aggregate", fx.JoinAgg()}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TableHandle result;
    QueryMetrics metrics;
    const size_t added = PeakBlocksAdded(fx.session, c.df, &result, &metrics);
    // Only the result's blocks are ever stored: no scan, filter, projection
    // or join output is registered on the way.
    EXPECT_EQ(added, result.num_partitions);
    EXPECT_EQ(metrics.totals.rows_written, result.num_rows);
    EXPECT_GT(result.num_rows, 0u);
  }
}

// ---- row blocks ---------------------------------------------------------------

/// Stands in for the partial aggregate at a pipeline's end and records what
/// reaches it: row blocks, left undecoded, and columnar chunks.
class RecordingPipe final : public Pipe {
 public:
  std::unique_ptr<ChunkConsumer> Open(TaskContext&, uint32_t) const override {
    return std::make_unique<Consumer>(*this);
  }

  mutable std::atomic<uint64_t> row_blocks{0};
  mutable std::atomic<uint64_t> block_rows{0};
  mutable std::atomic<uint64_t> chunks{0};
  mutable std::atomic<uint64_t> chunk_rows{0};
  mutable std::mutex mutex;
  mutable std::vector<size_t> fields;  // of the last row block
  mutable size_t columns = 0;          // of the last row block's schema

 private:
  class Consumer final : public ChunkConsumer {
   public:
    explicit Consumer(const RecordingPipe& pipe) : pipe_(pipe) {}
    void Consume(TaskContext&, ChunkPtr block) override {
      ++pipe_.chunks;
      pipe_.chunk_rows += block->num_rows();
    }
    void ConsumeRows(TaskContext&, const RowBlock& block) override {
      ++pipe_.row_blocks;
      pipe_.block_rows += block.rows.size();
      std::lock_guard<std::mutex> lock(pipe_.mutex);
      pipe_.fields.assign(block.fields.begin(), block.fields.end());
      pipe_.columns = block.schema->num_fields();
    }
    Status Commit(TaskContext&) override { return Status::OK(); }

   private:
    const RecordingPipe& pipe_;
  };
};

/// Plans `df`, an aggregate, and runs its input pipeline — what the
/// partial aggregate folds — into `recorder`.
void RunAggregateInput(Session& session, const DataFrame& df,
                       const std::vector<std::string>& reads,
                       const RecordingPipe& recorder) {
  Result<PhysOpPtr> plan = session.planner().Plan(df.plan());
  IDF_CHECK_OK(plan.status());
  ASSERT_EQ((*plan)->Describe(), "HashAggExec");
  QueryMetrics metrics;
  Result<Pipeline> input =
      (*plan)->children()[0]->Open(session, metrics, reads);
  IDF_CHECK_OK(input.status());
  IDF_CHECK_OK(input->run(recorder));
}

TEST(PipelineTest, IndexedProjectHandsRowBlocksAndFilterHandsChunks) {
  Fixture fx(2);
  {
    SCOPED_TRACE("scan-project-aggregate");
    RecordingPipe recorder;
    RunAggregateInput(fx.session, fx.ProjectAgg(), {"weight"}, recorder);
    EXPECT_GT(recorder.row_blocks.load(), 1u);
    EXPECT_EQ(recorder.block_rows.load(), 6000u);
    EXPECT_EQ(recorder.chunks.load(), 0u);
    // Select({"edge_dest", "weight"}) names fields 1 and 3 of the rows.
    EXPECT_EQ(recorder.fields, (std::vector<size_t>{1, 3}));
    EXPECT_EQ(recorder.columns, 2u);
  }
  {
    SCOPED_TRACE("scan-filter-project-aggregate");
    RecordingPipe recorder;
    RunAggregateInput(fx.session, fx.FilterProjectAgg(),
                      {"label", "weight", "edge_dest"}, recorder);
    EXPECT_EQ(recorder.row_blocks.load(), 0u);
    EXPECT_GT(recorder.chunks.load(), 0u);
    EXPECT_EQ(recorder.chunk_rows.load(), 6000u - 1501u);  // date > 2500
  }
}

TEST(PipelineTest, IndexedAggregateProfileCountsEveryScannedRow) {
  // EXPLAIN ANALYZE counts row blocks without decoding them: the scan's
  // rows_out is the table's rows, and the profile is the same at 1 and 4
  // scheduler threads.
  auto profile = [](uint32_t threads, bool project) {
    Fixture fx(threads);
    const DataFrame df =
        project ? fx.ProjectAgg()
                : fx.indexed.AsDataFrame().Agg(
                      {"label"}, {AggSpec::Count("n"), AggSpec::Sum("weight")});
    QueryMetrics m;
    m.op_profile = std::make_shared<std::map<const void*, OpProfile>>();
    IDF_CHECK_OK(df.Collect(&m).status());
    std::vector<std::string> ops;
    int scans = 0;
    for (const auto& [node, prof] : *m.op_profile) {
      if (prof.label.rfind("ScanExec indexed(", 0) == 0) {
        ++scans;
        EXPECT_EQ(prof.rows_out, 6000u);
        EXPECT_GT(prof.bytes_out, 0u);
      }
      ops.push_back(prof.label + "|" + std::to_string(prof.rows_out) + "|" +
                    std::to_string(prof.bytes_out));
    }
    EXPECT_EQ(scans, 1);
    std::sort(ops.begin(), ops.end());
    return ops;
  };
  for (bool project : {false, true}) {
    SCOPED_TRACE(project ? "scan-project-aggregate" : "scan-aggregate");
    const std::vector<std::string> one = profile(1, project);
    EXPECT_EQ(one.size(), project ? 3u : 2u);
    EXPECT_EQ(profile(4, project), one);
  }
}

// ---- thread sweep -------------------------------------------------------------

/// The TaskMetrics totals that must not depend on the thread count.
struct Totals {
  uint64_t rows_read, rows_written, shuffle_read, shuffle_written;
  uint64_t index_probes, index_hits;
  uint32_t num_stages;
  bool operator==(const Totals&) const = default;
};

struct QueryRun {
  std::vector<std::string> rows;
  Totals totals;
};

QueryRun RunQuery(uint32_t threads, uint64_t budget, bool join) {
  Fixture fx(threads, budget);
  QueryMetrics m;
  const DataFrame df = join ? fx.JoinAgg() : fx.FilterProjectAgg();
  Result<CollectedTable> collected = df.Collect(&m);
  IDF_CHECK_OK(collected.status());
  return {RowStrings(*collected),
          {m.totals.rows_read, m.totals.rows_written,
           m.totals.shuffle_bytes_read, m.totals.shuffle_bytes_written,
           m.totals.index_probes, m.totals.index_hits, m.num_stages}};
}

TEST(PipelineTest, FusedPipelinesAreIdenticalAtEveryThreadCount) {
  for (bool join : {false, true}) {
    SCOPED_TRACE(join ? "indexed join-aggregate" : "filter-project-aggregate");
    const QueryRun reference = RunQuery(1, 0, join);
    ASSERT_FALSE(reference.rows.empty());
    EXPECT_GT(reference.totals.shuffle_written, 0u);
    EXPECT_EQ(RunQuery(kMaxThreads, 512 << 10, join).rows, reference.rows);
    for (uint32_t threads = 2; threads <= kMaxThreads; ++threads) {
      const QueryRun got = RunQuery(threads, 0, join);
      EXPECT_EQ(got.rows, reference.rows) << threads << " threads";
      EXPECT_TRUE(got.totals == reference.totals) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace idf
