// Micro-benchmarks (google-benchmark) for the storage layer: binary row
// encode/decode, packed pointers, partition-store appends and row access,
// the point-lookup path through an IndexedPartition, partial aggregation
// over columnar chunks and row batches, row <-> column transcoding, the
// vanilla joins' hash table, and the flight recorder's per-event cost.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "core/indexed_partition.h"
#include "obs/flight_recorder.h"
#include "sql/join_table.h"
#include "storage/partition_store.h"
#include "storage/row_layout.h"

namespace idf {
namespace {

SchemaPtr BenchSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"value", TypeId::kInt64, false},
      {"score", TypeId::kFloat64, true},
      {"tag", TypeId::kString, true},
  }));
}

RowVec BenchRow(uint64_t i) {
  return {Value::Int64(static_cast<int64_t>(i)),
          Value::Int64(static_cast<int64_t>(i * 31)),
          Value::Float64(static_cast<double>(i) * 0.25),
          Value::String("tag_" + std::to_string(i % 100))};
}

void BM_RowEncode(benchmark::State& state) {
  RowLayout layout(BenchSchema());
  RowVec row = BenchRow(42);
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  for (auto _ : state) {
    layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RowEncode);

void BM_RowDecode(benchmark::State& state) {
  RowLayout layout(BenchSchema());
  RowVec row = BenchRow(42);
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
  for (auto _ : state) {
    RowVec decoded = layout.DecodeRow(buf.data());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RowDecode);

void BM_RowFieldAccess(benchmark::State& state) {
  // Zero-copy accessor path (what joins and filters actually use).
  RowLayout layout(BenchSchema());
  RowVec row = BenchRow(42);
  std::vector<uint8_t> buf(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, buf.data(), PackedRowPtr::Null());
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.GetInt64(buf.data(), 0));
    benchmark::DoNotOptimize(layout.GetFloat64(buf.data(), 2));
    benchmark::DoNotOptimize(layout.GetString(buf.data(), 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_RowFieldAccess);

void BM_PackedPtrPackUnpack(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    PackedRowPtr p = PackedRowPtr::Make(
        static_cast<uint32_t>(rng.Below(1000)),
        static_cast<uint32_t>(rng.Below(1 << 20)),
        static_cast<uint32_t>(rng.Below(1024)));
    benchmark::DoNotOptimize(p.batch() + p.offset() + p.prev_size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PackedPtrPackUnpack);

void BM_PartitionStoreAppend(benchmark::State& state) {
  RowLayout layout(BenchSchema());
  RowVec row = BenchRow(7);
  for (auto _ : state) {
    state.PauseTiming();
    PartitionStore store;
    state.ResumeTiming();
    for (int i = 0; i < 10000; ++i) {
      benchmark::DoNotOptimize(
          store.AppendRow(layout, row, PackedRowPtr::Null()));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_PartitionStoreAppend);

void BM_PartitionStoreRowAt(benchmark::State& state) {
  RowLayout layout(BenchSchema());
  PartitionStore store;
  std::vector<PackedRowPtr> ptrs;
  for (uint64_t i = 0; i < 100000; ++i) {
    ptrs.push_back(*store.AppendRow(layout, BenchRow(i), PackedRowPtr::Null()));
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.RowAt(ptrs[rng.Below(ptrs.size())]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionStoreRowAt);

void BM_IndexedPartitionInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    IndexedPartition part(BenchSchema(), 0);
    state.ResumeTiming();
    for (uint64_t i = 0; i < 10000; ++i) {
      IDF_CHECK_OK(part.InsertRow(BenchRow(i % 500)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_IndexedPartitionInsert);

void BM_IndexedPartitionLookup(benchmark::State& state) {
  // The paper's headline primitive: worst-case-logarithmic point lookup
  // followed by a backward-chain walk.
  IndexedPartition part(BenchSchema(), 0);
  constexpr uint64_t kKeys = 10000;
  for (uint64_t i = 0; i < kKeys * 20; ++i) {
    IDF_CHECK_OK(part.InsertRow(BenchRow(i % kKeys)));
  }
  Rng rng(11);
  for (auto _ : state) {
    uint64_t rows = 0;
    part.ForEachRowOfKey(
        IndexKeyCode(Value::Int64(static_cast<int64_t>(rng.Below(kKeys)))),
        [&rows](const uint8_t*) { ++rows; });
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20);
}
BENCHMARK(BM_IndexedPartitionLookup);

void BM_IndexedPartitionSnapshot(benchmark::State& state) {
  IndexedPartition part(BenchSchema(), 0);
  for (uint64_t i = 0; i < 200000; ++i) {
    IDF_CHECK_OK(part.InsertRow(BenchRow(i)));
  }
  for (auto _ : state) {
    auto snap = part.Snapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IndexedPartitionSnapshot);

// Partial-aggregation rung: COUNT/SUM/AVG over kAggRows rows, global and
// grouped by one 64-value column, through HashAggExec over a cached table's
// columnar chunks (state.range(0) == 0) and over an indexed table's row
// blocks, folded undecoded (state.range(0) == 1), on one scheduler thread.
// Items are input rows; the final merge of at most 64 groups per partition
// is noise beside the partial pass.
constexpr int64_t kAggRows = 400000;

struct AggBenchTables {
  std::unique_ptr<Session> session;
  DataFrame columnar;
  IndexedDataFrame indexed;
};

const AggBenchTables& AggTables() {
  static const AggBenchTables* tables = [] {
    SessionOptions options;
    options.cluster.num_workers = 1;
    options.cluster.executors_per_worker = 1;
    options.cluster.scheduler_threads = 1;
    options.default_partitions = 4;
    auto* t = new AggBenchTables;
    t->session = std::make_unique<Session>(options);
    auto schema = std::make_shared<Schema>(Schema({
        {"id", TypeId::kInt64, false},
        {"grp", TypeId::kInt32, false},
        {"qty", TypeId::kInt64, true},
        {"price", TypeId::kFloat64, true},
    }));
    Rng rng(42);
    std::vector<RowVec> rows;
    for (int64_t i = 0; i < kAggRows; ++i) {
      rows.push_back({Value::Int64(i),
                      Value::Int32(static_cast<int32_t>(rng.Below(64))),
                      Value::Int64(static_cast<int64_t>(rng.Below(1000))),
                      Value::Float64(static_cast<double>(rng.Below(10000)) /
                                     100.0)});
    }
    t->columnar = *t->session->CreateTable("agg_bench", schema, rows);
    t->indexed = *IndexedDataFrame::Create(t->columnar, "id");
    return t;
  }();
  return *tables;
}

void BM_PartialAggregate(benchmark::State& state) {
  const AggBenchTables& t = AggTables();
  const DataFrame input =
      state.range(0) == 0 ? t.columnar : t.indexed.AsDataFrame();
  std::vector<std::string> group_by;
  if (state.range(1) == 1) group_by.push_back("grp");
  const DataFrame query =
      input.Agg(group_by, {AggSpec::Count("n"), AggSpec::Sum("qty"),
                           AggSpec::Avg("price")});
  for (auto _ : state) {
    auto result = query.Collect();
    IDF_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->rows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kAggRows);
  state.SetLabel(std::string(state.range(0) == 0
                                 ? "columnar"
                                 : "HashAggExec over an indexed table's "
                                   "row blocks") +
                 (state.range(1) == 0 ? ", global" : ", group by 1 key"));
}
BENCHMARK(BM_PartialAggregate)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// Transcoding rung: rows/s through the three row <-> column paths, over
// kTranscodeRows rows of all five column types on one scheduler thread.
// Only the DataFrame API is driven, so this file also measures a build
// whose conversions run a row and a cell at a time. Items are input rows.
//   0 encode: a shuffled-hash join against a one-row table that matches
//     nothing, so the map side encodes every row and the reduce decodes none;
//   1 decode: an indexed table's fallback scan, projected to every column;
//   2 gather: a filter that keeps every other row of a columnar table;
//   3 fixed-width encode: 0 over the table without its string column, so
//     every row is the layout's fixed section.
constexpr int64_t kTranscodeRows = 200000;

struct TranscodeBenchTables {
  std::unique_ptr<Session> session;
  DataFrame columnar;
  DataFrame fixed;  // columnar without "tag"
  DataFrame miss;
  IndexedDataFrame indexed;
};

const TranscodeBenchTables& TranscodeTables() {
  static const TranscodeBenchTables* tables = [] {
    SessionOptions options;
    options.cluster.num_workers = 1;
    options.cluster.executors_per_worker = 1;
    options.cluster.scheduler_threads = 1;
    options.default_partitions = 4;
    options.join_mode = JoinExec::Mode::kShuffledHash;
    auto* t = new TranscodeBenchTables;
    t->session = std::make_unique<Session>(options);
    auto schema = std::make_shared<Schema>(Schema({
        {"id", TypeId::kInt64, false},
        {"half", TypeId::kInt32, false},
        {"qty", TypeId::kInt64, true},
        {"price", TypeId::kFloat64, true},
        {"tag", TypeId::kString, true},
        {"flag", TypeId::kBool, true},
    }));
    Rng rng(7);
    std::vector<RowVec> rows;
    for (int64_t i = 0; i < kTranscodeRows; ++i) {
      const bool nulls = rng.Below(8) == 0;
      rows.push_back(
          {Value::Int64(i), Value::Int32(static_cast<int32_t>(i % 2)),
           nulls ? Value::Null(TypeId::kInt64)
                 : Value::Int64(static_cast<int64_t>(rng.Below(1000))),
           Value::Float64(static_cast<double>(rng.Below(10000)) / 100.0),
           nulls ? Value::Null(TypeId::kString)
                 : Value::String("tag_" + std::to_string(rng.Below(500))),
           Value::Bool(rng.Below(2) == 0)});
    }
    t->columnar = *t->session->CreateTable("transcode_bench", schema, rows);
    std::vector<Field> fixed_fields = schema->fields();
    fixed_fields.erase(fixed_fields.begin() + 4);
    for (RowVec& row : rows) row.erase(row.begin() + 4);
    t->fixed = *t->session->CreateTable(
        "transcode_fixed", std::make_shared<Schema>(std::move(fixed_fields)),
        rows);
    t->miss = *t->session->CreateTable(
        "transcode_miss",
        std::make_shared<Schema>(Schema({{"mk", TypeId::kInt64, false}})),
        {{Value::Int64(-1)}});
    t->indexed = *IndexedDataFrame::Create(t->columnar, "id");
    return t;
  }();
  return *tables;
}

void BM_Transcode(benchmark::State& state) {
  const TranscodeBenchTables& t = TranscodeTables();
  DataFrame query = t.columnar.Filter(Eq(Col("half"), Lit(int32_t{0})));
  const char* label = "gather";
  if (state.range(0) == 0) {
    query = t.columnar.Join(t.miss, "id", "mk");
    label = "encode";
  } else if (state.range(0) == 1) {
    query = t.indexed.AsDataFrame().Select(
        {"id", "half", "qty", "price", "tag", "flag"});
    label = "decode";
  } else if (state.range(0) == 3) {
    query = t.fixed.Join(t.miss, "id", "mk");
    label = "fixed-width encode";
  }
  for (auto _ : state) {
    auto result = query.Execute();
    IDF_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->num_rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kTranscodeRows);
  state.SetLabel(label);
}
BENCHMARK(BM_Transcode)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// Join-table rung: each iteration builds a JoinHashTable of kJoinBuildKeys
// keys (one row each) and probes it with kJoinProbeRows codes, half of them
// misses, as a shuffled-hash reduce task does; 1 and 4 threads, each with
// its own table. Items are probes.
constexpr uint32_t kJoinBuildKeys = 10000;
constexpr uint32_t kJoinProbeRows = 1000000;

void BM_JoinHashTable(benchmark::State& state) {
  Rng rng(static_cast<uint64_t>(state.thread_index()) + 11);
  std::vector<uint64_t> build(kJoinBuildKeys);
  for (uint64_t& code : build) code = rng.Below(2 * kJoinBuildKeys);
  std::vector<uint64_t> probes(kJoinProbeRows);
  for (uint64_t& code : probes) code = rng.Below(4 * kJoinBuildKeys);
  uint64_t matched = 0;
  for (auto _ : state) {
    JoinHashTable<uint32_t> table;
    table.Reserve(build.size());
    for (uint32_t i = 0; i < build.size(); ++i) table.Add(build[i], i);
    table.Build();
    for (const uint64_t code : probes) {
      for (const uint32_t row : table.Find(code)) matched += row;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kJoinProbeRows);
}
BENCHMARK(BM_JoinHashTable)
    ->Threads(1)
    ->Threads(4)
    ->Unit(benchmark::kMillisecond);

// Flight-recorder rung: ns per Record call on the process-wide recorder,
// from 1 and 4 threads sharing its ring. Arg 0 records kEvict, a counted
// kind (ring write + its registry counter + its query-profile field); arg 1
// records kTaskStart, which only writes the ring.
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder& fr = obs::FlightRecorder::Global();
  const obs::EventType type = state.range(0) == 0 ? obs::EventType::kEvict
                                                  : obs::EventType::kTaskStart;
  uint64_t a = 0;
  for (auto _ : state) {
    fr.Record(type, 0, ++a, 0, 0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 0 ? "evict (counted)"
                                     : "task_start (ring only)");
}
BENCHMARK(BM_FlightRecorderRecord)->Arg(0)->Arg(1)->Threads(1)->Threads(4);

}  // namespace
}  // namespace idf
