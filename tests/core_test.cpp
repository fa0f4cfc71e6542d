// Tests for the Indexed DataFrame core: IndexedPartition internals, index
// creation, point lookups, appends with MVCC (divergence), the index-aware
// planner strategies, indexed joins cross-checked against vanilla joins,
// fallback scans, and fault tolerance with append replay.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "core/indexed_ops.h"
#include "core/indexed_partition.h"
#include "core/indexed_rules.h"
#include "mem/governor.h"
#include "obs/query_profile.h"

namespace idf {
namespace {

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

/// Every stored row of `part`, in storage order.
std::vector<const uint8_t*> StoredRows(const IndexedPartition& part) {
  std::vector<const uint8_t*> rows;
  part.ForEachBatch([&](const uint8_t* data, uint32_t used) {
    EXPECT_TRUE(RowLayout::SplitRows(data, used, rows));
  });
  return rows;
}

SessionOptions SmallOptions() {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

// ---- IndexedPartition -----------------------------------------------------

TEST(IndexedPartitionTest, InsertAndLookup) {
  IndexedPartition part(EdgeSchema(), 0, 64 << 10);
  IDF_CHECK_OK(part.InsertRow(Edge(1, 10)));
  IDF_CHECK_OK(part.InsertRow(Edge(2, 20)));
  auto rows = part.LookupRows(Value::Int64(1));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value::Int64(10));
  EXPECT_TRUE(part.LookupRows(Value::Int64(3)).empty());
}

TEST(IndexedPartitionTest, NonUniqueKeysChainNewestFirst) {
  // §III-C "Non-unique Keys": the cTrie points at the latest row; backward
  // pointers chain earlier rows with the same key.
  IndexedPartition part(EdgeSchema(), 0, 64 << 10);
  for (int64_t k = 0; k < 5; ++k) IDF_CHECK_OK(part.InsertRow(Edge(7, k)));
  IDF_CHECK_OK(part.InsertRow(Edge(8, 100)));

  auto rows = part.LookupRows(Value::Int64(7));
  ASSERT_EQ(rows.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)][1], Value::Int64(4 - i));
  }
  EXPECT_EQ(part.LookupRows(Value::Int64(8)).size(), 1u);
}

TEST(IndexedPartitionTest, NullKeysStoredButNotIndexed) {
  IndexedPartition part(EdgeSchema(), 2, 64 << 10);  // weight is nullable
  IDF_CHECK_OK(part.InsertRow({Value::Int64(1), Value::Int64(2),
                               Value::Null(TypeId::kFloat64)}));
  IDF_CHECK_OK(part.InsertRow(Edge(3, 4, 0.5)));
  EXPECT_EQ(part.num_rows(), 2u);
  EXPECT_EQ(StoredRows(part).size(), 2u);
  EXPECT_EQ(part.LookupRows(Value::Float64(0.5)).size(), 1u);
}

TEST(IndexedPartitionTest, StringKeysVerifyAgainstHashCollisions) {
  auto schema = std::make_shared<Schema>(Schema({
      {"tail", TypeId::kString, false},
      {"n", TypeId::kInt64, false},
  }));
  IndexedPartition part(schema, 0, 64 << 10);
  IDF_CHECK_OK(part.InsertRow({Value::String("N100"), Value::Int64(1)}));
  IDF_CHECK_OK(part.InsertRow({Value::String("N200"), Value::Int64(2)}));
  IDF_CHECK_OK(part.InsertRow({Value::String("N100"), Value::Int64(3)}));
  auto rows = part.LookupRows(Value::String("N100"));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(part.LookupRows(Value::String("N300")).empty());
}

TEST(IndexedPartitionTest, SnapshotIsolation) {
  IndexedPartition part(EdgeSchema(), 0, 64 << 10);
  IDF_CHECK_OK(part.InsertRow(Edge(1, 1)));
  auto snap = part.Snapshot();
  IDF_CHECK_OK(snap->InsertRow(Edge(1, 2)));
  IDF_CHECK_OK(snap->InsertRow(Edge(9, 9)));

  EXPECT_EQ(part.LookupRows(Value::Int64(1)).size(), 1u);
  EXPECT_EQ(snap->LookupRows(Value::Int64(1)).size(), 2u);
  EXPECT_TRUE(part.LookupRows(Value::Int64(9)).empty());
  EXPECT_EQ(snap->LookupRows(Value::Int64(9)).size(), 1u);
  EXPECT_EQ(part.num_rows(), 1u);
  EXPECT_EQ(snap->num_rows(), 3u);
}

TEST(IndexedPartitionTest, ChainSpansSnapshotBoundary) {
  // Rows appended post-snapshot chain onto pre-snapshot rows of the same key.
  IndexedPartition part(EdgeSchema(), 0, 64 << 10);
  IDF_CHECK_OK(part.InsertRow(Edge(5, 1)));
  IDF_CHECK_OK(part.InsertRow(Edge(5, 2)));
  auto snap = part.Snapshot();
  IDF_CHECK_OK(snap->InsertRow(Edge(5, 3)));
  auto rows = snap->LookupRows(Value::Int64(5));
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], Value::Int64(3));
  EXPECT_EQ(rows[1][1], Value::Int64(2));
  EXPECT_EQ(rows[2][1], Value::Int64(1));
}

TEST(IndexedPartitionTest, IndexBytesSmallRelativeToData) {
  IndexedPartition part(EdgeSchema(), 0);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    IDF_CHECK_OK(part.InsertRow(
        Edge(static_cast<int64_t>(rng.Below(5000)), i, rng.NextDouble())));
  }
  EXPECT_GT(part.IndexBytes(), 0u);
  // The trie indexes ~5000 distinct keys over 20k rows of ~48 bytes; the
  // absolute overhead must stay a modest fraction of the data (Fig. 11).
  EXPECT_LT(part.IndexBytes(), part.data_bytes());
}

TEST(IndexedPartitionTest, ScanSeesAllRowsInInsertionOrder) {
  IndexedPartition part(EdgeSchema(), 0, 2048);  // small batches: many rolls
  for (int64_t i = 0; i < 500; ++i) IDF_CHECK_OK(part.InsertRow(Edge(i, i)));
  std::vector<int64_t> seen;
  const RowLayout& layout = part.layout();
  for (const uint8_t* row : StoredRows(part)) {
    seen.push_back(layout.GetInt64(row, 0));
  }
  ASSERT_EQ(seen.size(), 500u);
  for (int64_t i = 0; i < 500; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

/// Encodes `rows` back to back into `buffer`; returns a pointer to each.
std::vector<const uint8_t*> EncodeRows(const RowLayout& layout,
                                       const std::vector<RowVec>& rows,
                                       std::vector<uint8_t>& buffer) {
  std::vector<size_t> offsets;
  for (const RowVec& row : rows) {
    offsets.push_back(buffer.size());
    buffer.resize(buffer.size() + *layout.ComputeRowSize(row));
    layout.EncodeRow(row, buffer.data() + offsets.back(),
                     PackedRowPtr::Null());
  }
  std::vector<const uint8_t*> encoded;
  for (size_t offset : offsets) encoded.push_back(buffer.data() + offset);
  return encoded;
}

TEST(IndexedPartitionTest, GroupedInsertStoresNullsFirstThenOneRunPerKey) {
  IndexedPartition part(EdgeSchema(), 2, 2048);  // weight is nullable
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back({Value::Int64(i), Value::Int64(i),
                    i % 5 == 0 ? Value::Null(TypeId::kFloat64)
                               : Value::Float64(0.5 * (i % 7))});
  }
  std::vector<uint8_t> buffer;
  std::vector<const uint8_t*> encoded = EncodeRows(part.layout(), rows, buffer);
  IDF_CHECK_OK(part.InsertEncodedRows(encoded));
  ASSERT_EQ(part.num_rows(), 300u);

  // Storage order: the 60 NULL-key rows, then each key's rows as one run,
  // keys in order of first appearance, rows in input order.
  // (Row strings, since NULL never compares equal to NULL.)
  auto row_string = [](const RowVec& row) {
    std::string out;
    for (const Value& v : row) out += v.ToString() + "|";
    return out;
  };
  std::vector<std::string> expected;
  for (const RowVec& row : rows) {
    if (row[2].is_null()) expected.push_back(row_string(row));
  }
  for (int64_t k : {1, 2, 3, 4, 6, 0, 5}) {
    for (const RowVec& row : rows) {
      if (!row[2].is_null() && row[2] == Value::Float64(0.5 * k)) {
        expected.push_back(row_string(row));
      }
    }
  }
  std::vector<std::string> stored;
  for (const uint8_t* row : StoredRows(part)) {
    stored.push_back(row_string(part.layout().DecodeRow(row)));
  }
  EXPECT_EQ(stored, expected);

  // NULL-key rows are scanned but reachable by no lookup.
  EXPECT_TRUE(part.LookupRows(Value::Null(TypeId::kFloat64)).empty());
  size_t looked_up = 0;
  for (int64_t k = 0; k < 7; ++k) {
    looked_up += part.LookupRows(Value::Float64(0.5 * k)).size();
  }
  EXPECT_EQ(looked_up, 240u);
}

// ---- IndexedDataFrame: create/lookup ------------------------------------------

std::vector<RowVec> PowerLawEdges(int n, uint64_t seed, int64_t key_domain) {
  Rng rng(seed);
  ZipfSampler zipf(static_cast<uint64_t>(key_domain), 1.1);
  std::vector<RowVec> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Edge(static_cast<int64_t>(zipf.Sample(rng)), i,
                        rng.NextDouble()));
  }
  return rows;
}

TEST(IndexedDataFrameTest, CreateAndGetRows) {
  Session session(SmallOptions());
  auto rows = PowerLawEdges(5000, 42, 500);
  auto df = *session.CreateTable("edges", EdgeSchema(), rows);
  auto indexed = IndexedDataFrame::Create(df, "src");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->num_rows(), 5000u);
  EXPECT_EQ(indexed->version(), 0u);

  // Cross-check every key in a sample against a brute-force scan.
  std::map<int64_t, int> expected;
  for (const RowVec& row : rows) ++expected[row[0].int64_value()];
  for (int64_t key : {0L, 1L, 7L, 100L, 499L}) {
    auto result = indexed->GetRows(Value::Int64(key));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows.size(),
              static_cast<size_t>(expected.count(key) ? expected[key] : 0))
        << "key " << key;
    for (const RowVec& row : result->rows) {
      EXPECT_EQ(row[0], Value::Int64(key));
    }
  }
  // A key outside the domain misses.
  EXPECT_TRUE(indexed->GetRows(Value::Int64(10'000'000)).value().rows.empty());
}

TEST(IndexedDataFrameTest, BackPointersAddressThePreviouslyStoredRow) {
  // Create inserts each key's rows back to back: every back pointer is
  // null (a key's oldest row) or addresses the row stored just before it,
  // in the same batch or, at a batch rollover, the previous batch's last.
  Session session(SmallOptions());
  auto edges = *session.CreateTable("e", EdgeSchema(),
                                    PowerLawEdges(6000, 3, 400));
  IndexOptions index_options;
  index_options.batch_capacity = 2048;  // many rollovers
  auto indexed = *IndexedDataFrame::Create(edges, "src", index_options);
  TaskContext ctx(&session.cluster(), session.cluster().AliveExecutors()[0]);
  uint64_t rows = 0;
  for (uint32_t p = 0; p < indexed.rdd()->num_partitions(); ++p) {
    auto part = *indexed.rdd()->GetPartition(p, indexed.version(), ctx);
    std::set<int64_t> keys;
    uint64_t chain_starts = 0;
    uint32_t batch = 0;
    PackedRowPtr previous = PackedRowPtr::Null();
    part->ForEachBatch([&](const uint8_t* data, uint32_t used) {
      for (uint32_t offset = 0; offset < used;
           offset += RowLayout::RowSize(data + offset)) {
        const PackedRowPtr back = RowLayout::BackPtr(data + offset);
        if (back.is_null()) {
          ++chain_starts;
        } else {
          ASSERT_FALSE(previous.is_null());
          EXPECT_EQ(back.batch(), previous.batch());
          EXPECT_EQ(back.offset(), previous.offset());
        }
        keys.insert(part->layout().GetInt64(data + offset, 0));
        previous = PackedRowPtr::Make(batch, offset, 0);
        ++rows;
      }
      ++batch;
    });
    EXPECT_GT(batch, 1u);
    EXPECT_EQ(chain_starts, keys.size());
  }
  EXPECT_EQ(rows, 6000u);
}

TEST(IndexedDataFrameTest, GroupedGetRowsMatchesPerRowInsertReference) {
  // A reference partition built one InsertRow at a time, in routing order
  // (table partition by table partition; CreateTable deals rows round
  // robin), holds each key's chain in the order the parent layout did.
  Session session(SmallOptions());
  const std::vector<RowVec> base_rows = PowerLawEdges(3000, 11, 200);
  const std::vector<RowVec> append_rows = PowerLawEdges(500, 12, 250);
  auto base = *session.CreateTable("b", EdgeSchema(), base_rows);
  auto extra = *session.CreateTable("x", EdgeSchema(), append_rows);
  IndexOptions index_options;
  index_options.batch_capacity = 4096;
  auto indexed = *IndexedDataFrame::Create(base, "src", index_options);
  auto appended = *indexed.AppendRows(extra);

  const uint32_t parts = SmallOptions().default_partitions;
  auto insert_in_routing_order = [&](const std::vector<RowVec>& rows,
                                     IndexedPartition& target) {
    for (uint32_t tp = 0; tp < parts; ++tp) {
      for (size_t i = tp; i < rows.size(); i += parts) {
        IDF_CHECK_OK(target.InsertRow(rows[i]));
      }
    }
  };
  IndexedPartition reference(EdgeSchema(), 0);
  insert_in_routing_order(base_rows, reference);
  std::shared_ptr<IndexedPartition> reference_appended = reference.Snapshot();
  insert_in_routing_order(append_rows, *reference_appended);

  for (int64_t key = 0; key < 260; ++key) {
    const Value k = Value::Int64(key);
    EXPECT_EQ(indexed.GetRows(k)->rows, reference.LookupRows(k)) << key;
    EXPECT_EQ(appended.GetRows(k)->rows, reference_appended->LookupRows(k))
        << key;
  }
}

/// The batch sizing invariant on every partition of `idf`: unused batch
/// tails come to less than one row per batch, and what the memory governor
/// holds for the partition (resident plus spilled) is at most its data, its
/// index and the batches' alignment pads.
void ExpectBatchesSizedToTheirRows(const IndexedDataFrame& idf,
                                   uint32_t row_size) {
  constexpr uint64_t kAlignmentPad = 64;
  auto report = idf.MemoryReport();
  ASSERT_TRUE(report.ok());
  const mem::ResidencyMap residency =
      mem::MemoryGovernor::Global().ResidencySnapshot();
  for (const PartitionMemory& pm : *report) {
    SCOPED_TRACE("partition " + std::to_string(pm.partition));
    ASSERT_GT(pm.num_batches, 2u);
    EXPECT_LT(pm.allocated_bytes - pm.data_bytes,
              uint64_t{pm.num_batches} * row_size);
    auto it = residency.find({idf.rdd()->rdd_id(), pm.partition});
    ASSERT_NE(it, residency.end());
    EXPECT_LE(it->second.resident_bytes + it->second.spilled_bytes,
              pm.data_bytes + pm.index_bytes +
                  uint64_t{pm.num_batches} * kAlignmentPad);
  }
}

TEST(IndexedDataFrameTest, BatchesFitTheirRowsAfterBuildAppendAndRecompute) {
  // Fixed-size rows and a capacity of 100.5 rows: every full batch strands
  // half a row of tail, so the rows after the last full batch exceed the
  // hint minus the capacities granted. Sized to the bytes still to come,
  // the last batch takes them all.
  const uint32_t row_size =
      *RowLayout(EdgeSchema()).ComputeRowSize(Edge(0, 0));
  IndexOptions options;
  options.batch_capacity = 100 * row_size + row_size / 2;
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(20000, 29, 2000));
  auto v0 = *IndexedDataFrame::Create(edges, "src", options);
  ExpectBatchesSizedToTheirRows(v0, row_size);

  auto extra = *session.CreateTable("extra", EdgeSchema(),
                                    PowerLawEdges(4000, 30, 2000));
  auto v1 = *v0.AppendRows(extra);
  ExpectBatchesSizedToTheirRows(v1, row_size);

  // Losing two executors loses their partitions of both versions; the
  // report recomputes version 1's from lineage.
  ASSERT_GT(session.cluster().KillExecutor(1), 0u);
  ASSERT_GT(session.cluster().KillExecutor(2), 0u);
  ExpectBatchesSizedToTheirRows(v1, row_size);
  EXPECT_EQ(v1.num_rows(), 24000u);
}

TEST(IndexedDataFrameTest, GetRowsOnStringColumn) {
  Session session(SmallOptions());
  auto schema = std::make_shared<Schema>(Schema({
      {"tail", TypeId::kString, false},
      {"delay", TypeId::kInt32, false},
  }));
  std::vector<RowVec> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({Value::String("N" + std::to_string(i % 30)),
                    Value::Int32(i)});
  }
  auto df = *session.CreateTable("flights", schema, rows);
  auto indexed = IndexedDataFrame::Create(df, "tail");
  ASSERT_TRUE(indexed.ok());
  auto result = indexed->GetRows(Value::String("N7"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
  for (const RowVec& row : result->rows) {
    EXPECT_EQ(row[0], Value::String("N7"));
  }
}

TEST(IndexedDataFrameTest, CreateOnMissingColumnFails) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), PowerLawEdges(10, 1, 5));
  EXPECT_FALSE(IndexedDataFrame::Create(df, "nope").ok());
}

TEST(IndexedDataFrameTest, CacheIsIdempotentNoOp) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), PowerLawEdges(100, 1, 5));
  auto indexed = *IndexedDataFrame::Create(df, "src");
  EXPECT_EQ(&indexed.Cache(), &indexed);
  EXPECT_EQ(indexed.Cache().num_rows(), 100u);
}

// ---- appends & MVCC --------------------------------------------------------------

TEST(IndexedAppendTest, AppendCreatesNewVersion) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(),
                                 PowerLawEdges(1000, 7, 100));
  auto v0 = *IndexedDataFrame::Create(df, "src");

  auto extra = *session.CreateTable(
      "extra", EdgeSchema(), {Edge(42, 9001), Edge(42, 9002), Edge(777, 1)});
  auto v1_result = v0.AppendRows(extra);
  ASSERT_TRUE(v1_result.ok());
  const IndexedDataFrame& v1 = *v1_result;

  EXPECT_EQ(v1.version(), 1u);
  EXPECT_EQ(v1.num_rows(), 1003u);
  EXPECT_EQ(v0.num_rows(), 1000u);

  const size_t base42 = v0.GetRows(Value::Int64(42)).value().rows.size();
  EXPECT_EQ(v1.GetRows(Value::Int64(42)).value().rows.size(), base42 + 2);
  EXPECT_EQ(v1.GetRows(Value::Int64(777)).value().rows.size(),
            v0.GetRows(Value::Int64(777)).value().rows.size() + 1);
}

TEST(IndexedAppendTest, ParentUnchangedAfterAppend) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), PowerLawEdges(100, 9, 10));
  auto v0 = *IndexedDataFrame::Create(df, "src");
  const size_t before = v0.GetRows(Value::Int64(0)).value().rows.size();
  auto extra = *session.CreateTable("extra", EdgeSchema(), {Edge(0, 1234)});
  auto v1 = *v0.AppendRows(extra);
  EXPECT_EQ(v0.GetRows(Value::Int64(0)).value().rows.size(), before);
  EXPECT_EQ(v1.GetRows(Value::Int64(0)).value().rows.size(), before + 1);
}

TEST(IndexedAppendTest, DivergentAppendsCoexist) {
  // Paper Listing 2: two children of the same parent, both queryable,
  // materialization order irrelevant.
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), PowerLawEdges(500, 3, 50));
  auto parent = *IndexedDataFrame::Create(df, "src");

  auto append_a = *session.CreateTable("a", EdgeSchema(), {Edge(1000, 1)});
  auto append_b = *session.CreateTable("b", EdgeSchema(), {Edge(2000, 2)});

  auto child_a = *parent.AppendRows(append_a);
  auto child_b = *parent.AppendRows(append_b);
  EXPECT_NE(child_a.version(), child_b.version());

  // Query B first, then A (the "reverse order" materialization).
  EXPECT_EQ(child_b.GetRows(Value::Int64(2000)).value().rows.size(), 1u);
  EXPECT_EQ(child_a.GetRows(Value::Int64(1000)).value().rows.size(), 1u);
  EXPECT_TRUE(child_a.GetRows(Value::Int64(2000)).value().rows.empty());
  EXPECT_TRUE(child_b.GetRows(Value::Int64(1000)).value().rows.empty());
  EXPECT_TRUE(parent.GetRows(Value::Int64(1000)).value().rows.empty());
  EXPECT_TRUE(parent.GetRows(Value::Int64(2000)).value().rows.empty());
}

TEST(IndexedAppendTest, ChainOfAppends) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), {Edge(5, 0)});
  auto current = *IndexedDataFrame::Create(df, "src");
  for (int64_t i = 1; i <= 5; ++i) {
    auto extra = *session.CreateTable("x" + std::to_string(i), EdgeSchema(),
                                      {Edge(5, i)});
    current = *current.AppendRows(extra);
    EXPECT_EQ(current.GetRows(Value::Int64(5)).value().rows.size(),
              static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(current.num_rows(), 6u);
}

TEST(IndexedAppendTest, AppendSchemaMismatchRejected) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("edges", EdgeSchema(), {Edge(1, 1)});
  auto indexed = *IndexedDataFrame::Create(df, "src");
  auto wrong_schema = std::make_shared<Schema>(Schema({
      {"only", TypeId::kInt64, false},
  }));
  auto wrong = *session.CreateTable("wrong", wrong_schema, {{Value::Int64(1)}});
  EXPECT_FALSE(indexed.AppendRows(wrong).ok());
}

// ---- planner integration --------------------------------------------------------

TEST(IndexedPlanTest, JoinOnIndexedColumnUsesIndexedJoinExec) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(1000, 11, 100));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(50, 12, 100));

  auto plan = indexed.AsDataFrame().Join(probe, "src", "src");
  auto physical = plan.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical->find("IndexedJoinExec"), std::string::npos) << *physical;

  // Indexed side on the right works too.
  auto plan2 = probe.Join(indexed.AsDataFrame(), "src", "src");
  auto physical2 = plan2.ExplainPhysical();
  ASSERT_TRUE(physical2.ok());
  EXPECT_NE(physical2->find("IndexedJoinExec"), std::string::npos);
}

TEST(IndexedPlanTest, JoinOnNonIndexedColumnFallsBack) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(100, 13, 10));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(50, 14, 10));
  // Join keyed on dst, which is NOT indexed: vanilla JoinExec must run.
  auto plan = indexed.AsDataFrame().Join(probe, "dst", "dst");
  auto physical = plan.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->find("IndexedJoinExec"), std::string::npos);
  EXPECT_NE(physical->find("JoinExec"), std::string::npos);
}

TEST(IndexedPlanTest, EqualityFilterUsesIndexLookupExec) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(100, 15, 10));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto q = indexed.AsDataFrame().Filter(Eq(Col("src"), Lit(int64_t{3})));
  auto physical = q.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical->find("IndexLookupExec"), std::string::npos);
}

TEST(IndexedPlanTest, CompoundFilterSplitsResidual) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(100, 16, 10));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  const ExprPtr residual = Gt(Col("dst"), Lit(int64_t{10}));
  auto q = indexed.AsDataFrame().Filter(
      And(residual, Eq(Col("src"), Lit(int64_t{3}))));
  auto physical = q.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  // The residual is an ordinary FilterExec over the lookup.
  EXPECT_EQ(*physical, "FilterExec " + residual->ToString() +
                           "\n  IndexLookupExec key=3 on " +
                           IndexedDataset(indexed.rdd(), 0).name() + "\n");
}

TEST(IndexedPlanTest, NonEqualityFilterFallsBack) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(100, 17, 10));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto q = indexed.AsDataFrame().Filter(Gt(Col("src"), Lit(int64_t{3})));
  auto physical = q.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->find("IndexLookupExec"), std::string::npos);
  EXPECT_NE(physical->find("FilterExec"), std::string::npos);
}

TEST(IndexedPlanTest, MixedNumericLookupKeepsTheVanillaFilterRows) {
  // A literal of the other numeric type than the indexed column: the lookup
  // must keep exactly the rows the vanilla filter keeps.
  const auto schema = std::make_shared<Schema>(Schema({
      {"dk", TypeId::kFloat64, false},
      {"ik", TypeId::kInt64, false},
      {"v", TypeId::kInt64, false},
  }));
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value::Float64(0.5 * static_cast<double>(i % 10)),
                    Value::Int64(i % 10), Value::Int64(i)});
  }
  Session session(SmallOptions());
  auto table = *session.CreateTable("t", schema, rows);
  struct Case {
    std::string column;
    Value literal;
    size_t rows;
  };
  const std::vector<Case> cases = {
      {"dk", Value::Int64(3), 10},      {"dk", Value::Float64(3.0), 10},
      {"dk", Value::Float64(-0.0), 10}, {"dk", Value::Int32(0), 10},
      {"dk", Value::Int64(7), 0},       {"ik", Value::Float64(3.0), 10},
      {"ik", Value::Float64(3.5), 0},   {"ik", Value::Float64(-0.0), 10},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.column + " = " + c.literal.ToString());
    auto indexed = *IndexedDataFrame::Create(table, c.column);
    const ExprPtr predicate = Eq(Col(c.column), Lit(c.literal));
    const DataFrame lookup = indexed.AsDataFrame().Filter(predicate);
    ASSERT_NE(lookup.ExplainPhysical()->find("IndexLookupExec"),
              std::string::npos);
    auto via_index = lookup.Collect();
    auto vanilla = table.Filter(predicate).Collect();
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    ASSERT_TRUE(vanilla.ok()) << vanilla.status().ToString();
    EXPECT_EQ(vanilla->rows.size(), c.rows);
    EXPECT_EQ(via_index->SortedRowStrings(), vanilla->SortedRowStrings());
  }
}

// ---- indexed execution correctness ------------------------------------------------

TEST(IndexedExecTest, IndexedJoinMatchesVanillaJoin) {
  Session session(SmallOptions());
  auto edges_rows = PowerLawEdges(3000, 21, 200);
  auto probe_rows = PowerLawEdges(150, 22, 200);
  auto edges = *session.CreateTable("edges", EdgeSchema(), edges_rows);
  auto probe = *session.CreateTable("probe", EdgeSchema(), probe_rows);

  auto vanilla = edges.Join(probe, "src", "src").Collect();
  ASSERT_TRUE(vanilla.ok());

  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto fast = indexed.Join(probe, "src").Collect();
  ASSERT_TRUE(fast.ok());

  EXPECT_EQ(fast->rows.size(), vanilla->rows.size());
  EXPECT_EQ(fast->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(IndexedExecTest, IndexedJoinRightSideMatchesVanilla) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(1000, 31, 80));
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(100, 32, 80));
  auto vanilla = probe.Join(edges, "src", "src").Collect();
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto fast = probe.Join(indexed.AsDataFrame(), "src", "src").Collect();
  ASSERT_TRUE(vanilla.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(IndexedExecTest, LargeProbeUsesShufflePathAndMatches) {
  SessionOptions opts = SmallOptions();
  opts.broadcast_threshold_bytes = 64;  // force the shuffle path
  Session session(opts);
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(2000, 41, 100));
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(500, 42, 100));
  auto vanilla = edges.Join(probe, "src", "src").Collect();
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  QueryMetrics metrics;
  auto handle = indexed.Join(probe, "src").Execute(&metrics);
  ASSERT_TRUE(handle.ok());
  EXPECT_GT(metrics.totals.shuffle_bytes_written, 0u);  // probe was shuffled
  auto fast = session.Collect(*handle);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(IndexedExecTest, IndexedJoinAfterAppendSeesNewRows) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), {Edge(1, 1)});
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    {Edge(1, 0), Edge(2, 0)});
  auto v0 = *IndexedDataFrame::Create(edges, "src");
  EXPECT_EQ(v0.Join(probe, "src").Collect()->rows.size(), 1u);

  auto extra = *session.CreateTable("extra", EdgeSchema(),
                                    {Edge(2, 5), Edge(1, 6)});
  auto v1 = *v0.AppendRows(extra);
  EXPECT_EQ(v1.Join(probe, "src").Collect()->rows.size(), 3u);
  // The old version still joins against the old contents.
  EXPECT_EQ(v0.Join(probe, "src").Collect()->rows.size(), 1u);
}

TEST(IndexedExecTest, LookupViaSqlFilterMatchesGetRows) {
  Session session(SmallOptions());
  auto edges_rows = PowerLawEdges(2000, 51, 100);
  auto edges = *session.CreateTable("edges", EdgeSchema(), edges_rows);
  auto indexed = *IndexedDataFrame::Create(edges, "src");

  auto via_filter = indexed.AsDataFrame()
                        .Filter(Eq(Col("src"), Lit(int64_t{7})))
                        .Collect();
  auto via_getrows = indexed.GetRows(Value::Int64(7));
  ASSERT_TRUE(via_filter.ok());
  ASSERT_TRUE(via_getrows.ok());
  EXPECT_EQ(via_filter->SortedRowStrings(), via_getrows->SortedRowStrings());

  // Keys whose codes hash — strings (the empty one, one with a NUL byte)
  // and doubles (NaN, -0.0) — with a residual conjunct, on v0 and on an
  // appended v1: each lookup returns what the vanilla filter does.
  auto schema = std::make_shared<Schema>(Schema({
      {"name", TypeId::kString, false},
      {"score", TypeId::kFloat64, false},
      {"n", TypeId::kInt64, false},
  }));
  auto keyed_rows = [](int64_t from, int64_t to) {
    std::vector<RowVec> rows;
    for (int64_t i = from; i < to; ++i) {
      std::string name = "k" + std::to_string(i % 23);
      if (i % 23 == 0) name.clear();
      if (i % 23 == 1) name = std::string("k\0z", 3);
      double score = 0.5 * static_cast<double>(i % 7);
      if (i % 11 == 0) score = -0.0;
      if (i % 13 == 0) score = std::numeric_limits<double>::quiet_NaN();
      rows.push_back({Value::String(std::move(name)), Value::Float64(score),
                      Value::Int64(i)});
    }
    return rows;
  };
  std::vector<RowVec> all_rows = keyed_rows(0, 600);
  const std::vector<RowVec> extra_rows = keyed_rows(600, 800);
  auto base = *session.CreateTable("keyed", schema, all_rows);
  auto extra = *session.CreateTable("keyed_extra", schema, extra_rows);
  all_rows.insert(all_rows.end(), extra_rows.begin(), extra_rows.end());
  auto appended = *session.CreateTable("keyed_all", schema, all_rows);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::string, ExprPtr>> lookups = {
      {"name",
       And(Eq(Col("name"), Lit("k5")), Gt(Col("n"), Lit(int64_t{100})))},
      {"name", And(Lt(Col("n"), Lit(int64_t{500})), Eq(Col("name"), Lit("")))},
      {"name", And(Eq(Col("name"), Lit(Value::String(std::string("k\0z", 3)))),
                   Gt(Col("score"), Lit(0.5)))},
      {"score",
       And(Eq(Col("score"), Lit(0.0)), Gt(Col("n"), Lit(int64_t{200})))},
      {"score",
       And(Eq(Col("score"), Lit(1.5)), Lt(Col("n"), Lit(int64_t{700})))},
      {"score", And(Eq(Col("score"), Lit(nan)), Gt(Col("n"), Lit(int64_t{0})))},
  };
  size_t matched_rows = 0;
  for (const auto& [column, predicate] : lookups) {
    auto v0 = *IndexedDataFrame::Create(base, column);
    auto v1 = *v0.AppendRows(extra);
    for (const auto& [index, plain] :
         {std::pair{v0, base}, std::pair{v1, appended}}) {
      auto q = index.AsDataFrame().Filter(predicate);
      EXPECT_NE(q.ExplainPhysical()->find("IndexLookupExec"),
                std::string::npos)
          << predicate->ToString();
      auto looked_up = q.Collect();
      auto vanilla = plain.Filter(predicate).Collect();
      ASSERT_TRUE(looked_up.ok());
      ASSERT_TRUE(vanilla.ok());
      EXPECT_EQ(looked_up->SortedRowStrings(), vanilla->SortedRowStrings())
          << predicate->ToString();
      matched_rows += looked_up->rows.size();
    }
  }
  EXPECT_GT(matched_rows, 0u);
}

TEST(IndexedExecTest, FallbackScanMatchesSource) {
  Session session(SmallOptions());
  auto edges_rows = PowerLawEdges(1000, 61, 50);
  auto edges = *session.CreateTable("edges", EdgeSchema(), edges_rows);
  auto indexed = *IndexedDataFrame::Create(edges, "src");

  // Aggregate over the indexed dataframe: no index help, full fallback scan.
  auto agg = indexed.AsDataFrame()
                 .Agg({}, {AggSpec::Count("n"), AggSpec::Sum("dst", "s")})
                 .Collect();
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->rows[0][0], Value::Int64(1000));
  int64_t expected = 0;
  for (const RowVec& row : edges_rows) expected += row[1].int64_value();
  EXPECT_EQ(agg->rows[0][1], Value::Int64(expected));
}

TEST(IndexedExecTest, ProjectionOnIndexedDataWorks) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(200, 71, 20));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto result = indexed.AsDataFrame().Select({"dst"}).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 200u);
  EXPECT_EQ(result->schema->num_fields(), 1u);
}

// ---- memory report ---------------------------------------------------------------

TEST(IndexedMemoryTest, ReportCoversAllPartitionsWithModestOverhead) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(20000, 81, 2000));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto report = indexed.MemoryReport();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->size(), indexed.num_partitions());
  uint64_t rows = 0;
  for (const PartitionMemory& pm : *report) {
    rows += pm.num_rows;
    if (pm.num_rows > 0) {
      EXPECT_GT(pm.index_bytes, 0u);
      EXPECT_GT(pm.data_bytes, 0u);
    }
  }
  EXPECT_EQ(rows, 20000u);
}

// ---- fault tolerance ---------------------------------------------------------------

TEST(IndexedFaultTest, LookupSurvivesExecutorFailure) {
  Session session(SmallOptions());
  auto edges_rows = PowerLawEdges(2000, 91, 100);
  auto edges = *session.CreateTable("edges", EdgeSchema(), edges_rows);
  auto indexed = *IndexedDataFrame::Create(edges, "src");

  const size_t expected = indexed.GetRows(Value::Int64(3)).value().rows.size();

  // Kill an executor: its indexed partitions (and possibly base blocks) are
  // lost; the next lookup must transparently re-index from lineage.
  session.cluster().KillExecutor(2);
  QueryMetrics metrics;
  auto after = indexed.GetRows(Value::Int64(3), &metrics);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.size(), expected);
}

TEST(IndexedFaultTest, RecoveryReplaysAppends) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(500, 92, 50));
  auto v0 = *IndexedDataFrame::Create(edges, "src");
  auto extra = *session.CreateTable(
      "extra", EdgeSchema(), {Edge(7, 9001), Edge(7, 9002)});
  auto v1 = *v0.AppendRows(extra);
  const size_t expected = v1.GetRows(Value::Int64(7)).value().rows.size();

  session.cluster().KillExecutor(1);
  session.cluster().KillExecutor(2);
  auto after = v1.GetRows(Value::Int64(7));
  ASSERT_TRUE(after.ok());
  // The re-built partition must include the replayed appends (§III-D).
  EXPECT_EQ(after->rows.size(), expected);
  bool found9001 = false;
  for (const RowVec& row : after->rows) {
    if (row[1] == Value::Int64(9001)) found9001 = true;
  }
  EXPECT_TRUE(found9001);
}

TEST(IndexedFaultTest, JoinSurvivesFailureWithConsistentResult) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(1500, 93, 120));
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(80, 94, 120));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  auto before = indexed.Join(probe, "src").Collect();
  ASSERT_TRUE(before.ok());

  session.cluster().KillExecutor(3);
  auto after = indexed.Join(probe, "src").Collect();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->SortedRowStrings(), before->SortedRowStrings());
}

// ---- staleness (§III-D) --------------------------------------------------------

TEST(IndexedConsistencyTest, OldVersionBlocksNeverServeNewVersionQueries) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(), {Edge(1, 1)});
  auto v0 = *IndexedDataFrame::Create(edges, "src");
  auto extra = *session.CreateTable("extra", EdgeSchema(), {Edge(1, 2)});
  auto v1 = *v0.AppendRows(extra);

  // Both versions' blocks exist simultaneously in the block manager.
  const uint64_t rdd = v0.rdd()->rdd_id();
  bool saw_v0 = false, saw_v1 = false;
  for (uint32_t p = 0; p < v0.num_partitions(); ++p) {
    for (uint64_t v : session.cluster().blocks().VersionsOf(rdd, p)) {
      saw_v0 |= (v == 0);
      saw_v1 |= (v == 1);
    }
  }
  EXPECT_TRUE(saw_v0);
  EXPECT_TRUE(saw_v1);

  // Queries against each version see exactly their own data.
  EXPECT_EQ(v0.GetRows(Value::Int64(1)).value().rows.size(), 1u);
  EXPECT_EQ(v1.GetRows(Value::Int64(1)).value().rows.size(), 2u);
}

// ---- block lifetime ----------------------------------------------------------

TEST(BlockLifetimeTest, GetRowsLeavesNoBlocksOrProfilesBehind) {
  // Each lookup materializes a one-partition result; its handle dies inside
  // GetRows, and the result block must die with it.
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(2000, 95, 100));
  auto indexed = *IndexedDataFrame::Create(edges, "src");
  ASSERT_FALSE(indexed.GetRows(Value::Int64(1)).value().rows.empty());

  const BlockManager& blocks = session.cluster().blocks();
  const size_t steady_blocks = blocks.NumBlocks();
  obs::QueryProfileRegistry& profiles = obs::QueryProfileRegistry::Global();
  const size_t steady_profiles = profiles.Ids().size();
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(indexed.GetRows(Value::Int64(i % 120)).ok());
  }
  EXPECT_EQ(blocks.NumBlocks(), steady_blocks);
  EXPECT_EQ(profiles.Ids().size(), steady_profiles);
}

TEST(BlockLifetimeTest, CachedTableOutlivesEveryDerivedHandle) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(1000, 96, 60));
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(50, 97, 60));
  const BlockManager& blocks = session.cluster().blocks();
  const size_t cached = blocks.NumBlocks();
  const std::vector<std::string> expected =
      edges.Collect()->SortedRowStrings();
  {
    // Filter and join outputs, an index (its own blocks) built over a
    // derived table, and an EXPLAIN result table: all hold leases.
    TableHandle filtered =
        *edges.Filter(Gt(Col("weight"), Lit(0.5))).Execute();
    TableHandle joined = *edges.Join(probe, "src", "src").Execute();
    auto indexed = *IndexedDataFrame::Create(
        edges.Filter(Lt(Col("weight"), Lit(0.5))), "src");
    auto explain = *session.Sql("EXPLAIN SELECT * FROM edges");
    ASSERT_TRUE(explain.Collect().ok());
    EXPECT_FALSE(indexed.GetRows(Value::Int64(1)).value().rows.empty());
    EXPECT_GT(blocks.NumBlocks(), cached);
  }
  // Every derived handle is gone; the cached tables' blocks stay and serve.
  EXPECT_EQ(blocks.NumBlocks(), cached);
  EXPECT_EQ(edges.Collect()->SortedRowStrings(), expected);
  EXPECT_EQ(session.Sql("SELECT * FROM edges")->Collect()->SortedRowStrings(),
            expected);
}

TEST(BlockLifetimeTest, ExecutorLossWithLiveDerivedHandleRecoversSameRows) {
  Session session(SmallOptions());
  auto edges = *session.CreateTable("edges", EdgeSchema(),
                                    PowerLawEdges(1500, 93, 120));
  auto probe = *session.CreateTable("probe", EdgeSchema(),
                                    PowerLawEdges(80, 94, 120));
  auto extra = *session.CreateTable("extra", EdgeSchema(),
                                    {Edge(3, 9001), Edge(3, 9002)});
  auto v0 = *IndexedDataFrame::Create(edges, "src");
  auto v1 = *v0.AppendRows(extra);
  const DataFrame join = v1.Join(probe, "src");
  const std::vector<std::string> expected_join =
      join.Collect()->SortedRowStrings();
  const std::vector<std::string> expected_lookup =
      v1.GetRows(Value::Int64(3))->SortedRowStrings();
  const BlockManager& blocks = session.cluster().blocks();
  const size_t steady = blocks.NumBlocks();
  {
    const TableHandle live = *join.Execute();
    EXPECT_GT(blocks.NumBlocks(), steady);
    // Recovery re-indexes the lost partitions from the base table and the
    // append chain while the join output's lease is held.
    session.cluster().KillExecutor(2);
    EXPECT_EQ(join.Collect()->SortedRowStrings(), expected_join);
    EXPECT_EQ(v1.GetRows(Value::Int64(3))->SortedRowStrings(),
              expected_lookup);
  }
  // The live handle's surviving blocks went with it; what recovery rebuilt
  // for the index stays, and a rerun adds nothing.
  const size_t recovered = blocks.NumBlocks();
  EXPECT_EQ(join.Collect()->SortedRowStrings(), expected_join);
  EXPECT_EQ(blocks.NumBlocks(), recovered);
}

TEST(BlockLifetimeTest, HandlesMayOutliveTheirSession) {
  // A lease released after its cluster is gone must not touch the freed
  // block manager (checked under ASan by tools/check.sh address).
  DataFrame edges;
  IndexedDataFrame indexed;
  TableHandle joined;
  {
    Session session(SmallOptions());
    edges = *session.CreateTable("edges", EdgeSchema(),
                                 PowerLawEdges(500, 98, 40));
    indexed = *IndexedDataFrame::Create(edges, "src");
    joined = *indexed.Join(edges, "src").Execute();
    ASSERT_NE(joined.lease, nullptr);
  }
  joined = TableHandle{};
  indexed = IndexedDataFrame{};
  edges = DataFrame{};
}

// ---- property sweep: indexed join == vanilla join over random data -------------

class IndexedJoinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexedJoinProperty, MatchesVanillaOnRandomData) {
  Session session(SmallOptions());
  Rng rng(GetParam());
  std::vector<RowVec> build_rows, probe_rows;
  const int64_t domain = 1 + static_cast<int64_t>(rng.Below(60));
  for (int i = 0; i < 800; ++i) {
    build_rows.push_back(Edge(static_cast<int64_t>(rng.Below(
                                  static_cast<uint64_t>(domain))),
                              i, rng.NextDouble()));
  }
  for (int i = 0; i < 120; ++i) {
    probe_rows.push_back(Edge(static_cast<int64_t>(rng.Below(
                                  static_cast<uint64_t>(domain * 2))),
                              -i, rng.NextDouble()));
  }
  auto build = *session.CreateTable("b", EdgeSchema(), build_rows);
  auto probe = *session.CreateTable("p", EdgeSchema(), probe_rows);
  auto vanilla = build.Join(probe, "src", "src").Collect();
  auto indexed = *IndexedDataFrame::Create(build, "src");
  auto fast = indexed.Join(probe, "src").Collect();
  ASSERT_TRUE(vanilla.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->SortedRowStrings(), vanilla->SortedRowStrings());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedJoinProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace idf
