// Cross-representation property tests: the engine stores the same logical
// rows in two physical forms — columnar chunks (vanilla cache) and binary
// rows in batches (Indexed Batch RDD). Expressions only ever evaluate over
// columns: binary rows reach them through the decoder (DecodeRows). Every
// expression must evaluate to the same value over a chunk and over its
// stored rows decoded, and every filter must select the same rows through
// the vectorized columnar path, the generic columnar path, and the indexed
// fallback path. This is the invariant behind all indexed-vs-vanilla result
// equality in the benches.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "mem/governor.h"
#include "sql/columnar.h"
#include "storage/partition_store.h"

namespace idf {
namespace {

SchemaPtr WideSchema() {
  return std::make_shared<Schema>(Schema({
      {"a", TypeId::kInt64, true},
      {"b", TypeId::kInt32, true},
      {"c", TypeId::kFloat64, true},
      {"s", TypeId::kString, true},
      {"f", TypeId::kBool, true},
  }));
}

RowVec RandomRow(Rng& rng) {
  auto maybe_null = [&](Value v, TypeId t) {
    return rng.Chance(0.15) ? Value::Null(t) : v;
  };
  return {
      maybe_null(Value::Int64(rng.Range(-50, 50)), TypeId::kInt64),
      maybe_null(Value::Int32(static_cast<int32_t>(rng.Range(-20, 20))),
                 TypeId::kInt32),
      maybe_null(Value::Float64(rng.NextDouble() * 40 - 20), TypeId::kFloat64),
      maybe_null(Value::String(rng.NextString(rng.Below(6))), TypeId::kString),
      maybe_null(Value::Bool(rng.Chance(0.5)), TypeId::kBool),
  };
}

/// A random expression tree of bounded depth over the schema's columns.
ExprPtr RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Chance(0.3)) {
    // Leaf comparison.
    static const char* kNumCols[] = {"a", "b", "c"};
    switch (rng.Below(5)) {
      case 0: return Eq(Col(kNumCols[rng.Below(3)]),
                        Lit(static_cast<int64_t>(rng.Range(-50, 50))));
      case 1: return Lt(Col(kNumCols[rng.Below(3)]),
                        Lit(rng.NextDouble() * 40 - 20));
      case 2: return Ge(Col(kNumCols[rng.Below(3)]),
                        Lit(static_cast<int64_t>(rng.Range(-20, 20))));
      case 3: return IsNull(Col(kNumCols[rng.Below(3)]));
      default:
        return Eq(Col("s"), Lit(Value::String(rng.NextString(rng.Below(4)))));
    }
  }
  switch (rng.Below(4)) {
    case 0: return And(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1: return Or(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 2: return Not(RandomExpr(rng, depth - 1));
    default:
      // Arithmetic comparison: (a <op> lit) cmp lit.
      return Gt(Add(Col("a"), Lit(static_cast<int64_t>(rng.Range(-5, 5)))),
                Lit(static_cast<int64_t>(rng.Range(-40, 40))));
  }
}

std::string ValueKey(const Value& v) {
  return v.is_null() ? "<null>" : v.ToString();
}

class CrossEvalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossEvalProperty, ExpressionsAgreeAcrossRepresentations) {
  Rng rng(GetParam());
  auto schema = WideSchema();
  RowLayout layout(schema);

  // Build the same 200 rows in both representations.
  std::vector<RowVec> rows;
  ColumnarChunk chunk(schema);
  PartitionStore store;
  std::vector<PackedRowPtr> ptrs;
  for (int i = 0; i < 200; ++i) {
    RowVec row = RandomRow(rng);
    IDF_CHECK_OK(chunk.AppendRow(row));
    ptrs.push_back(
        store.AppendRow(layout, row, PackedRowPtr::Null()).value());
    rows.push_back(std::move(row));
  }

  std::vector<const uint8_t*> stored;
  for (const PackedRowPtr& ptr : ptrs) stored.push_back(store.RowAt(ptr));
  ColumnarChunk decoded(schema);
  DecodeRows(layout, stored, AllFields(layout.schema()), decoded, 0);
  decoded.SetRowCount(stored.size());

  for (int trial = 0; trial < 30; ++trial) {
    ExprPtr expr = RandomExpr(rng, 3);
    auto resolved = expr->Resolve(*schema);
    ASSERT_TRUE(resolved.ok()) << expr->ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      ChunkRowAccessor columnar(chunk, i);
      ChunkRowAccessor binary(decoded, i);
      const Value via_columnar = (*resolved)->Eval(columnar);
      const Value via_binary = (*resolved)->Eval(binary);
      ASSERT_EQ(ValueKey(via_columnar), ValueKey(via_binary))
          << "expr " << expr->ToString() << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEvalProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class FilterPathProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterPathProperty, VanillaAndIndexedFiltersSelectSameRows) {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  Session session(opts);

  Rng rng(GetParam());
  std::vector<RowVec> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(RandomRow(rng));
  // Indexing requires a NOT NULL key; overwrite column a with non-nulls.
  for (auto& row : rows) {
    row[0] = Value::Int64(rng.Range(-50, 50));
  }
  auto df = *session.CreateTable("t", WideSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(df, "a");

  for (int trial = 0; trial < 10; ++trial) {
    ExprPtr expr = RandomExpr(rng, 2);
    auto vanilla = df.Filter(expr).Collect();
    auto fallback = indexed.AsDataFrame().Filter(expr).Collect();
    ASSERT_TRUE(vanilla.ok()) << expr->ToString();
    ASSERT_TRUE(fallback.ok()) << expr->ToString();
    EXPECT_EQ(fallback->SortedRowStrings(), vanilla->SortedRowStrings())
        << expr->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterPathProperty,
                         ::testing::Values(10, 20, 30, 40));

class BudgetedFilterPathProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetedFilterPathProperty, QuarterBudgetKeepsSelectionsIdentical) {
  // Same cross-representation invariant under memory pressure: with the
  // governor engaged the cached columnar chunks are budgeted Evictables
  // (spilled column-by-column, faulted back on access) alongside the
  // indexed row batches. At ~25% of the working set every filter must still
  // select exactly the rows the unbudgeted run selects, through both the
  // vanilla columnar path and the indexed fallback path.
  ::unsetenv("IDF_MEMORY_BUDGET");
  mem::MemoryGovernor& gov = mem::MemoryGovernor::Global();
  const uint64_t base = gov.resident_bytes();
  mem::ScopedBudget engage(base + (256 << 20));  // roomy: chunks register

  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  Session session(opts);

  Rng rng(GetParam());
  std::vector<RowVec> rows;
  for (int i = 0; i < 300; ++i) rows.push_back(RandomRow(rng));
  for (auto& row : rows) {
    row[0] = Value::Int64(rng.Range(-50, 50));
  }
  auto df = *session.CreateTable("t", WideSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(df, "a");
  const uint64_t working_set = gov.resident_bytes() - base;
  ASSERT_GT(working_set, 0u);

  std::vector<ExprPtr> exprs;
  std::vector<std::vector<std::string>> expected;
  for (int trial = 0; trial < 8; ++trial) {
    ExprPtr expr = RandomExpr(rng, 2);
    auto unbudgeted = df.Filter(expr).Collect();
    ASSERT_TRUE(unbudgeted.ok()) << expr->ToString();
    expected.push_back(unbudgeted->SortedRowStrings());
    exprs.push_back(std::move(expr));
  }

  mem::ScopedBudget tight(base + working_set / 4);
  for (size_t trial = 0; trial < exprs.size(); ++trial) {
    auto vanilla = df.Filter(exprs[trial]).Collect();
    auto fallback = indexed.AsDataFrame().Filter(exprs[trial]).Collect();
    ASSERT_TRUE(vanilla.ok()) << exprs[trial]->ToString();
    ASSERT_TRUE(fallback.ok()) << exprs[trial]->ToString();
    EXPECT_EQ(vanilla->SortedRowStrings(), expected[trial])
        << exprs[trial]->ToString();
    EXPECT_EQ(fallback->SortedRowStrings(), expected[trial])
        << exprs[trial]->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetedFilterPathProperty,
                         ::testing::Values(10, 30));

}  // namespace
}  // namespace idf
