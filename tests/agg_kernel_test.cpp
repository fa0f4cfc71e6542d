// The typed partial-aggregation kernel (sql/agg_internal.h) against the
// row-at-a-time loop it replaced, and the two operators that drive it
// (HashAggExec over columnar chunks, RowAggExec over row batches) against
// each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "sql/agg_internal.h"

namespace idf {
namespace {

using agg_internal::Accum;
using agg_internal::ChunkRun;
using agg_internal::FindOrCreateGroup;
using agg_internal::GroupMap;
using agg_internal::GroupState;
using agg_internal::PartialAggregator;
using agg_internal::ResolvedAggs;
using agg_internal::RowRun;

// ---- reference: one Value per input row ---------------------------------

void ReferenceAdd(const AggSpec& spec, const Value& v, Accum& acc) {
  switch (spec.fn) {
    case AggSpec::Fn::kCount:
      ++acc.count;
      return;
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kAvg:
      if (v.is_null()) return;
      ++acc.count;
      if (v.type() == TypeId::kFloat64) {
        acc.fsum += v.float64_value();
      } else {
        acc.isum += v.AsInt64();
      }
      return;
    case AggSpec::Fn::kMin:
      if (v.is_null()) return;
      if (acc.min.is_null() || v.Compare(acc.min) < 0) acc.min = v;
      return;
    case AggSpec::Fn::kMax:
      if (v.is_null()) return;
      if (acc.max.is_null() || v.Compare(acc.max) > 0) acc.max = v;
      return;
  }
}

/// One partial row: its group code and its encoded bytes.
struct Partial {
  uint64_t code;
  std::vector<uint8_t> bytes;
  bool operator==(const Partial& o) const {
    return code == o.code && bytes == o.bytes;
  }
};

std::vector<uint8_t> Encode(const RowLayout& layout, const RowVec& row) {
  std::vector<uint8_t> bytes(*layout.ComputeRowSize(row));
  layout.EncodeRow(row, bytes.data(), PackedRowPtr::Null());
  return bytes;
}

std::vector<Partial> ReferencePartials(const ResolvedAggs& resolved,
                                       const std::vector<AggSpec>& aggs,
                                       const std::vector<RowVec>& rows) {
  GroupMap groups;
  for (const RowVec& row : rows) {
    RowVec key;
    for (size_t g : resolved.group_idx) key.push_back(row[g]);
    GroupState& state = FindOrCreateGroup(groups, std::move(key), aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Value v = resolved.agg_idx[a] < 0
                          ? Value::Int64(1)
                          : row[static_cast<size_t>(resolved.agg_idx[a])];
      ReferenceAdd(aggs[a], v, state.accums[a]);
    }
  }
  const RowLayout layout(resolved.partial_schema);
  std::vector<Partial> out;
  for (const auto& [code, bucket] : groups) {
    for (const GroupState& state : bucket) {
      RowVec row = state.group_values;
      for (const Accum& acc : state.accums) {
        row.push_back(Value::Int64(acc.count));
        row.push_back(Value::Int64(acc.isum));
        row.push_back(Value::Float64(acc.fsum));
        row.push_back(acc.min);
        row.push_back(acc.max);
      }
      out.push_back({code, Encode(layout, row)});
    }
  }
  return out;
}

std::vector<Partial> KernelPartials(const PartialAggregator& partials) {
  const RowLayout layout(partials.resolved().partial_schema);
  std::vector<Partial> out;
  Status st = partials.ForEachPartial([&](uint64_t code, const RowVec& row) {
    out.push_back({code, Encode(layout, row)});
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

/// Kernel over the rows as one columnar chunk (HashAggExec's input).
std::vector<Partial> ChunkPartials(const ResolvedAggs& resolved,
                                   const std::vector<AggSpec>& aggs,
                                   const SchemaPtr& schema,
                                   const std::vector<RowVec>& rows) {
  ColumnarChunk chunk(schema);
  for (const RowVec& row : rows) EXPECT_TRUE(chunk.AppendRow(row).ok());
  PartialAggregator partials(resolved, aggs);
  partials.Add(ChunkRun(chunk));
  return KernelPartials(partials);
}

/// Kernel over the rows encoded back to back and cut into runs of uneven
/// length, as RowAggExec folds one row batch at a time.
std::vector<Partial> RowPartials(const ResolvedAggs& resolved,
                                 const std::vector<AggSpec>& aggs,
                                 const SchemaPtr& schema,
                                 const std::vector<RowVec>& rows) {
  const RowLayout layout(schema);
  std::vector<uint8_t> data;
  for (const RowVec& row : rows) {
    const std::vector<uint8_t> bytes = Encode(layout, row);
    data.insert(data.end(), bytes.begin(), bytes.end());
  }
  std::vector<const uint8_t*> all;
  EXPECT_TRUE(RowLayout::SplitRows(data.data(), data.size(), all));
  PartialAggregator partials(resolved, aggs);
  size_t begin = 0;
  for (size_t len = 1; begin < all.size(); len = len * 3 + 5) {
    const size_t end = std::min(all.size(), begin + len);
    const std::vector<const uint8_t*> run(all.begin() + begin,
                                          all.begin() + end);
    partials.Add(RowRun(layout, run));
    begin = end;
  }
  return KernelPartials(partials);
}

/// Checks both kernel inputs against the reference, byte for byte and in
/// emission order.
void ExpectKernelMatchesReference(const SchemaPtr& schema,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggSpec>& aggs,
                                  const std::vector<RowVec>& rows) {
  auto resolved = ResolvedAggs::Resolve(*schema, group_by, aggs);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const std::vector<Partial> want = ReferencePartials(*resolved, aggs, rows);
  EXPECT_TRUE(ChunkPartials(*resolved, aggs, schema, rows) == want)
      << "columnar input, " << rows.size() << " rows";
  EXPECT_TRUE(RowPartials(*resolved, aggs, schema, rows) == want)
      << "row input, " << rows.size() << " rows";
}

/// Four small int32 columns lead, so the typed columns' null bits span both
/// bytes of the row null bitmap.
SchemaPtr MixedSchema() {
  return std::make_shared<Schema>(Schema({
      {"t0", TypeId::kInt32, true},
      {"t1", TypeId::kInt32, true},
      {"t2", TypeId::kInt32, true},
      {"t3", TypeId::kInt32, true},
      {"b", TypeId::kBool, true},
      {"i32", TypeId::kInt32, true},
      {"i64", TypeId::kInt64, true},
      {"f64", TypeId::kFloat64, true},
      {"s", TypeId::kString, true},
  }));
}

/// Seeded rows with about 10% nulls in every column; few distinct values
/// per column so groups repeat.
std::vector<RowVec> MixedRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  auto maybe_null = [&](TypeId type, Value v) {
    return rng.Below(10) == 0 ? Value::Null(type) : std::move(v);
  };
  std::vector<RowVec> rows;
  for (size_t i = 0; i < n; ++i) {
    RowVec row;
    for (int t = 0; t < 4; ++t) {
      row.push_back(maybe_null(
          TypeId::kInt32, Value::Int32(static_cast<int32_t>(rng.Below(3)))));
    }
    const double f = (static_cast<double>(rng.Below(2001)) - 1000.0) / 7.0;
    row.insert(row.end(), {
        maybe_null(TypeId::kBool, Value::Bool(rng.Below(2) == 1)),
        maybe_null(TypeId::kInt32,
                   Value::Int32(static_cast<int32_t>(rng.Below(40)) - 20)),
        // Within +-2^48, so a sum of 9000 cannot overflow an int64.
        maybe_null(TypeId::kInt64,
                   Value::Int64(
                       static_cast<int64_t>(rng.Below(uint64_t{1} << 49)) -
                       (int64_t{1} << 48))),
        maybe_null(TypeId::kFloat64, Value::Float64(rng.Below(4) == 0
                                                        ? std::floor(f / 50)
                                                        : f)),
        maybe_null(TypeId::kString,
                   Value::String("s" + std::to_string(rng.Below(25)))),
    });
    rows.push_back(std::move(row));
  }
  return rows;
}

constexpr size_t kI64Column = 6;
constexpr size_t kF64Column = 7;

std::vector<AggSpec> AllAggs() {
  std::vector<AggSpec> aggs = {AggSpec::Count("n")};
  for (const char* col : {"b", "i32", "i64", "f64"}) {
    aggs.push_back(AggSpec::Sum(col));
    aggs.push_back(AggSpec::Avg(col));
  }
  for (const char* col : {"b", "i32", "i64", "f64", "s"}) {
    aggs.push_back(AggSpec::Min(col));
    aggs.push_back(AggSpec::Max(col));
  }
  return aggs;
}

TEST(AggKernelTest, RandomChunksMatchTheRowAtATimeLoop) {
  const std::vector<std::vector<std::string>> group_bys = {
      {}, {"b"}, {"i32"}, {"s"}, {"f64"}, {"b", "s"}, {"t3", "s"},
      {"s", "i32", "b"}};
  uint64_t seed = 2101;
  for (const auto& group_by : group_bys) {
    // 9000 rows span three kernel blocks; 37 rows fit in one.
    for (size_t n : {size_t{37}, size_t{9000}}) {
      SCOPED_TRACE(testing::Message() << "group by " << group_by.size()
                                      << " columns, seed " << seed);
      ExpectKernelMatchesReference(MixedSchema(), group_by, AllAggs(),
                                   MixedRows(seed++, n));
    }
  }
}

TEST(AggKernelTest, EmptyPartitionEmitsNothing) {
  for (const std::vector<std::string>& group_by :
       {std::vector<std::string>{}, std::vector<std::string>{"s"}}) {
    ExpectKernelMatchesReference(MixedSchema(), group_by, AllAggs(), {});
    auto resolved = ResolvedAggs::Resolve(*MixedSchema(), group_by, AllAggs());
    ASSERT_TRUE(resolved.ok());
    const std::vector<AggSpec> aggs = AllAggs();
    PartialAggregator partials(*resolved, aggs);
    ColumnarChunk empty(MixedSchema());
    partials.Add(ChunkRun(empty));
    EXPECT_EQ(partials.num_groups(), 0u);
  }
}

TEST(AggKernelTest, SumOverStringIsRejected) {
  auto resolved =
      ResolvedAggs::Resolve(*MixedSchema(), {}, {AggSpec::Sum("s")});
  EXPECT_FALSE(resolved.ok());
}

SchemaPtr KeyValueSchema(TypeId key, TypeId value) {
  return std::make_shared<Schema>(
      Schema({{"k", key, true}, {"v", value, true}}));
}

std::vector<Partial> KernelOver(const SchemaPtr& schema,
                                const std::vector<std::string>& group_by,
                                const std::vector<AggSpec>& aggs,
                                const std::vector<RowVec>& rows) {
  auto resolved = ResolvedAggs::Resolve(*schema, group_by, aggs);
  EXPECT_TRUE(resolved.ok());
  return ChunkPartials(*resolved, aggs, schema, rows);
}

TEST(AggKernelTest, EveryNaNRowOpensItsOwnGroup) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const SchemaPtr schema = KeyValueSchema(TypeId::kFloat64, TypeId::kInt64);
  const std::vector<RowVec> rows = {
      {Value::Float64(nan), Value::Int64(1)},
      {Value::Float64(1.5), Value::Int64(2)},
      {Value::Float64(nan), Value::Int64(3)},
      {Value::Float64(1.5), Value::Int64(4)},
      {Value::Float64(nan), Value::Int64(5)},
  };
  const std::vector<AggSpec> aggs = {AggSpec::Sum("v")};
  ExpectKernelMatchesReference(schema, {"k"}, aggs, rows);
  // Three NaN groups of one row each, plus 1.5's group of two.
  EXPECT_EQ(KernelOver(schema, {"k"}, aggs, rows).size(), 4u);
}

TEST(AggKernelTest, NegativeZeroSharesAGroupKeepingTheFirstSeenKey) {
  const SchemaPtr schema = KeyValueSchema(TypeId::kFloat64, TypeId::kInt64);
  const std::vector<RowVec> rows = {
      {Value::Float64(-0.0), Value::Int64(1)},
      {Value::Float64(0.0), Value::Int64(2)},
      {Value::Float64(-0.0), Value::Int64(4)},
  };
  const std::vector<AggSpec> aggs = {AggSpec::Sum("v")};
  ExpectKernelMatchesReference(schema, {"k"}, aggs, rows);
  const std::vector<Partial> partials = KernelOver(schema, {"k"}, aggs, rows);
  ASSERT_EQ(partials.size(), 1u);
  const RowLayout layout(
      ResolvedAggs::Resolve(*schema, {"k"}, aggs)->partial_schema);
  const double key = layout.GetFloat64(partials[0].bytes.data(), 0);
  EXPECT_TRUE(std::signbit(key)) << "the group keeps the first-seen -0.0";
  EXPECT_EQ(layout.GetInt64(partials[0].bytes.data(), 2), 7);  // isum
}

TEST(AggKernelTest, Int64MinMaxAbove2To53CompareThroughDouble) {
  // 2^53 + 1 rounds to the double 2^53, so the two values tie, and a tie
  // keeps the first-seen value.
  const int64_t big = (int64_t{1} << 53) + 1;
  const SchemaPtr schema = KeyValueSchema(TypeId::kInt64, TypeId::kInt64);
  const std::vector<RowVec> rows = {
      {Value::Int64(0), Value::Int64(big)},
      {Value::Int64(0), Value::Int64(big - 1)},
  };
  const std::vector<AggSpec> aggs = {AggSpec::Min("v"), AggSpec::Max("v")};
  ExpectKernelMatchesReference(schema, {}, aggs, rows);
  const std::vector<Partial> partials = KernelOver(schema, {}, aggs, rows);
  ASSERT_EQ(partials.size(), 1u);
  const RowLayout layout(
      ResolvedAggs::Resolve(*schema, {}, aggs)->partial_schema);
  EXPECT_EQ(layout.GetInt64(partials[0].bytes.data(), 3), big);  // agg0_min
  EXPECT_EQ(layout.GetInt64(partials[0].bytes.data(), 9), big);  // agg1_max
}

TEST(AggKernelTest, BoolAndInt32SumsWidenToInt64) {
  const SchemaPtr schema = KeyValueSchema(TypeId::kBool, TypeId::kInt32);
  std::vector<RowVec> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Bool(i % 3 == 0),
                    Value::Int32(std::numeric_limits<int32_t>::max() - i)});
  }
  ExpectKernelMatchesReference(
      schema, {}, {AggSpec::Sum("k"), AggSpec::Sum("v"), AggSpec::Avg("v")},
      rows);
  ExpectKernelMatchesReference(schema, {"k"}, {AggSpec::Sum("v")}, rows);
}

// ---- RowAggExec against HashAggExec ------------------------------------------

SessionOptions SmallOptions() {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

/// Float values are small multiples of 1/4, so their sums are exact in any
/// order and both operators must agree to the bit.
std::vector<RowVec> ExactRows(uint64_t seed, size_t n) {
  std::vector<RowVec> rows = MixedRows(seed, n);
  Rng rng(seed ^ 0x5eed);
  for (RowVec& row : rows) {
    if (!row[kF64Column].is_null()) {
      row[kF64Column] =
          Value::Float64(static_cast<double>(rng.Below(400)) / 4.0 - 50);
    }
    // The index key: never null.
    row[kI64Column] = Value::Int64(static_cast<int64_t>(rng.Below(1000)));
  }
  return rows;
}

/// Each row as its exact bytes (null flag, then the value's bits), sorted:
/// an order-insensitive, bitwise comparison of two results.
std::vector<std::string> BitwiseRows(const CollectedTable& table) {
  std::vector<std::string> out;
  for (const RowVec& row : table.rows) {
    std::string bytes;
    for (const Value& v : row) {
      bytes.push_back(v.is_null() ? 'N' : 'V');
      if (v.is_null()) continue;
      switch (v.type()) {
        case TypeId::kBool: bytes.push_back(v.bool_value() ? 1 : 0); break;
        case TypeId::kInt32:
        case TypeId::kInt64: bytes += std::to_string(v.AsInt64()); break;
        case TypeId::kFloat64: {
          const double d = v.float64_value();
          bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
          break;
        }
        case TypeId::kString: bytes += v.string_value(); break;
      }
      bytes.push_back('|');
    }
    out.push_back(std::move(bytes));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectOperatorsAgree(const DataFrame& vanilla,
                          const IndexedDataFrame& indexed,
                          const std::vector<std::string>& group_by) {
  const std::vector<AggSpec> aggs = AllAggs();
  DataFrame hash_q = vanilla.Agg(group_by, aggs);
  DataFrame row_q = indexed.AsDataFrame().Agg(group_by, aggs);
  ASSERT_NE(hash_q.ExplainPhysical()->find("HashAggExec"), std::string::npos);
  ASSERT_NE(row_q.ExplainPhysical()->find("RowAggExec"), std::string::npos);
  auto hash = hash_q.Collect();
  auto row = row_q.Collect();
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(*hash->schema, *row->schema);
  EXPECT_FALSE(hash->rows.empty());
  EXPECT_EQ(BitwiseRows(*hash), BitwiseRows(*row));
}

TEST(AggOperatorDiffTest, RowAggExecMatchesHashAggExecBitwise) {
  Session session(SmallOptions());
  const std::vector<RowVec> rows = ExactRows(2102, 6000);
  auto df = *session.CreateTable("mixed", MixedSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(df, "i64");
  ExpectOperatorsAgree(df, indexed, {});
  ExpectOperatorsAgree(df, indexed, {"s"});
  ExpectOperatorsAgree(df, indexed, {"b", "i32"});
}

TEST(AggOperatorDiffTest, RowAggExecMatchesHashAggExecOnAnAppendedVersion) {
  Session session(SmallOptions());
  const std::vector<RowVec> base = ExactRows(2103, 3000);
  const std::vector<RowVec> extra = ExactRows(2104, 700);
  auto df = *session.CreateTable("base", MixedSchema(), base);
  auto v0 = *IndexedDataFrame::Create(df, "i64");
  auto v1 = *v0.AppendRows(*session.CreateTable("extra", MixedSchema(), extra));

  std::vector<RowVec> all = base;
  all.insert(all.end(), extra.begin(), extra.end());
  auto all_df = *session.CreateTable("all", MixedSchema(), all);
  ExpectOperatorsAgree(all_df, v1, {});
  ExpectOperatorsAgree(all_df, v1, {"s", "b"});
  ExpectOperatorsAgree(df, v0, {"s", "b"});  // v0 is unchanged
}

}  // namespace
}  // namespace idf
