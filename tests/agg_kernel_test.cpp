// The typed aggregation kernel (sql/agg_internal.h) against the Value-based
// loops it replaced: the partial phase against the row-at-a-time loop, and
// the final merge (FinalMerge) against the GroupMap merge. Then the two
// inputs HashAggExec folds with it — a cached table's columnar chunks and an
// indexed table's row blocks — against each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "sql/agg_internal.h"

namespace idf {
namespace {

using agg_internal::ChunkRun;
using agg_internal::FinalMerge;
using agg_internal::PartialAggregator;
using agg_internal::ResolvedAggs;
using agg_internal::RowRun;

// ---- reference: one Value per row ----------------------------------------

/// Accumulator state for one aggregate function in one group.
struct Accum {
  int64_t count = 0;
  int64_t isum = 0;
  double fsum = 0;
  Value min;  // null until first value
  Value max;

  void Merge(const AggSpec& spec, const Accum& other) {
    switch (spec.fn) {
      case AggSpec::Fn::kCount:
        count += other.count;
        return;
      case AggSpec::Fn::kSum:
      case AggSpec::Fn::kAvg:
        count += other.count;
        isum += other.isum;
        fsum += other.fsum;
        return;
      case AggSpec::Fn::kMin:
        if (!other.min.is_null() &&
            (min.is_null() || other.min.Compare(min) < 0)) {
          min = other.min;
        }
        return;
      case AggSpec::Fn::kMax:
        if (!other.max.is_null() &&
            (max.is_null() || other.max.Compare(max) > 0)) {
          max = other.max;
        }
        return;
    }
  }

  Value Finish(const AggSpec& spec, TypeId input_type) const {
    switch (spec.fn) {
      case AggSpec::Fn::kCount:
        return Value::Int64(count);
      case AggSpec::Fn::kSum:
        if (input_type == TypeId::kFloat64) return Value::Float64(fsum);
        return Value::Int64(isum);
      case AggSpec::Fn::kAvg: {
        if (count == 0) return Value::Null(TypeId::kFloat64);
        const double total =
            input_type == TypeId::kFloat64 ? fsum : static_cast<double>(isum);
        return Value::Float64(total / static_cast<double>(count));
      }
      case AggSpec::Fn::kMin:
        return min;
      case AggSpec::Fn::kMax:
        return max;
    }
    return Value();
  }
};

struct GroupState {
  RowVec group_values;
  std::vector<Accum> accums;
};

/// One group key's hash, written out per Value type.
uint64_t KeyHash(const Value& v) {
  if (v.is_null()) return agg_internal::kNullKeyHash;
  switch (v.type()) {
    case TypeId::kBool: return HashInt64(v.bool_value() ? 1 : 0);
    case TypeId::kInt32: return HashInt64(v.int32_value());
    case TypeId::kInt64: return HashInt64(v.int64_value());
    case TypeId::kFloat64: return HashDouble(v.float64_value());
    case TypeId::kString: return HashString(v.string_value());
  }
  return 0;
}

uint64_t GroupCode(const RowVec& group_values) {
  uint64_t code = agg_internal::kGroupCodeSeed;
  for (const Value& v : group_values) code = HashCombine(code, KeyHash(v));
  return code;
}

bool SameGroup(const RowVec& a, const RowVec& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].is_null() != b[i].is_null()) return false;
    if (!a[i].is_null() && !(a[i] == b[i])) return false;
  }
  return true;
}

using GroupMap = std::unordered_map<uint64_t, std::vector<GroupState>>;

GroupState& FindOrCreateGroup(GroupMap& groups, RowVec group_values,
                              size_t num_aggs) {
  auto& bucket = groups[GroupCode(group_values)];
  for (GroupState& state : bucket) {
    if (SameGroup(state.group_values, group_values)) return state;
  }
  bucket.push_back(
      GroupState{std::move(group_values), std::vector<Accum>(num_aggs)});
  return bucket.back();
}

/// Splits a decoded partial row back into (group values, accumulators).
void DecodePartial(const ResolvedAggs& resolved, const RowVec& partial,
                   RowVec* group, std::vector<Accum>* accums) {
  const size_t num_keys = resolved.group_idx.size();
  group->assign(partial.begin(),
                partial.begin() + static_cast<long>(num_keys));
  accums->resize(resolved.agg_idx.size());
  for (size_t a = 0; a < resolved.agg_idx.size(); ++a) {
    const size_t base = num_keys + a * 5;
    Accum& acc = (*accums)[a];
    acc.count = partial[base].int64_value();
    acc.isum = partial[base + 1].int64_value();
    acc.fsum = partial[base + 2].float64_value();
    acc.min = partial[base + 3];
    acc.max = partial[base + 4];
  }
}

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
/// length, as HashAggExec folds an indexed table one row batch at a time.
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

// ---- the final merge against the GroupMap merge -----------------------------

/// The final phase FinalMerge replaced: decode each partial row into Values,
/// merge it into a GroupMap, then finish each group in map order.
void ReferenceFinal(const ResolvedAggs& resolved,
                    const std::vector<AggSpec>& aggs,
                    const ShuffleInputs& inputs, ColumnarChunk& out) {
  const RowLayout partial_layout(resolved.partial_schema);
  GroupMap groups;
  std::vector<const uint8_t*> rows;
  for (const auto& buf : inputs) buf->SplitRows(rows);
  for (const uint8_t* partial : rows) {
    RowVec key;
    std::vector<Accum> others;
    DecodePartial(resolved, partial_layout.DecodeRow(partial), &key, &others);
    GroupState& state = FindOrCreateGroup(groups, std::move(key), aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      state.accums[a].Merge(aggs[a], others[a]);
    }
  }
  for (const auto& [code, bucket] : groups) {
    for (const GroupState& state : bucket) {
      RowVec row = state.group_values;
      for (size_t a = 0; a < aggs.size(); ++a) {
        row.push_back(state.accums[a].Finish(aggs[a], resolved.agg_type[a]));
      }
      ASSERT_TRUE(out.AppendRow(row).ok());
    }
  }
  // Global aggregates emit one row even for empty input.
  if (resolved.group_idx.empty() && groups.empty()) {
    RowVec row;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(Accum{}.Finish(aggs[a], resolved.agg_type[a]));
    }
    ASSERT_TRUE(out.AppendRow(row).ok());
  }
}

/// The map side as the operators run it: each map partition's rows through
/// the kernel, each partial row encoded into the buffer of its reduce
/// partition (of R). Returns each reduce partition's inputs in map order.
std::vector<ShuffleInputs> MapSide(
    const ResolvedAggs& resolved, const std::vector<AggSpec>& aggs,
    const SchemaPtr& schema,
    const std::vector<std::vector<RowVec>>& partitions, uint32_t R) {
  const RowLayout layout(resolved.partial_schema);
  std::vector<ShuffleInputs> inputs(R);
  for (const std::vector<RowVec>& rows : partitions) {
    ColumnarChunk chunk(schema);
    for (const RowVec& row : rows) EXPECT_TRUE(chunk.AppendRow(row).ok());
    PartialAggregator partials(resolved, aggs);
    partials.Add(ChunkRun(chunk));
    std::vector<ShuffleBuffer> buffers(R);
    Status st = partials.ForEachPartial([&](uint64_t code, const RowVec& row) {
      const std::vector<uint8_t> bytes = Encode(layout, row);
      buffers[HashPartition(code, R)].AppendRow(
          bytes.data(), static_cast<uint32_t>(bytes.size()));
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (uint32_t rp = 0; rp < R; ++rp) {
      if (buffers[rp].num_rows == 0) continue;
      inputs[rp].push_back(
          std::make_shared<const ShuffleBuffer>(std::move(buffers[rp])));
    }
  }
  return inputs;
}

/// Each row of `chunk`, encoded: a bitwise, order-sensitive view.
std::vector<std::vector<uint8_t>> EncodedRows(const ColumnarChunk& chunk) {
  const RowLayout layout(std::make_shared<Schema>(chunk.schema()));
  std::vector<std::vector<uint8_t>> rows;
  for (size_t i = 0; i < chunk.num_rows(); ++i) {
    rows.push_back(Encode(layout, chunk.RowAt(i)));
  }
  return rows;
}

/// Runs the map side over `partitions`, then checks FinalMerge against the
/// reference on every reduce partition, byte for byte and row for row.
/// Returns FinalMerge's output rows, reduce partition by partition.
std::vector<RowVec> ExpectFinalMatchesReference(
    const SchemaPtr& schema, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggs,
    const std::vector<std::vector<RowVec>>& partitions, uint32_t R = 3) {
  auto resolved = ResolvedAggs::Resolve(*schema, group_by, aggs);
  EXPECT_TRUE(resolved.ok()) << resolved.status().ToString();
  if (group_by.empty()) R = 1;
  const FinalMerge merge(*resolved, aggs);
  std::vector<RowVec> out;
  for (const ShuffleInputs& inputs :
       MapSide(*resolved, aggs, schema, partitions, R)) {
    ColumnarChunk got(resolved->output_schema);
    ColumnarChunk want(resolved->output_schema);
    const Status st = merge.Run(inputs, got);
    EXPECT_TRUE(st.ok()) << st.ToString();
    ReferenceFinal(*resolved, aggs, inputs, want);
    EXPECT_EQ(EncodedRows(got), EncodedRows(want));
    for (size_t i = 0; i < got.num_rows(); ++i) out.push_back(got.RowAt(i));
  }
  return out;
}

/// Deals `rows` out to `n` map partitions at random, keeping row order
/// within each.
std::vector<std::vector<RowVec>> Deal(const std::vector<RowVec>& rows,
                                      size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<RowVec>> partitions(n);
  for (const RowVec& row : rows) partitions[rng.Below(n)].push_back(row);
  return partitions;
}

TEST(AggKernelTest, FinalMergeMatchesTheGroupMapMerge) {
  const std::vector<std::vector<std::string>> group_bys = {
      {}, {"b"}, {"i32"}, {"s"}, {"f64"}, {"b", "s"}, {"t3", "s"},
      {"s", "i32", "b"}};
  uint64_t seed = 2301;
  for (const auto& group_by : group_bys) {
    for (size_t n : {size_t{37}, size_t{6000}}) {
      SCOPED_TRACE(testing::Message() << "group by " << group_by.size()
                                      << " columns, seed " << seed);
      const std::vector<RowVec> out = ExpectFinalMatchesReference(
          MixedSchema(), group_by, AllAggs(),
          Deal(MixedRows(seed, n), 5, seed ^ 0xdea1));
      ++seed;
      EXPECT_FALSE(out.empty());
    }
  }
}

TEST(AggKernelTest, FinalMergeKeepsNaNAndSignedZeroKeysApart) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const SchemaPtr schema = KeyValueSchema(TypeId::kFloat64, TypeId::kInt64);
  const std::vector<std::vector<RowVec>> partitions = {
      {{Value::Float64(-0.0), Value::Int64(1)},
       {Value::Float64(nan), Value::Int64(2)}},
      {{Value::Float64(0.0), Value::Int64(4)},
       {Value::Float64(nan), Value::Int64(8)}},
      {{Value::Float64(-0.0), Value::Int64(16)}},
  };
  const std::vector<RowVec> out = ExpectFinalMatchesReference(
      schema, {"k"}, {AggSpec::Sum("v")}, partitions, 1);
  // Every NaN partial row opens its own group; -0.0 and 0.0 merge into
  // one group that keeps the first-seen -0.0.
  ASSERT_EQ(out.size(), 3u);
  size_t zeros = 0;
  for (const RowVec& row : out) {
    if (std::isnan(row[0].float64_value())) continue;
    ++zeros;
    EXPECT_TRUE(std::signbit(row[0].float64_value()));
    EXPECT_EQ(row[1], Value::Int64(21));
  }
  EXPECT_EQ(zeros, 1u);
}

TEST(AggKernelTest, FinalMergeNullKeysFormOneGroupAndNullValuesAreSkipped) {
  const SchemaPtr schema = KeyValueSchema(TypeId::kString, TypeId::kInt64);
  const Value no_key = Value::Null(TypeId::kString);
  const Value no_value = Value::Null(TypeId::kInt64);
  // Key "a" sees only nulls in the first partition, so its partial MIN and
  // MAX there are null; a merge that read them would see 0.
  const std::vector<std::vector<RowVec>> partitions = {
      {{Value::String("a"), no_value}, {no_key, Value::Int64(5)}},
      {{no_key, Value::Int64(-3)}, {Value::String("a"), Value::Int64(7)}},
      {{no_key, no_value}, {Value::String("a"), Value::Int64(9)}},
  };
  const std::vector<AggSpec> aggs = {AggSpec::Count("n"), AggSpec::Min("v"),
                                     AggSpec::Max("v"), AggSpec::Avg("v")};
  const std::vector<RowVec> out =
      ExpectFinalMatchesReference(schema, {"k"}, aggs, partitions, 1);
  ASSERT_EQ(out.size(), 2u);
  for (const RowVec& row : out) {
    if (row[0].is_null()) {
      EXPECT_EQ(row[1], Value::Int64(3));
      EXPECT_EQ(row[2], Value::Int64(-3));
      EXPECT_EQ(row[3], Value::Int64(5));
      EXPECT_EQ(row[4], Value::Float64(1.0));
    } else {
      EXPECT_EQ(row[1], Value::Int64(3));
      EXPECT_EQ(row[2], Value::Int64(7));
      EXPECT_EQ(row[3], Value::Int64(9));
      EXPECT_EQ(row[4], Value::Float64(8.0));
    }
  }
}

TEST(AggKernelTest, FinalMergeInt64MinMaxAbove2To53KeepTheFirstSeen) {
  // 2^53 + 1 rounds to the double 2^53, so the merge ties the partial
  // extremes 2^53 + 1 and 2^53, and a tie keeps the first-seen value.
  const int64_t big = (int64_t{1} << 53) + 1;
  const SchemaPtr schema = KeyValueSchema(TypeId::kInt64, TypeId::kInt64);
  const std::vector<std::vector<RowVec>> partitions = {
      {{Value::Int64(0), Value::Int64(big)}},
      {{Value::Int64(0), Value::Int64(big - 1)}},
      {{Value::Int64(0), Value::Null(TypeId::kInt64)}},
  };
  const std::vector<RowVec> out = ExpectFinalMatchesReference(
      schema, {}, {AggSpec::Min("v"), AggSpec::Max("v")}, partitions);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0].int64_value(), big);
  EXPECT_EQ(out[0][1].int64_value(), big);
}

TEST(AggKernelTest, FinalMergeAddsFloatSumsInMapOrder) {
  const SchemaPtr schema = KeyValueSchema(TypeId::kInt64, TypeId::kFloat64);
  std::vector<std::vector<RowVec>> partitions;
  for (double v : {0.1, 0.2, 0.3}) {
    partitions.push_back({{Value::Int64(1), Value::Float64(v)}});
  }
  const std::vector<AggSpec> aggs = {AggSpec::Sum("v"), AggSpec::Avg("v")};
  const std::vector<RowVec> out =
      ExpectFinalMatchesReference(schema, {"k"}, aggs, partitions, 1);
  ASSERT_EQ(out.size(), 1u);
  // In map order the sum rounds up; in any other order it is 0.6.
  const double sum = ((0.0 + 0.1) + 0.2) + 0.3;
  ASSERT_NE(sum, 0.6);
  EXPECT_EQ(out[0][1], Value::Float64(sum));
  EXPECT_EQ(out[0][2], Value::Float64(sum / 3));
}

TEST(AggKernelTest, FinalMergeOfNothing) {
  // A global aggregate still emits its one row; a grouped one emits none.
  const std::vector<RowVec> global =
      ExpectFinalMatchesReference(MixedSchema(), {}, AllAggs(), {});
  ASSERT_EQ(global.size(), 1u);
  EXPECT_EQ(global[0][0], Value::Int64(0));  // COUNT
  EXPECT_TRUE(global[0][2].is_null());       // AVG(b)
  EXPECT_TRUE(global[0].back().is_null());   // MAX(s)
  EXPECT_TRUE(
      ExpectFinalMatchesReference(MixedSchema(), {"s"}, AllAggs(), {{}, {}})
          .empty());
}

TEST(AggKernelTest, FinalMergeResolvesStateColumnsByPosition) {
  // A group column named like the first aggregate's count column.
  const SchemaPtr schema = std::make_shared<Schema>(
      Schema({{"agg0_count", TypeId::kInt64, true},
              {"v", TypeId::kInt64, true}}));
  const std::vector<std::vector<RowVec>> partitions = {
      {{Value::Int64(100), Value::Int64(1)}},
      {{Value::Int64(100), Value::Int64(2)}},
  };
  const std::vector<RowVec> out = ExpectFinalMatchesReference(
      schema, {"agg0_count"}, {AggSpec::Count("n"), AggSpec::Sum("v")},
      partitions, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (RowVec{Value::Int64(100), Value::Int64(2),
                            Value::Int64(3)}));
}

// ---- row blocks against columnar chunks --------------------------------------

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

/// Expects `df`'s physical plan to be exactly `ops`, one operator per line
/// from the root down, each line starting with its entry.
void ExpectPlan(const DataFrame& df, const std::vector<std::string>& ops) {
  Result<std::string> plan = df.ExplainPhysical();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<std::string> lines;
  std::istringstream in(*plan);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line.substr(line.find_first_not_of(' ')));
  }
  ASSERT_EQ(lines.size(), ops.size()) << *plan;
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(lines[i].rfind(ops[i], 0), 0u) << *plan;
  }
}

/// Runs both queries and expects bitwise-equal, non-empty results.
void ExpectSameRows(const DataFrame& vanilla_q, const DataFrame& indexed_q) {
  auto vanilla = vanilla_q.Collect();
  auto indexed = indexed_q.Collect();
  ASSERT_TRUE(vanilla.ok()) << vanilla.status().ToString();
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_EQ(*vanilla->schema, *indexed->schema);
  EXPECT_FALSE(vanilla->rows.empty());
  EXPECT_EQ(BitwiseRows(*vanilla), BitwiseRows(*indexed));
}

/// The aggregate of the indexed table is the ordinary HashAggExec folding
/// the indexed scan's row blocks, with no other operator.
void ExpectOperatorsAgree(const DataFrame& vanilla,
                          const IndexedDataFrame& indexed,
                          const std::vector<std::string>& group_by) {
  const std::vector<AggSpec> aggs = AllAggs();
  DataFrame hash_q = vanilla.Agg(group_by, aggs);
  DataFrame row_q = indexed.AsDataFrame().Agg(group_by, aggs);
  ExpectPlan(hash_q, {"HashAggExec", "ScanExec"});
  ExpectPlan(row_q, {"HashAggExec", "ScanExec indexed("});
  ExpectSameRows(hash_q, row_q);
}

/// The arms around the aggregate, each against the cached table: a
/// projection out of schema order that repeats a column (its row blocks
/// reach the aggregate through a composed field map), a filter (which
/// decodes them first), and the same projection collected (decoded by the
/// result's sink).
void ExpectArmsAgree(const DataFrame& vanilla,
                     const IndexedDataFrame& indexed) {
  const std::vector<std::string> columns = {"s", "f64", "i64", "b",
                                            "f64", "i32"};
  const DataFrame indexed_df = indexed.AsDataFrame();
  for (const std::vector<std::string>& group_by :
       {std::vector<std::string>{}, std::vector<std::string>{"s", "b"}}) {
    SCOPED_TRACE(group_by.size());
    const DataFrame select_agg =
        indexed_df.Select(columns).Agg(group_by, AllAggs());
    ExpectPlan(select_agg,
               {"HashAggExec", "ProjectExec", "ScanExec indexed("});
    ExpectSameRows(vanilla.Select(columns).Agg(group_by, AllAggs()),
                   select_agg);

    const ExprPtr positive = Gt(Col("f64"), Lit(0.0));
    const DataFrame filter_agg =
        indexed_df.Filter(positive).Agg(group_by, AllAggs());
    ExpectPlan(filter_agg, {"HashAggExec", "FilterExec", "ScanExec indexed("});
    ExpectSameRows(vanilla.Filter(positive).Agg(group_by, AllAggs()),
                   filter_agg);
  }
  ExpectSameRows(vanilla.Select(columns), indexed_df.Select(columns));
}

TEST(AggOperatorDiffTest, IndexedRowBlocksMatchColumnarChunksBitwise) {
  Session session(SmallOptions());
  const std::vector<RowVec> rows = ExactRows(2102, 6000);
  auto df = *session.CreateTable("mixed", MixedSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(df, "i64");
  ExpectOperatorsAgree(df, indexed, {});
  ExpectOperatorsAgree(df, indexed, {"s"});
  ExpectOperatorsAgree(df, indexed, {"b", "i32"});
}

TEST(AggOperatorDiffTest,
     IndexedRowBlocksMatchColumnarChunksOnAnAppendedVersion) {
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

TEST(AggOperatorDiffTest, ProjectFilterAndCollectArmsMatchBitwise) {
  Session session(SmallOptions());
  const std::vector<RowVec> base = ExactRows(2105, 3000);
  const std::vector<RowVec> extra = ExactRows(2106, 700);
  auto df = *session.CreateTable("base", MixedSchema(), base);
  auto v0 = *IndexedDataFrame::Create(df, "i64");
  auto v1 = *v0.AppendRows(*session.CreateTable("extra", MixedSchema(), extra));

  std::vector<RowVec> all = base;
  all.insert(all.end(), extra.begin(), extra.end());
  auto all_df = *session.CreateTable("all", MixedSchema(), all);
  {
    SCOPED_TRACE("v0");
    ExpectArmsAgree(df, v0);
  }
  {
    SCOPED_TRACE("v1");
    ExpectArmsAgree(all_df, v1);
  }
}

}  // namespace
}  // namespace idf
