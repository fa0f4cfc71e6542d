// End-to-end tests for the SQL layer: columnar chunks, planner rules,
// physical execution of filter/project/join/aggregate/limit, and
// cross-validation of the two vanilla join algorithms and the indexed join.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "core/indexed_dataframe.h"
#include "sql/session.h"
#include "typed_keys.h"

namespace idf {
namespace {

SessionOptions SmallOptions() {
  SessionOptions opts;
  opts.cluster.num_workers = 2;
  opts.cluster.executors_per_worker = 2;
  opts.cluster.cores_per_executor = 2;
  opts.default_partitions = 4;
  return opts;
}

SchemaPtr PeopleSchema() {
  return std::make_shared<Schema>(Schema({
      {"id", TypeId::kInt64, false},
      {"name", TypeId::kString, true},
      {"age", TypeId::kInt32, true},
      {"score", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> PeopleRows() {
  std::vector<RowVec> rows;
  const char* names[] = {"ann", "bob", "cat", "dan", "eve", "fay", "gus",
                         "hal", "ivy", "joe"};
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back({Value::Int64(i), Value::String(names[i]),
                    Value::Int32(static_cast<int32_t>(20 + i)),
                    Value::Float64(i * 0.5)});
  }
  return rows;
}

// ---- columnar ---------------------------------------------------------------

TEST(ColumnarTest, ChunkRoundTrip) {
  ColumnarChunk chunk(PeopleSchema());
  for (const RowVec& row : PeopleRows()) IDF_CHECK_OK(chunk.AppendRow(row));
  EXPECT_EQ(chunk.num_rows(), 10u);
  EXPECT_EQ(chunk.RowAt(3)[1], Value::String("dan"));
  EXPECT_EQ(chunk.ValueAt(5, 2), Value::Int32(25));
  EXPECT_GT(chunk.ByteSize(), 0u);
}

TEST(ColumnarTest, NullHandling) {
  ColumnarChunk chunk(PeopleSchema());
  IDF_CHECK_OK(chunk.AppendRow({Value::Int64(1), Value::Null(TypeId::kString),
                                Value::Null(TypeId::kInt32),
                                Value::Float64(0)}));
  EXPECT_TRUE(chunk.column(1).IsNull(0));
  EXPECT_TRUE(chunk.column(2).IsNull(0));
  EXPECT_FALSE(chunk.column(0).IsNull(0));
  EXPECT_TRUE(chunk.RowAt(0)[1].is_null());
}

TEST(ColumnarTest, KeyCodeMatchesIndexKeyCode) {
  ColumnarChunk chunk(PeopleSchema());
  IDF_CHECK_OK(chunk.AppendRow(PeopleRows()[4]));
  EXPECT_EQ(chunk.column(0).KeyCodeAt(0), IndexKeyCode(Value::Int64(4)));
  EXPECT_EQ(chunk.column(1).KeyCodeAt(0), IndexKeyCode(Value::String("eve")));
}

TEST(ColumnarTest, DecodeRowsFromEncodedRows) {
  auto schema = PeopleSchema();
  RowLayout layout(schema);
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<const uint8_t*> rows;
  for (const RowVec& row : PeopleRows()) {
    bufs.emplace_back(*layout.ComputeRowSize(row));
    layout.EncodeRow(row, bufs.back().data(), PackedRowPtr::Null());
  }
  for (const auto& buf : bufs) rows.push_back(buf.data());
  ColumnarChunk chunk(schema);
  DecodeRows(layout, rows, AllFields(layout.schema()), chunk, 0);
  chunk.SetRowCount(rows.size());
  EXPECT_EQ(chunk.num_rows(), 10u);
  EXPECT_EQ(chunk.RowAt(7)[1], Value::String("hal"));
}

// ---- planner rules --------------------------------------------------------------

TEST(PlannerTest, CombineFiltersRule) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto filtered = df.Filter(Gt(Col("age"), Lit(int32_t{22})))
                      .Filter(Lt(Col("age"), Lit(int32_t{27})));
  auto explained = filtered.ExplainOptimized();
  ASSERT_TRUE(explained.ok());
  // Two Filter nodes collapse into one AND.
  EXPECT_EQ(explained->find("Filter"), explained->rfind("Filter"));
  EXPECT_NE(explained->find("AND"), std::string::npos);
}

TEST(PlannerTest, PushFilterBelowProjectRule) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto q = df.Select({"id", "age"}).Filter(Eq(Col("id"), Lit(int64_t{3})));
  auto explained = q.ExplainOptimized();
  ASSERT_TRUE(explained.ok());
  // Project must now be above Filter.
  EXPECT_LT(explained->find("Project"), explained->find("Filter"));
}

TEST(PlannerTest, PhysicalPlanUsesVanillaOperators) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto q = df.Filter(Gt(Col("age"), Lit(int32_t{21}))).Select({"name"});
  auto physical = q.ExplainPhysical();
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical->find("ProjectExec"), std::string::npos);
  EXPECT_NE(physical->find("FilterExec"), std::string::npos);
  EXPECT_NE(physical->find("ScanExec"), std::string::npos);
}

// ---- execution: scan/filter/project -----------------------------------------

TEST(SqlExecTest, CollectWholeTable) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST(SqlExecTest, FilterNumericVectorizedPath) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Filter(Ge(Col("age"), Lit(int32_t{27}))).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);  // ages 27, 28, 29
}

TEST(SqlExecTest, FilterLiteralOnLeftMirrorsComparison) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  // 27 <= age is the mirrored form of age >= 27.
  auto result = df.Filter(Le(Lit(int32_t{27}), Col("age"))).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST(SqlExecTest, FilterStringEqualityVectorizedPath) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Filter(Eq(Col("name"), Lit("eve"))).Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(4));

  auto inverse = df.Filter(Ne(Col("name"), Lit("eve"))).Collect();
  ASSERT_TRUE(inverse.ok());
  EXPECT_EQ(inverse->rows.size(), 9u);
}

TEST(SqlExecTest, FilterStringVectorizedSkipsNullsLikeGenericPath) {
  Session session(SmallOptions());
  auto rows = PeopleRows();
  rows.push_back({Value::Int64(10), Value::Null(TypeId::kString),
                  Value::Int32(30), Value::Float64(5.0)});
  auto df = *session.CreateTable("people_n", PeopleSchema(), rows);
  // The vectorized Eq path and the generic row-wise path (forced by the
  // ordering comparison, which only the generic path handles) must agree:
  // a null name matches neither = nor !=.
  auto eq = df.Filter(Eq(Col("name"), Lit("eve"))).Collect();
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq->rows.size(), 1u);
  auto ne = df.Filter(Ne(Col("name"), Lit("eve"))).Collect();
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->rows.size(), 9u);  // 10 non-null names minus "eve"
  auto generic = df.Filter(Lt(Col("name"), Lit("eve"))).Collect();
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ(generic->rows.size(), 4u);  // ann, bob, cat, dan
}

TEST(SqlExecTest, FilterCompoundPredicate) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Filter(And(Gt(Col("age"), Lit(int32_t{22})),
                              Lt(Col("score"), Lit(3.0))))
                    .Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);  // ids 3,4,5
}

TEST(SqlExecTest, FilterKeepsNoNullMatches) {
  Session session(SmallOptions());
  std::vector<RowVec> rows = PeopleRows();
  rows.push_back({Value::Int64(100), Value::String("nil"),
                  Value::Null(TypeId::kInt32), Value::Float64(0)});
  auto df = *session.CreateTable("people", PeopleSchema(), rows);
  auto result = df.Filter(Gt(Col("age"), Lit(int32_t{0}))).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);  // null age row dropped
}

TEST(SqlExecTest, ProjectReordersColumns) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Select({"age", "id"}).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema->num_fields(), 2u);
  EXPECT_EQ(result->schema->field(0).name, "age");
  EXPECT_EQ(result->rows.size(), 10u);
  for (const RowVec& row : result->rows) {
    EXPECT_EQ(row[0].AsInt64() - 20, row[1].AsInt64());
  }
}

TEST(SqlExecTest, LimitTruncates) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto result = df.Limit(3).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  auto count = df.Limit(100).Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 10u);
}

// ---- execution: joins ---------------------------------------------------------

SchemaPtr OrdersSchema() {
  return std::make_shared<Schema>(Schema({
      {"order_id", TypeId::kInt64, false},
      {"person", TypeId::kInt64, false},
      {"amount", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> OrdersRows() {
  std::vector<RowVec> rows;
  // person i gets i orders (skew): person 0 none, 1 one, ...
  int64_t order_id = 0;
  for (int64_t person = 0; person < 10; ++person) {
    for (int64_t k = 0; k < person; ++k) {
      rows.push_back({Value::Int64(order_id++), Value::Int64(person),
                      Value::Float64(person * 10.0 + k)});
    }
  }
  return rows;  // 45 orders
}

std::map<std::string, int> JoinResultHistogram(const CollectedTable& t) {
  std::map<std::string, int> hist;
  for (const std::string& row : t.SortedRowStrings()) ++hist[row];
  return hist;
}

class JoinModeSweep : public ::testing::TestWithParam<JoinExec::Mode> {};

TEST_P(JoinModeSweep, JoinMatchesExpectedCardinality) {
  SessionOptions opts = SmallOptions();
  opts.join_mode = GetParam();
  Session session(opts);
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());

  auto joined = people.Join(orders, "id", "person");
  auto result = joined.Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 45u);
  // Schema: people columns then orders columns.
  EXPECT_EQ(result->schema->num_fields(), 7u);
  EXPECT_EQ(result->schema->field(0).name, "id");
  EXPECT_EQ(result->schema->field(4).name, "order_id");
  // Every joined row satisfies id == person.
  for (const RowVec& row : result->rows) {
    EXPECT_EQ(row[0].int64_value(), row[5].int64_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, JoinModeSweep,
                         ::testing::Values(JoinExec::Mode::kBroadcastHash,
                                           JoinExec::Mode::kShuffledHash));

/// The inner join of `left` and `right` on `key` planned each way: the two
/// vanilla algorithms, then the indexed join over an index on the left side
/// (broadcast and shuffle probe paths). Returns one histogram per path.
std::vector<std::map<std::string, int>> InnerJoinOnEveryPath(
    const SchemaPtr& lschema, const std::vector<RowVec>& lrows,
    const std::string& lkey, const SchemaPtr& rschema,
    const std::vector<RowVec>& rrows, const std::string& rkey) {
  std::vector<std::map<std::string, int>> results;
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = SmallOptions();
    opts.join_mode = mode;
    Session session(opts);
    auto left = *session.CreateTable("l", lschema, lrows);
    auto right = *session.CreateTable("r", rschema, rrows);
    auto collected = left.Join(right, lkey, rkey).Collect();
    EXPECT_TRUE(collected.ok()) << collected.status().ToString();
    if (collected.ok()) results.push_back(JoinResultHistogram(*collected));
  }
  for (uint64_t broadcast_threshold : {uint64_t{10} << 20, uint64_t{0}}) {
    SessionOptions opts = SmallOptions();
    opts.broadcast_threshold_bytes = broadcast_threshold;
    Session session(opts);
    auto left = *session.CreateTable("l", lschema, lrows);
    auto right = *session.CreateTable("r", rschema, rrows);
    auto indexed = *IndexedDataFrame::Create(left, lkey);
    const DataFrame joined = indexed.AsDataFrame().Join(right, lkey, rkey);
    EXPECT_NE(joined.ExplainPhysical()->find("IndexedJoinExec"),
              std::string::npos);
    auto collected = joined.Collect();
    EXPECT_TRUE(collected.ok()) << collected.status().ToString();
    if (collected.ok()) results.push_back(JoinResultHistogram(*collected));
  }
  return results;
}

TEST(SqlJoinTest, AllJoinModesProduceIdenticalResults) {
  // Property: the join paths are interchangeable. Random datasets.
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<RowVec> left_rows, right_rows;
    for (int i = 0; i < 200; ++i) {
      left_rows.push_back({Value::Int64(static_cast<int64_t>(rng.Below(40))),
                           Value::String(rng.NextString(4)),
                           Value::Int32(static_cast<int32_t>(i)),
                           Value::Float64(rng.NextDouble())});
    }
    for (int i = 0; i < 100; ++i) {
      right_rows.push_back({Value::Int64(i),
                            Value::Int64(static_cast<int64_t>(rng.Below(40))),
                            Value::Float64(rng.NextDouble())});
    }
    std::map<std::string, int> results[2];
    int idx = 0;
    for (JoinExec::Mode mode :
         {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
      SessionOptions opts = SmallOptions();
      opts.join_mode = mode;
      Session session(opts);
      auto left = *session.CreateTable("l", PeopleSchema(), left_rows);
      auto right = *session.CreateTable("r", OrdersSchema(), right_rows);
      auto collected = left.Join(right, "id", "person").Collect();
      ASSERT_TRUE(collected.ok());
      results[idx++] = JoinResultHistogram(*collected);
    }
    EXPECT_EQ(results[0], results[1]);
  }
  // Typed keys (tests/typed_keys.h): NaN matches nothing, -0.0 matches 0.0,
  // nulls match nothing, and strings match only byte-equal strings.
  for (bool strings : {true, false}) {
    SCOPED_TRACE(strings ? "string keys" : "double keys");
    const std::vector<std::map<std::string, int>> results =
        InnerJoinOnEveryPath(TypedKeySchema(strings),
                             TypedKeyRows(strings, 30, 0), "key",
                             TypedKeySchema(strings),
                             TypedKeyRows(strings, 24, 3), "key");
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].empty());
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0]) << "path " << i;
    }
  }
}

TEST(SqlJoinTest, MixedNumericKeysJoinAlikeOnEveryPath) {
  // int64 keys against float64 keys: an integral double equals the int64
  // of its value, so both code alike and meet in one bucket and partition.
  const auto int_schema = std::make_shared<Schema>(Schema({
      {"ik", TypeId::kInt64, true},
      {"iv", TypeId::kInt64, false},
  }));
  const auto double_schema = std::make_shared<Schema>(Schema({
      {"dk", TypeId::kFloat64, true},
      {"dv", TypeId::kInt64, false},
  }));
  std::vector<RowVec> int_rows, double_rows;
  for (int64_t i = 0; i < 60; ++i) {
    int_rows.push_back({Value::Int64(i % 12 - 2), Value::Int64(i)});
  }
  int_rows.push_back({Value::Null(TypeId::kInt64), Value::Int64(60)});
  const std::vector<double> keys = {0.0,  -0.0, 3.0,          3.5,
                                    -2.0, 9.0,  std::nan(""), 1e300,
                                    7.0,  0.25};
  for (int64_t i = 0; i < 40; ++i) {
    double_rows.push_back(
        {Value::Float64(keys[static_cast<size_t>(i) % keys.size()]),
         Value::Int64(i)});
  }
  double_rows.push_back({Value::Null(TypeId::kFloat64), Value::Int64(40)});

  // What `==` on the boxed keys matches, pair by pair.
  size_t expected = 0;
  size_t unmatched_int_rows = 0;
  for (const RowVec& a : int_rows) {
    size_t matches = 0;
    for (const RowVec& b : double_rows) matches += a[0] == b[0] ? 1 : 0;
    expected += matches;
    unmatched_int_rows += matches == 0 ? 1 : 0;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_GT(unmatched_int_rows, 0u);

  for (bool int_indexed : {true, false}) {
    SCOPED_TRACE(int_indexed ? "index on the int64 side"
                             : "index on the float64 side");
    const std::vector<std::map<std::string, int>> results =
        int_indexed
            ? InnerJoinOnEveryPath(int_schema, int_rows, "ik", double_schema,
                                   double_rows, "dk")
            : InnerJoinOnEveryPath(double_schema, double_rows, "dk",
                                   int_schema, int_rows, "ik");
    ASSERT_EQ(results.size(), 4u);
    size_t rows = 0;
    for (const auto& [row, count] : results[0]) rows += count;
    EXPECT_EQ(rows, expected);
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0]) << "path " << i;
    }
  }

  // Left outer: the two vanilla algorithms agree, and every int64 row
  // appears, matched or padded.
  std::vector<std::vector<std::string>> outer;
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = SmallOptions();
    opts.join_mode = mode;
    Session session(opts);
    auto left = *session.CreateTable("l", int_schema, int_rows);
    auto right = *session.CreateTable("r", double_schema, double_rows);
    auto collected = left.LeftJoin(right, "ik", "dk").Collect();
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    EXPECT_EQ(collected->rows.size(), expected + unmatched_int_rows);
    outer.push_back(collected->SortedRowStrings());
  }
  EXPECT_EQ(outer[0], outer[1]);
}

TEST(SqlJoinTest, StringKeyJoin) {
  Session session(SmallOptions());
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto lookup_schema = std::make_shared<Schema>(Schema({
      {"who", TypeId::kString, false},
      {"team", TypeId::kString, false},
  }));
  auto lookup = *session.CreateTable(
      "teams", lookup_schema,
      {{Value::String("ann"), Value::String("red")},
       {Value::String("eve"), Value::String("blue")},
       {Value::String("zed"), Value::String("green")}});
  auto result = people.Join(lookup, "name", "who").Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);  // ann and eve match; zed doesn't
}

TEST(SqlJoinTest, NullKeysNeverMatch) {
  Session session(SmallOptions());
  auto schema = std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt64, true},
      {"v", TypeId::kInt64, false},
  }));
  auto left = *session.CreateTable(
      "l", schema,
      {{Value::Null(TypeId::kInt64), Value::Int64(1)},
       {Value::Int64(5), Value::Int64(2)}});
  auto right = *session.CreateTable(
      "r", schema,
      {{Value::Null(TypeId::kInt64), Value::Int64(3)},
       {Value::Int64(5), Value::Int64(4)}});
  auto result = left.Join(right, "k", "k").Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);  // only 5==5; null != null
}

TEST(SqlJoinTest, JoinMetricsShowShuffleOrBroadcast) {
  SessionOptions opts = SmallOptions();
  opts.join_mode = JoinExec::Mode::kShuffledHash;
  Session session(opts);
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
  QueryMetrics metrics;
  auto handle = people.Join(orders, "id", "person").Execute(&metrics);
  ASSERT_TRUE(handle.ok());
  EXPECT_GT(metrics.totals.shuffle_bytes_written, 0u);
  EXPECT_GT(metrics.totals.hash_build_seconds, 0.0);
  EXPECT_GT(metrics.simulated_seconds, 0.0);
  EXPECT_GT(metrics.num_stages, 1u);
}

// ---- execution: aggregates ------------------------------------------------------

TEST(SqlAggTest, GlobalAggregates) {
  Session session(SmallOptions());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
  auto result = orders
                    .Agg({}, {AggSpec::Count("n"), AggSpec::Sum("amount"),
                              AggSpec::Min("amount"), AggSpec::Max("amount"),
                              AggSpec::Avg("amount")})
                    .Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  const RowVec& row = result->rows[0];
  EXPECT_EQ(row[0], Value::Int64(45));
  double expected_sum = 0;
  for (const RowVec& r : OrdersRows()) expected_sum += r[2].float64_value();
  EXPECT_NEAR(row[1].float64_value(), expected_sum, 1e-9);
  EXPECT_DOUBLE_EQ(row[2].float64_value(), 10.0);   // min: person 1, k 0
  EXPECT_DOUBLE_EQ(row[3].float64_value(), 98.0);   // max: person 9, k 8
  EXPECT_NEAR(row[4].float64_value(), expected_sum / 45, 1e-9);
}

TEST(SqlAggTest, GroupByCounts) {
  Session session(SmallOptions());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
  auto result =
      orders.Agg({"person"}, {AggSpec::Count("n")}).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 9u);  // persons 1..9 have orders
  for (const RowVec& row : result->rows) {
    EXPECT_EQ(row[0].int64_value(), row[1].int64_value());  // person i: i orders
  }
}

TEST(SqlAggTest, GroupBySums) {
  Session session(SmallOptions());
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  // Group by constant-ish small domain: age bucket = age (distinct) — use
  // name instead for string grouping.
  auto result = people.Agg({"name"}, {AggSpec::Sum("age", "total")}).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
}

TEST(SqlAggTest, AggregateOnEmptyTable) {
  Session session(SmallOptions());
  auto empty = *session.CreateTable("empty", OrdersSchema(), {});
  auto result =
      empty.Agg({}, {AggSpec::Count("n"), AggSpec::Sum("amount")}).Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(0));
}

TEST(SqlAggTest, GroupedAggregateAfterJoin) {
  Session session(SmallOptions());
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
  auto result = people.Join(orders, "id", "person")
                    .Agg({"name"}, {AggSpec::Sum("amount", "spend"),
                                    AggSpec::Count("n")})
                    .Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 9u);
}

// ---- Count() and column reads ---------------------------------------------------

TEST(SqlCountTest, CountEqualsExecutedRowsOnEveryShape) {
  // Count() plans COUNT(*) over the query; it must count what Execute()
  // materializes, whatever the plan below the aggregate.
  SessionOptions base = SmallOptions();
  Session session(base);
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
  auto indexed = *IndexedDataFrame::Create(orders, "person");
  auto expect_count = [](const DataFrame& df, uint64_t want,
                         const std::string& what) {
    SCOPED_TRACE(what);
    auto executed = df.Execute();
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    auto counted = df.Count();
    ASSERT_TRUE(counted.ok()) << counted.status().ToString();
    EXPECT_EQ(*counted, executed->num_rows);
    EXPECT_EQ(*counted, want);
  };
  expect_count(people.Filter(Gt(Col("age"), Lit(int32_t{24}))), 5, "filter");
  expect_count(people.Filter(Gt(Col("age"), Lit(int32_t{99}))), 0, "empty");
  expect_count(people.Limit(4), 4, "limit");
  expect_count(people.UnionAll(people), 20, "union");
  expect_count(indexed.AsDataFrame(), 45, "indexed scan");
  expect_count(indexed.AsDataFrame().Filter(Gt(Col("amount"), Lit(50.0))),
               34, "indexed scan with a filter");
  expect_count(indexed.AsDataFrame().Select({"order_id"}), 45,
               "indexed scan, projected");
  for (uint64_t threshold : {uint64_t{10} << 20, uint64_t{0}}) {
    SessionOptions opts = base;
    opts.broadcast_threshold_bytes = threshold;
    Session s(opts);
    auto p = *s.CreateTable("people", PeopleSchema(), PeopleRows());
    auto o = *s.CreateTable("orders", OrdersSchema(), OrdersRows());
    auto io = *IndexedDataFrame::Create(o, "person");
    const DataFrame joined = io.AsDataFrame().Join(p, "person", "id");
    ASSERT_NE(joined.ExplainPhysical()->find("IndexedJoinExec"),
              std::string::npos);
    expect_count(joined, 45,
                 threshold > 0 ? "indexed join (broadcast probe)"
                               : "indexed join (shuffled probe)");
  }
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = base;
    opts.join_mode = mode;
    Session s(opts);
    auto p = *s.CreateTable("people", PeopleSchema(), PeopleRows());
    auto o = *s.CreateTable("orders", OrdersSchema(), OrdersRows());
    const std::string name =
        mode == JoinExec::Mode::kBroadcastHash ? "broadcast" : "shuffled";
    expect_count(p.Join(o, "id", "person"), 45, name + " inner join");
    // Person 0 has no order: left-outer pads it.
    expect_count(p.LeftJoin(o, "id", "person"), 46, name + " left join");
  }
}

TEST(SqlJoinTest, ExplainAnalyzeShowsNarrowedJoinColumns) {
  // A join under an aggregate emits its keys and the columns read above,
  // and the aggregate over them is the one over the full join.
  const double amount_sum = [] {
    double sum = 0;
    for (const RowVec& row : OrdersRows()) sum += row[2].float64_value();
    return sum;
  }();
  auto annotated_line = [](const std::string& text, const std::string& op) {
    const size_t at = text.find(op);
    if (at == std::string::npos) return std::string();
    return text.substr(at, text.find('\n', at) - at);
  };
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = SmallOptions();
    opts.join_mode = mode;
    Session session(opts);
    auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
    auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
    const DataFrame summed = people.Join(orders, "id", "person")
                                 .Agg({}, {AggSpec::Sum("amount", "total")});
    auto text = summed.ExplainAnalyze();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(annotated_line(*text, "JoinExec[")
                  .find("columns=[id, person, amount])"),
              std::string::npos)
        << *text;
    auto result = summed.Collect();
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->rows[0][0].float64_value(), amount_sum);

    auto counted = people.Join(orders, "id", "person")
                       .Agg({}, {AggSpec::Count()})
                       .ExplainAnalyze();
    ASSERT_TRUE(counted.ok());
    const std::string join_line = annotated_line(*counted, "JoinExec[");
    EXPECT_NE(join_line.find("rows=45 "), std::string::npos) << *counted;
    EXPECT_NE(join_line.find("columns=[id, person])"), std::string::npos)
        << *counted;
  }
  for (uint64_t threshold : {uint64_t{10} << 20, uint64_t{0}}) {
    SessionOptions opts = SmallOptions();
    opts.broadcast_threshold_bytes = threshold;
    Session session(opts);
    auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
    auto orders = *session.CreateTable("orders", OrdersSchema(), OrdersRows());
    auto indexed = *IndexedDataFrame::Create(people, "id");
    const DataFrame summed =
        indexed.AsDataFrame()
            .Join(orders, "id", "person")
            .Agg({"name"}, {AggSpec::Sum("amount", "total")});
    auto text = summed.ExplainAnalyze();
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(annotated_line(*text, "IndexedJoinExec")
                  .find("columns=[id, name, person, amount])"),
              std::string::npos)
        << *text;
    auto result = summed.Collect();
    ASSERT_TRUE(result.ok());
    double total = 0;
    for (const RowVec& row : result->rows) total += row[1].float64_value();
    EXPECT_DOUBLE_EQ(total, amount_sum);
  }
}

// ---- lineage integration ------------------------------------------------------

TEST(SqlLineageTest, QueriesSurviveExecutorFailure) {
  Session session(SmallOptions());
  auto people = *session.CreateTable("people", PeopleSchema(), PeopleRows());
  // First run works.
  ASSERT_EQ(people.Filter(Gt(Col("age"), Lit(int32_t{24}))).Count().value(),
            5u);
  // Kill an executor holding blocks; query must recompute via lineage.
  session.cluster().KillExecutor(1);
  QueryMetrics metrics;
  auto count = people.Filter(Gt(Col("age"), Lit(int32_t{24}))).Count(&metrics);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 5u);
}

}  // namespace
}  // namespace idf
