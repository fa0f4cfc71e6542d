// Tests for the vanilla joins' hash table, left-outer joins (both vanilla
// algorithms: broadcast-hash and shuffled-hash) and ORDER BY.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/indexed_dataframe.h"
#include "sql/join_table.h"
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

SchemaPtr LeftSchema() {
  return std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt64, true},
      {"lv", TypeId::kString, false},
  }));
}
SchemaPtr RightSchema() {
  return std::make_shared<Schema>(Schema({
      {"rk", TypeId::kInt64, true},
      {"rv", TypeId::kInt64, false},
  }));
}

std::vector<RowVec> LeftRows() {
  return {
      {Value::Int64(1), Value::String("a")},
      {Value::Int64(2), Value::String("b")},
      {Value::Int64(2), Value::String("b2")},
      {Value::Int64(3), Value::String("c")},          // no match
      {Value::Null(TypeId::kInt64), Value::String("n")},  // null key
  };
}
std::vector<RowVec> RightRows() {
  return {
      {Value::Int64(1), Value::Int64(10)},
      {Value::Int64(2), Value::Int64(20)},
      {Value::Int64(2), Value::Int64(21)},
      {Value::Int64(9), Value::Int64(90)},             // no match
      {Value::Null(TypeId::kInt64), Value::Int64(99)}, // null key
  };
}

class OuterJoinModeSweep : public ::testing::TestWithParam<JoinExec::Mode> {};

TEST_P(OuterJoinModeSweep, LeftOuterSemantics) {
  SessionOptions opts = SmallOptions();
  opts.join_mode = GetParam();
  Session session(opts);
  auto left = *session.CreateTable("l", LeftSchema(), LeftRows());
  auto right = *session.CreateTable("r", RightSchema(), RightRows());

  auto result = left.LeftJoin(right, "k", "rk").Collect();
  ASSERT_TRUE(result.ok());
  // Matches: k=1 (1x1) + k=2 (2x2) = 5; unmatched left: k=3, k=null => 7.
  EXPECT_EQ(result->rows.size(), 7u);

  int padded = 0;
  for (const RowVec& row : result->rows) {
    ASSERT_EQ(row.size(), 4u);
    if (row[2].is_null()) {
      ++padded;
      EXPECT_TRUE(row[3].is_null());  // whole right side padded
      const std::string lv = row[1].string_value();
      EXPECT_TRUE(lv == "c" || lv == "n") << lv;
    }
  }
  EXPECT_EQ(padded, 2);
}

INSTANTIATE_TEST_SUITE_P(Modes, OuterJoinModeSweep,
                         ::testing::Values(JoinExec::Mode::kBroadcastHash,
                                           JoinExec::Mode::kShuffledHash));

TEST(OuterJoinTest, AllModesAgree) {
  std::vector<std::vector<std::string>> results;
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = SmallOptions();
    opts.join_mode = mode;
    Session session(opts);
    auto left = *session.CreateTable("l", LeftSchema(), LeftRows());
    auto right = *session.CreateTable("r", RightSchema(), RightRows());
    results.push_back(
        left.LeftJoin(right, "k", "rk").Collect()->SortedRowStrings());
  }
  EXPECT_EQ(results[0], results[1]);

  // Typed keys (tests/typed_keys.h): NaN, null and unmatched left rows are
  // padded; -0.0 matches 0.0; strings match only byte-equal strings.
  for (bool strings : {true, false}) {
    SCOPED_TRACE(strings ? "string keys" : "double keys");
    const std::vector<RowVec> lrows = TypedKeyRows(strings, 30, 0);
    const std::vector<RowVec> rrows = TypedKeyRows(strings, 24, 3);
    size_t expected = 0;
    for (const RowVec& l : lrows) {
      size_t matches = 0;
      for (const RowVec& r : rrows) matches += l[0] == r[0] ? 1 : 0;
      expected += std::max<size_t>(matches, 1);
    }
    std::vector<std::vector<std::string>> typed;
    for (JoinExec::Mode mode :
         {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
      SessionOptions opts = SmallOptions();
      opts.join_mode = mode;
      Session session(opts);
      auto left = *session.CreateTable("l", TypedKeySchema(strings), lrows);
      auto right = *session.CreateTable("r", TypedKeySchema(strings), rrows);
      auto collected = left.LeftJoin(right, "key", "key").Collect();
      ASSERT_TRUE(collected.ok()) << collected.status().ToString();
      EXPECT_EQ(collected->rows.size(), expected);
      typed.push_back(collected->SortedRowStrings());
    }
    EXPECT_EQ(typed[0], typed[1]);
  }
}

TEST(OuterJoinTest, InnerAndOuterDifferOnlyInUnmatched) {
  Session session(SmallOptions());
  auto left = *session.CreateTable("l", LeftSchema(), LeftRows());
  auto right = *session.CreateTable("r", RightSchema(), RightRows());
  auto inner = left.Join(right, "k", "rk").Collect();
  auto outer = left.LeftJoin(right, "k", "rk").Collect();
  ASSERT_TRUE(inner.ok());
  ASSERT_TRUE(outer.ok());
  EXPECT_EQ(outer->rows.size(), inner->rows.size() + 2);
}

TEST(OuterJoinTest, OuterSchemaMarksRightNullable) {
  Session session(SmallOptions());
  auto left = *session.CreateTable("l", LeftSchema(), LeftRows());
  auto right = *session.CreateTable("r", RightSchema(), RightRows());
  auto schema = left.LeftJoin(right, "k", "rk").schema();
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->field(2).nullable);
  EXPECT_TRUE(schema->field(3).nullable);
}

TEST(OuterJoinTest, IndexedDatasetOuterJoinFallsBackAndWorks) {
  Session session(SmallOptions());
  auto left = *session.CreateTable("l", LeftSchema(), LeftRows());
  auto right = *session.CreateTable("r", RightSchema(), RightRows());
  auto indexed = *IndexedDataFrame::Create(left, "k");

  auto q = indexed.AsDataFrame().Join(right, "k", "rk", JoinType::kLeftOuter);
  auto plan = q.ExplainPhysical();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("IndexedJoinExec"), std::string::npos) << *plan;

  auto vanilla = left.LeftJoin(right, "k", "rk").Collect();
  auto via_indexed = q.Collect();
  ASSERT_TRUE(vanilla.ok());
  ASSERT_TRUE(via_indexed.ok());
  // Indexed storage drops no rows: the fallback scan sees null keys too.
  EXPECT_EQ(via_indexed->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(OuterJoinTest, SqlLeftJoin) {
  Session session(SmallOptions());
  (void)session.CreateTable("l", LeftSchema(), LeftRows());
  (void)session.CreateTable("r", RightSchema(), RightRows());
  auto df = session.Sql("SELECT * FROM l LEFT JOIN r ON k = rk");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->Count().value(), 7u);
  auto df2 = session.Sql("SELECT * FROM l LEFT OUTER JOIN r ON k = rk");
  ASSERT_TRUE(df2.ok());
  EXPECT_EQ(df2->Count().value(), 7u);
  auto df3 = session.Sql("SELECT * FROM l INNER JOIN r ON k = rk");
  ASSERT_TRUE(df3.ok());
  EXPECT_EQ(df3->Count().value(), 5u);
}

TEST(OuterJoinTest, LeftOuterResultShufflesAgain) {
  // The padded right columns are nullable in the physical schema, so a
  // shuffle of the left-outer result encodes its padded rows.
  auto third = std::make_shared<Schema>(Schema({
      {"tk", TypeId::kInt64, false},
      {"tv", TypeId::kString, false},
  }));
  const std::vector<RowVec> third_rows = {
      {Value::Int64(1), Value::String("x")},
      {Value::Int64(3), Value::String("y")},
  };
  std::vector<std::vector<std::string>> results;
  for (JoinExec::Mode mode :
       {JoinExec::Mode::kBroadcastHash, JoinExec::Mode::kShuffledHash}) {
    SessionOptions opts = SmallOptions();
    opts.join_mode = mode;
    Session session(opts);
    auto l = *session.CreateTable("l", LeftSchema(), LeftRows());
    auto r = *session.CreateTable("r", RightSchema(), RightRows());
    auto t = *session.CreateTable("t", third, third_rows);
    auto result = l.LeftJoin(r, "k", "rk").Join(t, "k", "tk").Collect();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->schema->field(2).nullable);
    EXPECT_TRUE(result->schema->field(3).nullable);
    // k=1 matches r and t; k=3 is padded by the outer join, then matches t.
    ASSERT_EQ(result->rows.size(), 2u);
    for (const RowVec& row : result->rows) {
      EXPECT_EQ(row[2].is_null(), row[0] == Value::Int64(3));
    }
    results.push_back(result->SortedRowStrings());
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(OuterJoinTest, OversizedJoinedRowFailsItsQuery) {
  // Each side's row fits the 1 KB row bound, the joined row does not: a
  // shuffle of the join's result fails the query, and the session lives on.
  auto side = [](const std::string& key, const std::string& payload) {
    return std::make_shared<Schema>(Schema({
        {key, TypeId::kInt64, false},
        {payload, TypeId::kString, false},
    }));
  };
  SessionOptions opts = SmallOptions();
  opts.join_mode = JoinExec::Mode::kShuffledHash;
  Session session(opts);
  auto a = *session.CreateTable(
      "a", side("k", "s"),
      {{Value::Int64(1), Value::String(std::string(600, 'a'))}});
  auto b = *session.CreateTable(
      "b", side("bk", "bs"),
      {{Value::Int64(1), Value::String(std::string(600, 'b'))}});
  auto c = *session.CreateTable("c", side("ck", "cs"),
                                {{Value::Int64(1), Value::String("c")}});
  auto result = a.Join(b, "k", "bk").Join(c, "k", "ck").Collect();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("row bound"), std::string::npos)
      << result.status().ToString();

  auto once = a.Join(b, "k", "bk").Collect();
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_EQ(once->rows.size(), 1u);
}

// ---- ORDER BY -----------------------------------------------------------

SchemaPtr NumSchema() {
  return std::make_shared<Schema>(Schema({
      {"a", TypeId::kInt64, true},
      {"b", TypeId::kString, false},
  }));
}

TEST(SortTest, OrderByAscending) {
  Session session(SmallOptions());
  auto df = *session.CreateTable(
      "t", NumSchema(),
      {{Value::Int64(3), Value::String("c")},
       {Value::Int64(1), Value::String("a")},
       {Value::Int64(2), Value::String("b")}});
  auto result = df.OrderBy({{"a", false}}).Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(1));
  EXPECT_EQ(result->rows[1][0], Value::Int64(2));
  EXPECT_EQ(result->rows[2][0], Value::Int64(3));
}

TEST(SortTest, OrderByDescendingWithNullsFirstAscending) {
  Session session(SmallOptions());
  auto df = *session.CreateTable(
      "t", NumSchema(),
      {{Value::Int64(3), Value::String("c")},
       {Value::Null(TypeId::kInt64), Value::String("n")},
       {Value::Int64(1), Value::String("a")}});
  auto asc = df.OrderBy({{"a", false}}).Collect();
  ASSERT_TRUE(asc.ok());
  EXPECT_TRUE(asc->rows[0][0].is_null());  // nulls sort first ascending
  auto desc = df.OrderBy({{"a", true}}).Collect();
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->rows[0][0], Value::Int64(3));
  EXPECT_TRUE(desc->rows[2][0].is_null());
}

TEST(SortTest, MultiKeyStable) {
  Session session(SmallOptions());
  auto df = *session.CreateTable(
      "t", NumSchema(),
      {{Value::Int64(1), Value::String("z")},
       {Value::Int64(1), Value::String("a")},
       {Value::Int64(0), Value::String("m")}});
  auto result = df.OrderBy({{"a", false}, {"b", false}}).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][1], Value::String("m"));
  EXPECT_EQ(result->rows[1][1], Value::String("a"));
  EXPECT_EQ(result->rows[2][1], Value::String("z"));
}

TEST(SortTest, SqlOrderByLimit) {
  Session session(SmallOptions());
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value::Int64((i * 7) % 20),
                    Value::String("r" + std::to_string(i))});
  }
  (void)session.CreateTable("t", NumSchema(), rows);
  auto result =
      session.Sql("SELECT a FROM t ORDER BY a DESC LIMIT 3")->Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::Int64(19));
  EXPECT_EQ(result->rows[1][0], Value::Int64(18));
  EXPECT_EQ(result->rows[2][0], Value::Int64(17));
}

TEST(SortTest, OrderByOnIndexedFallback) {
  Session session(SmallOptions());
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < 50; ++i) {
    rows.push_back(
        {Value::Int64(49 - i), Value::String("x" + std::to_string(i))});
  }
  auto df = *session.CreateTable("t", NumSchema(), rows);
  auto indexed = *IndexedDataFrame::Create(df, "a");
  auto result = indexed.AsDataFrame().OrderBy({{"a", false}}).Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 50u);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(result->rows[static_cast<size_t>(i)][0], Value::Int64(i));
  }
}

TEST(SortTest, UnknownSortColumnFails) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("t", NumSchema(),
                                 {{Value::Int64(1), Value::String("a")}});
  EXPECT_FALSE(df.OrderBy({{"zzz", false}}).Collect().ok());
}

// ---- JoinHashTable ----------------------------------------------------------

std::vector<int> Rows(std::span<const int> rows) {
  return std::vector<int>(rows.begin(), rows.end());
}

TEST(JoinHashTableTest, EmptyBuildFindsNothing) {
  JoinHashTable<int> table;
  table.Build();
  for (uint64_t code : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
    EXPECT_TRUE(table.Find(code).empty());
  }
}

TEST(JoinHashTableTest, ReturnsEachKeysRowsInBuildOrder) {
  // 3000 codes, interleaved: code c gets rows c, c + 3000, c + 6000, ...,
  // and codes that differ only in their high bits or low bits.
  JoinHashTable<int> table;
  std::vector<uint64_t> codes;
  for (uint64_t c = 0; c < 1000; ++c) {
    codes.push_back(c);
    codes.push_back((c + 1) << 40);
    codes.push_back(~c);
  }
  const int copies = 4;
  for (int copy = 0; copy < copies; ++copy) {
    for (size_t i = 0; i < codes.size(); ++i) {
      if (copy > static_cast<int>(i % copies)) continue;  // 1..4 rows a code
      table.Add(codes[i], copy * 10000 + static_cast<int>(i));
    }
  }
  table.Build();
  for (size_t i = 0; i < codes.size(); ++i) {
    std::vector<int> want;
    for (int copy = 0; copy <= static_cast<int>(i % copies); ++copy) {
      want.push_back(copy * 10000 + static_cast<int>(i));
    }
    EXPECT_EQ(Rows(table.Find(codes[i])), want) << "code " << codes[i];
  }
  EXPECT_TRUE(table.Find(1000).empty());
  EXPECT_TRUE(table.Find(uint64_t{5000} << 40).empty());
}

TEST(JoinHashTableTest, OneKeyHoldsEveryRowInBuildOrder) {
  JoinHashTable<int> table;
  std::vector<int> want;
  for (int i = 0; i < 5000; ++i) {
    table.Add(77, i);
    want.push_back(i);
  }
  table.Build();
  EXPECT_EQ(Rows(table.Find(77)), want);
  EXPECT_TRUE(table.Find(78).empty());
}

TEST(JoinHashTableTest, CollidingStringCodesAreSeparatedByKeysEqual) {
  // Two strings stored under one code, as two strings whose hashes collide
  // would be: the probe gets both rows, and KeysEqual keeps the equal one.
  const auto schema = std::make_shared<Schema>(
      Schema({{"s", TypeId::kString, false}, {"n", TypeId::kInt64, false}}));
  const RowLayout layout(schema);
  std::vector<std::vector<uint8_t>> rows;
  for (const RowVec& row : std::vector<RowVec>{
           {Value::String("apple"), Value::Int64(1)},
           {Value::String("pear"), Value::Int64(2)},
           {Value::String("apple"), Value::Int64(3)}}) {
    rows.emplace_back(*layout.ComputeRowSize(row));
    layout.EncodeRow(row, rows.back().data(), PackedRowPtr::Null());
  }
  JoinHashTable<const uint8_t*> table;
  for (const auto& row : rows) table.Add(42, row.data());
  table.Build();

  std::vector<uint8_t> probe(*layout.ComputeRowSize(
      {Value::String("apple"), Value::Int64(0)}));
  layout.EncodeRow({Value::String("apple"), Value::Int64(0)}, probe.data(),
                   PackedRowPtr::Null());
  const std::span<const uint8_t* const> candidates = table.Find(42);
  ASSERT_EQ(candidates.size(), 3u);
  std::vector<int64_t> matched;
  for (const uint8_t* row : candidates) {
    if (KeysEqual(layout, row, 0, layout, probe.data(), 0)) {
      matched.push_back(layout.GetInt64(row, 1));
    }
  }
  EXPECT_EQ(matched, (std::vector<int64_t>{1, 3}));
}

}  // namespace
}  // namespace idf
