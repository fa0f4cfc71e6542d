// Cross-module integration tests: aggregation over indexed data (the
// ordinary HashAggExec over the indexed scan), multi-index tables, end-to-end SQL over indexed + appended
// data, version trees under mixed workloads, and composed operator chains.
#include <gtest/gtest.h>

#include "core/indexed_dataframe.h"
#include "workload/flights.h"

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

SchemaPtr EventSchema() {
  return std::make_shared<Schema>(Schema({
      {"user", TypeId::kInt64, false},
      {"kind", TypeId::kString, false},
      {"amount", TypeId::kFloat64, true},
  }));
}

std::vector<RowVec> EventRows(int n) {
  std::vector<RowVec> rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int64(i % 20),
                    Value::String(i % 3 == 0 ? "buy" : "view"),
                    Value::Float64(static_cast<double>(i % 50))});
  }
  return rows;
}

TEST(IntegrationTest, AggregateOverIndexedPlansHashAggOverIndexedScan) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("events", EventSchema(), EventRows(500));
  auto indexed = *IndexedDataFrame::Create(df, "user");
  auto q = indexed.AsDataFrame().Agg(
      {"kind"}, {AggSpec::Count("n"), AggSpec::Sum("amount")});
  auto plan = q.ExplainPhysical();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->rfind("HashAggExec\n  ScanExec indexed(", 0), 0u) << *plan;
  // And the result matches the vanilla aggregation.
  auto vanilla =
      df.Agg({"kind"}, {AggSpec::Count("n"), AggSpec::Sum("amount")})
          .Collect();
  auto fast = q.Collect();
  ASSERT_TRUE(vanilla.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(IntegrationTest, AggregateOverAppendedVersion) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("events", EventSchema(), EventRows(100));
  auto v0 = *IndexedDataFrame::Create(df, "user");
  auto extra = *session.CreateTable(
      "extra", EventSchema(),
      {{Value::Int64(7), Value::String("buy"), Value::Float64(1000)}});
  auto v1 = *v0.AppendRows(extra);

  auto count_of = [](const IndexedDataFrame& idf) {
    return idf.AsDataFrame()
        .Agg({}, {AggSpec::Count("n")})
        .Collect()
        .value()
        .rows[0][0]
        .int64_value();
  };
  EXPECT_EQ(count_of(v0), 100);
  EXPECT_EQ(count_of(v1), 101);
}

TEST(IntegrationTest, TwoIndexesOverSameTable) {
  Session session(SmallOptions());
  FlightsConfig config;
  config.num_flights = 5000;
  config.num_planes = 100;
  config.partitions = 4;
  FlightsGenerator generator(config);
  auto flights = generator.Flights(session).value();
  auto by_num = *IndexedDataFrame::Create(flights, "flight_num");
  auto by_tail = *IndexedDataFrame::Create(flights, "tail_num");

  // Both indexes answer their own lookups; results agree with scans.
  auto by_num_rows = by_num.GetRows(Value::Int32(FlightsConfig::kKey10));
  ASSERT_TRUE(by_num_rows.ok());
  EXPECT_EQ(by_num_rows->rows.size(), 10u);

  const std::string tail = FlightsGenerator::TailNum(7);
  auto by_tail_rows = by_tail.GetRows(Value::String(tail));
  ASSERT_TRUE(by_tail_rows.ok());
  auto scanned = flights.Filter(Eq(Col("tail_num"), Lit(tail.c_str())))
                     .Collect()
                     .value();
  EXPECT_EQ(by_tail_rows->rows.size(), scanned.rows.size());
}

TEST(IntegrationTest, SqlOverAppendedIndexMatchesApi) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("events", EventSchema(), EventRows(200));
  auto v0 = *IndexedDataFrame::Create(df, "user");
  auto extra = *session.CreateTable(
      "more", EventSchema(),
      {{Value::Int64(3), Value::String("buy"), Value::Float64(42)},
       {Value::Int64(3), Value::String("view"), Value::Float64(43)}});
  auto v1 = *v0.AppendRows(extra);
  v1.RegisterAs("live_events");

  auto via_sql =
      session.Sql("SELECT * FROM live_events WHERE user = 3")->Collect();
  auto via_api = v1.GetRows(Value::Int64(3));
  ASSERT_TRUE(via_sql.ok());
  ASSERT_TRUE(via_api.ok());
  EXPECT_EQ(via_sql->SortedRowStrings(), via_api->SortedRowStrings());
}

TEST(IntegrationTest, ComposedPipelineOverIndexedData) {
  // lookup -> join -> filter -> aggregate -> sort -> limit, end to end.
  Session session(SmallOptions());
  auto events = *session.CreateTable("events", EventSchema(), EventRows(400));
  auto users_schema = std::make_shared<Schema>(Schema({
      {"uid", TypeId::kInt64, false},
      {"segment", TypeId::kString, false},
  }));
  std::vector<RowVec> user_rows;
  for (int64_t u = 0; u < 20; ++u) {
    user_rows.push_back(
        {Value::Int64(u), Value::String(u % 2 ? "vip" : "free")});
  }
  auto users = *session.CreateTable("users", users_schema, user_rows);
  auto indexed = *IndexedDataFrame::Create(events, "user");

  auto result = indexed.Join(users, "uid")
                    .Filter(Eq(Col("kind"), Lit("buy")))
                    .Agg({"segment"}, {AggSpec::Count("purchases"),
                                       AggSpec::Avg("amount")})
                    .OrderBy({{"purchases", true}})
                    .Limit(1)
                    .Collect();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);

  // Cross-check against the pure vanilla pipeline.
  auto vanilla = events.Join(users, "user", "uid")
                     .Filter(Eq(Col("kind"), Lit("buy")))
                     .Agg({"segment"}, {AggSpec::Count("purchases"),
                                        AggSpec::Avg("amount")})
                     .OrderBy({{"purchases", true}})
                     .Limit(1)
                     .Collect();
  ASSERT_TRUE(vanilla.ok());
  EXPECT_EQ(result->SortedRowStrings(), vanilla->SortedRowStrings());
}

TEST(IntegrationTest, DeepVersionChainSurvivesFailure) {
  Session session(SmallOptions());
  auto df = *session.CreateTable("events", EventSchema(), EventRows(100));
  auto current = *IndexedDataFrame::Create(df, "user");
  for (int i = 0; i < 8; ++i) {
    auto extra = *session.CreateTable(
        "x" + std::to_string(i), EventSchema(),
        {{Value::Int64(99), Value::String("buy"),
          Value::Float64(static_cast<double>(i))}});
    current = *current.AppendRows(extra);
  }
  EXPECT_EQ(current.version(), 8u);
  EXPECT_EQ(current.GetRows(Value::Int64(99))->rows.size(), 8u);

  session.cluster().KillExecutor(0);
  session.cluster().KillExecutor(3);
  // Recovery replays the whole 8-append chain.
  EXPECT_EQ(current.GetRows(Value::Int64(99))->rows.size(), 8u);
}

TEST(IntegrationTest, UnionOfIndexedAndVanilla) {
  Session session(SmallOptions());
  auto a = *session.CreateTable("a", EventSchema(), EventRows(50));
  auto b = *session.CreateTable("b", EventSchema(), EventRows(30));
  auto indexed = *IndexedDataFrame::Create(a, "user");
  auto result = indexed.AsDataFrame().UnionAll(b).Count();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 80u);
}

}  // namespace
}  // namespace idf
