// Tests for UNION ALL and Distinct.
#include <gtest/gtest.h>

#include "sql/session.h"

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

SchemaPtr KvSchema() {
  return std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt64, false},
      {"v", TypeId::kString, false},
  }));
}

TEST(UnionTest, UnionAllConcatenates) {
  Session session(SmallOptions());
  auto a = *session.CreateTable(
      "a", KvSchema(),
      {{Value::Int64(1), Value::String("x")},
       {Value::Int64(2), Value::String("y")}});
  auto b = *session.CreateTable(
      "b", KvSchema(),
      {{Value::Int64(2), Value::String("y")},
       {Value::Int64(3), Value::String("z")}});
  auto result = a.UnionAll(b).Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);  // duplicates kept
}

TEST(UnionTest, SchemaMismatchRejected) {
  Session session(SmallOptions());
  auto a = *session.CreateTable("a", KvSchema(),
                                {{Value::Int64(1), Value::String("x")}});
  auto other_schema = std::make_shared<Schema>(Schema({
      {"k", TypeId::kInt64, false},
      {"w", TypeId::kInt64, false},
  }));
  auto b = *session.CreateTable("b", other_schema,
                                {{Value::Int64(1), Value::Int64(2)}});
  EXPECT_FALSE(a.UnionAll(b).Collect().ok());
}

TEST(UnionTest, SqlUnionAll) {
  Session session(SmallOptions());
  (void)session.CreateTable("a", KvSchema(),
                            {{Value::Int64(1), Value::String("x")}});
  (void)session.CreateTable("b", KvSchema(),
                            {{Value::Int64(2), Value::String("y")}});
  auto df = session.Sql("SELECT * FROM a UNION ALL SELECT * FROM b");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->Count().value(), 2u);
}

TEST(UnionTest, DistinctRemovesDuplicates) {
  Session session(SmallOptions());
  auto a = *session.CreateTable(
      "a", KvSchema(),
      {{Value::Int64(1), Value::String("x")},
       {Value::Int64(1), Value::String("x")},
       {Value::Int64(1), Value::String("other")},
       {Value::Int64(2), Value::String("y")}});
  auto distinct = a.Distinct();
  ASSERT_TRUE(distinct.ok());
  auto result = distinct->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->schema->num_fields(), 2u);  // count column projected away
}

TEST(UnionTest, UnionThenDistinctIsSetUnion) {
  Session session(SmallOptions());
  auto a = *session.CreateTable(
      "a", KvSchema(),
      {{Value::Int64(1), Value::String("x")},
       {Value::Int64(2), Value::String("y")}});
  auto b = *session.CreateTable(
      "b", KvSchema(),
      {{Value::Int64(2), Value::String("y")},
       {Value::Int64(3), Value::String("z")}});
  auto result = a.UnionAll(b).Distinct()->Collect();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

}  // namespace
}  // namespace idf
