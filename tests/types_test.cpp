// Tests for the Value / Schema type system.
#include <gtest/gtest.h>

#include "types/schema.h"
#include "types/value.h"

namespace idf {
namespace {

TEST(ValueTest, NullConstruction) {
  Value v;
  EXPECT_TRUE(v.is_null());
  Value typed_null = Value::Null(TypeId::kInt64);
  EXPECT_TRUE(typed_null.is_null());
  EXPECT_EQ(typed_null.type(), TypeId::kInt64);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int32(-5).int32_value(), -5);
  EXPECT_EQ(Value::Int64(1LL << 40).int64_value(), 1LL << 40);
  EXPECT_DOUBLE_EQ(Value::Float64(2.5).float64_value(), 2.5);
  EXPECT_EQ(Value::String("hi").string_value(), "hi");
}

TEST(ValueTest, NumericWidening) {
  EXPECT_EQ(Value::Int32(7).AsInt64(), 7);
  EXPECT_EQ(Value::Bool(true).AsInt64(), 1);
  EXPECT_DOUBLE_EQ(Value::Int64(3).AsFloat64(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Float64(1.5).AsFloat64(), 1.5);
}

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value::Int64(42), Value::Int64(42));
  EXPECT_NE(Value::Int64(42), Value::Int64(43));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
}

TEST(ValueTest, EqualityCrossNumeric) {
  EXPECT_EQ(Value::Int32(5), Value::Int64(5));
  EXPECT_EQ(Value::Int64(5), Value::Float64(5.0));
  EXPECT_NE(Value::Int64(5), Value::Float64(5.5));
}

TEST(ValueTest, NullNeverEqual) {
  EXPECT_NE(Value::Null(TypeId::kInt64), Value::Null(TypeId::kInt64));
  EXPECT_NE(Value::Null(TypeId::kInt64), Value::Int64(0));
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_LT(Value::Int64(1).Compare(Value::Int64(2)), 0);
  EXPECT_GT(Value::Int64(2).Compare(Value::Int64(1)), 0);
  EXPECT_EQ(Value::Int64(1).Compare(Value::Int64(1)), 0);
  EXPECT_LT(Value::String("a").Compare(Value::String("b")), 0);
  // Nulls sort first.
  EXPECT_LT(Value::Null(TypeId::kInt64).Compare(Value::Int64(-100)), 0);
  EXPECT_EQ(Value::Null(TypeId::kInt64).Compare(Value::Null(TypeId::kInt64)),
            0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(7).ToString(), "7");
  EXPECT_EQ(Value::String("x").ToString(), "\"x\"");
  EXPECT_EQ(Value::Null(TypeId::kInt32).ToString(), "NULL");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(TypeTest, FixedSlotWidths) {
  EXPECT_EQ(FixedSlotWidth(TypeId::kBool), 1u);
  EXPECT_EQ(FixedSlotWidth(TypeId::kInt32), 4u);
  EXPECT_EQ(FixedSlotWidth(TypeId::kInt64), 8u);
  EXPECT_EQ(FixedSlotWidth(TypeId::kFloat64), 8u);
  EXPECT_EQ(FixedSlotWidth(TypeId::kString), 8u);
  EXPECT_TRUE(IsFixedWidth(TypeId::kInt64));
  EXPECT_FALSE(IsFixedWidth(TypeId::kString));
}

// ---- Schema ---------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, true},
                 {"score", TypeId::kFloat64, true}});
}

TEST(SchemaTest, FieldLookup) {
  Schema s = TestSchema();
  EXPECT_EQ(s.num_fields(), 3u);
  auto idx = s.FieldIndex("name");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(s.FieldIndex("missing").ok());
  EXPECT_TRUE(s.HasField("score"));
  EXPECT_FALSE(s.HasField("Score"));  // case sensitive
}

TEST(SchemaTest, Project) {
  Schema s = TestSchema();
  auto p = s.Project({"score", "id"});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_fields(), 2u);
  EXPECT_EQ(p->field(0).name, "score");
  EXPECT_EQ(p->field(1).name, "id");
  EXPECT_FALSE(s.Project({"nope"}).ok());
}

TEST(SchemaTest, ConcatForJoinRenamesCollisions) {
  Schema left({{"id", TypeId::kInt64, false}, {"v", TypeId::kInt64, true}});
  Schema right({{"id", TypeId::kInt64, false}, {"w", TypeId::kInt64, true}});
  Schema joined = left.ConcatForJoin(right);
  EXPECT_EQ(joined.num_fields(), 4u);
  EXPECT_EQ(joined.field(2).name, "id_r");
  EXPECT_EQ(joined.field(3).name, "w");
}

TEST(SchemaTest, ToStringMentionsTypes) {
  std::string str = TestSchema().ToString();
  EXPECT_NE(str.find("id: int64 NOT NULL"), std::string::npos);
  EXPECT_NE(str.find("name: string"), std::string::npos);
}

TEST(SchemaTest, ValidateRowAcceptsMatching) {
  Schema s = TestSchema();
  RowVec row{Value::Int64(1), Value::String("a"), Value::Float64(0.5)};
  EXPECT_TRUE(ValidateRow(s, row).ok());
}

TEST(SchemaTest, ValidateRowAcceptsNullsInNullable) {
  Schema s = TestSchema();
  RowVec row{Value::Int64(1), Value::Null(TypeId::kString),
             Value::Null(TypeId::kFloat64)};
  EXPECT_TRUE(ValidateRow(s, row).ok());
}

TEST(SchemaTest, ValidateRowRejectsNullInNotNull) {
  Schema s = TestSchema();
  RowVec row{Value::Null(TypeId::kInt64), Value::String("a"),
             Value::Float64(0.5)};
  EXPECT_EQ(ValidateRow(s, row).code(), StatusCode::kInvalidArgument);
}

TEST(SchemaTest, ValidateRowRejectsWrongArity) {
  Schema s = TestSchema();
  RowVec row{Value::Int64(1)};
  EXPECT_FALSE(ValidateRow(s, row).ok());
}

TEST(SchemaTest, ValidateRowRejectsWrongType) {
  Schema s = TestSchema();
  RowVec row{Value::Int64(1), Value::Int64(2), Value::Float64(0.5)};
  EXPECT_FALSE(ValidateRow(s, row).ok());
}

}  // namespace
}  // namespace idf
