// Tests for the expression system: resolution, SQL three-valued logic,
// arithmetic, pattern matching helpers.
#include <gtest/gtest.h>

#include <limits>

#include "sql/columnar.h"
#include "sql/expr.h"

namespace idf {
namespace {

SchemaPtr TestSchema() {
  return std::make_shared<Schema>(Schema({
      {"a", TypeId::kInt64, true},
      {"b", TypeId::kFloat64, true},
      {"s", TypeId::kString, true},
      {"flag", TypeId::kBool, true},
  }));
}

/// Accessor over a plain RowVec for direct expression testing.
class VecAccessor final : public RowAccessor {
 public:
  explicit VecAccessor(RowVec row) : row_(std::move(row)) {}
  Value Get(size_t col) const override { return row_.at(col); }

 private:
  RowVec row_;
};

ExprPtr Resolved(ExprPtr e) {
  auto r = e->Resolve(*TestSchema());
  IDF_CHECK_OK(r.status());
  return *r;
}

Value EvalOn(ExprPtr e, RowVec row) {
  return Resolved(std::move(e))->Eval(VecAccessor(std::move(row)));
}

RowVec SampleRow() {
  return {Value::Int64(10), Value::Float64(2.5), Value::String("xyz"),
          Value::Bool(true)};
}

TEST(ExprTest, ColumnResolution) {
  auto resolved = Col("b")->Resolve(*TestSchema());
  ASSERT_TRUE(resolved.ok());
  const auto& col = static_cast<const ColumnExpr&>(**resolved);
  EXPECT_TRUE(col.resolved());
  EXPECT_EQ(col.index(), 1);
}

TEST(ExprTest, UnknownColumnFailsResolution) {
  EXPECT_FALSE(Col("zzz")->Resolve(*TestSchema()).ok());
  EXPECT_FALSE(Eq(Col("zzz"), Lit(int64_t{1}))->Resolve(*TestSchema()).ok());
}

TEST(ExprTest, ComparisonOperators) {
  EXPECT_EQ(EvalOn(Eq(Col("a"), Lit(int64_t{10})), SampleRow()),
            Value::Bool(true));
  EXPECT_EQ(EvalOn(Ne(Col("a"), Lit(int64_t{10})), SampleRow()),
            Value::Bool(false));
  EXPECT_EQ(EvalOn(Lt(Col("a"), Lit(int64_t{11})), SampleRow()),
            Value::Bool(true));
  EXPECT_EQ(EvalOn(Le(Col("a"), Lit(int64_t{10})), SampleRow()),
            Value::Bool(true));
  EXPECT_EQ(EvalOn(Gt(Col("a"), Lit(int64_t{10})), SampleRow()),
            Value::Bool(false));
  EXPECT_EQ(EvalOn(Ge(Col("a"), Lit(int64_t{10})), SampleRow()),
            Value::Bool(true));
}

TEST(ExprTest, CrossTypeNumericComparison) {
  EXPECT_EQ(EvalOn(Eq(Col("a"), Lit(10.0)), SampleRow()), Value::Bool(true));
  EXPECT_EQ(EvalOn(Lt(Col("b"), Lit(int64_t{3})), SampleRow()),
            Value::Bool(true));
  // NaN is unordered, as in the vectorized filter: only != holds, and
  // -0.0 equals +0.0.
  RowVec nan_row = SampleRow();
  nan_row[1] = Value::Float64(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(EvalOn(Eq(Col("b"), Col("b")), nan_row), Value::Bool(false));
  EXPECT_EQ(EvalOn(Ne(Col("b"), Lit(0.0)), nan_row), Value::Bool(true));
  EXPECT_EQ(EvalOn(Le(Col("b"), Lit(0.0)), nan_row), Value::Bool(false));
  EXPECT_EQ(EvalOn(Ge(Col("b"), Lit(0.0)), nan_row), Value::Bool(false));
  nan_row[1] = Value::Float64(-0.0);
  EXPECT_EQ(EvalOn(Eq(Col("b"), Lit(int64_t{0})), nan_row), Value::Bool(true));
}

TEST(ExprTest, StringComparison) {
  EXPECT_EQ(EvalOn(Eq(Col("s"), Lit("xyz")), SampleRow()), Value::Bool(true));
  EXPECT_EQ(EvalOn(Lt(Col("s"), Lit("zzz")), SampleRow()), Value::Bool(true));
}

TEST(ExprTest, NullComparisonYieldsNull) {
  RowVec row{Value::Null(TypeId::kInt64), Value::Float64(1), Value::String(""),
             Value::Bool(false)};
  const Value v = EvalOn(Eq(Col("a"), Lit(int64_t{1})), row);
  EXPECT_TRUE(v.is_null());
}

TEST(ExprTest, ThreeValuedAnd) {
  RowVec null_row{Value::Null(TypeId::kInt64), Value::Float64(1),
                  Value::String(""), Value::Bool(false)};
  // null AND false = false (not null).
  const Value v = EvalOn(
      And(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(2.0))), null_row);
  EXPECT_FALSE(v.is_null());
  EXPECT_FALSE(v.bool_value());
  // null AND true = null.
  const Value w = EvalOn(
      And(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(1.0))), null_row);
  EXPECT_TRUE(w.is_null());
}

TEST(ExprTest, ThreeValuedOr) {
  RowVec null_row{Value::Null(TypeId::kInt64), Value::Float64(1),
                  Value::String(""), Value::Bool(false)};
  // null OR true = true.
  const Value v = EvalOn(
      Or(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(1.0))), null_row);
  EXPECT_EQ(v, Value::Bool(true));
  // null OR false = null.
  const Value w = EvalOn(
      Or(Eq(Col("a"), Lit(int64_t{1})), Eq(Col("b"), Lit(9.0))), null_row);
  EXPECT_TRUE(w.is_null());
}

TEST(ExprTest, NotSemantics) {
  EXPECT_EQ(EvalOn(Not(Eq(Col("a"), Lit(int64_t{10}))), SampleRow()),
            Value::Bool(false));
  RowVec null_row{Value::Null(TypeId::kInt64), Value::Float64(1),
                  Value::String(""), Value::Bool(false)};
  EXPECT_TRUE(EvalOn(Not(Eq(Col("a"), Lit(int64_t{1}))), null_row).is_null());
}

TEST(ExprTest, IsNullOperators) {
  RowVec null_row{Value::Null(TypeId::kInt64), Value::Float64(1),
                  Value::String(""), Value::Bool(false)};
  EXPECT_EQ(EvalOn(IsNull(Col("a")), null_row), Value::Bool(true));
  EXPECT_EQ(EvalOn(IsNotNull(Col("a")), null_row), Value::Bool(false));
  EXPECT_EQ(EvalOn(IsNull(Col("a")), SampleRow()), Value::Bool(false));
}

TEST(ExprTest, IntegerArithmetic) {
  EXPECT_EQ(EvalOn(Add(Col("a"), Lit(int64_t{5})), SampleRow()),
            Value::Int64(15));
  EXPECT_EQ(EvalOn(Sub(Col("a"), Lit(int64_t{3})), SampleRow()),
            Value::Int64(7));
  EXPECT_EQ(EvalOn(Mul(Col("a"), Lit(int64_t{3})), SampleRow()),
            Value::Int64(30));
  EXPECT_EQ(EvalOn(Div(Col("a"), Lit(int64_t{3})), SampleRow()),
            Value::Int64(3));
}

TEST(ExprTest, DivisionByZeroIsNull) {
  EXPECT_TRUE(EvalOn(Div(Col("a"), Lit(int64_t{0})), SampleRow()).is_null());
  EXPECT_TRUE(EvalOn(Div(Col("b"), Lit(0.0)), SampleRow()).is_null());
}

TEST(ExprTest, FloatArithmetic) {
  const Value v = EvalOn(Mul(Col("b"), Lit(2.0)), SampleRow());
  EXPECT_DOUBLE_EQ(v.float64_value(), 5.0);
  const Value mixed = EvalOn(Add(Col("a"), Lit(0.5)), SampleRow());
  EXPECT_DOUBLE_EQ(mixed.float64_value(), 10.5);
}

TEST(ExprTest, ToStringRendersTree) {
  const std::string s =
      And(Eq(Col("a"), Lit(int64_t{1})), Gt(Col("b"), Lit(2.0)))->ToString();
  EXPECT_EQ(s, "((a = 1) AND (b > 2))");
}

TEST(ExprTest, MatchColumnEqualsLiteral) {
  auto m1 = MatchColumnEqualsLiteral(*Eq(Col("a"), Lit(int64_t{7})));
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(m1->column, "a");
  EXPECT_EQ(m1->literal, Value::Int64(7));

  // Reversed operand order matches too.
  auto m2 = MatchColumnEqualsLiteral(*Eq(Lit("x"), Col("s")));
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->column, "s");

  EXPECT_FALSE(MatchColumnEqualsLiteral(*Lt(Col("a"), Lit(int64_t{7}))));
  EXPECT_FALSE(MatchColumnEqualsLiteral(*Eq(Col("a"), Col("s"))));
  EXPECT_FALSE(
      MatchColumnEqualsLiteral(*Eq(Lit(int64_t{1}), Lit(int64_t{1}))));
}

TEST(ExprTest, IsConstant) {
  EXPECT_TRUE(IsConstant(*Add(Lit(int64_t{1}), Lit(int64_t{2}))));
  EXPECT_FALSE(IsConstant(*Add(Col("a"), Lit(int64_t{2}))));
}

TEST(ExprTest, CollectColumns) {
  std::vector<std::string> cols;
  And(Eq(Col("a"), Lit(int64_t{1})), Gt(Col("b"), Col("a")))
      ->CollectColumns(cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b", "a"}));
}

TEST(ExprTest, ChunkRowAccessor) {
  ColumnarChunk chunk(TestSchema());
  IDF_CHECK_OK(chunk.AppendRow(SampleRow()));
  ChunkRowAccessor accessor(chunk, 0);
  EXPECT_EQ(accessor.Get(0), Value::Int64(10));
  EXPECT_EQ(accessor.Get(2), Value::String("xyz"));
  auto resolved = Resolved(Gt(Col("a"), Lit(int64_t{5})));
  EXPECT_EQ(resolved->Eval(accessor), Value::Bool(true));
}

}  // namespace
}  // namespace idf
