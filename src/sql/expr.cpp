#include "sql/expr.h"

#include "sql/columnar.h"

namespace idf {

// ---- ColumnExpr -------------------------------------------------------------

Result<ExprPtr> ColumnExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(name_));
  return ExprPtr(std::make_shared<ColumnExpr>(name_, static_cast<int>(idx)));
}

Value ColumnExpr::Eval(const RowAccessor& row) const {
  IDF_CHECK_MSG(resolved(), "Eval on unresolved column '" + name_ + "'");
  return row.Get(static_cast<size_t>(index_));
}

// ---- LiteralExpr -------------------------------------------------------------

Result<ExprPtr> LiteralExpr::Resolve(const Schema&) const {
  return ExprPtr(std::make_shared<LiteralExpr>(value_));
}

// ---- CompareExpr -------------------------------------------------------------

namespace {
const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
  }
  return "?";
}
}  // namespace

Result<ExprPtr> CompareExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(ExprPtr l, left_->Resolve(schema));
  IDF_ASSIGN_OR_RETURN(ExprPtr r, right_->Resolve(schema));
  return ExprPtr(std::make_shared<CompareExpr>(op_, std::move(l), std::move(r)));
}

Value CompareExpr::Eval(const RowAccessor& row) const {
  const Value l = left_->Eval(row);
  const Value r = right_->Eval(row);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  // Numbers compare as doubles under IEEE rules, as the vectorized filter
  // does (NaN is unordered: only != holds for it); strings compare as
  // Compare's sign against 0.
  const bool numeric =
      l.type() != TypeId::kString && r.type() != TypeId::kString;
  const double a = numeric ? l.AsFloat64() : l.Compare(r);
  const double b = numeric ? r.AsFloat64() : 0.0;
  switch (op_) {
    case CompareOp::kEq: return Value::Bool(a == b);
    case CompareOp::kNe: return Value::Bool(a != b);
    case CompareOp::kLt: return Value::Bool(a < b);
    case CompareOp::kLe: return Value::Bool(a <= b);
    case CompareOp::kGt: return Value::Bool(a > b);
    case CompareOp::kGe: return Value::Bool(a >= b);
  }
  return Value::Null(TypeId::kBool);
}

std::string CompareExpr::ToString() const {
  return "(" + left_->ToString() + " " + CompareOpName(op_) + " " +
         right_->ToString() + ")";
}

// ---- LogicalExpr -------------------------------------------------------------

Result<ExprPtr> LogicalExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(ExprPtr l, left_->Resolve(schema));
  IDF_ASSIGN_OR_RETURN(ExprPtr r, right_->Resolve(schema));
  return ExprPtr(
      std::make_shared<LogicalExpr>(kind(), std::move(l), std::move(r)));
}

Value LogicalExpr::Eval(const RowAccessor& row) const {
  // SQL three-valued AND/OR with short-circuit where sound.
  const Value l = left_->Eval(row);
  if (kind() == Kind::kAnd) {
    if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
    const Value r = right_->Eval(row);
    if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
    if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
    return Value::Bool(true);
  }
  if (!l.is_null() && l.bool_value()) return Value::Bool(true);
  const Value r = right_->Eval(row);
  if (!r.is_null() && r.bool_value()) return Value::Bool(true);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kBool);
  return Value::Bool(false);
}

std::string LogicalExpr::ToString() const {
  return "(" + left_->ToString() +
         (kind() == Kind::kAnd ? " AND " : " OR ") + right_->ToString() + ")";
}

// ---- NotExpr -------------------------------------------------------------

Result<ExprPtr> NotExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(ExprPtr c, child_->Resolve(schema));
  return ExprPtr(std::make_shared<NotExpr>(std::move(c)));
}

Value NotExpr::Eval(const RowAccessor& row) const {
  const Value v = child_->Eval(row);
  if (v.is_null()) return Value::Null(TypeId::kBool);
  return Value::Bool(!v.bool_value());
}

// ---- IsNullExpr -------------------------------------------------------------

Result<ExprPtr> IsNullExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(ExprPtr c, child_->Resolve(schema));
  return ExprPtr(std::make_shared<IsNullExpr>(std::move(c), negated_));
}

Value IsNullExpr::Eval(const RowAccessor& row) const {
  const bool null = child_->Eval(row).is_null();
  return Value::Bool(negated_ ? !null : null);
}

// ---- ArithExpr -------------------------------------------------------------

namespace {
const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
  }
  return "?";
}
}  // namespace

Result<ExprPtr> ArithExpr::Resolve(const Schema& schema) const {
  IDF_ASSIGN_OR_RETURN(ExprPtr l, left_->Resolve(schema));
  IDF_ASSIGN_OR_RETURN(ExprPtr r, right_->Resolve(schema));
  return ExprPtr(std::make_shared<ArithExpr>(op_, std::move(l), std::move(r)));
}

Value ArithExpr::Eval(const RowAccessor& row) const {
  const Value l = left_->Eval(row);
  const Value r = right_->Eval(row);
  if (l.is_null() || r.is_null()) return Value::Null(TypeId::kFloat64);
  // Integer arithmetic stays integral when both operands are integral
  // (except division, which follows SQL and stays integral too).
  const bool integral =
      (l.type() == TypeId::kInt32 || l.type() == TypeId::kInt64) &&
      (r.type() == TypeId::kInt32 || r.type() == TypeId::kInt64);
  if (integral) {
    const int64_t a = l.AsInt64();
    const int64_t b = r.AsInt64();
    switch (op_) {
      case ArithOp::kAdd: return Value::Int64(a + b);
      case ArithOp::kSub: return Value::Int64(a - b);
      case ArithOp::kMul: return Value::Int64(a * b);
      case ArithOp::kDiv:
        if (b == 0) return Value::Null(TypeId::kInt64);
        return Value::Int64(a / b);
    }
  }
  const double a = l.AsFloat64();
  const double b = r.AsFloat64();
  switch (op_) {
    case ArithOp::kAdd: return Value::Float64(a + b);
    case ArithOp::kSub: return Value::Float64(a - b);
    case ArithOp::kMul: return Value::Float64(a * b);
    case ArithOp::kDiv:
      if (b == 0) return Value::Null(TypeId::kFloat64);
      return Value::Float64(a / b);
  }
  return Value::Null(TypeId::kFloat64);
}

std::string ArithExpr::ToString() const {
  return "(" + left_->ToString() + " " + ArithOpName(op_) + " " +
         right_->ToString() + ")";
}

// ---- builders ------------------------------------------------------------

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnExpr>(std::move(name));
}
ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kEq, std::move(a),
                                       std::move(b));
}
ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kNe, std::move(a),
                                       std::move(b));
}
ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kLt, std::move(a),
                                       std::move(b));
}
ExprPtr Le(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kLe, std::move(a),
                                       std::move(b));
}
ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kGt, std::move(a),
                                       std::move(b));
}
ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return std::make_shared<CompareExpr>(CompareOp::kGe, std::move(a),
                                       std::move(b));
}
ExprPtr And(ExprPtr a, ExprPtr b) {
  return std::make_shared<LogicalExpr>(Expr::Kind::kAnd, std::move(a),
                                       std::move(b));
}
ExprPtr Or(ExprPtr a, ExprPtr b) {
  return std::make_shared<LogicalExpr>(Expr::Kind::kOr, std::move(a),
                                       std::move(b));
}
ExprPtr Not(ExprPtr a) { return std::make_shared<NotExpr>(std::move(a)); }
ExprPtr IsNull(ExprPtr a) {
  return std::make_shared<IsNullExpr>(std::move(a), false);
}
ExprPtr IsNotNull(ExprPtr a) {
  return std::make_shared<IsNullExpr>(std::move(a), true);
}
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(a), std::move(b));
}
ExprPtr Div(ExprPtr a, ExprPtr b) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(a), std::move(b));
}

// ---- pattern helpers ----------------------------------------------------------

std::optional<ColumnEqualsLiteral> MatchColumnEqualsLiteral(const Expr& expr) {
  if (expr.kind() != Expr::Kind::kCompare) return std::nullopt;
  const auto& cmp = static_cast<const CompareExpr&>(expr);
  if (cmp.op() != CompareOp::kEq) return std::nullopt;
  const Expr* a = cmp.left().get();
  const Expr* b = cmp.right().get();
  if (a->kind() == Expr::Kind::kLiteral && b->kind() == Expr::Kind::kColumn) {
    std::swap(a, b);
  }
  if (a->kind() != Expr::Kind::kColumn || b->kind() != Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  return ColumnEqualsLiteral{
      static_cast<const ColumnExpr*>(a)->name(),
      static_cast<const LiteralExpr*>(b)->value()};
}

bool IsConstant(const Expr& expr) {
  std::vector<std::string> cols;
  expr.CollectColumns(cols);
  return cols.empty();
}

// ---- accessors ------------------------------------------------------------

Value ChunkRowAccessor::Get(size_t col) const {
  return chunk_.ValueAt(row_, col);
}

}  // namespace idf
