// Expression trees for filters, projections, and join conditions.
//
// SQL three-valued logic: comparisons involving NULL yield NULL; a filter
// keeps a row only when its predicate evaluates to TRUE. Expressions resolve
// column names against a schema once, then evaluate against row accessors
// over columnar chunks (binary rows are decoded into chunks first).
//
// The optimizer inspects expression shapes — in particular
// `column == literal` (MatchColumnEqualsLiteral), the pattern the indexed
// lookup rule rewrites into a cTrie probe (§III-B).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace idf {

/// Row abstraction expressions evaluate against.
class RowAccessor {
 public:
  virtual ~RowAccessor() = default;
  virtual Value Get(size_t col) const = 0;
};

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr {
 public:
  enum class Kind {
    kColumn,
    kLiteral,
    kCompare,
    kAnd,
    kOr,
    kNot,
    kIsNull,
    kArith,
  };

  virtual ~Expr() = default;
  Kind kind() const { return kind_; }

  /// Binds column references to indices in `schema`. Must be called (on a
  /// fresh Resolve'd copy) before Eval. Returns the resolved expression.
  virtual Result<ExprPtr> Resolve(const Schema& schema) const = 0;

  /// Evaluates against a resolved row. Null propagation per SQL semantics.
  virtual Value Eval(const RowAccessor& row) const = 0;

  virtual std::string ToString() const = 0;

  /// All column names referenced by this expression (pre-resolution).
  virtual void CollectColumns(std::vector<std::string>& out) const = 0;

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  Kind kind_;
};

// ---- node types (exposed so rules can pattern-match) ------------------------

class ColumnExpr final : public Expr {
 public:
  explicit ColumnExpr(std::string name, int index = -1)
      : Expr(Kind::kColumn), name_(std::move(name)), index_(index) {}

  const std::string& name() const { return name_; }
  int index() const { return index_; }
  bool resolved() const { return index_ >= 0; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<std::string>& out) const override {
    out.push_back(name_);
  }

 private:
  std::string name_;
  int index_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value)
      : Expr(Kind::kLiteral), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Result<ExprPtr> Resolve(const Schema&) const override;
  Value Eval(const RowAccessor&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  void CollectColumns(std::vector<std::string>&) const override {}

 private:
  Value value_;
};

class CompareExpr final : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(Kind::kCompare),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>& out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(Kind kind, ExprPtr left, ExprPtr right)
      : Expr(kind), left_(std::move(left)), right_(std::move(right)) {
    IDF_CHECK(kind == Kind::kAnd || kind == Kind::kOr);
  }

  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>& out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

 private:
  ExprPtr left_, right_;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr child)
      : Expr(Kind::kNot), child_(std::move(child)) {}

  const ExprPtr& child() const { return child_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    child_->CollectColumns(out);
  }

 private:
  ExprPtr child_;
};

class IsNullExpr final : public Expr {
 public:
  explicit IsNullExpr(ExprPtr child, bool negated = false)
      : Expr(Kind::kIsNull), child_(std::move(child)), negated_(negated) {}

  const ExprPtr& child() const { return child_; }
  bool negated() const { return negated_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override {
    return "(" + child_->ToString() + (negated_ ? ") IS NOT NULL" : ") IS NULL");
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    child_->CollectColumns(out);
  }

 private:
  ExprPtr child_;
  bool negated_;
};

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
      : Expr(Kind::kArith),
        op_(op),
        left_(std::move(left)),
        right_(std::move(right)) {}

  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  Result<ExprPtr> Resolve(const Schema& schema) const override;
  Value Eval(const RowAccessor& row) const override;
  std::string ToString() const override;
  void CollectColumns(std::vector<std::string>& out) const override {
    left_->CollectColumns(out);
    right_->CollectColumns(out);
  }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
};

// ---- builders ------------------------------------------------------------

ExprPtr Col(std::string name);
ExprPtr Lit(Value v);
inline ExprPtr Lit(int64_t v) { return Lit(Value::Int64(v)); }
inline ExprPtr Lit(int32_t v) { return Lit(Value::Int32(v)); }
inline ExprPtr Lit(double v) { return Lit(Value::Float64(v)); }
inline ExprPtr Lit(const char* v) { return Lit(Value::String(v)); }
inline ExprPtr Lit(bool v) { return Lit(Value::Bool(v)); }

ExprPtr Eq(ExprPtr a, ExprPtr b);
ExprPtr Ne(ExprPtr a, ExprPtr b);
ExprPtr Lt(ExprPtr a, ExprPtr b);
ExprPtr Le(ExprPtr a, ExprPtr b);
ExprPtr Gt(ExprPtr a, ExprPtr b);
ExprPtr Ge(ExprPtr a, ExprPtr b);
ExprPtr And(ExprPtr a, ExprPtr b);
ExprPtr Or(ExprPtr a, ExprPtr b);
ExprPtr Not(ExprPtr a);
ExprPtr IsNull(ExprPtr a);
ExprPtr IsNotNull(ExprPtr a);
ExprPtr Add(ExprPtr a, ExprPtr b);
ExprPtr Sub(ExprPtr a, ExprPtr b);
ExprPtr Mul(ExprPtr a, ExprPtr b);
ExprPtr Div(ExprPtr a, ExprPtr b);

// ---- pattern helpers for optimizer rules -----------------------------------

/// If `expr` is `column == literal` (either operand order), returns the
/// column name and literal. This is the shape the IndexLookupRule rewrites
/// into a cTrie point lookup.
struct ColumnEqualsLiteral {
  std::string column;
  Value literal;
};
std::optional<ColumnEqualsLiteral> MatchColumnEqualsLiteral(const Expr& expr);

/// True if the expression contains only literals (constant-foldable).
bool IsConstant(const Expr& expr);

// ---- accessors over concrete row representations ----------------------------

class ColumnarChunk;  // sql/columnar.h

class ChunkRowAccessor final : public RowAccessor {
 public:
  ChunkRowAccessor(const ColumnarChunk& chunk, size_t row)
      : chunk_(chunk), row_(row) {}
  void set_row(size_t row) { row_ = row; }
  Value Get(size_t col) const override;

 private:
  const ColumnarChunk& chunk_;
  size_t row_;
};

}  // namespace idf
