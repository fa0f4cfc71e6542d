// Logical query plans — the abstract representations Catalyst-style rules
// rewrite before physical planning (§III-B: "queries have abstract
// representations called query plans ... optimization rules transform the
// logical plan into a physical plan").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/expr.h"
#include "sql/table.h"
#include "types/schema.h"

namespace idf {

class LogicalPlan;
using PlanPtr = std::shared_ptr<const LogicalPlan>;

/// Aggregate function specification for Aggregate nodes.
struct AggSpec {
  enum class Fn { kCount, kSum, kMin, kMax, kAvg };
  Fn fn = Fn::kCount;
  std::string column;       // input column (ignored for kCount)
  std::string output_name;  // result column name

  static AggSpec Count(std::string out = "count") {
    return {Fn::kCount, "", std::move(out)};
  }
  static AggSpec Sum(std::string col, std::string out = "") {
    return {Fn::kSum, col, out.empty() ? "sum_" + col : std::move(out)};
  }
  static AggSpec Min(std::string col, std::string out = "") {
    return {Fn::kMin, col, out.empty() ? "min_" + col : std::move(out)};
  }
  static AggSpec Max(std::string col, std::string out = "") {
    return {Fn::kMax, col, out.empty() ? "max_" + col : std::move(out)};
  }
  static AggSpec Avg(std::string col, std::string out = "") {
    return {Fn::kAvg, col, out.empty() ? "avg_" + col : std::move(out)};
  }

  /// Result type over an input column of type `input` (COUNT ignores it).
  TypeId OutputType(TypeId input) const;
};

enum class JoinType { kInner, kLeftOuter };

/// One ORDER BY key.
struct SortKey {
  std::string column;
  bool descending = false;
};

class LogicalPlan {
 public:
  enum class Kind {
    kScan,
    kFilter,
    kProject,
    kJoin,
    kAggregate,
    kSort,
    kLimit,
    kUnion,
  };

  virtual ~LogicalPlan() = default;
  Kind kind() const { return kind_; }

  const std::vector<PlanPtr>& children() const { return children_; }

  /// Output schema of this node (resolved against children).
  virtual Result<Schema> OutputSchema() const = 0;

  /// Single-line description; Explain() renders the whole tree.
  virtual std::string Describe() const = 0;
  std::string Explain(int indent = 0) const;

 protected:
  LogicalPlan(Kind kind, std::vector<PlanPtr> children)
      : kind_(kind), children_(std::move(children)) {}

 private:
  Kind kind_;
  std::vector<PlanPtr> children_;
};

class ScanNode final : public LogicalPlan {
 public:
  explicit ScanNode(DatasetPtr dataset)
      : LogicalPlan(Kind::kScan, {}), dataset_(std::move(dataset)) {
    IDF_CHECK(dataset_ != nullptr);
  }

  const DatasetPtr& dataset() const { return dataset_; }

  Result<Schema> OutputSchema() const override { return *dataset_->schema(); }
  std::string Describe() const override {
    std::string s = "Scan " + dataset_->name();
    if (dataset_->indexed_column() >= 0) {
      s += " [indexed on " +
           dataset_->schema()->field(
               static_cast<size_t>(dataset_->indexed_column())).name + "]";
    }
    return s;
  }

 private:
  DatasetPtr dataset_;
};

class FilterNode final : public LogicalPlan {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate)
      : LogicalPlan(Kind::kFilter, {std::move(child)}),
        predicate_(std::move(predicate)) {}

  const PlanPtr& child() const { return children()[0]; }
  const ExprPtr& predicate() const { return predicate_; }

  Result<Schema> OutputSchema() const override {
    return child()->OutputSchema();
  }
  std::string Describe() const override {
    return "Filter " + predicate_->ToString();
  }

 private:
  ExprPtr predicate_;
};

class ProjectNode final : public LogicalPlan {
 public:
  ProjectNode(PlanPtr child, std::vector<std::string> columns)
      : LogicalPlan(Kind::kProject, {std::move(child)}),
        columns_(std::move(columns)) {}

  const PlanPtr& child() const { return children()[0]; }
  const std::vector<std::string>& columns() const { return columns_; }

  Result<Schema> OutputSchema() const override {
    IDF_ASSIGN_OR_RETURN(Schema in, child()->OutputSchema());
    return in.Project(columns_);
  }
  std::string Describe() const override {
    std::string s = "Project [";
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i) s += ", ";
      s += columns_[i];
    }
    return s + "]";
  }

 private:
  std::vector<std::string> columns_;
};

/// An equi-join's output schema: left ++ right (Schema::ConcatForJoin), the
/// right side's columns nullable under LEFT OUTER, which null-pads them.
Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        JoinType join_type);

/// Equi-join on one key per side (the paper's join shape everywhere).
/// Inner by default; LEFT OUTER keeps unmatched left rows with null-padded
/// right columns.
class JoinNode final : public LogicalPlan {
 public:
  JoinNode(PlanPtr left, PlanPtr right, std::string left_key,
           std::string right_key, JoinType join_type = JoinType::kInner)
      : LogicalPlan(Kind::kJoin, {std::move(left), std::move(right)}),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        join_type_(join_type) {}

  const PlanPtr& left() const { return children()[0]; }
  const PlanPtr& right() const { return children()[1]; }
  const std::string& left_key() const { return left_key_; }
  const std::string& right_key() const { return right_key_; }
  JoinType join_type() const { return join_type_; }

  Result<Schema> OutputSchema() const override {
    IDF_ASSIGN_OR_RETURN(Schema l, left()->OutputSchema());
    IDF_ASSIGN_OR_RETURN(Schema r, right()->OutputSchema());
    IDF_RETURN_IF_ERROR(l.FieldIndex(left_key_).status());
    IDF_RETURN_IF_ERROR(r.FieldIndex(right_key_).status());
    return JoinOutputSchema(l, r, join_type_);
  }
  std::string Describe() const override {
    return std::string(join_type_ == JoinType::kLeftOuter ? "LeftOuterJoin "
                                                          : "Join ") +
           left_key_ + " = " + right_key_;
  }

 private:
  std::string left_key_, right_key_;
  JoinType join_type_;
};

/// UNION ALL: concatenation of two relations with identical schemas
/// (duplicates kept; compose with Distinct() for set union).
class UnionNode final : public LogicalPlan {
 public:
  UnionNode(PlanPtr left, PlanPtr right)
      : LogicalPlan(Kind::kUnion, {std::move(left), std::move(right)}) {}

  const PlanPtr& left() const { return children()[0]; }
  const PlanPtr& right() const { return children()[1]; }

  Result<Schema> OutputSchema() const override {
    IDF_ASSIGN_OR_RETURN(Schema l, left()->OutputSchema());
    IDF_ASSIGN_OR_RETURN(Schema r, right()->OutputSchema());
    if (l != r) {
      return Status::InvalidArgument("UNION sides have different schemas: " +
                                     l.ToString() + " vs " + r.ToString());
    }
    return l;
  }
  std::string Describe() const override { return "UnionAll"; }
};

/// Global sort (ORDER BY). Materialized as a single sorted partition, like
/// a collect-and-sort in the driver.
class SortNode final : public LogicalPlan {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys)
      : LogicalPlan(Kind::kSort, {std::move(child)}), keys_(std::move(keys)) {
    IDF_CHECK_MSG(!keys_.empty(), "ORDER BY needs at least one key");
  }

  const PlanPtr& child() const { return children()[0]; }
  const std::vector<SortKey>& keys() const { return keys_; }

  Result<Schema> OutputSchema() const override {
    IDF_ASSIGN_OR_RETURN(Schema in, child()->OutputSchema());
    for (const SortKey& key : keys_) {
      IDF_RETURN_IF_ERROR(in.FieldIndex(key.column).status());
    }
    return in;
  }
  std::string Describe() const override {
    std::string s = "Sort [";
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (i) s += ", ";
      s += keys_[i].column;
      if (keys_[i].descending) s += " DESC";
    }
    return s + "]";
  }

 private:
  std::vector<SortKey> keys_;
};

class AggregateNode final : public LogicalPlan {
 public:
  AggregateNode(PlanPtr child, std::vector<std::string> group_by,
                std::vector<AggSpec> aggs)
      : LogicalPlan(Kind::kAggregate, {std::move(child)}),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {
    IDF_CHECK_MSG(!aggs_.empty(), "aggregate without functions");
  }

  const PlanPtr& child() const { return children()[0]; }
  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggSpec>& aggs() const { return aggs_; }

  Result<Schema> OutputSchema() const override;
  std::string Describe() const override;

 private:
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
};

class LimitNode final : public LogicalPlan {
 public:
  LimitNode(PlanPtr child, uint64_t limit)
      : LogicalPlan(Kind::kLimit, {std::move(child)}), limit_(limit) {}

  const PlanPtr& child() const { return children()[0]; }
  uint64_t limit() const { return limit_; }

  Result<Schema> OutputSchema() const override {
    return child()->OutputSchema();
  }
  std::string Describe() const override {
    return "Limit " + std::to_string(limit_);
  }

 private:
  uint64_t limit_;
};

}  // namespace idf
