#include "sql/plan.h"

namespace idf {

std::string LogicalPlan::Explain(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const PlanPtr& child : children_) out += child->Explain(indent + 1);
  return out;
}

TypeId AggSpec::OutputType(TypeId input) const {
  switch (fn) {
    case Fn::kCount:
      return TypeId::kInt64;
    case Fn::kAvg:
      return TypeId::kFloat64;
    case Fn::kSum:
      return input == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
    case Fn::kMin:
    case Fn::kMax:
      return input;
  }
  return TypeId::kInt64;
}

Schema JoinOutputSchema(const Schema& left, const Schema& right,
                        JoinType join_type) {
  Schema joined = left.ConcatForJoin(right);
  if (join_type != JoinType::kLeftOuter) return joined;
  std::vector<Field> fields = joined.fields();
  for (size_t i = left.num_fields(); i < fields.size(); ++i) {
    fields[i].nullable = true;
  }
  return Schema(std::move(fields));
}

Result<Schema> AggregateNode::OutputSchema() const {
  IDF_ASSIGN_OR_RETURN(Schema in, child()->OutputSchema());
  std::vector<Field> fields;
  for (const std::string& g : group_by_) {
    IDF_ASSIGN_OR_RETURN(size_t idx, in.FieldIndex(g));
    fields.push_back(in.field(idx));
  }
  for (const AggSpec& agg : aggs_) {
    TypeId input = TypeId::kInt64;
    if (agg.fn != AggSpec::Fn::kCount) {
      IDF_ASSIGN_OR_RETURN(size_t idx, in.FieldIndex(agg.column));
      input = in.field(idx).type;
    }
    fields.push_back(Field{agg.output_name, agg.OutputType(input), true});
  }
  return Schema(std::move(fields));
}

std::string AggregateNode::Describe() const {
  std::string s = "Aggregate group_by=[";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i) s += ", ";
    s += group_by_[i];
  }
  s += "] aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i) s += ", ";
    s += aggs_[i].output_name;
  }
  return s + "]";
}

}  // namespace idf
