#include "core/indexed_rules.h"

#include "core/indexed_ops.h"
#include "core/indexed_rdd.h"

namespace idf {
namespace {

/// If `plan` is a scan of an indexed dataset whose indexed column is named
/// `key`, returns that dataset.
std::shared_ptr<const IndexedDataset> MatchIndexedScan(const PlanPtr& plan,
                                                       const std::string& key) {
  if (plan->kind() != LogicalPlan::Kind::kScan) return nullptr;
  const auto& scan = static_cast<const ScanNode&>(*plan);
  auto indexed = std::dynamic_pointer_cast<const IndexedDataset>(scan.dataset());
  if (indexed == nullptr) return nullptr;
  const int col = indexed->indexed_column();
  if (col < 0) return nullptr;
  if (indexed->schema()->field(static_cast<size_t>(col)).name != key) {
    return nullptr;
  }
  return indexed;
}

/// Splits a predicate into its AND-ed conjuncts.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>& out) {
  if (expr->kind() == Expr::Kind::kAnd) {
    const auto& logical = static_cast<const LogicalExpr&>(*expr);
    FlattenConjuncts(logical.left(), out);
    FlattenConjuncts(logical.right(), out);
    return;
  }
  out.push_back(expr);
}

/// ANDs non-empty `conjuncts` back together.
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr combined = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    combined = And(combined, conjuncts[i]);
  }
  return combined;
}

}  // namespace

Result<PhysOpPtr> IndexedJoinStrategy::TryPlan(const PlanPtr& plan,
                                               Planner& planner) const {
  if (plan->kind() != LogicalPlan::Kind::kJoin) return PhysOpPtr(nullptr);
  const auto& join = static_cast<const JoinNode&>(*plan);
  // Outer joins fall back to vanilla execution (the index cannot enumerate
  // its own unmatched rows without a full scan anyway).
  if (join.join_type() != JoinType::kInner) return PhysOpPtr(nullptr);

  // "If any of the sides of the relation are indexed, our implementation
  // triggers an indexed join operation" (§III-A).
  if (auto indexed = MatchIndexedScan(join.left(), join.left_key())) {
    IDF_ASSIGN_OR_RETURN(PhysOpPtr probe, planner.PlanNode(join.right()));
    return PhysOpPtr(std::make_shared<IndexedJoinExec>(
        std::move(indexed), std::move(probe), join.right_key(),
        /*indexed_is_left=*/true));
  }
  if (auto indexed = MatchIndexedScan(join.right(), join.right_key())) {
    IDF_ASSIGN_OR_RETURN(PhysOpPtr probe, planner.PlanNode(join.left()));
    return PhysOpPtr(std::make_shared<IndexedJoinExec>(
        std::move(indexed), std::move(probe), join.left_key(),
        /*indexed_is_left=*/false));
  }
  return PhysOpPtr(nullptr);
}

Result<PhysOpPtr> IndexLookupStrategy::TryPlan(const PlanPtr& plan,
                                               Planner& planner) const {
  (void)planner;
  if (plan->kind() != LogicalPlan::Kind::kFilter) return PhysOpPtr(nullptr);
  const auto& filter = static_cast<const FilterNode&>(*plan);
  if (filter.child()->kind() != LogicalPlan::Kind::kScan) {
    return PhysOpPtr(nullptr);
  }
  const auto& scan = static_cast<const ScanNode&>(*filter.child());
  auto indexed =
      std::dynamic_pointer_cast<const IndexedDataset>(scan.dataset());
  if (indexed == nullptr || indexed->indexed_column() < 0) {
    return PhysOpPtr(nullptr);
  }
  const std::string& key_name =
      indexed->schema()
          ->field(static_cast<size_t>(indexed->indexed_column()))
          .name;

  // Find a `key == literal` conjunct; everything else becomes the residual.
  std::vector<ExprPtr> conjuncts;
  FlattenConjuncts(filter.predicate(), conjuncts);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    auto match = MatchColumnEqualsLiteral(*conjuncts[i]);
    if (!match.has_value() || match->column != key_name) continue;
    if (match->literal.is_null()) continue;  // key = NULL matches nothing
    std::vector<ExprPtr> residual = conjuncts;
    residual.erase(residual.begin() + static_cast<long>(i));
    PhysOpPtr lookup =
        std::make_shared<IndexLookupExec>(indexed, match->literal);
    if (residual.empty()) return lookup;
    return PhysOpPtr(std::make_shared<FilterExec>(
        std::move(lookup), CombineConjuncts(residual)));
  }
  return PhysOpPtr(nullptr);
}

void InstallIndexedExtensions(Session& session) {
  static const char kExtension[] = "indexed-dataframe";
  // Atomic check-and-mark: two queries racing to create the first index on
  // one session must not both install (duplicate strategies would plan
  // correctly but shadow each other and bloat every later PlanNode pass).
  if (!session.TryMarkExtension(kExtension)) return;
  // Lookup outranks join (more specific); both outrank vanilla strategies.
  session.planner().PrependStrategy(std::make_shared<IndexedJoinStrategy>());
  session.planner().PrependStrategy(std::make_shared<IndexLookupStrategy>());
}

}  // namespace idf
