// Index-aware planner strategies — the Catalyst integration (§III-B).
//
// "Our library includes optimization rules that make regular Spark SQL
// queries aware of our custom indexed operations ... for queries on
// non-indexed dataframes we fall back to the default Spark behavior."
//
// InstallIndexedExtensions() prepends two strategies to a session's planner:
//   - IndexedJoinStrategy: Join(Scan(indexed on k), probe) on k == probe_key
//     -> IndexedJoinExec (works with the indexed side on either side).
//   - IndexLookupStrategy: Filter(Scan(indexed on k), k == literal [AND ...])
//     -> IndexLookupExec, under a FilterExec for any other conjuncts.
// Anything they decline flows to the vanilla strategies unchanged.
#pragma once

#include "sql/planner.h"
#include "sql/session.h"

namespace idf {

class IndexedJoinStrategy final : public Strategy {
 public:
  std::string name() const override { return "IndexedJoin"; }
  Result<PhysOpPtr> TryPlan(const PlanPtr& plan,
                            Planner& planner) const override;
};

class IndexLookupStrategy final : public Strategy {
 public:
  std::string name() const override { return "IndexLookup"; }
  Result<PhysOpPtr> TryPlan(const PlanPtr& plan,
                            Planner& planner) const override;
};

/// Attaches the Indexed DataFrame library to a session — the equivalent of
/// bundling the jar and letting its rules register with Catalyst (§III-F).
/// Idempotent per session.
void InstallIndexedExtensions(Session& session);

}  // namespace idf
