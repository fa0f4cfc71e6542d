// Row-direct aggregation over an Indexed Batch RDD.
//
// Aggregates and scans do not use the index, but they also should not pay a
// full row-to-columnar conversion first: like Spark's whole-stage pipelines,
// the partial-aggregation phase here consumes the binary rows of each
// indexed partition directly. Projections and non-equality filters, by
// contrast, keep going through the columnar fallback and genuinely lose to
// the columnar cache — exactly the split Fig. 8 / Fig. 13 report.
#pragma once

#include "core/indexed_rdd.h"
#include "sql/physical.h"
#include "sql/planner.h"

namespace idf {

class RowAggExec final : public PhysicalOp {
 public:
  RowAggExec(std::shared_ptr<const IndexedDataset> indexed,
             std::vector<std::string> group_by, std::vector<AggSpec> aggs)
      : indexed_(std::move(indexed)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}

  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override {
    return "RowAggExec over " + indexed_->name();
  }

 private:
  std::shared_ptr<const IndexedDataset> indexed_;
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
};

/// Aggregate(Scan(indexed)) -> RowAggExec. Installed alongside the join and
/// lookup strategies by InstallIndexedExtensions.
class RowAggStrategy final : public Strategy {
 public:
  std::string name() const override { return "RowAggregate"; }
  Result<PhysOpPtr> TryPlan(const PlanPtr& plan,
                            Planner& planner) const override;
};

}  // namespace idf
