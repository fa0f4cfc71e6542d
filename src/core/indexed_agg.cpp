#include "core/indexed_agg.h"

#include "sql/agg_internal.h"
#include "sql/session.h"

namespace idf {

Result<Pipeline> RowAggExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                      const ColumnReads&) const {
  using agg_internal::PartialAggregator;
  using agg_internal::ResolvedAggs;
  using agg_internal::RowRun;

  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  IDF_ASSIGN_OR_RETURN(ResolvedAggs resolved,
                       ResolvedAggs::Resolve(*rdd->schema(), group_by_, aggs_));
  const uint32_t R = resolved.group_idx.empty() ? 1 : rdd->num_partitions();
  Pipeline out{resolved.output_schema, R, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, rdd, resolved, R](const Pipe& down) {
    ExchangeSide partial{
        rdd->num_partitions(),
        [&](const MapOutput& map) {
          return rdd->ForEachPartition(
              "row-direct partial aggregate", indexed_->version(), metrics,
              [&](TaskContext& ctx, uint32_t p, const IndexedPartition& part) {
                ctx.metrics().rows_read += part.num_rows();
                // Aggregate straight off the binary rows — no columnar
                // detour: each row batch is split at its row headers and
                // folded as one run while ForEachBatch keeps it pinned.
                PartialAggregator partials(resolved, aggs_);
                std::vector<const uint8_t*> rows;
                part.ForEachBatch([&](const uint8_t* data, uint32_t used) {
                  rows.clear();
                  IDF_CHECK_MSG(RowLayout::SplitRows(data, used, rows),
                                "corrupt row batch");
                  partials.Add(RowRun(part.layout(), rows));
                });
                return CommitPartials(ctx, partials, R, map, p);
              });
        }};
    return AggregateInTwoPhases(session, metrics, resolved, aggs_, R,
                                std::move(partial), down);
  };
  return out;
}

Result<PhysOpPtr> RowAggStrategy::TryPlan(const PlanPtr& plan,
                                          Planner& planner) const {
  (void)planner;
  if (plan->kind() != LogicalPlan::Kind::kAggregate) return PhysOpPtr(nullptr);
  const auto& agg = static_cast<const AggregateNode&>(*plan);
  if (agg.child()->kind() != LogicalPlan::Kind::kScan) {
    return PhysOpPtr(nullptr);
  }
  const auto& scan = static_cast<const ScanNode&>(*agg.child());
  auto indexed =
      std::dynamic_pointer_cast<const IndexedDataset>(scan.dataset());
  if (indexed == nullptr) return PhysOpPtr(nullptr);
  return PhysOpPtr(std::make_shared<RowAggExec>(std::move(indexed),
                                                agg.group_by(), agg.aggs()));
}

}  // namespace idf
