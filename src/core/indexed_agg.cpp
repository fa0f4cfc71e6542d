#include "core/indexed_agg.h"

#include "sql/agg_internal.h"
#include "sql/session.h"

namespace idf {

Result<TableHandle> RowAggExec::ExecuteImpl(Session& session,
                                            QueryMetrics& metrics) const {
  using agg_internal::PartialAggregator;
  using agg_internal::ResolvedAggs;
  using agg_internal::RowRun;

  Cluster& cluster = session.cluster();
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  IDF_ASSIGN_OR_RETURN(ResolvedAggs resolved,
                       ResolvedAggs::Resolve(*rdd->schema(), group_by_, aggs_));

  const uint32_t P = rdd->num_partitions();
  const uint32_t R = resolved.group_idx.empty() ? 1 : P;
  const uint64_t shuffle_id = cluster.shuffle().NewShuffle(P, R);

  StageSpec partial_stage;
  partial_stage.name = "row-direct partial aggregate";
  for (uint32_t p = 0; p < P; ++p) {
    partial_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd->rdd_id(), p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                               rdd->GetPartition(p, indexed_->version(), ctx));
          ctx.metrics().rows_read += part->num_rows();

          // Aggregate straight off the binary rows — no columnar detour:
          // each row batch is split at its row headers and folded as one
          // run while ForEachBatch keeps it pinned.
          PartialAggregator partials(resolved, aggs_);
          std::vector<const uint8_t*> rows;
          part->ForEachBatch([&](const uint8_t* data, uint32_t used) {
            rows.clear();
            IDF_CHECK_MSG(RowLayout::SplitRows(data, used, rows),
                          "corrupt row batch");
            partials.Add(RowRun(part->layout(), rows));
          });
          return ShufflePartials(ctx, shuffle_id, p, R, partials);
        },
        {{rdd->rdd_id(), p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics psm, cluster.RunStage(partial_stage));
  metrics.MergeStage(psm);

  IDF_ASSIGN_OR_RETURN(
      TableHandle out,
      FinalizeAggregation(session, metrics, shuffle_id, R, aggs_, resolved));
  cluster.shuffle().Release(shuffle_id);
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
