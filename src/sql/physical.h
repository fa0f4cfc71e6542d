// Physical operators: executable plans that run cluster stages and
// materialize distributed tables.
//
// The vanilla join algorithms here are the paper's baselines (§II):
// BroadcastHash ("hash-tables are built for one of the dataframes, broadcast
// and probed locally") and SortMerge ("data is sorted and then merged") plus
// the shuffled-hash variant. Each query (re-)builds its hash tables and
// (re-)shuffles its inputs — the recurring cost that the Indexed DataFrame's
// pre-built index amortizes away (Fig. 1).
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/columnar.h"
#include "sql/plan.h"
#include "sql/table.h"

namespace idf {

class Session;

class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// Runs this operator (and its inputs), returning the materialized output.
  /// Non-virtual: when `metrics.op_profile` is set (EXPLAIN ANALYZE), wraps
  /// the operator's ExecuteImpl with per-operator accounting — rows/bytes
  /// out, wall time, and the inclusive TaskMetrics delta attributed to this
  /// subtree.
  Result<TableHandle> Execute(Session& session, QueryMetrics& metrics) const;

  virtual std::string Describe() const = 0;
  virtual const std::vector<std::shared_ptr<const PhysicalOp>>& children()
      const {
    static const std::vector<std::shared_ptr<const PhysicalOp>> kEmpty;
    return kEmpty;
  }
  std::string Explain(int indent = 0) const;

  /// Renders the plan annotated with the per-operator profile collected in
  /// `metrics` during an instrumented Execute (EXPLAIN ANALYZE). Self time
  /// and self metrics are derived by subtracting the children's inclusive
  /// numbers. Operators with no profile entry render un-annotated.
  std::string ExplainAnalyze(const QueryMetrics& metrics, int indent = 0) const;

 protected:
  /// The operator's actual execution logic.
  virtual Result<TableHandle> ExecuteImpl(Session& session,
                                          QueryMetrics& metrics) const = 0;
};

using PhysOpPtr = std::shared_ptr<const PhysicalOp>;

/// Scan: materialize a dataset as columnar blocks (free for cached tables,
/// a row-to-columnar conversion for indexed datasets).
class ScanExec final : public PhysicalOp {
 public:
  explicit ScanExec(DatasetPtr dataset) : dataset_(std::move(dataset)) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override {
    return "ScanExec " + dataset_->name();
  }

 private:
  DatasetPtr dataset_;
};

class UnaryExec : public PhysicalOp {
 public:
  explicit UnaryExec(PhysOpPtr child) : children_{std::move(child)} {}
  const std::vector<PhysOpPtr>& children() const override { return children_; }
  const PhysOpPtr& child() const { return children_[0]; }

 private:
  std::vector<PhysOpPtr> children_;
};

/// Row filter over columnar chunks. Uses a vectorized fast path for
/// `numeric column <op> literal` predicates — the columnar cache's strength.
class FilterExec final : public UnaryExec {
 public:
  FilterExec(PhysOpPtr child, ExprPtr predicate)
      : UnaryExec(std::move(child)), predicate_(std::move(predicate)) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override {
    return "FilterExec " + predicate_->ToString();
  }

 private:
  ExprPtr predicate_;
};

class ProjectExec final : public UnaryExec {
 public:
  ProjectExec(PhysOpPtr child, std::vector<std::string> columns)
      : UnaryExec(std::move(child)), columns_(std::move(columns)) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override;

 private:
  std::vector<std::string> columns_;
};

/// Inner equi-join with runtime algorithm selection (Spark-like):
/// broadcast-hash when the build side is under the broadcast threshold,
/// otherwise shuffled-hash; sort-merge on request.
class JoinExec final : public PhysicalOp {
 public:
  enum class Mode { kAuto, kBroadcastHash, kShuffledHash, kSortMerge };

  JoinExec(PhysOpPtr left, PhysOpPtr right, std::string left_key,
           std::string right_key, Mode mode = Mode::kAuto,
           JoinType join_type = JoinType::kInner)
      : children_{std::move(left), std::move(right)},
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        mode_(mode),
        join_type_(join_type) {}

  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override;
  const std::vector<PhysOpPtr>& children() const override { return children_; }

 private:
  Result<TableHandle> BroadcastHashJoin(Session& session, const TableHandle& l,
                                        const TableHandle& r, size_t lkey,
                                        size_t rkey, bool build_left,
                                        QueryMetrics& metrics) const;
  Result<TableHandle> ShuffledJoin(Session& session, const TableHandle& l,
                                   const TableHandle& r, size_t lkey,
                                   size_t rkey, bool sort_merge,
                                   QueryMetrics& metrics) const;

  std::vector<PhysOpPtr> children_;
  std::string left_key_, right_key_;
  Mode mode_;
  JoinType join_type_;
};

/// UNION ALL: zero-copy concatenation — both inputs' chunks are re-homed
/// under the output table's RDD id without copying row data.
class UnionExec final : public PhysicalOp {
 public:
  UnionExec(PhysOpPtr left, PhysOpPtr right)
      : children_{std::move(left), std::move(right)} {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override { return "UnionExec"; }
  const std::vector<PhysOpPtr>& children() const override { return children_; }

 private:
  std::vector<PhysOpPtr> children_;
};

/// Global sort: collects the child into one partition ordered by the sort
/// keys (nulls first, as in Value::Compare). Executed driver-side like
/// LimitExec — adequate at this engine's scale; a production system would
/// range-partition instead.
class SortExec final : public UnaryExec {
 public:
  SortExec(PhysOpPtr child, std::vector<SortKey> keys)
      : UnaryExec(std::move(child)), keys_(std::move(keys)) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
};

/// Two-phase hash aggregation: per-partition partial aggregates, shuffle by
/// group key, final merge.
class HashAggExec final : public UnaryExec {
 public:
  HashAggExec(PhysOpPtr child, std::vector<std::string> group_by,
              std::vector<AggSpec> aggs)
      : UnaryExec(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override { return "HashAggExec"; }

 private:
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
};

class LimitExec final : public UnaryExec {
 public:
  LimitExec(PhysOpPtr child, uint64_t limit)
      : UnaryExec(std::move(child)), limit_(limit) {}
  Result<TableHandle> ExecuteImpl(Session& session,
                                  QueryMetrics& metrics) const override;
  std::string Describe() const override {
    return "LimitExec " + std::to_string(limit_);
  }

 private:
  uint64_t limit_;
};

// ---- shared execution helpers (also used by src/core's indexed operators) ---

/// Fetches one columnar block of a table inside a task, charging network
/// reads when the block lives elsewhere.
Result<ChunkPtr> FetchChunk(class TaskContext& ctx, const TableHandle& table,
                            uint32_t partition);

/// Accumulates per-task outputs of a stage into a new table handle.
/// Tasks call Emit(partition, chunk) from their bodies; Finish() registers
/// totals. Thread-safe (tasks may run concurrently in future revisions).
class TableSink {
 public:
  TableSink(Session& session, SchemaPtr schema, uint32_t num_partitions);

  uint64_t rdd_id() const { return rdd_id_; }
  /// Stores the chunk as this partition's block (homed at ctx.executor()).
  void Emit(class TaskContext& ctx, uint32_t partition, ChunkPtr chunk);
  TableHandle Finish();

 private:
  Session& session_;
  SchemaPtr schema_;
  uint32_t num_partitions_;
  // Taken before the first Emit: a sink dropped without Finish (a failed
  // stage) releases the blocks its finished tasks already stored.
  std::shared_ptr<const RddLease> lease_;
  uint64_t rdd_id_;
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> bytes_{0};
};

/// Appends the row `(left chunk row li) ++ (right chunk row ri)` to an
/// output chunk whose schema is left ++ right.
void AppendJoinedRow(ColumnarChunk& out, const ColumnarChunk& left, size_t li,
                     const ColumnarChunk& right, size_t ri);

namespace agg_internal {
struct ResolvedAggs;
class PartialAggregator;
}  // namespace agg_internal

/// Map side of a two-phase aggregation: encodes each group of `partials` as
/// a partial row and writes it to its reduce partition (of R) of
/// `shuffle_id`. Shared by HashAggExec and the Indexed DataFrame's
/// row-direct aggregation.
Status ShufflePartials(class TaskContext& ctx, uint64_t shuffle_id,
                       uint32_t map_partition, uint32_t R,
                       const agg_internal::PartialAggregator& partials);

/// Final-merge phase of a two-phase aggregation: consumes the partial rows
/// written to `shuffle_id` (R reduce partitions, schema per `resolved`) and
/// materializes the aggregate output.
Result<TableHandle> FinalizeAggregation(
    Session& session, QueryMetrics& metrics, uint64_t shuffle_id, uint32_t R,
    const std::vector<AggSpec>& aggs,
    const agg_internal::ResolvedAggs& resolved);

}  // namespace idf
