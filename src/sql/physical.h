// Physical operators: executable plans that run cluster stages, pipelined
// (a producer's tasks push blocks through the narrow operators above it) and
// materialized into distributed tables only where a pipeline breaks.
//
// The vanilla join algorithms here are the paper's baselines (§II):
// BroadcastHash ("hash-tables are built for one of the dataframes, broadcast
// and probed locally") and the repartition join, shuffled-hash (both sides
// shuffle on the key, then each reduce task builds and probes a hash table).
// Each query (re-)builds its hash tables and (re-)shuffles its inputs — the
// recurring cost that the Indexed DataFrame's pre-built index amortizes away
// (Fig. 1).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/cluster.h"
#include "sql/columnar.h"
#include "sql/plan.h"
#include "sql/table.h"

namespace idf {

class Session;

// ---- pipelines ----------------------------------------------------------
//
// Operators run as pipelines, as Spark runs a stage: the tasks of a
// producer (a scan, a join, an exchange's reduce) push their output a block
// at a time into a chain of consumers — the narrow operators above them and
// whatever ends the pipeline — inside the producer's own tasks. Only a
// pipeline breaker materializes what reaches it: the query's result, an
// exchange's map inputs, a broadcast build side, Sort, Union and Limit
// (docs/INTERNALS.md §5). A block is a columnar chunk or, from an indexed
// source, a row block of encoded rows that the first consumer needing
// columns decodes.

/// A run of encoded rows an indexed source pushes, pinned by its producer
/// for the ConsumeRows call only: column c of the pipeline's schema is
/// field fields[c] of `layout`.
struct RowBlock {
  const RowLayout& layout;
  std::span<const uint8_t* const> rows;
  std::span<const size_t> fields;
  /// The pipeline's schema, which the rows decode into.
  SchemaPtr schema;
};

/// One producing task's output for one output partition.
class ChunkConsumer {
 public:
  virtual ~ChunkConsumer() = default;
  /// Takes the task's next block of rows; blocks arrive in row order. The
  /// producer keeps the block's inputs pinned for the call.
  virtual void Consume(TaskContext& ctx, ChunkPtr block) = 0;
  /// Takes the task's next block as encoded rows. By default they decode
  /// (DecodeRows) into a chunk of the block's schema, which goes to
  /// Consume; a consumer that reads rows directly overrides this.
  virtual void ConsumeRows(TaskContext& ctx, const RowBlock& block);
  /// Publishes what the task pushed. Called once, and only when the task
  /// succeeded: a failed task's consumer is dropped uncommitted, so it
  /// never publishes part of its output or counts it twice.
  virtual Status Commit(TaskContext& ctx) = 0;
};

/// Where a pipeline's blocks go. Producing tasks open one consumer per
/// output partition they fill, concurrently.
class Pipe {
 public:
  virtual ~Pipe() = default;
  virtual std::unique_ptr<ChunkConsumer> Open(TaskContext& ctx,
                                              uint32_t partition) const = 0;
};

/// An operator ready to run: its output's schema and partition count, and
/// `run`, which runs the operator's tasks, pushing output partition p of
/// each into down.Open(ctx, p).
struct Pipeline {
  SchemaPtr schema;
  uint32_t num_partitions = 0;
  std::function<Status(const Pipe& down)> run;
  /// The output when it is materialized already (a cached table):
  /// PhysicalOp::Execute returns it without running anything.
  std::optional<TableHandle> materialized;
};

class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// Runs this operator (and its inputs) and materializes its output: a
  /// pipeline ending in a TableSink. Non-virtual, like Open.
  Result<TableHandle> Execute(Session& session, QueryMetrics& metrics) const;

  /// Opens this operator as a pipeline whose consumers read `reads` of its
  /// output columns. Opening runs the breakers below it (the inputs it
  /// needs materialized); the pipeline's run does the rest. Non-virtual:
  /// when `metrics.op_profile` is set (EXPLAIN ANALYZE), it adds this
  /// operator's accounting — rows/bytes pushed out, wall time of opening
  /// and running, and the inclusive TaskMetrics delta of this subtree.
  Result<Pipeline> Open(Session& session, QueryMetrics& metrics,
                        const ColumnReads& reads) const;

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
  /// numbers; a fused operator's work runs inside its producer's tasks, so
  /// it shows in the producer's time. Operators with no profile entry
  /// render un-annotated.
  std::string ExplainAnalyze(const QueryMetrics& metrics, int indent = 0) const;

 protected:
  /// The operator's actual logic.
  virtual Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                                    const ColumnReads& reads) const = 0;
};

using PhysOpPtr = std::shared_ptr<const PhysicalOp>;

/// Scan: a dataset as a pipeline source (Dataset::Scan) — a cached table's
/// blocks, or an indexed dataset's row batches as row blocks, a batch at a
/// time, naming only the fields the pipeline reads.
class ScanExec final : public PhysicalOp {
 public:
  explicit ScanExec(DatasetPtr dataset) : dataset_(std::move(dataset)) {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
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

/// Row filter, fused into its producer's tasks: each block is filtered and
/// gathered as it passes. Uses a vectorized fast path for `numeric column
/// <op> literal` predicates — the columnar cache's strength.
class FilterExec final : public UnaryExec {
 public:
  FilterExec(PhysOpPtr child, ExprPtr predicate)
      : UnaryExec(std::move(child)), predicate_(std::move(predicate)) {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override {
    return "FilterExec " + predicate_->ToString();
  }

 private:
  ExprPtr predicate_;
};

/// Column selection, fused into its producer's tasks; a block built for the
/// pipeline gives up its columns instead of copying them, and a row block
/// passes on undecoded with its field map narrowed.
class ProjectExec final : public UnaryExec {
 public:
  ProjectExec(PhysOpPtr child, std::vector<std::string> columns)
      : UnaryExec(std::move(child)), columns_(std::move(columns)) {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override;

 private:
  std::vector<std::string> columns_;
};

/// The part of a join's output that a consumer reading `reads` needs: the
/// two key columns and the columns read, in output order. Fields `left` of
/// the left relation and `right` of the right one fill them; `schema`, the
/// join's pipeline schema, names them as the full output
/// (JoinOutputSchema) does.
struct JoinColumns {
  SchemaPtr schema;
  std::vector<size_t> left;
  std::vector<size_t> right;
};
JoinColumns NarrowJoinColumns(const Schema& left, size_t left_key,
                              const Schema& right, size_t right_key,
                              JoinType join_type, const ColumnReads& reads);

/// Inner equi-join with runtime algorithm selection (Spark-like):
/// broadcast-hash when the build side is under the broadcast threshold,
/// otherwise shuffled-hash. Either hash-joins through a JoinHashTable and
/// emits only the columns its consumer reads (NarrowJoinColumns).
class JoinExec final : public PhysicalOp {
 public:
  /// kShuffledHash runs one exchange (Cluster::RunExchange): both sides
  /// shuffle on their key's code (ShuffleByKey), and each reduce task
  /// builds a table of its build-side rows and streams its probe-side
  /// buffers through it row by row, verifying candidates by KeysEqual.
  enum class Mode { kAuto, kBroadcastHash, kShuffledHash };

  JoinExec(PhysOpPtr left, PhysOpPtr right, std::string left_key,
           std::string right_key, Mode mode = Mode::kAuto,
           JoinType join_type = JoinType::kInner)
      : children_{std::move(left), std::move(right)},
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        mode_(mode),
        join_type_(join_type) {}

  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override;
  const std::vector<PhysOpPtr>& children() const override { return children_; }

 private:
  Status BroadcastHashJoin(Session& session, const TableHandle& l,
                           const TableHandle& r, size_t lkey, size_t rkey,
                           bool build_left, const JoinColumns& out,
                           const Pipe& down, QueryMetrics& metrics) const;
  Status ShuffledJoin(Session& session, const TableHandle& l,
                      const TableHandle& r, size_t lkey, size_t rkey,
                      const JoinColumns& out, const Pipe& down,
                      QueryMetrics& metrics) const;

  std::vector<PhysOpPtr> children_;
  std::string left_key_, right_key_;
  Mode mode_;
  JoinType join_type_;
};

/// UNION ALL: both inputs materialize, and one stage pushes each of their
/// blocks on as an output partition — zero-copy when the union's output
/// materializes too (a TableSink passes a single block through).
class UnionExec final : public PhysicalOp {
 public:
  UnionExec(PhysOpPtr left, PhysOpPtr right)
      : children_{std::move(left), std::move(right)} {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
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
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
};

/// Two-phase hash aggregation: the partial aggregate is fused into the
/// child's tasks (each folds its blocks, chunks or row blocks alike, into a
/// task-local PartialAggregator and routes the partial rows into the
/// exchange), then a shuffle by group key and the final merge.
class HashAggExec final : public UnaryExec {
 public:
  HashAggExec(PhysOpPtr child, std::vector<std::string> group_by,
              std::vector<AggSpec> aggs)
      : UnaryExec(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)) {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override { return "HashAggExec"; }

 private:
  std::vector<std::string> group_by_;
  std::vector<AggSpec> aggs_;
};

class LimitExec final : public UnaryExec {
 public:
  LimitExec(PhysOpPtr child, uint64_t limit)
      : UnaryExec(std::move(child)), limit_(limit) {}
  Result<Pipeline> OpenImpl(Session& session, QueryMetrics& metrics,
                            const ColumnReads& reads) const override;
  std::string Describe() const override {
    return "LimitExec " + std::to_string(limit_);
  }

 private:
  uint64_t limit_;
};

// ---- shared execution helpers (also used by src/core's indexed operators) ---

/// Fetches one columnar block of a table inside a task, charging network
/// reads when the block lives elsewhere.
Result<ChunkPtr> FetchChunk(TaskContext& ctx, const TableHandle& table,
                            uint32_t partition);

/// Runs stage `name` with one task per partition of `tables`, numbered
/// across them in order; each task runs on its partition's home executor,
/// declares the partition as its input, and calls body(ctx, p, chunk) with
/// the partition's block, pinned for the call. Stage metrics merge into
/// `metrics`.
Status ForEachBlock(
    Cluster& cluster, QueryMetrics& metrics, const std::string& name,
    std::span<const TableHandle> tables,
    const std::function<Status(TaskContext&, uint32_t, const ChunkPtr&)>&
        body);

/// The exchange side that shuffles `table`'s rows on column `key_column`:
/// a stage over the table's blocks (ForEachBlock) routes each block's rows
/// through RouteByKey with `target` and `layout`, merging its metrics into
/// `metrics`. `cluster`, `metrics`, `table` and `layout` must outlive the
/// exchange.
template <typename Target>
ExchangeSide ShuffleByKey(Cluster& cluster, QueryMetrics& metrics,
                          std::string stage_name, const TableHandle& table,
                          size_t key_column, const RowLayout& layout,
                          Target target) {
  return ExchangeSide{
      table.num_partitions,
      [&cluster, &metrics, stage_name = std::move(stage_name), &table,
       key_column, &layout, target](const MapOutput& out) {
        return ForEachBlock(
            cluster, metrics, stage_name, {&table, 1},
            [&](TaskContext& ctx, uint32_t p, const ChunkPtr& chunk) {
              ShuffleWriter writer = out.Writer(ctx, p);
              ctx.metrics().rows_read += chunk->num_rows();
              writer.ExpectRows(chunk->num_rows());
              IDF_RETURN_IF_ERROR(RouteByKey(
                  *chunk, key_column, layout, target,
                  [&](uint32_t t, const uint8_t* row, uint32_t size) {
                    writer.Append(t, row, size);
                  }));
              out.Commit(ctx, writer);
              return Status::OK();
            });
      }};
}

/// The materializing end of a pipeline: each output partition's blocks
/// wait for Commit, which appends them into one chunk with each column
/// sized once (a single block passes through as it is) and stores it as
/// the partition's block, homed at the producing task's
/// executor and sealed under the memory governor. Finish() returns the
/// table. Thread-safe.
class TableSink final : public Pipe {
 public:
  TableSink(Session& session, SchemaPtr schema, uint32_t num_partitions);

  std::unique_ptr<ChunkConsumer> Open(TaskContext& ctx,
                                      uint32_t partition) const override;
  TableHandle Finish();

 private:
  class Partition;

  void Emit(TaskContext& ctx, uint32_t partition, ChunkPtr chunk) const;

  SchemaPtr schema_;
  uint32_t num_partitions_;
  // Taken before the first Emit: a sink dropped without Finish (a failed
  // stage) releases the blocks its finished tasks already stored.
  std::shared_ptr<const RddLease> lease_;
  uint64_t rdd_id_;
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<uint64_t> bytes_{0};
};

}  // namespace idf
