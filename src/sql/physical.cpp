#include "sql/physical.h"

#include <algorithm>
#include <cstdio>

#include "common/timer.h"
#include "mem/governor.h"
#include "sql/agg_internal.h"
#include "sql/join_table.h"
#include "sql/session.h"
#include "storage/row_layout.h"

namespace idf {

std::string PhysicalOp::Explain(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  out += "\n";
  for (const PhysOpPtr& child : children()) out += child->Explain(indent + 1);
  return out;
}

void ChunkConsumer::ConsumeRows(TaskContext& ctx, const RowBlock& block) {
  auto chunk = std::make_shared<ColumnarChunk>(block.schema);
  DecodeRows(block.layout, block.rows, block.fields, *chunk, 0);
  chunk->SetRowCount(block.rows.size());
  Consume(ctx, std::move(chunk));
}

namespace {

/// A pipe that hands each block through `fn` on its way to `down`; a null
/// result drops the block. A row block goes through `rows_fn`, which
/// returns the row block to pass on (its fields may live in the scratch
/// vector it is handed), or, without one, decodes for `fn`.
class TransformPipe final : public Pipe {
 public:
  using Fn = std::function<ChunkPtr(ChunkPtr block)>;
  using RowsFn =
      std::function<RowBlock(const RowBlock& block, std::vector<size_t>&)>;

  TransformPipe(const Pipe& down, Fn fn, RowsFn rows_fn = nullptr)
      : down_(down), fn_(std::move(fn)), rows_fn_(std::move(rows_fn)) {}

  std::unique_ptr<ChunkConsumer> Open(TaskContext& ctx,
                                      uint32_t partition) const override {
    return std::make_unique<Consumer>(down_.Open(ctx, partition), *this);
  }

 private:
  class Consumer final : public ChunkConsumer {
   public:
    Consumer(std::unique_ptr<ChunkConsumer> next, const TransformPipe& pipe)
        : next_(std::move(next)), pipe_(pipe) {}
    void Consume(TaskContext& ctx, ChunkPtr block) override {
      if (ChunkPtr out = pipe_.fn_(std::move(block))) {
        next_->Consume(ctx, std::move(out));
      }
    }
    void ConsumeRows(TaskContext& ctx, const RowBlock& block) override {
      if (pipe_.rows_fn_ == nullptr) {
        ChunkConsumer::ConsumeRows(ctx, block);
      } else {
        next_->ConsumeRows(ctx, pipe_.rows_fn_(block, fields_));
      }
    }
    Status Commit(TaskContext& ctx) override { return next_->Commit(ctx); }

   private:
    std::unique_ptr<ChunkConsumer> next_;
    const TransformPipe& pipe_;
    std::vector<size_t> fields_;
  };

  const Pipe& down_;
  Fn fn_;
  RowsFn rows_fn_;
};

}  // namespace

Result<Pipeline> PhysicalOp::Open(Session& session, QueryMetrics& metrics,
                                  const ColumnReads& reads) const {
  if (metrics.op_profile == nullptr) return OpenImpl(session, metrics, reads);

  // EXPLAIN ANALYZE: opening (which runs the breakers below) and running
  // both count toward this node, inclusively — the renderer subtracts the
  // children for self time. Both happen on the driver, one operator at a
  // time, so snapshot-and-subtract on the shared accumulator is race-free.
  auto profiled = [this, &metrics](auto&& fn) {
    const TaskMetrics before = metrics.totals;
    Stopwatch timer;
    auto result = fn();
    OpProfile& prof = (*metrics.op_profile)[this];
    if (prof.label.empty()) prof.label = Describe();
    prof.wall_seconds += timer.ElapsedSeconds();
    prof.inclusive.MergeFrom(metrics.totals.DeltaSince(before));
    return result;
  };
  Result<Pipeline> pipeline =
      profiled([&] { return OpenImpl(session, metrics, reads); });
  ++(*metrics.op_profile)[this].executions;
  if (!pipeline.ok()) return pipeline;
  if (reads) {
    auto& columns = (*metrics.op_profile)[this].columns.emplace();
    for (const Field& field : pipeline->schema->fields()) {
      columns.push_back(field.name);
    }
  }
  pipeline->run = [this, &metrics, profiled,
                   run = std::move(pipeline->run)](const Pipe& down) {
    // Tasks push concurrently: count into atomics, add once they are done.
    // A row block is counted and passed on as it is, undecoded, so
    // profiling runs the code an unprofiled query runs; its bytes are its
    // rows' encoded sizes.
    std::atomic<uint64_t> rows{0};
    std::atomic<uint64_t> bytes{0};
    const TransformPipe counted(
        down,
        [&](ChunkPtr block) {
          rows += block->num_rows();
          bytes += block->ByteSize();
          return block;
        },
        [&](const RowBlock& block, std::vector<size_t>&) {
          uint64_t size = 0;
          for (const uint8_t* row : block.rows) size += RowLayout::RowSize(row);
          rows += block.rows.size();
          bytes += size;
          return block;
        });
    const Status status = profiled([&] { return run(counted); });
    OpProfile& prof = (*metrics.op_profile)[this];
    prof.rows_out += rows.load();
    prof.bytes_out += bytes.load();
    return status;
  };
  return pipeline;
}

Result<TableHandle> PhysicalOp::Execute(Session& session,
                                        QueryMetrics& metrics) const {
  IDF_ASSIGN_OR_RETURN(Pipeline pipeline,
                       Open(session, metrics, /*reads=*/std::nullopt));
  if (pipeline.materialized) {
    if (metrics.op_profile != nullptr) {
      OpProfile& prof = (*metrics.op_profile)[this];
      prof.rows_out += pipeline.materialized->num_rows;
      prof.bytes_out += pipeline.materialized->total_bytes;
    }
    return *pipeline.materialized;
  }
  TableSink sink(session, pipeline.schema, pipeline.num_partitions);
  IDF_RETURN_IF_ERROR(pipeline.run(sink));
  return sink.Finish();
}

std::string PhysicalOp::ExplainAnalyze(const QueryMetrics& metrics,
                                       int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Describe();
  const OpProfile* prof = nullptr;
  if (metrics.op_profile != nullptr) {
    auto it = metrics.op_profile->find(this);
    if (it != metrics.op_profile->end()) prof = &it->second;
  }
  if (prof != nullptr) {
    // Self time/metrics = this node's inclusive numbers minus the children's.
    double child_wall = 0;
    TaskMetrics child_sum;
    if (metrics.op_profile != nullptr) {
      for (const PhysOpPtr& child : children()) {
        auto it = metrics.op_profile->find(child.get());
        if (it == metrics.op_profile->end()) continue;
        child_wall += it->second.wall_seconds;
        child_sum.MergeFrom(it->second.inclusive);
      }
    }
    const TaskMetrics self = prof->inclusive.DeltaSince(child_sum);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  (rows=%llu bytes=%llu wall=%.3fms self=%.3fms",
                  static_cast<unsigned long long>(prof->rows_out),
                  static_cast<unsigned long long>(prof->bytes_out),
                  prof->wall_seconds * 1e3,
                  std::max(0.0, prof->wall_seconds - child_wall) * 1e3);
    out += buf;
    if (prof->executions > 1) {
      out += " executions=" + std::to_string(prof->executions);
    }
    if (self.index_probes > 0) {
      std::snprintf(buf, sizeof(buf), " probes=%llu hits=%llu",
                    static_cast<unsigned long long>(self.index_probes),
                    static_cast<unsigned long long>(self.index_hits));
      out += buf;
    }
    if (self.ctrie_snapshots > 0) {
      out += " snapshots=" + std::to_string(self.ctrie_snapshots);
    }
    if (self.batch_copies > 0) {
      out += " cow_copies=" + std::to_string(self.batch_copies);
    }
    if (self.shuffle_bytes_written > 0) {
      out += " shuffle_bytes=" + std::to_string(self.shuffle_bytes_written);
    }
    if (self.hash_build_seconds > 0) {
      std::snprintf(buf, sizeof(buf), " hash_build=%.3fms",
                    self.hash_build_seconds * 1e3);
      out += buf;
    }
    if (self.recovery_seconds > 0) {
      std::snprintf(buf, sizeof(buf), " recovery=%.3fms",
                    self.recovery_seconds * 1e3);
      out += buf;
    }
    if (prof->columns) {
      out += " columns=[";
      for (size_t c = 0; c < prof->columns->size(); ++c) {
        if (c > 0) out += ", ";
        out += (*prof->columns)[c];
      }
      out += "]";
    }
    out += ")";
  }
  out += "\n";
  for (const PhysOpPtr& child : children()) {
    out += child->ExplainAnalyze(metrics, indent + 1);
  }
  return out;
}

// ---- helpers ------------------------------------------------------------

Result<ChunkPtr> FetchChunk(TaskContext& ctx, const TableHandle& table,
                            uint32_t partition) {
  IDF_ASSIGN_OR_RETURN(
      BlockPtr block,
      ctx.cluster().GetOrCompute(
          BlockId{table.rdd_id, partition, table.version}, ctx));
  auto chunk = std::dynamic_pointer_cast<const ColumnarChunk>(block);
  IDF_CHECK_MSG(chunk != nullptr, "block is not a columnar chunk");
  return chunk;
}

Status ForEachBlock(
    Cluster& cluster, QueryMetrics& metrics, const std::string& name,
    std::span<const TableHandle> tables,
    const std::function<Status(TaskContext&, uint32_t, const ChunkPtr&)>&
        body) {
  StageSpec stage;
  stage.name = name;
  uint32_t first = 0;
  for (const TableHandle& table : tables) {
    for (uint32_t p = 0; p < table.num_partitions; ++p) {
      stage.tasks.push_back(TaskSpec{
          cluster.HomeExecutorFor(table.rdd_id, p),
          {},
          0,
          [&body, &table, p, out = first + p](TaskContext& ctx) -> Status {
            // Bodies hold column references across reads that may evict:
            // keep the block pinned for the whole body.
            ChunkPtr chunk;  // outlives the scope, which unpins it
            mem::AccessScope scope;
            IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, table, p));
            return body(ctx, out, chunk);
          },
          {{table.rdd_id, p}}});
    }
    first += table.num_partitions;
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return Status::OK();
}

namespace {

/// The source stage of materialized tables: block p of `tables` (numbered
/// across them) is pushed, as it is, as output partition p.
Status PushBlocks(Cluster& cluster, QueryMetrics& metrics,
                  const std::string& name,
                  std::span<const TableHandle> tables, const Pipe& down) {
  return ForEachBlock(
      cluster, metrics, name, tables,
      [&](TaskContext& ctx, uint32_t p, const ChunkPtr& chunk) {
        ctx.metrics().rows_read += chunk->num_rows();
        std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, p);
        consumer->Consume(ctx, chunk);
        return consumer->Commit(ctx);
      });
}

/// The block as a mutable chunk when nothing else holds it — a block built
/// for this pipeline, whose columns may move on — else null (a table's
/// block, shared with the block manager).
std::shared_ptr<ColumnarChunk> Unshared(const ChunkPtr& block) {
  if (block.use_count() != 1 || block->sealed_for_governor()) return nullptr;
  return std::const_pointer_cast<ColumnarChunk>(block);
}

}  // namespace

// ---- TableSink ------------------------------------------------------------

/// One partition's blocks, held until Commit: a single block passes
/// through as it is; several concatenate into one chunk, grown once to the
/// partition's size (into the first block when nothing else holds it).
class TableSink::Partition final : public ChunkConsumer {
 public:
  Partition(const TableSink& sink, uint32_t partition)
      : sink_(sink), partition_(partition) {}

  void Consume(TaskContext&, ChunkPtr block) override {
    blocks_.push_back(std::move(block));
  }

  Status Commit(TaskContext& ctx) override {
    ChunkPtr chunk;
    if (blocks_.size() == 1) {
      chunk = std::move(blocks_[0]);
    } else {
      std::span<const ChunkPtr> rest(blocks_);
      std::shared_ptr<ColumnarChunk> out;
      if (!blocks_.empty()) out = Unshared(blocks_[0]);
      if (out != nullptr) {
        rest = rest.subspan(1);
      } else {
        out = std::make_shared<ColumnarChunk>(sink_.schema_);
      }
      AppendChunks(rest, *out);
      chunk = std::move(out);
    }
    blocks_.clear();
    sink_.Emit(ctx, partition_, std::move(chunk));
    return Status::OK();
  }

 private:
  const TableSink& sink_;
  uint32_t partition_;
  std::vector<ChunkPtr> blocks_;
};

TableSink::TableSink(Session& session, SchemaPtr schema,
                     uint32_t num_partitions)
    : schema_(std::move(schema)),
      num_partitions_(num_partitions),
      lease_(session.cluster().NewRdd()),
      rdd_id_(lease_->rdd()) {}

std::unique_ptr<ChunkConsumer> TableSink::Open(TaskContext&,
                                               uint32_t partition) const {
  IDF_CHECK(partition < num_partitions_);
  return std::make_unique<Partition>(*this, partition);
}

void TableSink::Emit(TaskContext& ctx, uint32_t partition,
                     ChunkPtr chunk) const {
  rows_ += chunk->num_rows();
  bytes_ += chunk->ByteSize();
  ctx.metrics().rows_written += chunk->num_rows();
  // Finalization point for every materialized table: from here the chunk
  // is immutable, so it goes under the memory governor (budgeted,
  // evictable, visible to spill-aware scheduling). A chunk sealed already
  // (a block passed through from another table) keeps its first identity.
  chunk->SealForCache(rdd_id_, partition);
  ctx.cluster().blocks().Put(BlockId{rdd_id_, partition, 0}, ctx.executor(),
                             std::move(chunk));
}

TableHandle TableSink::Finish() {
  TableHandle handle;
  handle.schema = schema_;
  handle.rdd_id = rdd_id_;
  handle.lease = lease_;
  handle.num_partitions = num_partitions_;
  handle.version = 0;
  handle.num_rows = rows_.load();
  handle.total_bytes = bytes_.load();
  return handle;
}

// ---- ScanExec ------------------------------------------------------------

Result<Pipeline> CachedTable::Scan(Session& session, QueryMetrics& metrics,
                                   const ColumnReads&) const {
  Pipeline pipeline{handle_.schema, handle_.num_partitions, nullptr, handle_};
  pipeline.run = [&session, &metrics, handle = handle_](const Pipe& down) {
    return PushBlocks(session.cluster(), metrics, "cached scan", {&handle, 1},
                      down);
  };
  return pipeline;
}

Result<Pipeline> ScanExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                    const ColumnReads& reads) const {
  return dataset_->Scan(session, metrics, reads);
}

// ---- FilterExec ------------------------------------------------------------

namespace {

/// Vectorized selection for `numeric column <op> literal` and string
/// equality (`string column =/!= literal`). Returns true and fills
/// `selected` when the fast path applies.
bool TryVectorizedFilter(const Expr& predicate, const ColumnarChunk& chunk,
                         std::vector<RowRef>& selected) {
  auto match = [](const Expr& e) -> const CompareExpr* {
    if (e.kind() != Expr::Kind::kCompare) return nullptr;
    return static_cast<const CompareExpr*>(&e);
  };
  const CompareExpr* cmp = match(predicate);
  if (cmp == nullptr) return false;
  const Expr* lhs = cmp->left().get();
  const Expr* rhs = cmp->right().get();
  CompareOp op = cmp->op();
  if (lhs->kind() == Expr::Kind::kLiteral &&
      rhs->kind() == Expr::Kind::kColumn) {
    std::swap(lhs, rhs);
    switch (op) {  // mirror the comparison
      case CompareOp::kLt: op = CompareOp::kGt; break;
      case CompareOp::kLe: op = CompareOp::kGe; break;
      case CompareOp::kGt: op = CompareOp::kLt; break;
      case CompareOp::kGe: op = CompareOp::kLe; break;
      default: break;
    }
  }
  if (lhs->kind() != Expr::Kind::kColumn ||
      rhs->kind() != Expr::Kind::kLiteral) {
    return false;
  }
  const auto* col_expr = static_cast<const ColumnExpr*>(lhs);
  const auto* lit_expr = static_cast<const LiteralExpr*>(rhs);
  if (!col_expr->resolved() || lit_expr->value().is_null()) return false;
  const ColumnVector& col =
      chunk.column(static_cast<size_t>(col_expr->index()));
  if (col.type() == TypeId::kBool) return false;
  if (col.type() == TypeId::kString) {
    // String equality compares the arena bytes directly — no per-row Value
    // boxing. Ordering comparisons stay on the generic row-wise path.
    if (lit_expr->value().type() != TypeId::kString) return false;
    if (op != CompareOp::kEq && op != CompareOp::kNe) return false;
    const std::string& lit = lit_expr->value().string_value();
    const size_t n = chunk.num_rows();
    selected.clear();
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) continue;
      const bool eq = col.StringAt(i) == lit;
      if (eq == (op == CompareOp::kEq)) {
        selected.push_back({0, static_cast<uint32_t>(i)});
      }
    }
    return true;
  }
  if (lit_expr->value().type() == TypeId::kString) return false;

  const double lit = lit_expr->value().AsFloat64();
  const size_t n = chunk.num_rows();
  selected.clear();
  for (size_t i = 0; i < n; ++i) {
    if (col.IsNull(i)) continue;
    const double v = col.NumericAt(i);
    bool keep = false;
    switch (op) {
      case CompareOp::kEq: keep = v == lit; break;
      case CompareOp::kNe: keep = v != lit; break;
      case CompareOp::kLt: keep = v < lit; break;
      case CompareOp::kLe: keep = v <= lit; break;
      case CompareOp::kGt: keep = v > lit; break;
      case CompareOp::kGe: keep = v >= lit; break;
    }
    if (keep) selected.push_back({0, static_cast<uint32_t>(i)});
  }
  return true;
}

/// The block's rows that satisfy `predicate`: the block itself when all do,
/// null when none does.
ChunkPtr FilterBlock(const Expr& predicate, ChunkPtr block) {
  const ColumnarChunk& input = *block;
  std::vector<RowRef> selected;
  if (!TryVectorizedFilter(predicate, input, selected)) {
    ChunkRowAccessor accessor(input, 0);
    for (size_t i = 0; i < input.num_rows(); ++i) {
      accessor.set_row(i);
      const Value keep = predicate.Eval(accessor);
      if (!keep.is_null() && keep.bool_value()) {
        selected.push_back({0, static_cast<uint32_t>(i)});
      }
    }
  }
  if (selected.size() == input.num_rows()) return block;
  if (selected.empty()) return nullptr;
  auto out = std::make_shared<ColumnarChunk>(input.schema_ptr());
  GatherRows({&block, 1}, selected, AllFields(input.schema()), *out, 0);
  out->SetRowCount(selected.size());
  return out;
}

}  // namespace

Result<Pipeline> FilterExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                      const ColumnReads& reads) const {
  ColumnReads child_reads = reads;
  if (child_reads) predicate_->CollectColumns(*child_reads);
  IDF_ASSIGN_OR_RETURN(Pipeline in,
                       child()->Open(session, metrics, child_reads));
  IDF_ASSIGN_OR_RETURN(ExprPtr resolved, predicate_->Resolve(*in.schema));
  Pipeline out{in.schema, in.num_partitions, nullptr, std::nullopt};
  out.run = [in = std::move(in), resolved](const Pipe& down) {
    const TransformPipe filter(down, [&](ChunkPtr block) {
      return FilterBlock(*resolved, std::move(block));
    });
    return in.run(filter);
  };
  return out;
}

// ---- ProjectExec ------------------------------------------------------------

std::string ProjectExec::Describe() const {
  std::string s = "ProjectExec [";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i) s += ", ";
    s += columns_[i];
  }
  return s + "]";
}

Result<Pipeline> ProjectExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                       const ColumnReads&) const {
  IDF_ASSIGN_OR_RETURN(Pipeline in, child()->Open(session, metrics, columns_));
  IDF_ASSIGN_OR_RETURN(Schema projected, in.schema->Project(columns_));
  auto schema = std::make_shared<Schema>(std::move(projected));
  // indices[c] feeds output column c; it may move out of the block when no
  // later output column reads it too.
  std::vector<size_t> indices;
  std::vector<bool> last_use;
  for (const std::string& name : columns_) {
    IDF_ASSIGN_OR_RETURN(size_t idx, in.schema->FieldIndex(name));
    indices.push_back(idx);
  }
  for (size_t c = 0; c < indices.size(); ++c) {
    last_use.push_back(std::find(indices.begin() + c + 1, indices.end(),
                                 indices[c]) == indices.end());
  }
  Pipeline out{schema, in.num_partitions, nullptr, std::nullopt};
  out.run = [in = std::move(in), schema, indices,
             last_use](const Pipe& down) {
    const TransformPipe project(
        down,
        [&](ChunkPtr block) -> ChunkPtr {
          // A block built for this pipeline gives up its columns; a shared
          // one (a cached table's block) is copied.
          const std::shared_ptr<ColumnarChunk> owned = Unshared(block);
          auto chunk = std::make_shared<ColumnarChunk>(schema);
          for (size_t c = 0; c < indices.size(); ++c) {
            if (owned != nullptr && last_use[c]) {
              chunk->mutable_column(c) =
                  std::move(owned->mutable_column(indices[c]));
            } else {
              chunk->mutable_column(c) = block->column(indices[c]);
            }
          }
          chunk->SetRowCount(block->num_rows());
          return chunk;
        },
        [&](const RowBlock& block, std::vector<size_t>& fields) {
          // Rows pass on undecoded: output column c reads the field behind
          // input column indices[c].
          fields.clear();
          for (const size_t idx : indices) fields.push_back(block.fields[idx]);
          return RowBlock{block.layout, block.rows, fields, schema};
        });
    return in.run(project);
  };
  return out;
}

// ---- JoinExec ------------------------------------------------------------

std::string JoinExec::Describe() const {
  const char* mode = "auto";
  switch (mode_) {
    case Mode::kAuto: mode = "auto"; break;
    case Mode::kBroadcastHash: mode = "broadcast-hash"; break;
    case Mode::kShuffledHash: mode = "shuffled-hash"; break;
  }
  return std::string("JoinExec[") + mode +
         (join_type_ == JoinType::kLeftOuter ? ",left-outer" : "") + "] " +
         left_key_ + " = " + right_key_;
}

JoinColumns NarrowJoinColumns(const Schema& left, size_t left_key,
                              const Schema& right, size_t right_key,
                              JoinType join_type, const ColumnReads& reads) {
  const Schema full = JoinOutputSchema(left, right, join_type);
  const size_t nl = left.num_fields();
  JoinColumns out;
  std::vector<Field> kept;
  for (size_t c = 0; c < full.num_fields(); ++c) {
    const bool key = c == left_key || c == nl + right_key;
    if (!key && reads &&
        std::find(reads->begin(), reads->end(), full.field(c).name) ==
            reads->end()) {
      continue;
    }
    if (c < nl) {
      out.left.push_back(c);
    } else {
      out.right.push_back(c - nl);
    }
    kept.push_back(full.field(c));
  }
  out.schema = std::make_shared<Schema>(std::move(kept));
  return out;
}

Result<Pipeline> JoinExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                    const ColumnReads& reads) const {
  IDF_ASSIGN_OR_RETURN(TableHandle lh,
                       children_[0]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(TableHandle rh,
                       children_[1]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(size_t lkey, lh.schema->FieldIndex(left_key_));
  IDF_ASSIGN_OR_RETURN(size_t rkey, rh.schema->FieldIndex(right_key_));

  Mode mode = mode_;
  // Left-outer joins must probe with the left side so its unmatched rows
  // can be emitted; inner joins build on the smaller relation.
  const bool build_left = join_type_ == JoinType::kInner &&
                          lh.total_bytes <= rh.total_bytes;
  if (mode == Mode::kAuto) {
    const uint64_t build_bytes = build_left ? lh.total_bytes : rh.total_bytes;
    mode = build_bytes <= session.options().broadcast_threshold_bytes
               ? Mode::kBroadcastHash
               : Mode::kShuffledHash;
  }
  JoinColumns columns = NarrowJoinColumns(*lh.schema, lkey, *rh.schema, rkey,
                                          join_type_, reads);
  const uint32_t partitions =
      mode == Mode::kBroadcastHash
          ? (build_left ? rh : lh).num_partitions
          : std::max(lh.num_partitions, rh.num_partitions);
  Pipeline out{columns.schema, partitions, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, lh, rh, lkey, rkey, build_left, mode,
             columns = std::move(columns)](const Pipe& down) {
    if (mode == Mode::kBroadcastHash) {
      return BroadcastHashJoin(session, lh, rh, lkey, rkey, build_left,
                               columns, down, metrics);
    }
    return ShuffledJoin(session, lh, rh, lkey, rkey, columns, down, metrics);
  };
  return out;
}

Status JoinExec::BroadcastHashJoin(Session& session, const TableHandle& lh,
                                   const TableHandle& rh, size_t lkey,
                                   size_t rkey, bool build_left,
                                   const JoinColumns& out, const Pipe& down,
                                   QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const TableHandle& build = build_left ? lh : rh;
  const TableHandle& probe = build_left ? rh : lh;
  const size_t build_key = build_left ? lkey : rkey;
  const size_t probe_key = build_left ? rkey : lkey;
  const bool verify =
      KeyCodeNeedsVerify(build.schema->field(build_key).type) ||
      KeyCodeNeedsVerify(probe.schema->field(probe_key).type);

  // Driver collects the build side and constructs the hash table once —
  // vanilla Spark rebuilds this on *every* query execution (Fig. 1's story).
  TaskContext driver_ctx(&cluster, cluster.AliveExecutors().front());
  std::vector<ChunkPtr> build_chunks;
  // The build loop below holds column references while walking *several*
  // chunks; a scope keeps every build chunk pinned until the table is up.
  mem::AccessScope build_scope;
  for (uint32_t p = 0; p < build.num_partitions; ++p) {
    IDF_ASSIGN_OR_RETURN(ChunkPtr chunk, FetchChunk(driver_ctx, build, p));
    build_chunks.push_back(std::move(chunk));
  }

  Stopwatch build_timer;
  JoinHashTable<RowRef> hash_table;
  hash_table.Reserve(build.num_rows);
  for (size_t ci = 0; ci < build_chunks.size(); ++ci) {
    const ColumnarChunk& chunk = *build_chunks[ci];
    const ColumnVector& key_col = chunk.column(build_key);
    for (size_t ri = 0; ri < chunk.num_rows(); ++ri) {
      if (key_col.IsNull(ri)) continue;  // inner join drops null keys
      hash_table.Add(key_col.KeyCodeAt(ri), {static_cast<uint32_t>(ci),
                                             static_cast<uint32_t>(ri)});
    }
  }
  hash_table.Build();
  const double build_seconds = build_timer.ElapsedSeconds();
  metrics.totals.hash_build_seconds += build_seconds;
  metrics.real_seconds += build_seconds;

  // Simulated cost: ship the build relation to every worker, then every
  // executor builds its own hash table.
  cluster.simulator().Broadcast(build.total_bytes);
  StageSpec replica_stage;
  replica_stage.name = "broadcast hash build";
  for (ExecutorId e : cluster.AliveExecutors()) {
    replica_stage.tasks.push_back(
        TaskSpec{e,
                 {},
                 build_seconds,
                 [](TaskContext&) {
                   return Status::OK();  // modeled only; driver built for real
                 },
                 {}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics replica_metrics,
                       cluster.RunStage(replica_stage));
  metrics.MergeStage(replica_metrics);

  // Probe stage: one task per probe partition, local to the probe block;
  // matched pairs gather a block at a time, only the output's columns, and
  // push on.
  const bool outer = join_type_ == JoinType::kLeftOuter;
  const std::vector<size_t>& build_fields = build_left ? out.left : out.right;
  const std::vector<size_t>& probe_fields = build_left ? out.right : out.left;
  return ForEachBlock(
      cluster, metrics, "broadcast hash probe", {&probe, 1},
      [&](TaskContext& ctx, uint32_t p, const ChunkPtr& chunk) -> Status {
        // The scope ForEachBlock opened pins the probe chunk AND every
        // build chunk touched below — the body holds `key_col` across reads
        // of other chunks.
        const ColumnarChunk& probe_chunk = *chunk;
        const ColumnVector& key_col = probe_chunk.column(probe_key);
        ctx.metrics().rows_read += probe_chunk.num_rows();
        std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, p);

        // Left-outer pads an unmatched probe (=left) row with a null build
        // row.
        std::vector<RowRef> build_refs;
        std::vector<RowRef> probe_refs;
        auto flush = [&] {
          if (probe_refs.empty()) return;
          const size_t build_offset = build_left ? 0 : probe_fields.size();
          const size_t probe_offset = build_left ? build_fields.size() : 0;
          auto block = std::make_shared<ColumnarChunk>(out.schema);
          GatherRows(build_chunks, build_refs, build_fields, *block,
                     build_offset);
          GatherRows({&chunk, 1}, probe_refs, probe_fields, *block,
                     probe_offset);
          block->SetRowCount(probe_refs.size());
          build_refs.clear();
          probe_refs.clear();
          consumer->Consume(ctx, std::move(block));
        };
        auto emit = [&](RowRef build_ref, size_t ri) {
          build_refs.push_back(build_ref);
          probe_refs.push_back({0, static_cast<uint32_t>(ri)});
          if (probe_refs.size() == kTranscodeBlockRows) flush();
        };
        for (size_t ri = 0; ri < probe_chunk.num_rows(); ++ri) {
          if (key_col.IsNull(ri)) {
            if (outer) emit({RowRef::kNull, 0}, ri);
            continue;
          }
          bool matched = false;
          for (const RowRef& ref : hash_table.Find(key_col.KeyCodeAt(ri))) {
            if (verify &&
                !KeysEqual(build_chunks[ref.chunk]->column(build_key),
                           ref.row, key_col, ri)) {
              continue;
            }
            matched = true;
            emit(ref, ri);
          }
          if (outer && !matched) emit({RowRef::kNull, 0}, ri);
        }
        flush();
        return consumer->Commit(ctx);
      });
}

Status JoinExec::ShuffledJoin(Session& session, const TableHandle& lh,
                              const TableHandle& rh, size_t lkey, size_t rkey,
                              const JoinColumns& out, const Pipe& down,
                              QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const uint32_t R = std::max(lh.num_partitions, rh.num_partitions);
  RowLayout llayout(lh.schema);
  RowLayout rlayout(rh.schema);

  const bool outer = join_type_ == JoinType::kLeftOuter;
  // Build on the smaller side (vanilla heuristic); outer joins must probe
  // with the left side.
  const bool build_left = !outer && lh.total_bytes <= rh.total_bytes;

  // Map stages: partition each side's rows by key-code hash. For a
  // left-outer join the left side's null-key rows still need emitting, so
  // they route to partition 0 (they can never match anything).
  auto target = [R](bool keep_null_keys) {
    return [R, keep_null_keys](std::optional<uint64_t> code) {
      if (code) return HashPartition(*code, R);
      return keep_null_keys ? 0u : kDropRow;
    };
  };
  return cluster.RunExchange(
      ExchangeSpec{
          {ShuffleByKey(cluster, metrics, "shuffle map (left)", lh, lkey,
                        llayout, target(outer)),
           ShuffleByKey(cluster, metrics, "shuffle map (right)", rh, rkey,
                        rlayout, target(false))},
          "shuffled-hash reduce",
          R,
          cluster.NewRddId(),
          /*reduce_reads_rdd=*/false,
          [&](TaskContext& ctx, uint32_t rp,
              const std::vector<ShuffleInputs>& inputs) -> Status {
            const ShuffleInputs& build_side = inputs[build_left ? 0 : 1];
            const ShuffleInputs& probe_side = inputs[build_left ? 1 : 0];
            const RowLayout& blayout = build_left ? llayout : rlayout;
            const RowLayout& playout = build_left ? rlayout : llayout;
            const size_t bkey = build_left ? lkey : rkey;
            const size_t pkey = build_left ? rkey : lkey;
            // Codes of strings and doubles hash: check those keys.
            const bool verify =
                KeyCodeNeedsVerify(blayout.schema().field(bkey).type) ||
                KeyCodeNeedsVerify(playout.schema().field(pkey).type);

            // The table holds the build side's rows; the probe side's
            // buffers stream through it, a row at a time.
            Stopwatch build_timer;
            JoinHashTable<const uint8_t*> table;
            for (const auto& buf : build_side) {
              ctx.metrics().rows_read += buf->num_rows;
              buf->ForEachRow([&](const uint8_t* row) {
                table.Add(blayout.KeyCode(row, bkey), row);
              });
            }
            table.Build();
            ctx.metrics().hash_build_seconds += build_timer.ElapsedSeconds();

            std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, rp);
            // A null right row pads an unmatched left row.
            JoinedRowDecoder decoder(
                llayout, out.left, rlayout, out.right, out.schema,
                [&](std::shared_ptr<ColumnarChunk> block) {
                  consumer->Consume(ctx, std::move(block));
                });
            for (const auto& buf : probe_side) {
              ctx.metrics().rows_read += buf->num_rows;
              buf->ForEachRow([&](const uint8_t* prow) {
                // With outer joins the probe side is always the left
                // relation.
                if (playout.IsNull(prow, pkey)) {
                  if (outer) decoder.Add(prow, nullptr);
                  return;
                }
                bool matched = false;
                for (const uint8_t* brow :
                     table.Find(playout.KeyCode(prow, pkey))) {
                  if (verify &&
                      !KeysEqual(blayout, brow, bkey, playout, prow, pkey)) {
                    continue;
                  }
                  matched = true;
                  if (build_left) {
                    decoder.Add(brow, prow);
                  } else {
                    decoder.Add(prow, brow);
                  }
                }
                if (outer && !matched) decoder.Add(prow, nullptr);
              });
            }
            decoder.Flush();
            return consumer->Commit(ctx);
          }},
      metrics);
}

// ---- HashAggExec ------------------------------------------------------------

namespace {

/// Routes a map task's partial rows on their group codes to the
/// `num_reduce` partitions of the aggregation exchange and commits them.
Status CommitPartials(TaskContext& ctx,
                      const agg_internal::PartialAggregator& partials,
                      uint32_t num_reduce, const MapOutput& out,
                      uint32_t map_task) {
  const RowLayout layout(partials.resolved().partial_schema);
  ShuffleWriter writer = out.Writer(ctx, map_task);
  writer.ExpectRows(partials.num_groups());
  std::vector<uint8_t> encoded;
  IDF_RETURN_IF_ERROR(partials.ForEachPartial(
      [&](uint64_t code, const RowVec& row) -> Status {
        IDF_ASSIGN_OR_RETURN(uint32_t size, layout.ComputeRowSize(row));
        encoded.resize(size);
        layout.EncodeRow(row, encoded.data(), PackedRowPtr::Null());
        writer.Append(HashPartition(code, num_reduce), encoded.data(), size);
        return Status::OK();
      }));
  out.Commit(ctx, writer);
  return Status::OK();
}

/// The two phases: `map` runs the tasks that fold their rows into
/// task-local PartialAggregators and CommitPartials them to `num_reduce`
/// partitions (one for a global aggregate); the "final aggregate" stage
/// then merges each reduce partition's partial rows (FinalMerge) and
/// pushes the result into `down`. The shuffle is released whether or not
/// the stages succeed.
Status AggregateInTwoPhases(Session& session, QueryMetrics& metrics,
                            const agg_internal::ResolvedAggs& resolved,
                            const std::vector<AggSpec>& aggs,
                            uint32_t num_reduce, ExchangeSide map,
                            const Pipe& down) {
  Cluster& cluster = session.cluster();
  const agg_internal::FinalMerge merge(resolved, aggs);
  return cluster.RunExchange(
      ExchangeSpec{{std::move(map)},
                   "final aggregate",
                   num_reduce,
                   cluster.NewRddId(),
                   /*reduce_reads_rdd=*/false,
                   [&](TaskContext& ctx, uint32_t rp,
                       const std::vector<ShuffleInputs>& inputs) -> Status {
                     auto out = std::make_shared<ColumnarChunk>(
                         resolved.output_schema);
                     IDF_RETURN_IF_ERROR(merge.Run(inputs[0], *out));
                     std::unique_ptr<ChunkConsumer> consumer =
                         down.Open(ctx, rp);
                     consumer->Consume(ctx, std::move(out));
                     return consumer->Commit(ctx);
                   }},
      metrics);
}

/// The partial aggregate as a pipeline's end: each producing task folds its
/// blocks into a task-local PartialAggregator, a chunk's columns or a row
/// block's rows in place, and its Commit routes the partial rows into the
/// aggregation exchange as map task `partition`.
class PartialAggPipe final : public Pipe {
 public:
  PartialAggPipe(const agg_internal::ResolvedAggs& resolved,
                 const std::vector<AggSpec>& aggs, uint32_t num_reduce,
                 const MapOutput& out)
      : resolved_(resolved), aggs_(aggs), num_reduce_(num_reduce), out_(out) {}

  std::unique_ptr<ChunkConsumer> Open(TaskContext&,
                                      uint32_t partition) const override {
    return std::make_unique<Consumer>(*this, partition);
  }

 private:
  class Consumer final : public ChunkConsumer {
   public:
    Consumer(const PartialAggPipe& pipe, uint32_t partition)
        : pipe_(pipe),
          partition_(partition),
          partials_(pipe.resolved_, pipe.aggs_) {}
    void Consume(TaskContext&, ChunkPtr block) override {
      partials_.Add(ChunkRun(*block));
    }
    void ConsumeRows(TaskContext&, const RowBlock& block) override {
      partials_.Add(RowRun(block.layout, block.rows, block.fields));
    }
    Status Commit(TaskContext& ctx) override {
      return CommitPartials(ctx, partials_, pipe_.num_reduce_, pipe_.out_,
                            partition_);
    }

   private:
    const PartialAggPipe& pipe_;
    uint32_t partition_;
    agg_internal::PartialAggregator partials_;
  };

  const agg_internal::ResolvedAggs& resolved_;
  const std::vector<AggSpec>& aggs_;
  uint32_t num_reduce_;
  const MapOutput& out_;
};

}  // namespace

Result<Pipeline> HashAggExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                       const ColumnReads&) const {
  using agg_internal::ResolvedAggs;

  std::vector<std::string> reads = group_by_;
  for (const AggSpec& agg : aggs_) {
    if (agg.fn != AggSpec::Fn::kCount) reads.push_back(agg.column);
  }
  IDF_ASSIGN_OR_RETURN(Pipeline in, child()->Open(session, metrics, reads));
  IDF_ASSIGN_OR_RETURN(ResolvedAggs resolved,
                       ResolvedAggs::Resolve(*in.schema, group_by_, aggs_));
  const uint32_t R = resolved.group_idx.empty() ? 1 : in.num_partitions;
  Pipeline out{resolved.output_schema, R, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, in = std::move(in), resolved,
             R](const Pipe& down) {
    ExchangeSide partial{in.num_partitions, [&](const MapOutput& map) {
      const PartialAggPipe partials(resolved, aggs_, R, map);
      return in.run(partials);
    }};
    return AggregateInTwoPhases(session, metrics, resolved, aggs_, R,
                                std::move(partial), down);
  };
  return out;
}

// ---- UnionExec ------------------------------------------------------------

Result<Pipeline> UnionExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                     const ColumnReads&) const {
  IDF_ASSIGN_OR_RETURN(TableHandle lh, children_[0]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(TableHandle rh, children_[1]->Execute(session, metrics));
  if (*lh.schema != *rh.schema) {
    return Status::InvalidArgument("UNION sides have different schemas");
  }
  Pipeline out{lh.schema, lh.num_partitions + rh.num_partitions, nullptr,
               std::nullopt};
  // The stage exists so the re-homing shows up in scheduling like any other
  // op; materialized, each block passes through the sink uncopied.
  out.run = [&session, &metrics,
             sides = std::vector<TableHandle>{lh, rh}](const Pipe& down) {
    return PushBlocks(session.cluster(), metrics, "union", sides, down);
  };
  return out;
}

// ---- SortExec ------------------------------------------------------------

std::string SortExec::Describe() const {
  std::string s = "SortExec [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i) s += ", ";
    s += keys_[i].column;
    if (keys_[i].descending) s += " DESC";
  }
  return s + "]";
}

namespace {

/// Runs stage `name` as one task on the first alive executor that reads
/// every partition of `in` and pushes output partition 0: fill(ctx, out)
/// builds it.
Status RunGatherStage(
    Cluster& cluster, QueryMetrics& metrics, const std::string& name,
    const TableHandle& in, const Pipe& down,
    const std::function<Status(TaskContext&, ColumnarChunk&)>& fill) {
  StageSpec stage;
  stage.name = name;
  std::vector<PartitionInput> all_inputs;
  for (uint32_t p = 0; p < in.num_partitions; ++p) {
    all_inputs.push_back({in.rdd_id, p});
  }
  stage.tasks.push_back(TaskSpec{
      cluster.AliveExecutors().front(),
      {},
      0,
      [&](TaskContext& ctx) -> Status {
        auto out = std::make_shared<ColumnarChunk>(in.schema);
        IDF_RETURN_IF_ERROR(fill(ctx, *out));
        std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, 0);
        consumer->Consume(ctx, std::move(out));
        return consumer->Commit(ctx);
      },
      all_inputs});
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return Status::OK();
}

}  // namespace

Result<Pipeline> SortExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                    const ColumnReads&) const {
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  std::vector<size_t> key_idx;
  for (const SortKey& key : keys_) {
    IDF_ASSIGN_OR_RETURN(size_t idx, in.schema->FieldIndex(key.column));
    key_idx.push_back(idx);
  }
  Pipeline out{in.schema, 1, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, in, key_idx](const Pipe& down) {
    return RunGatherStage(
        session.cluster(), metrics, "sort", in, down,
        [&](TaskContext& ctx, ColumnarChunk& sorted) -> Status {
          // Gather (chunk, row) references across all partitions, then
          // sort. The chunks outlive the scope, so it unpins them while
          // they live.
          std::vector<ChunkPtr> chunks;
          // One task touches every partition; pin them all for the sort.
          mem::AccessScope scope;
          std::vector<RowRef> refs;
          for (uint32_t p = 0; p < in.num_partitions; ++p) {
            Result<ChunkPtr> chunk = FetchChunk(ctx, in, p);
            IDF_RETURN_IF_ERROR(chunk.status());
            const uint32_t ci = static_cast<uint32_t>(chunks.size());
            for (size_t i = 0; i < (*chunk)->num_rows(); ++i) {
              refs.push_back({ci, static_cast<uint32_t>(i)});
            }
            chunks.push_back(std::move(*chunk));
          }
          ctx.metrics().rows_read += refs.size();

          std::stable_sort(
              refs.begin(), refs.end(),
              [&](const RowRef& a, const RowRef& b) {
                for (size_t k = 0; k < key_idx.size(); ++k) {
                  const Value va =
                      chunks[a.chunk]->ValueAt(a.row, key_idx[k]);
                  const Value vb =
                      chunks[b.chunk]->ValueAt(b.row, key_idx[k]);
                  const int cmp = va.Compare(vb);
                  if (cmp != 0) {
                    return keys_[k].descending ? cmp > 0 : cmp < 0;
                  }
                }
                return false;
              });

          if (!chunks.empty()) {
            GatherRows(chunks, refs, AllFields(*in.schema), sorted, 0);
          }
          sorted.SetRowCount(refs.size());
          return Status::OK();
        });
  };
  return out;
}

// ---- LimitExec ------------------------------------------------------------

Result<Pipeline> LimitExec::OpenImpl(Session& session, QueryMetrics& metrics,
                                     const ColumnReads&) const {
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  Pipeline out{in.schema, 1, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, in](const Pipe& down) {
    return RunGatherStage(
        session.cluster(), metrics, "limit", in, down,
        [&](TaskContext& ctx, ColumnarChunk& taken) -> Status {
          uint64_t n = 0;
          for (uint32_t p = 0; p < in.num_partitions && n < limit_; ++p) {
            ChunkPtr chunk;  // outlives the scope, which unpins it
            mem::AccessScope scope;
            IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, in, p));
            std::vector<RowRef> refs(
                std::min<uint64_t>(chunk->num_rows(), limit_ - n));
            for (size_t i = 0; i < refs.size(); ++i) {
              refs[i].row = static_cast<uint32_t>(i);
            }
            GatherRows({&chunk, 1}, refs, AllFields(*in.schema), taken, 0);
            n += refs.size();
          }
          taken.SetRowCount(n);
          return Status::OK();
        });
  };
  return out;
}

}  // namespace idf
