#include "sql/physical.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common/timer.h"
#include "mem/governor.h"
#include "sql/agg_internal.h"
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

Result<TableHandle> PhysicalOp::Execute(Session& session,
                                        QueryMetrics& metrics) const {
  if (metrics.op_profile == nullptr) return ExecuteImpl(session, metrics);

  // EXPLAIN ANALYZE: attribute the query-total delta across this subtree to
  // this node (inclusively; the renderer subtracts children for self time).
  // Operators execute sequentially on the driver, so snapshot-and-subtract
  // on the shared accumulator is race-free.
  const TaskMetrics before = metrics.totals;
  Stopwatch timer;
  Result<TableHandle> result = ExecuteImpl(session, metrics);
  const double elapsed = timer.ElapsedSeconds();

  OpProfile& prof = (*metrics.op_profile)[this];
  if (prof.label.empty()) prof.label = Describe();
  ++prof.executions;
  prof.wall_seconds += elapsed;
  prof.inclusive.MergeFrom(metrics.totals.DeltaSince(before));
  if (result.ok()) {
    prof.rows_out += result->num_rows;
    prof.bytes_out += result->total_bytes;
  }
  return result;
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

TableSink::TableSink(Session& session, SchemaPtr schema,
                     uint32_t num_partitions)
    : session_(session),
      schema_(std::move(schema)),
      num_partitions_(num_partitions),
      lease_(session.cluster().NewRdd()),
      rdd_id_(lease_->rdd()) {}

void TableSink::Emit(TaskContext& ctx, uint32_t partition, ChunkPtr chunk) {
  rows_ += chunk->num_rows();
  bytes_ += chunk->ByteSize();
  ctx.metrics().rows_written += chunk->num_rows();
  // Finalization point for every operator's cached output: from here the
  // chunk is immutable, so it goes under the memory governor (budgeted,
  // evictable, visible to spill-aware scheduling).
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

namespace {

/// Typed copy of one row from `in` to `out` (schemas must match).
void AppendRowCopy(ColumnarChunk& out, const ColumnarChunk& in, size_t row) {
  for (size_t c = 0; c < in.num_columns(); ++c) {
    const ColumnVector& src = in.column(c);
    ColumnVector& dst = out.mutable_column(c);
    if (src.IsNull(row)) {
      dst.AppendNull();
      continue;
    }
    switch (src.type()) {
      case TypeId::kBool: dst.AppendBool(src.BoolAt(row)); break;
      case TypeId::kInt32: dst.AppendInt32(src.Int32At(row)); break;
      case TypeId::kInt64: dst.AppendInt64(src.Int64At(row)); break;
      case TypeId::kFloat64: dst.AppendFloat64(src.Float64At(row)); break;
      case TypeId::kString: dst.AppendString(src.StringAt(row)); break;
    }
  }
}

/// Appends columns [offset, offset+in.num_columns) of `out` from row `row`.
void AppendColumnsAt(ColumnarChunk& out, size_t offset,
                     const ColumnarChunk& in, size_t row) {
  for (size_t c = 0; c < in.num_columns(); ++c) {
    const ColumnVector& src = in.column(c);
    ColumnVector& dst = out.mutable_column(offset + c);
    if (src.IsNull(row)) {
      dst.AppendNull();
      continue;
    }
    switch (src.type()) {
      case TypeId::kBool: dst.AppendBool(src.BoolAt(row)); break;
      case TypeId::kInt32: dst.AppendInt32(src.Int32At(row)); break;
      case TypeId::kInt64: dst.AppendInt64(src.Int64At(row)); break;
      case TypeId::kFloat64: dst.AppendFloat64(src.Float64At(row)); break;
      case TypeId::kString: dst.AppendString(src.StringAt(row)); break;
    }
  }
}

/// Appends columns of `out` starting at `offset` from an encoded binary row.
void AppendColumnsFromBinary(ColumnarChunk& out, size_t offset,
                             const RowLayout& layout, const uint8_t* row) {
  const Schema& schema = layout.schema();
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnVector& dst = out.mutable_column(offset + c);
    if (layout.IsNull(row, c)) {
      dst.AppendNull();
      continue;
    }
    switch (schema.field(c).type) {
      case TypeId::kBool: dst.AppendBool(layout.GetBool(row, c)); break;
      case TypeId::kInt32: dst.AppendInt32(layout.GetInt32(row, c)); break;
      case TypeId::kInt64: dst.AppendInt64(layout.GetInt64(row, c)); break;
      case TypeId::kFloat64:
        dst.AppendFloat64(layout.GetFloat64(row, c));
        break;
      case TypeId::kString: dst.AppendString(layout.GetString(row, c)); break;
    }
  }
}

/// Exact key equality for join verification when key codes can collide
/// (strings and doubles hash into their code).
bool KeysReallyEqual(const Value& a, const Value& b) { return a == b; }

/// Appends `count` null cells starting at column `offset` (left-outer
/// padding for unmatched rows).
void AppendNullColumns(ColumnarChunk& out, size_t offset, size_t count) {
  for (size_t c = 0; c < count; ++c) {
    out.mutable_column(offset + c).AppendNull();
  }
}

}  // namespace

void AppendJoinedRow(ColumnarChunk& out, const ColumnarChunk& left, size_t li,
                     const ColumnarChunk& right, size_t ri) {
  AppendColumnsAt(out, 0, left, li);
  AppendColumnsAt(out, left.num_columns(), right, ri);
}

// ---- ScanExec ------------------------------------------------------------

Result<TableHandle> ScanExec::ExecuteImpl(Session& session,
                                          QueryMetrics& metrics) const {
  return dataset_->ScanAsColumnar(session, metrics);
}

// ---- FilterExec ------------------------------------------------------------

namespace {

/// Vectorized selection for `numeric column <op> literal` and string
/// equality (`string column =/!= literal`). Returns true and fills
/// `selected` when the fast path applies.
bool TryVectorizedFilter(const Expr& predicate, const ColumnarChunk& chunk,
                         std::vector<uint32_t>& selected) {
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
        selected.push_back(static_cast<uint32_t>(i));
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
    if (keep) selected.push_back(static_cast<uint32_t>(i));
  }
  return true;
}

}  // namespace

Result<TableHandle> FilterExec::ExecuteImpl(Session& session,
                                            QueryMetrics& metrics) const {
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(ExprPtr resolved, predicate_->Resolve(*in.schema));

  TableSink sink(session, in.schema, in.num_partitions);
  StageSpec stage;
  stage.name = "filter";
  for (uint32_t p = 0; p < in.num_partitions; ++p) {
    stage.tasks.push_back(TaskSpec{
        session.cluster().HomeExecutorFor(in.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          // Keep the input chunk pinned for the whole body: column
          // references are held across appends that may trigger eviction.
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, in, p));
          const ColumnarChunk& input = *chunk;
          ctx.metrics().rows_read += input.num_rows();

          auto out = std::make_shared<ColumnarChunk>(in.schema);
          std::vector<uint32_t> selected;
          if (TryVectorizedFilter(*resolved, input, selected)) {
            for (uint32_t row : selected) AppendRowCopy(*out, input, row);
          } else {
            ChunkRowAccessor accessor(input, 0);
            for (size_t i = 0; i < input.num_rows(); ++i) {
              accessor.set_row(i);
              const Value keep = resolved->Eval(accessor);
              if (!keep.is_null() && keep.bool_value()) {
                AppendRowCopy(*out, input, i);
              }
            }
          }
          out->SetRowCount(out->column(0).size());
          sink.Emit(ctx, p, std::move(out));
          return Status::OK();
        },
        {{in.rdd_id, p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, session.cluster().RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
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

Result<TableHandle> ProjectExec::ExecuteImpl(Session& session,
                                             QueryMetrics& metrics) const {
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(Schema out_schema, in.schema->Project(columns_));
  auto out_schema_ptr = std::make_shared<Schema>(std::move(out_schema));
  std::vector<size_t> indices;
  for (const std::string& name : columns_) {
    IDF_ASSIGN_OR_RETURN(size_t idx, in.schema->FieldIndex(name));
    indices.push_back(idx);
  }

  TableSink sink(session, out_schema_ptr, in.num_partitions);
  StageSpec stage;
  stage.name = "project";
  for (uint32_t p = 0; p < in.num_partitions; ++p) {
    stage.tasks.push_back(TaskSpec{
        session.cluster().HomeExecutorFor(in.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, in, p));
          const ColumnarChunk& input = *chunk;
          ctx.metrics().rows_read += input.num_rows();

          // Columnar projection: copy whole column vectors — no row work.
          auto out = std::make_shared<ColumnarChunk>(out_schema_ptr);
          for (size_t c = 0; c < indices.size(); ++c) {
            out->mutable_column(c) = input.column(indices[c]);
          }
          out->SetRowCount(input.num_rows());
          sink.Emit(ctx, p, std::move(out));
          return Status::OK();
        },
        {{in.rdd_id, p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, session.cluster().RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

// ---- JoinExec ------------------------------------------------------------

std::string JoinExec::Describe() const {
  const char* mode = "auto";
  switch (mode_) {
    case Mode::kAuto: mode = "auto"; break;
    case Mode::kBroadcastHash: mode = "broadcast-hash"; break;
    case Mode::kShuffledHash: mode = "shuffled-hash"; break;
    case Mode::kSortMerge: mode = "sort-merge"; break;
  }
  return std::string("JoinExec[") + mode +
         (join_type_ == JoinType::kLeftOuter ? ",left-outer" : "") + "] " +
         left_key_ + " = " + right_key_;
}

Result<TableHandle> JoinExec::ExecuteImpl(Session& session,
                                          QueryMetrics& metrics) const {
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
  switch (mode) {
    case Mode::kBroadcastHash:
      return BroadcastHashJoin(session, lh, rh, lkey, rkey, build_left,
                               metrics);
    case Mode::kShuffledHash:
      return ShuffledJoin(session, lh, rh, lkey, rkey, /*sort_merge=*/false,
                          metrics);
    case Mode::kSortMerge:
      return ShuffledJoin(session, lh, rh, lkey, rkey, /*sort_merge=*/true,
                          metrics);
    case Mode::kAuto:
      break;
  }
  return Status::Internal("unresolved join mode");
}

Result<TableHandle> JoinExec::BroadcastHashJoin(
    Session& session, const TableHandle& lh, const TableHandle& rh,
    size_t lkey, size_t rkey, bool build_left, QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const TableHandle& build = build_left ? lh : rh;
  const TableHandle& probe = build_left ? rh : lh;
  const size_t build_key = build_left ? lkey : rkey;
  const size_t probe_key = build_left ? rkey : lkey;
  auto out_schema =
      std::make_shared<Schema>(lh.schema->ConcatForJoin(*rh.schema));
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
  std::unordered_map<uint64_t, std::vector<uint64_t>> hash_table;
  hash_table.reserve(build.num_rows);
  for (size_t ci = 0; ci < build_chunks.size(); ++ci) {
    const ColumnarChunk& chunk = *build_chunks[ci];
    const ColumnVector& key_col = chunk.column(build_key);
    for (size_t ri = 0; ri < chunk.num_rows(); ++ri) {
      if (key_col.IsNull(ri)) continue;  // inner join drops null keys
      hash_table[key_col.KeyCodeAt(ri)].push_back(
          (static_cast<uint64_t>(ci) << 32) | ri);
    }
  }
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

  // Probe stage: one task per probe partition, local to the probe block.
  TableSink sink(session, out_schema, probe.num_partitions);
  StageSpec stage;
  stage.name = "broadcast hash probe";
  for (uint32_t p = 0; p < probe.num_partitions; ++p) {
    stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(probe.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          // Pins the probe chunk AND every build chunk touched below — the
          // body holds `key_col` across reads of other chunks, so transient
          // pins alone would not keep the probe chunk resident.
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, probe, p));
          const ColumnarChunk& probe_chunk = *chunk;
          const ColumnVector& key_col = probe_chunk.column(probe_key);
          ctx.metrics().rows_read += probe_chunk.num_rows();

          // Left-outer pads unmatched probe (=left) rows with nulls.
          const bool outer = join_type_ == JoinType::kLeftOuter;
          const size_t probe_cols = probe.schema->num_fields();
          const size_t build_cols = build.schema->num_fields();
          auto out = std::make_shared<ColumnarChunk>(out_schema);
          auto emit_unmatched = [&](size_t ri) {
            AppendColumnsAt(*out, 0, probe_chunk, ri);
            AppendNullColumns(*out, probe_cols, build_cols);
          };
          for (size_t ri = 0; ri < probe_chunk.num_rows(); ++ri) {
            if (key_col.IsNull(ri)) {
              if (outer) emit_unmatched(ri);
              continue;
            }
            auto it = hash_table.find(key_col.KeyCodeAt(ri));
            bool matched = false;
            if (it != hash_table.end()) {
              for (uint64_t packed : it->second) {
                const size_t bci = packed >> 32;
                const size_t bri = packed & 0xffffffffu;
                const ColumnarChunk& bchunk = *build_chunks[bci];
                if (verify &&
                    !KeysReallyEqual(bchunk.ValueAt(bri, build_key),
                                     probe_chunk.ValueAt(ri, probe_key))) {
                  continue;
                }
                matched = true;
                if (build_left) {
                  AppendJoinedRow(*out, bchunk, bri, probe_chunk, ri);
                } else {
                  AppendJoinedRow(*out, probe_chunk, ri, bchunk, bri);
                }
              }
            }
            if (outer && !matched) emit_unmatched(ri);
          }
          out->SetRowCount(out->column(0).size());
          sink.Emit(ctx, p, std::move(out));
          return Status::OK();
        },
        {{probe.rdd_id, p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

Result<TableHandle> JoinExec::ShuffledJoin(Session& session,
                                           const TableHandle& lh,
                                           const TableHandle& rh, size_t lkey,
                                           size_t rkey, bool sort_merge,
                                           QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const uint32_t R = std::max(lh.num_partitions, rh.num_partitions);
  auto out_schema =
      std::make_shared<Schema>(lh.schema->ConcatForJoin(*rh.schema));
  RowLayout llayout(lh.schema);
  RowLayout rlayout(rh.schema);
  const bool verify = KeyCodeNeedsVerify(lh.schema->field(lkey).type) ||
                      KeyCodeNeedsVerify(rh.schema->field(rkey).type);

  const uint64_t lshuffle = cluster.shuffle().NewShuffle(lh.num_partitions, R);
  const uint64_t rshuffle = cluster.shuffle().NewShuffle(rh.num_partitions, R);

  const bool outer = join_type_ == JoinType::kLeftOuter;

  // Map stages: partition each side's rows by key-code hash. For a
  // left-outer join the left side's null-key rows still need emitting, so
  // they route to partition 0 (they can never match anything).
  auto run_map_stage = [&](const TableHandle& table, const RowLayout& layout,
                           size_t key, uint64_t shuffle_id,
                           bool keep_null_keys, const char* name) -> Status {
    StageSpec stage;
    stage.name = name;
    for (uint32_t p = 0; p < table.num_partitions; ++p) {
      stage.tasks.push_back(TaskSpec{
          cluster.HomeExecutorFor(table.rdd_id, p),
          {},
          0,
          [&, p, shuffle_id, key](TaskContext& ctx) -> Status {
            // `key_col` is held across per-row encodes; keep the chunk
            // pinned for the whole map task.
            ChunkPtr chunk;  // outlives the scope, which unpins it
            mem::AccessScope scope;
            IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, table, p));
            const ColumnarChunk& input = *chunk;
            const ColumnVector& key_col = input.column(key);
            ctx.metrics().rows_read += input.num_rows();

            std::vector<ShuffleBuffer> buffers(R);
            std::vector<uint8_t> scratch;
            for (size_t i = 0; i < input.num_rows(); ++i) {
              uint32_t rp;
              if (key_col.IsNull(i)) {
                if (!keep_null_keys) continue;
                rp = 0;
              } else {
                rp = HashPartition(key_col.KeyCodeAt(i), R);
              }
              input.EncodeRowTo(layout, i, scratch);
              buffers[rp].AppendRow(scratch.data(),
                                    static_cast<uint32_t>(scratch.size()));
            }
            for (uint32_t rp = 0; rp < R; ++rp) {
              if (buffers[rp].num_rows == 0) continue;
              buffers[rp].source = ctx.executor();
              ctx.metrics().shuffle_bytes_written += buffers[rp].bytes.size();
              cluster.shuffle().PutMapOutput(shuffle_id, p, rp,
                                             std::move(buffers[rp]));
            }
            return Status::OK();
          },
          {{table.rdd_id, p}}});
    }
    IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
    metrics.MergeStage(sm);
    return Status::OK();
  };
  IDF_RETURN_IF_ERROR(run_map_stage(lh, llayout, lkey, lshuffle, outer,
                                    "shuffle map (left)"));
  IDF_RETURN_IF_ERROR(run_map_stage(rh, rlayout, rkey, rshuffle, false,
                                    "shuffle map (right)"));

  // Build on the smaller side (vanilla heuristic); outer joins must probe
  // with the left side.
  const bool build_left = !outer && lh.total_bytes <= rh.total_bytes;

  TableSink sink(session, out_schema, R);
  StageSpec reduce;
  reduce.name = sort_merge ? "sort-merge reduce" : "shuffled-hash reduce";
  for (uint32_t rp = 0; rp < R; ++rp) {
    reduce.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(sink.rdd_id(), rp),
        {},
        0,
        [&, rp](TaskContext& ctx) -> Status {
          const ShuffleInputs linputs = ctx.FetchShuffleInputs(lshuffle, rp);
          const ShuffleInputs rinputs = ctx.FetchShuffleInputs(rshuffle, rp);

          // Collect row pointers per side.
          auto rows_of = [](const auto& inputs) {
            std::vector<const uint8_t*> rows;
            for (const auto& buf : inputs) {
              ShuffleBufferReader reader(*buf);
              while (reader.HasNext()) rows.push_back(reader.Next());
            }
            return rows;
          };
          std::vector<const uint8_t*> lrows = rows_of(linputs);
          std::vector<const uint8_t*> rrows = rows_of(rinputs);
          ctx.metrics().rows_read += lrows.size() + rrows.size();

          auto out = std::make_shared<ColumnarChunk>(out_schema);
          auto emit = [&](const uint8_t* lrow, const uint8_t* rrow) {
            AppendColumnsFromBinary(*out, 0, llayout, lrow);
            AppendColumnsFromBinary(*out, lh.schema->num_fields(), rlayout,
                                    rrow);
          };
          auto emit_left_only = [&](const uint8_t* lrow) {
            AppendColumnsFromBinary(*out, 0, llayout, lrow);
            AppendNullColumns(*out, lh.schema->num_fields(),
                              rh.schema->num_fields());
          };

          if (sort_merge) {
            // Sort both sides by key value, then merge equal-key groups.
            auto sort_side = [](std::vector<const uint8_t*>& rows,
                                const RowLayout& layout, size_t key) {
              std::sort(rows.begin(), rows.end(),
                        [&](const uint8_t* a, const uint8_t* b) {
                          return layout.GetValue(a, key)
                                     .Compare(layout.GetValue(b, key)) < 0;
                        });
            };
            sort_side(lrows, llayout, lkey);
            sort_side(rrows, rlayout, rkey);
            size_t li = 0, ri = 0;
            while (li < lrows.size() && ri < rrows.size()) {
              const Value lv = llayout.GetValue(lrows[li], lkey);
              const Value rv = rlayout.GetValue(rrows[ri], rkey);
              // Null left keys sort first and never match.
              if (lv.is_null()) {
                if (outer) emit_left_only(lrows[li]);
                ++li;
                continue;
              }
              if (rv.is_null()) {
                ++ri;
                continue;
              }
              const int cmp = lv.Compare(rv);
              if (cmp < 0) {
                if (outer) emit_left_only(lrows[li]);
                ++li;
              } else if (cmp > 0) {
                ++ri;
              } else {
                size_t lend = li, rend = ri;
                while (lend < lrows.size() &&
                       llayout.GetValue(lrows[lend], lkey).Compare(lv) == 0) {
                  ++lend;
                }
                while (rend < rrows.size() &&
                       rlayout.GetValue(rrows[rend], rkey).Compare(rv) == 0) {
                  ++rend;
                }
                for (size_t a = li; a < lend; ++a) {
                  for (size_t b = ri; b < rend; ++b) {
                    emit(lrows[a], rrows[b]);
                  }
                }
                li = lend;
                ri = rend;
              }
            }
            if (outer) {
              for (; li < lrows.size(); ++li) emit_left_only(lrows[li]);
            }
          } else {
            // Hash join: build on the configured build side.
            const auto& build_rows = build_left ? lrows : rrows;
            const auto& probe_rows = build_left ? rrows : lrows;
            const RowLayout& blayout = build_left ? llayout : rlayout;
            const RowLayout& playout = build_left ? rlayout : llayout;
            const size_t bkey = build_left ? lkey : rkey;
            const size_t pkey = build_left ? rkey : lkey;

            Stopwatch build_timer;
            std::unordered_map<uint64_t, std::vector<const uint8_t*>> ht;
            ht.reserve(build_rows.size());
            for (const uint8_t* row : build_rows) {
              ht[blayout.KeyCode(row, bkey)].push_back(row);
            }
            ctx.metrics().hash_build_seconds += build_timer.ElapsedSeconds();

            for (const uint8_t* prow : probe_rows) {
              // With outer joins the probe side is always the left relation.
              if (playout.IsNull(prow, pkey)) {
                if (outer) emit_left_only(prow);
                continue;
              }
              auto it = ht.find(playout.KeyCode(prow, pkey));
              bool matched = false;
              if (it != ht.end()) {
                for (const uint8_t* brow : it->second) {
                  if (verify &&
                      !KeysReallyEqual(blayout.GetValue(brow, bkey),
                                       playout.GetValue(prow, pkey))) {
                    continue;
                  }
                  matched = true;
                  if (build_left) {
                    emit(brow, prow);
                  } else {
                    emit(prow, brow);
                  }
                }
              }
              if (outer && !matched) emit_left_only(prow);
            }
          }
          out->SetRowCount(out->column(0).size());
          sink.Emit(ctx, rp, std::move(out));
          return Status::OK();
        },
        {}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(reduce));
  metrics.MergeStage(sm);
  cluster.shuffle().Release(lshuffle);
  cluster.shuffle().Release(rshuffle);
  return sink.Finish();
}

// ---- HashAggExec ------------------------------------------------------------

Result<TableHandle> HashAggExec::ExecuteImpl(Session& session,
                                             QueryMetrics& metrics) const {
  using agg_internal::ChunkRun;
  using agg_internal::PartialAggregator;
  using agg_internal::ResolvedAggs;

  Cluster& cluster = session.cluster();
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(ResolvedAggs resolved,
                       ResolvedAggs::Resolve(*in.schema, group_by_, aggs_));

  const uint32_t R = resolved.group_idx.empty() ? 1 : in.num_partitions;
  const uint64_t shuffle_id =
      cluster.shuffle().NewShuffle(in.num_partitions, R);

  // ---- partial aggregation per input partition ----
  StageSpec partial_stage;
  partial_stage.name = "partial aggregate";
  for (uint32_t p = 0; p < in.num_partitions; ++p) {
    partial_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(in.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, in, p));
          ctx.metrics().rows_read += chunk->num_rows();

          PartialAggregator partials(resolved, aggs_);
          partials.Add(ChunkRun(*chunk));
          return ShufflePartials(ctx, shuffle_id, p, R, partials);
        },
        {{in.rdd_id, p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics psm, cluster.RunStage(partial_stage));
  metrics.MergeStage(psm);

  IDF_ASSIGN_OR_RETURN(
      TableHandle out,
      FinalizeAggregation(session, metrics, shuffle_id, R, aggs_, resolved));
  cluster.shuffle().Release(shuffle_id);
  return out;
}

Status ShufflePartials(TaskContext& ctx, uint64_t shuffle_id,
                       uint32_t map_partition, uint32_t R,
                       const agg_internal::PartialAggregator& partials) {
  const agg_internal::ResolvedAggs& resolved = partials.resolved();
  const RowLayout partial_layout(resolved.partial_schema);
  std::vector<ShuffleBuffer> buffers(R);
  std::vector<uint8_t> scratch;
  IDF_RETURN_IF_ERROR(partials.ForEachPartial(
      [&](uint64_t code, const RowVec& row) -> Status {
        const uint32_t rp =
            resolved.group_idx.empty() ? 0 : HashPartition(code, R);
        IDF_ASSIGN_OR_RETURN(uint32_t size,
                             partial_layout.ComputeRowSize(row));
        scratch.resize(size);
        partial_layout.EncodeRow(row, scratch.data(), PackedRowPtr::Null());
        buffers[rp].AppendRow(scratch.data(), size);
        return Status::OK();
      }));
  for (uint32_t rp = 0; rp < R; ++rp) {
    if (buffers[rp].num_rows == 0) continue;
    buffers[rp].source = ctx.executor();
    ctx.metrics().shuffle_bytes_written += buffers[rp].bytes.size();
    ctx.cluster().shuffle().PutMapOutput(shuffle_id, map_partition, rp,
                                         std::move(buffers[rp]));
  }
  return Status::OK();
}

Result<TableHandle> FinalizeAggregation(
    Session& session, QueryMetrics& metrics, uint64_t shuffle_id, uint32_t R,
    const std::vector<AggSpec>& aggs,
    const agg_internal::ResolvedAggs& resolved) {
  using agg_internal::Accum;
  using agg_internal::FindOrCreateGroup;
  using agg_internal::GroupMap;
  using agg_internal::GroupState;

  Cluster& cluster = session.cluster();
  RowLayout partial_layout(resolved.partial_schema);
  const SchemaPtr& out_schema = resolved.output_schema;

  TableSink sink(session, out_schema, R);
  StageSpec final_stage;
  final_stage.name = "final aggregate";
  for (uint32_t rp = 0; rp < R; ++rp) {
    final_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(sink.rdd_id(), rp),
        {},
        0,
        [&, rp](TaskContext& ctx) -> Status {
          GroupMap groups;
          for (const auto& buf : ctx.FetchShuffleInputs(shuffle_id, rp)) {
            ShuffleBufferReader reader(*buf);
            while (reader.HasNext()) {
              const uint8_t* row = reader.Next();
              RowVec partial = partial_layout.DecodeRow(row);
              RowVec key;
              std::vector<Accum> others;
              resolved.DecodePartial(partial, &key, &others);
              GroupState& state =
                  FindOrCreateGroup(groups, std::move(key), aggs.size());
              for (size_t a = 0; a < aggs.size(); ++a) {
                state.accums[a].Merge(aggs[a], others[a]);
              }
            }
          }

          auto out = std::make_shared<ColumnarChunk>(out_schema);
          for (const auto& [code, bucket] : groups) {
            for (const GroupState& state : bucket) {
              RowVec row = state.group_values;
              for (size_t a = 0; a < aggs.size(); ++a) {
                row.push_back(
                    state.accums[a].Finish(aggs[a], resolved.agg_type[a]));
              }
              IDF_RETURN_IF_ERROR(out->AppendRow(row));
            }
          }
          // Global aggregates emit one row even for empty input.
          if (resolved.group_idx.empty() && groups.empty()) {
            RowVec row;
            for (size_t a = 0; a < aggs.size(); ++a) {
              row.push_back(Accum{}.Finish(aggs[a], resolved.agg_type[a]));
            }
            IDF_RETURN_IF_ERROR(out->AppendRow(row));
          }
          sink.Emit(ctx, rp, std::move(out));
          return Status::OK();
        },
        {}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics fsm, cluster.RunStage(final_stage));
  metrics.MergeStage(fsm);
  return sink.Finish();
}

// ---- UnionExec ------------------------------------------------------------

Result<TableHandle> UnionExec::ExecuteImpl(Session& session,
                                           QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  IDF_ASSIGN_OR_RETURN(TableHandle lh, children_[0]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(TableHandle rh, children_[1]->Execute(session, metrics));
  if (*lh.schema != *rh.schema) {
    return Status::InvalidArgument("UNION sides have different schemas");
  }

  // Zero-copy: register the existing chunks under the output RDD id. The
  // stage exists so the re-homing shows up in scheduling like any other op.
  TableSink sink(session, lh.schema, lh.num_partitions + rh.num_partitions);
  StageSpec stage;
  stage.name = "union";
  auto add_side = [&](const TableHandle& side, uint32_t offset) {
    for (uint32_t p = 0; p < side.num_partitions; ++p) {
      stage.tasks.push_back(TaskSpec{
          cluster.HomeExecutorFor(side.rdd_id, p),
          {},
          0,
          [&, p, offset, side](TaskContext& ctx) -> Status {
            Result<ChunkPtr> chunk = FetchChunk(ctx, side, p);
            IDF_RETURN_IF_ERROR(chunk.status());
            // Re-emitting an already-sealed chunk: SealForCache keeps the
            // first identity, so the pass-through costs nothing.
            sink.Emit(ctx, offset + p, *chunk);
            return Status::OK();
          },
          {{side.rdd_id, p}}});
    }
  };
  add_side(lh, 0);
  add_side(rh, lh.num_partitions);
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
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

Result<TableHandle> SortExec::ExecuteImpl(Session& session,
                                          QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));
  std::vector<size_t> key_idx;
  for (const SortKey& key : keys_) {
    IDF_ASSIGN_OR_RETURN(size_t idx, in.schema->FieldIndex(key.column));
    key_idx.push_back(idx);
  }

  TableSink sink(session, in.schema, 1);
  StageSpec stage;
  stage.name = "sort";
  std::vector<PartitionInput> all_inputs;
  for (uint32_t p = 0; p < in.num_partitions; ++p) {
    all_inputs.push_back({in.rdd_id, p});
  }
  stage.tasks.push_back(TaskSpec{
      cluster.AliveExecutors().front(),
      {},
      0,
      [&](TaskContext& ctx) -> Status {
        // Gather (chunk, row) references across all partitions, then sort.
        // The chunks outlive the scope, so it unpins them while they live.
        std::vector<ChunkPtr> chunks;
        // One task touches every partition; pin them all for the sort.
        mem::AccessScope scope;
        std::vector<std::pair<uint32_t, uint32_t>> refs;
        for (uint32_t p = 0; p < in.num_partitions; ++p) {
          Result<ChunkPtr> chunk = FetchChunk(ctx, in, p);
          IDF_RETURN_IF_ERROR(chunk.status());
          const uint32_t ci = static_cast<uint32_t>(chunks.size());
          for (size_t i = 0; i < (*chunk)->num_rows(); ++i) {
            refs.emplace_back(ci, static_cast<uint32_t>(i));
          }
          chunks.push_back(std::move(*chunk));
        }
        ctx.metrics().rows_read += refs.size();

        std::stable_sort(
            refs.begin(), refs.end(),
            [&](const auto& a, const auto& b) {
              for (size_t k = 0; k < key_idx.size(); ++k) {
                const Value va = chunks[a.first]->ValueAt(a.second, key_idx[k]);
                const Value vb = chunks[b.first]->ValueAt(b.second, key_idx[k]);
                const int cmp = va.Compare(vb);
                if (cmp != 0) return keys_[k].descending ? cmp > 0 : cmp < 0;
              }
              return false;
            });

        auto out = std::make_shared<ColumnarChunk>(in.schema);
        for (const auto& [ci, ri] : refs) {
          AppendRowCopy(*out, *chunks[ci], ri);
        }
        out->SetRowCount(out->column(0).size());
        sink.Emit(ctx, 0, std::move(out));
        return Status::OK();
      },
      all_inputs});
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

// ---- LimitExec ------------------------------------------------------------

Result<TableHandle> LimitExec::ExecuteImpl(Session& session,
                                           QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  IDF_ASSIGN_OR_RETURN(TableHandle in, child()->Execute(session, metrics));

  TableSink sink(session, in.schema, 1);
  StageSpec stage;
  stage.name = "limit";
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
        uint64_t taken = 0;
        for (uint32_t p = 0; p < in.num_partitions && taken < limit_; ++p) {
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, in, p));
          const ColumnarChunk& input = *chunk;
          for (size_t i = 0; i < input.num_rows() && taken < limit_;
               ++i, ++taken) {
            AppendRowCopy(*out, input, i);
          }
        }
        out->SetRowCount(out->column(0).size());
        sink.Emit(ctx, 0, std::move(out));
        return Status::OK();
      },
      all_inputs});
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

}  // namespace idf
