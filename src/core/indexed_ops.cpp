#include "core/indexed_ops.h"

#include "common/timer.h"
#include "mem/governor.h"
#include "sql/session.h"

namespace idf {

namespace {

/// Appends one joined output row from an indexed binary row and a probe
/// binary row, respecting the logical left/right order.
void EmitJoined(ColumnarChunk& out, const RowLayout& indexed_layout,
                const uint8_t* indexed_row, const RowLayout& probe_layout,
                const uint8_t* probe_row, bool indexed_is_left) {
  // AppendColumnsFromBinary equivalent lives in sql/physical.cpp as a local
  // helper; re-implemented here over the public chunk API.
  auto append_side = [&](size_t offset, const RowLayout& layout,
                         const uint8_t* row) {
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
        case TypeId::kString:
          dst.AppendString(layout.GetString(row, c));
          break;
      }
    }
  };
  if (indexed_is_left) {
    append_side(0, indexed_layout, indexed_row);
    append_side(indexed_layout.schema().num_fields(), probe_layout, probe_row);
  } else {
    append_side(0, probe_layout, probe_row);
    append_side(probe_layout.schema().num_fields(), indexed_layout,
                indexed_row);
  }
}

}  // namespace

Result<TableHandle> IndexedJoinExec::ExecuteImpl(Session& session,
                                                 QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  const uint64_t version = indexed_->version();
  const uint32_t P = rdd->num_partitions();

  IDF_ASSIGN_OR_RETURN(TableHandle probe,
                       children_[0]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(size_t probe_key, probe.schema->FieldIndex(probe_key_));
  RowLayout probe_layout(probe.schema);

  const Schema& indexed_schema = *rdd->schema();
  const size_t key_col = rdd->key_column();
  auto out_schema = std::make_shared<Schema>(
      indexed_is_left_ ? indexed_schema.ConcatForJoin(*probe.schema)
                       : probe.schema->ConcatForJoin(indexed_schema));
  const bool verify =
      KeyCodeNeedsVerify(indexed_schema.field(key_col).type) ||
      KeyCodeNeedsVerify(probe.schema->field(probe_key).type);

  TableSink sink(session, out_schema, P);

  // Zero-allocation key verification: string keys compare their raw bytes,
  // everything else falls back to boxed Value equality (doubles).
  const bool both_strings =
      indexed_schema.field(key_col).type == TypeId::kString &&
      probe.schema->field(probe_key).type == TypeId::kString;
  auto keys_equal = [&](const RowLayout& ilayout, const uint8_t* irow,
                        const uint8_t* prow) {
    if (both_strings) {
      return ilayout.GetString(irow, key_col) ==
             probe_layout.GetString(prow, probe_key);
    }
    return ilayout.GetValue(irow, key_col) ==
           probe_layout.GetValue(prow, probe_key);
  };

  // Probe task shared logic: probe rows (encoded) against one partition.
  auto probe_partition = [&](TaskContext& ctx, uint32_t p,
                             const std::vector<const uint8_t*>& probe_rows,
                             ColumnarChunk& out) -> Status {
    IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                         rdd->GetPartition(p, version, ctx));
    // Pin every batch this probe touches for the whole task: under a memory
    // budget the governor must not evict a batch between two probes of the
    // same partition (each chain walk would otherwise re-fault it).
    mem::AccessScope probe_scope;
    const RowLayout& indexed_layout = part->layout();
    for (const uint8_t* prow : probe_rows) {
      if (probe_layout.IsNull(prow, probe_key)) continue;
      const uint64_t code = probe_layout.KeyCode(prow, probe_key);
      ++ctx.metrics().index_probes;
      uint64_t matched = 0;
      part->ForEachRowOfKey(code, [&](const uint8_t* irow) {
        if (verify && !keys_equal(indexed_layout, irow, prow)) return;
        ++matched;
        EmitJoined(out, indexed_layout, irow, probe_layout, prow,
                   indexed_is_left_);
      });
      // A probe "hits" when it joins at least one verified row — the hit
      // rate the paper reports alongside probe counts.
      if (matched > 0) ++ctx.metrics().index_hits;
    }
    return Status::OK();
  };

  if (probe.total_bytes <= session.options().broadcast_threshold_bytes) {
    // Broadcast path (§III-C: "if the Dataframe size is small enough to be
    // broadcasted efficiently, we fall back to a broadcast-based join").
    TaskContext driver_ctx(&cluster, cluster.AliveExecutors().front());
    std::vector<std::vector<uint8_t>> encoded_rows;
    // Bucket the broadcast probe rows by owning partition once, up front —
    // each partition then probes only the keys it owns.
    std::vector<std::vector<const uint8_t*>> buckets(P);
    for (uint32_t p = 0; p < probe.num_partitions; ++p) {
      // Per-chunk pin scope: the row loop reads the chunk many times and
      // must not re-fault it between rows under a tight budget.
      ChunkPtr chunk;  // outlives the scope, which unpins it
      mem::AccessScope bucket_scope;
      IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(driver_ctx, probe, p));
      std::vector<uint8_t> scratch;
      for (size_t i = 0; i < chunk->num_rows(); ++i) {
        if (chunk->column(probe_key).IsNull(i)) continue;
        chunk->EncodeRowTo(probe_layout, i, scratch);
        encoded_rows.push_back(scratch);
      }
    }
    for (const auto& row : encoded_rows) {
      const uint8_t* ptr = row.data();
      buckets[rdd->PartitionOf(probe_layout.KeyCode(ptr, probe_key))]
          .push_back(ptr);
    }
    cluster.simulator().Broadcast(probe.total_bytes);

    StageSpec stage;
    stage.name = "indexed join (broadcast probe)";
    for (uint32_t p = 0; p < P; ++p) {
      stage.tasks.push_back(TaskSpec{
          cluster.HomeExecutorFor(rdd->rdd_id(), p),
          {},
          0,
          [&, p](TaskContext& ctx) -> Status {
            const std::vector<const uint8_t*>& mine = buckets[p];
            ctx.metrics().rows_read += mine.size();
            auto out = std::make_shared<ColumnarChunk>(out_schema);
            IDF_RETURN_IF_ERROR(probe_partition(ctx, p, mine, *out));
            out->SetRowCount(out->column(0).size());
            sink.Emit(ctx, p, std::move(out));
            return Status::OK();
          },
          {{rdd->rdd_id(), p}}});
    }
    IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
    metrics.MergeStage(sm);
    return sink.Finish();
  }

  // Shuffle path: route probe rows to the indexed partitions (§III-C: "the
  // rows of the latter are shuffled according to the hash partitioning
  // scheme of the former").
  const uint64_t shuffle_id =
      cluster.shuffle().NewShuffle(probe.num_partitions, P);
  StageSpec map_stage;
  map_stage.name = "indexed join (probe shuffle)";
  for (uint32_t p = 0; p < probe.num_partitions; ++p) {
    map_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(probe.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          // `key_vec` is held across per-row encodes of the same chunk.
          ChunkPtr chunk;  // outlives the scope, which unpins it
          mem::AccessScope scope;
          IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, probe, p));
          const ColumnarChunk& input = *chunk;
          const ColumnVector& key_vec = input.column(probe_key);
          ctx.metrics().rows_read += input.num_rows();
          ShuffleWriter writer(cluster.shuffle(), shuffle_id, p, P,
                               ctx.executor(), input.num_rows());
          std::vector<uint8_t> scratch;  // reused across rows
          for (size_t i = 0; i < input.num_rows(); ++i) {
            if (key_vec.IsNull(i)) continue;
            const uint32_t target = rdd->PartitionOf(key_vec.KeyCodeAt(i));
            input.EncodeRowTo(probe_layout, i, scratch);
            writer.Append(target, scratch.data(),
                          static_cast<uint32_t>(scratch.size()));
          }
          writer.Finish();
          ctx.metrics().shuffle_bytes_written += writer.bytes_written();
          return Status::OK();
        },
        {{probe.rdd_id, p}}});
  }

  StageSpec reduce_stage;
  reduce_stage.name = "indexed join (local probe)";
  for (uint32_t p = 0; p < P; ++p) {
    reduce_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd->rdd_id(), p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          // Inputs fetched before the build partition, so the per-map
          // network reads precede the GetPartition transfer in the DES.
          const ShuffleInputs inputs = ctx.FetchShuffleInputs(shuffle_id, p);
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                               rdd->GetPartition(p, version, ctx));
          const RowLayout& indexed_layout = part->layout();
          auto out = std::make_shared<ColumnarChunk>(out_schema);
          for (const auto& buf : inputs) {
            ctx.metrics().rows_read += buf->num_rows;
            // Per-buffer pin scope: probed chain batches stay resident
            // across this buffer's rows.
            mem::AccessScope probe_scope;
            ShuffleBufferReader reader(*buf);
            while (reader.HasNext()) {
              const uint8_t* prow = reader.Next();
              const uint64_t code = probe_layout.KeyCode(prow, probe_key);
              ++ctx.metrics().index_probes;
              uint64_t matched = 0;
              part->ForEachRowOfKey(code, [&](const uint8_t* irow) {
                if (verify && !keys_equal(indexed_layout, irow, prow)) return;
                ++matched;
                EmitJoined(*out, indexed_layout, irow, probe_layout, prow,
                           indexed_is_left_);
              });
              if (matched > 0) ++ctx.metrics().index_hits;
            }
          }
          out->SetRowCount(out->column(0).size());
          sink.Emit(ctx, p, std::move(out));
          return Status::OK();
        },
        {{rdd->rdd_id(), p}}});
  }
  Result<StageMetrics> map_metrics = cluster.RunStage(map_stage);
  Result<StageMetrics> reduce_metrics =
      map_metrics.ok() ? cluster.RunStage(reduce_stage) : map_metrics.status();
  cluster.shuffle().Release(shuffle_id);
  IDF_RETURN_IF_ERROR(reduce_metrics.status());
  metrics.MergeStage(*map_metrics);
  metrics.MergeStage(*reduce_metrics);
  return sink.Finish();
}

Result<TableHandle> IndexLookupExec::ExecuteImpl(Session& session,
                                                 QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  if (key_.is_null()) {
    return Status::InvalidArgument("index lookup with NULL key");
  }

  ExprPtr residual;
  if (residual_ != nullptr) {
    IDF_ASSIGN_OR_RETURN(residual, residual_->Resolve(*rdd->schema()));
  }

  // The lookup runs on exactly one partition — the one owning the key
  // (§III-C: "a lookup operation is scheduled on the Spark partition
  // responsible for holding that key").
  const uint32_t p = rdd->PartitionOf(IndexKeyCode(key_));
  const size_t key_col = rdd->key_column();
  const bool verify = KeyCodeNeedsVerify(key_.type());

  TableSink sink(session, rdd->schema(), 1);
  StageSpec stage;
  stage.name = "index lookup";
  stage.tasks.push_back(TaskSpec{
      cluster.HomeExecutorFor(rdd->rdd_id(), p),
      {},
      0,
      [&](TaskContext& ctx) -> Status {
        IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                             rdd->GetPartition(p, indexed_->version(), ctx));
        mem::AccessScope lookup_scope;  // pin chain batches for the lookup
        const RowLayout& layout = part->layout();
        ++ctx.metrics().index_probes;

        ChunkBuilder builder(rdd->schema());
        uint64_t matched = 0;
        part->ForEachRowOfKey(IndexKeyCode(key_), [&](const uint8_t* row) {
          if (verify && !(layout.GetValue(row, key_col) == key_)) return;
          if (residual != nullptr) {
            BinaryRowAccessor accessor(layout, row);
            const Value keep = residual->Eval(accessor);
            if (keep.is_null() || !keep.bool_value()) return;
          }
          ++matched;
          builder.AddEncodedRow(layout, row);
        });
        if (matched > 0) ++ctx.metrics().index_hits;
        sink.Emit(ctx, 0, builder.Finish());
        return Status::OK();
      },
      {{rdd->rdd_id(), p}}});
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

}  // namespace idf
