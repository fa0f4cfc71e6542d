#include "core/indexed_ops.h"

#include "common/timer.h"
#include "mem/governor.h"
#include "sql/session.h"

namespace idf {

Result<Pipeline> IndexedJoinExec::OpenImpl(Session& session,
                                           QueryMetrics& metrics,
                                           const ColumnReads& reads) const {
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  IDF_ASSIGN_OR_RETURN(TableHandle probe,
                       children_[0]->Execute(session, metrics));
  IDF_ASSIGN_OR_RETURN(size_t probe_key, probe.schema->FieldIndex(probe_key_));
  const Schema& indexed_schema = *rdd->schema();
  JoinColumns columns =
      indexed_is_left_
          ? NarrowJoinColumns(indexed_schema, rdd->key_column(),
                              *probe.schema, probe_key, JoinType::kInner,
                              reads)
          : NarrowJoinColumns(*probe.schema, probe_key, indexed_schema,
                              rdd->key_column(), JoinType::kInner, reads);
  Pipeline out{columns.schema, rdd->num_partitions(), nullptr, std::nullopt};
  out.run = [this, &session, &metrics, probe, probe_key,
             columns = std::move(columns)](const Pipe& down) {
    return Run(session, probe, probe_key, columns, down, metrics);
  };
  return out;
}

Status IndexedJoinExec::Run(Session& session, const TableHandle& probe,
                            size_t probe_key, const JoinColumns& out,
                            const Pipe& down, QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  const uint64_t version = indexed_->version();
  const uint32_t P = rdd->num_partitions();
  RowLayout probe_layout(probe.schema);

  // Probes one encoded row against a partition; matched pairs collect in
  // `decoder`, whose left side is the join's left relation.
  auto probe_row = [&](TaskContext& ctx, const IndexedPartition& part,
                       const uint8_t* prow, JoinedRowDecoder& decoder) {
    ++ctx.metrics().index_probes;
    const size_t matched =
        part.ForEachMatch(probe_layout, prow, probe_key,
                          [&](const uint8_t* irow) {
                            if (indexed_is_left_) {
                              decoder.Add(irow, prow);
                            } else {
                              decoder.Add(prow, irow);
                            }
                          });
    // A probe "hits" when it joins at least one verified row — the hit
    // rate the paper reports alongside probe counts.
    if (matched > 0) ++ctx.metrics().index_hits;
  };
  // Each decoded block of matches pushes on into `consumer`.
  auto make_decoder = [&](TaskContext& ctx, const IndexedPartition& part,
                          ChunkConsumer& consumer) {
    auto emit = [&ctx, &consumer](std::shared_ptr<ColumnarChunk> block) {
      consumer.Consume(ctx, std::move(block));
    };
    return indexed_is_left_
               ? JoinedRowDecoder(part.layout(), out.left, probe_layout,
                                  out.right, out.schema, emit)
               : JoinedRowDecoder(probe_layout, out.left, part.layout(),
                                  out.right, out.schema, emit);
  };
  // Probe rows go to the partition owning their key; a null key matches
  // nothing.
  auto probe_target = [&](std::optional<uint64_t> code) {
    return code ? rdd->PartitionOf(*code) : kDropRow;
  };

  if (probe.total_bytes <= session.options().broadcast_threshold_bytes) {
    // Broadcast path (§III-C: "if the Dataframe size is small enough to be
    // broadcasted efficiently, we fall back to a broadcast-based join").
    TaskContext driver_ctx(&cluster, cluster.AliveExecutors().front());
    std::vector<uint8_t> encoded;  // the probe rows, back to back
    // Bucket the broadcast probe rows by owning partition once, up front —
    // each partition then probes only the keys it owns. A bucket holds
    // offsets: `encoded` grows until every row is in.
    std::vector<std::vector<size_t>> buckets(P);
    for (uint32_t p = 0; p < probe.num_partitions; ++p) {
      // Per-chunk pin scope: the key column is read across the encode.
      ChunkPtr chunk;  // outlives the scope, which unpins it
      mem::AccessScope bucket_scope;
      IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(driver_ctx, probe, p));
      IDF_RETURN_IF_ERROR(RouteByKey(
          *chunk, probe_key, probe_layout, probe_target,
          [&](uint32_t t, const uint8_t* row, uint32_t size) {
            buckets[t].push_back(encoded.size());
            encoded.insert(encoded.end(), row, row + size);
          }));
    }
    cluster.simulator().Broadcast(probe.total_bytes);

    return rdd->ForEachPartition(
        "indexed join (broadcast probe)", version, metrics,
        [&](TaskContext& ctx, uint32_t p, const IndexedPartition& part) {
          const std::vector<size_t>& mine = buckets[p];
          ctx.metrics().rows_read += mine.size();
          std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, p);
          JoinedRowDecoder decoder = make_decoder(ctx, part, *consumer);
          {
            // Pin every batch this probe touches until the matches are
            // decoded: under a memory budget the governor must not evict a
            // batch between two probes of the same partition (each chain
            // walk would otherwise re-fault it).
            mem::AccessScope probe_scope;
            for (size_t offset : mine) {
              probe_row(ctx, part, encoded.data() + offset, decoder);
            }
            decoder.Flush();
          }
          return consumer->Commit(ctx);
        });
  }

  // Shuffle path: route probe rows to the indexed partitions (§III-C: "the
  // rows of the latter are shuffled according to the hash partitioning
  // scheme of the former").
  return cluster.RunExchange(
      ExchangeSpec{
          {ShuffleByKey(cluster, metrics, "indexed join (probe shuffle)",
                        probe, probe_key, probe_layout, probe_target)},
          "indexed join (local probe)",
          P,
          rdd->rdd_id(),
          /*reduce_reads_rdd=*/true,
          [&](TaskContext& ctx, uint32_t p,
              const std::vector<ShuffleInputs>& inputs) -> Status {
            // The exchange fetched the inputs before the build partition,
            // so the per-map network reads precede the GetPartition
            // transfer in the DES.
            IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                                 rdd->GetPartition(p, version, ctx));
            std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, p);
            JoinedRowDecoder decoder = make_decoder(ctx, *part, *consumer);
            for (const auto& buf : inputs[0]) {
              ctx.metrics().rows_read += buf->num_rows;
              // Per-buffer pin scope: probed chain batches stay resident
              // across this buffer's rows until their matches are decoded.
              mem::AccessScope probe_scope;
              buf->ForEachRow([&](const uint8_t* prow) {
                probe_row(ctx, *part, prow, decoder);
              });
              decoder.Flush();
            }
            return consumer->Commit(ctx);
          }},
      metrics);
}

Result<Pipeline> IndexLookupExec::OpenImpl(Session& session,
                                           QueryMetrics& metrics,
                                           const ColumnReads&) const {
  const std::shared_ptr<IndexedRdd>& rdd = indexed_->rdd();
  if (key_.is_null()) {
    return Status::InvalidArgument("index lookup with NULL key");
  }
  // The key, encoded once: the lookup is a probe batch of one. A key no
  // stored row can hold (past the row bound) matches nothing.
  Pipeline out{rdd->schema(), 1, nullptr, std::nullopt};
  out.run = [this, &session, &metrics, rdd,
             probe = LookupKey::Encode(key_)](const Pipe& down) {
    Cluster& cluster = session.cluster();
    // The lookup runs on exactly one partition — the one owning the key
    // (§III-C: "a lookup operation is scheduled on the Spark partition
    // responsible for holding that key").
    const uint32_t p = rdd->PartitionOf(IndexKeyCode(key_));

    StageSpec stage;
    stage.name = "index lookup";
    stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd->rdd_id(), p),
        {},
        0,
        [&](TaskContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(
              std::shared_ptr<const IndexedPartition> part,
              rdd->GetPartition(p, indexed_->version(), ctx));
          std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, 0);
          mem::AccessScope lookup_scope;  // pin chain batches for the lookup
          ++ctx.metrics().index_probes;

          std::vector<const uint8_t*> matched;
          if (probe.has_value()) {
            part->ForEachMatch(
                probe->layout(), probe->row(), 0,
                [&](const uint8_t* row) { matched.push_back(row); });
          }
          if (!matched.empty()) {
            ++ctx.metrics().index_hits;
            const RowLayout& layout = part->layout();
            const std::vector<size_t> fields = AllFields(layout.schema());
            consumer->ConsumeRows(
                ctx, RowBlock{layout, matched, fields, rdd->schema()});
          }
          return consumer->Commit(ctx);
        },
        {{rdd->rdd_id(), p}}});
    IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
    metrics.MergeStage(sm);
    return Status::OK();
  };
  return out;
}

}  // namespace idf
