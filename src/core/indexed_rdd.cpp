#include "core/indexed_rdd.h"

#include <algorithm>

#include "common/logging.h"
#include "mem/governor.h"
#include "sql/physical.h"

namespace idf {

namespace {

/// Inserts a reduce task's routed rows, in map-task order, into `part` as one
/// grouped insert, after one ReserveHint for all of their bytes so batch
/// opens size off the whole input.
Status InsertShuffleInputs(const ShuffleInputs& inputs,
                           IndexedPartition& part) {
  size_t num_rows = 0;
  uint64_t routed_bytes = 0;
  for (const auto& buf : inputs) {
    num_rows += buf->num_rows;
    routed_bytes += buf->bytes.size();
  }
  part.ReserveHint(routed_bytes);
  std::vector<const uint8_t*> rows;
  rows.reserve(num_rows);
  for (const auto& buf : inputs) buf->SplitRows(rows);
  return part.InsertEncodedRows(rows);
}

}  // namespace

IndexedRdd::IndexedRdd(Session& session, TableHandle base, size_t key_column,
                       uint32_t num_partitions, uint32_t batch_capacity)
    : session_(&session),
      lease_(session.cluster().NewRdd()),
      rdd_id_(lease_->rdd()),
      base_(std::move(base)),
      schema_(base_.schema),
      key_column_(key_column),
      num_partitions_(num_partitions),
      batch_capacity_(batch_capacity) {}

Result<std::shared_ptr<IndexedRdd>> IndexedRdd::Create(
    Session& session, const TableHandle& base, size_t key_column,
    const IndexOptions& options, QueryMetrics& metrics) {
  if (key_column >= base.schema->num_fields()) {
    return Status::InvalidArgument("index column out of range");
  }
  uint32_t partitions = options.num_partitions != 0
                            ? options.num_partitions
                            : session.options().default_partitions;
  auto rdd = std::shared_ptr<IndexedRdd>(new IndexedRdd(
      session, base, key_column, partitions, options.batch_capacity));
  IDF_RETURN_IF_ERROR(rdd->BuildBase(metrics));

  // Lineage: a lost partition of any version is rebuilt from the base table
  // plus the append chain.
  session.cluster().RegisterLineage(
      rdd->rdd_id_,
      [weak = std::weak_ptr<IndexedRdd>(rdd)](
          uint32_t partition, uint64_t version,
          TaskContext& ctx) -> Result<BlockPtr> {
        auto self = weak.lock();
        if (self == nullptr) {
          return Status::Unavailable("indexed RDD no longer exists");
        }
        return self->Recompute(partition, version, ctx);
      });
  return rdd;
}

Status IndexedRdd::ShuffleToPartitions(
    const TableHandle& source, const std::string& stage_name,
    QueryMetrics& metrics,
    const std::function<Status(TaskContext&, uint32_t, const ShuffleInputs&)>&
        consume) {
  if (*source.schema != *schema_) {
    return Status::InvalidArgument(
        "appended rows must match the indexed schema: " + schema_->ToString() +
        " vs " + source.schema->ToString());
  }
  // Map: route rows to their indexed partitions by key-code hash (§III-C
  // "its rows are shuffled based on the hash partitioning scheme"). Reduce:
  // each partition consumes everything routed to it.
  RowLayout layout(schema_);
  return session_->cluster().RunExchange(
      ExchangeSpec{
          {ShuffleByKey(session_->cluster(), metrics, stage_name + " (shuffle)",
                        source, key_column_, layout,
                        [this](std::optional<uint64_t> code) {
                          return TargetOf(code);
                        })},
          stage_name + " (insert)",
          num_partitions_,
          rdd_id_,
          /*reduce_reads_rdd=*/true,
          [&](TaskContext& ctx, uint32_t t,
              const std::vector<ShuffleInputs>& inputs) -> Status {
            return consume(ctx, t, inputs[0]);
          }},
      metrics);
}

Status IndexedRdd::BuildBase(QueryMetrics& metrics) {
  std::atomic<uint64_t> total_rows{0};
  IDF_RETURN_IF_ERROR(ShuffleToPartitions(
      base_, "createIndex", metrics,
      [&](TaskContext& ctx, uint32_t partition,
          const ShuffleInputs& inputs) -> Status {
        auto part = std::make_shared<IndexedPartition>(schema_, key_column_,
                                                       batch_capacity_);
        part->SetSpillTag(rdd_id_, partition);
        IDF_RETURN_IF_ERROR(InsertShuffleInputs(inputs, *part));
        total_rows += part->num_rows();
        ctx.metrics().rows_written += part->num_rows();
        part->SealStorage();  // built: evictable from here on
        ctx.cluster().blocks().Put(BlockId{rdd_id_, partition, 0},
                                   ctx.executor(), part);
        return Status::OK();
      }));
  std::lock_guard<std::mutex> lock(mutex_);
  versions_[0] = VersionInfo{0, TableHandle{}, total_rows.load()};
  return Status::OK();
}

Result<uint64_t> IndexedRdd::Append(uint64_t parent_version,
                                    const TableHandle& rows,
                                    QueryMetrics& metrics) {
  uint64_t new_version;
  uint64_t parent_rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = versions_.find(parent_version);
    if (it == versions_.end()) {
      return Status::NotFound("unknown parent version " +
                              std::to_string(parent_version));
    }
    parent_rows = it->second.num_rows;
    new_version = next_version_++;
  }

  std::atomic<uint64_t> appended{0};
  Status status = ShuffleToPartitions(
      rows, "appendRows", metrics,
      [&](TaskContext& ctx, uint32_t partition,
          const ShuffleInputs& inputs) -> Status {
        // Fetch the parent partition, snapshot it (O(1), shared state), and
        // insert the routed rows into the snapshot (§III-E).
        IDF_ASSIGN_OR_RETURN(
            std::shared_ptr<const IndexedPartition> parent,
            GetPartition(partition, parent_version, ctx));
        std::shared_ptr<IndexedPartition> next = parent->Snapshot();
        ++ctx.metrics().ctrie_snapshots;
        IDF_RETURN_IF_ERROR(InsertShuffleInputs(inputs, *next));
        // `next` starts with zero COW opens, so this is exactly the number
        // of sealed-tail divergences caused by this append (Fig. 9).
        ctx.metrics().batch_copies += next->cow_batch_opens();
        uint64_t inserted = 0;
        for (const auto& buf : inputs) inserted += buf->num_rows;
        appended += inserted;
        ctx.metrics().rows_written += inserted;
        next->SealStorage();  // built: evictable from here on
        ctx.cluster().blocks().Put(BlockId{rdd_id_, partition, new_version},
                                   ctx.executor(), std::move(next));
        return Status::OK();
      });
  if (!status.ok()) {
    // Unwind a failed (or cancelled) append: reduce tasks that completed
    // before the stage aborted have already published blocks at the new
    // version. The version is never registered, so no reader can reach
    // them — drop them now so they don't hold memory or shadow a future
    // append that mints a fresh version. Shared state stays exactly as it
    // was before this call.
    session_->cluster().blocks().DropVersion(rdd_id_, new_version);
    return status;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  versions_[new_version] =
      VersionInfo{parent_version, rows, parent_rows + appended.load()};
  return new_version;
}

Result<std::shared_ptr<const IndexedPartition>> IndexedRdd::GetPartition(
    uint32_t partition, uint64_t version, TaskContext& ctx) const {
  IDF_ASSIGN_OR_RETURN(
      BlockPtr block,
      ctx.cluster().GetOrCompute(BlockId{rdd_id_, partition, version}, ctx));
  auto part = std::dynamic_pointer_cast<const IndexedPartition>(block);
  IDF_CHECK_MSG(part != nullptr, "block is not an indexed partition");
  return part;
}

Status IndexedRdd::ForEachPartition(
    const std::string& stage_name, uint64_t version, QueryMetrics& metrics,
    const std::function<Status(TaskContext&, uint32_t,
                               const IndexedPartition&)>& body) const {
  Cluster& cluster = session_->cluster();
  StageSpec stage;
  stage.name = stage_name;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd_id_, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                               GetPartition(p, version, ctx));
          return body(ctx, p, *part);
        },
        {{rdd_id_, p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return Status::OK();
}

uint64_t IndexedRdd::RowsAtVersion(uint64_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = versions_.find(version);
  IDF_CHECK_MSG(it != versions_.end(), "unknown version");
  return it->second.num_rows;
}

std::vector<uint64_t> IndexedRdd::Versions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> out;
  for (const auto& [v, info] : versions_) out.push_back(v);
  return out;
}

Result<ShuffleInputs> IndexedRdd::RouteRows(const TableHandle& table,
                                            uint32_t partition,
                                            TaskContext& ctx) const {
  RowLayout layout(schema_);
  auto routed = std::make_shared<ShuffleBuffer>();
  for (uint32_t p = 0; p < table.num_partitions; ++p) {
    // Per-chunk scope: pins at most one source chunk at a time, so a tight
    // budget never needs the whole table resident to rebuild one partition.
    ChunkPtr chunk;  // outlives the scope, which unpins it
    mem::AccessScope chunk_scope;
    IDF_ASSIGN_OR_RETURN(chunk, FetchChunk(ctx, table, p));
    IDF_RETURN_IF_ERROR(RouteByKey(
        *chunk, key_column_, layout,
        [&](std::optional<uint64_t> code) {
          return TargetOf(code) == partition ? partition : kDropRow;
        },
        [&](uint32_t, const uint8_t* row, uint32_t size) {
          routed->AppendRow(row, size);
        }));
  }
  return ShuffleInputs{std::move(routed)};
}

Result<BlockPtr> IndexedRdd::Recompute(uint32_t partition, uint64_t version,
                                       TaskContext& ctx) const {
  // Collect the append chain root -> version.
  std::vector<TableHandle> appends;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t v = version;
    while (v != 0) {
      auto it = versions_.find(v);
      if (it == versions_.end()) {
        return Status::NotFound("recompute of unknown version " +
                                std::to_string(v));
      }
      appends.push_back(it->second.append_source);
      v = it->second.parent;
    }
  }
  std::reverse(appends.begin(), appends.end());

  IDF_LOG_INFO("re-indexing partition %u of rdd %llu at version %llu "
               "(replaying %zu appends)",
               partition, static_cast<unsigned long long>(rdd_id_),
               static_cast<unsigned long long>(version), appends.size());

  auto part = std::make_shared<IndexedPartition>(schema_, key_column_,
                                                 batch_capacity_);
  part->SetSpillTag(rdd_id_, partition);
  // The build's reduce task held every routed row before its one grouped
  // insert; holding them here too reproduces its batch layout exactly.
  IDF_ASSIGN_OR_RETURN(ShuffleInputs base_rows,
                       RouteRows(base_, partition, ctx));
  IDF_RETURN_IF_ERROR(InsertShuffleInputs(base_rows, *part));
  // The build sealed version 0 before any append landed: seal here too,
  // so no replayed append row shares a batch with base rows.
  part->SealStorage();
  for (const TableHandle& append : appends) {
    IDF_ASSIGN_OR_RETURN(ShuffleInputs routed,
                         RouteRows(append, partition, ctx));
    IDF_RETURN_IF_ERROR(InsertShuffleInputs(routed, *part));
  }
  part->SealStorage();  // rebuilt: evictable from here on
  return BlockPtr(part);
}

// ---- IndexedDataset ---------------------------------------------------------

Result<Pipeline> IndexedDataset::Scan(Session&, QueryMetrics& metrics,
                                      const ColumnReads& reads) const {
  // Name only the fields the pipeline reads, in schema order.
  const Schema& full = *rdd_->schema();
  std::vector<size_t> fields;
  std::vector<Field> kept;
  for (size_t f = 0; f < full.num_fields(); ++f) {
    if (reads && std::find(reads->begin(), reads->end(),
                           full.field(f).name) == reads->end()) {
      continue;
    }
    fields.push_back(f);
    kept.push_back(full.field(f));
  }
  const SchemaPtr schema = fields.size() == full.num_fields()
                               ? rdd_->schema()
                               : std::make_shared<Schema>(std::move(kept));
  Pipeline pipeline{schema, rdd_->num_partitions(), nullptr, std::nullopt};
  pipeline.run = [&metrics, rdd = rdd_, version = version_, schema,
                  fields](const Pipe& down) {
    return rdd->ForEachPartition(
        "indexed fallback scan", version, metrics,
        [&](TaskContext& ctx, uint32_t p, const IndexedPartition& part) {
          std::unique_ptr<ChunkConsumer> consumer = down.Open(ctx, p);
          // Each batch goes on as one row block while ForEachBatch pins it
          // alone. The first consumer that needs columns decodes it — the
          // row-to-columnar conversion that is the real cost of regular
          // operators over the row-wise indexed representation (Fig. 8);
          // the partial aggregate folds the rows as they are.
          std::vector<const uint8_t*> rows;
          part.ForEachBatch([&](const uint8_t* data, uint32_t used) {
            rows.clear();
            IDF_CHECK_MSG(RowLayout::SplitRows(data, used, rows),
                          "corrupt row batch");
            if (rows.empty()) return;
            consumer->ConsumeRows(ctx,
                                  RowBlock{part.layout(), rows, fields, schema});
          });
          ctx.metrics().rows_read += part.num_rows();
          return consumer->Commit(ctx);
        });
  };
  return pipeline;
}

}  // namespace idf
