#include "core/indexed_rdd.h"

#include <deque>
#include <fstream>

#include "common/logging.h"
#include "mem/governor.h"
#include "sql/physical.h"

namespace idf {

namespace {

/// Streams routed shuffle buffers into an IndexedPartition while keeping
/// the row-batch layout byte-identical to the classic barrier path, which
/// issued ONE ReserveHint(total_routed_bytes) before inserting anything.
///
/// Batch opens consume the store's hint: capacity = clamp(hint, row, cap)
/// (see PartitionStore). With one big up-front hint, every open grants the
/// full batch capacity until the hint remainder drops below it. Streaming
/// delivers hints per buffer, so the naive order (hint, insert, hint, ...)
/// would open under-sized batches mid-stream and change num_batches /
/// cow_batch_opens. The gate restores the invariant: rows are inserted only
/// while the undelivered hint credit (hinted - capacity granted since this
/// inserter started) covers a full batch, or once the stream is complete —
/// so every open sees either hint >= cap (grants cap, like the big-hint
/// path) or the exact final remainder (like the big-hint tail).
class GatedRowInserter {
 public:
  explicit GatedRowInserter(IndexedPartition& part)
      : part_(part),
        cap_(part.batch_capacity()),
        baseline_(part.allocated_bytes()) {}

  /// Accounts one routed buffer's hint and queues its rows for insertion.
  void Deliver(std::shared_ptr<const ShuffleBuffer> buf) {
    hinted_ += buf->bytes.size();
    part_.ReserveHint(buf->bytes.size());
    queue_.push_back(std::move(buf));
  }

  /// Inserts queued rows while the gate allows. Call with stream_done =
  /// false after each Deliver (overlap), then once with true at end of
  /// stream (flushes the tail under the exact-remainder hint).
  Status Drain(bool stream_done) {
    while (!queue_.empty()) {
      const ShuffleBuffer& buf = *queue_.front();
      while (cursor_ < buf.bytes.size()) {
        if (!stream_done) {
          const int64_t credit =
              static_cast<int64_t>(hinted_) -
              static_cast<int64_t>(part_.allocated_bytes() - baseline_);
          if (credit < static_cast<int64_t>(cap_)) return Status::OK();
        }
        const uint8_t* row = buf.bytes.data() + cursor_;
        const uint32_t size = RowLayout::RowSize(row);
        IDF_CHECK_MSG(size >= 16 && cursor_ + size <= buf.bytes.size(),
                      "corrupt shuffle buffer");
        IDF_RETURN_IF_ERROR(part_.InsertEncoded(row, size));
        cursor_ += size;
        ++rows_inserted_;
      }
      cursor_ = 0;
      queue_.pop_front();
    }
    return Status::OK();
  }

  uint64_t rows_inserted() const { return rows_inserted_; }

 private:
  IndexedPartition& part_;
  const uint32_t cap_;       // full batch capacity (gate threshold)
  const uint64_t baseline_;  // allocated_bytes at construction
  uint64_t hinted_ = 0;
  uint64_t rows_inserted_ = 0;
  size_t cursor_ = 0;  // byte offset into queue_.front()
  std::deque<std::shared_ptr<const ShuffleBuffer>> queue_;
};

/// Drives a GatedRowInserter from a routed-buffer stream to exhaustion.
Status InsertRoutedStream(RoutedBufferStream& in, GatedRowInserter& inserter) {
  for (;;) {
    IDF_ASSIGN_OR_RETURN(std::shared_ptr<const ShuffleBuffer> buf, in.Next());
    if (buf == nullptr) break;
    inserter.Deliver(std::move(buf));
    IDF_RETURN_IF_ERROR(inserter.Drain(/*stream_done=*/false));
  }
  return inserter.Drain(/*stream_done=*/true);
}

/// Replays one salvaged spill segment into `target`: the file holds the
/// batch's verbatim self-delimiting rows, and InsertEncoded re-derives the
/// index entries and back-pointer chains.
Status ReplaySalvageSegment(const mem::SalvageSegment& segment,
                            IndexedPartition& target) {
  std::ifstream in(segment.path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot open salvaged spill file '" +
                               segment.path + "'");
  }
  std::vector<uint8_t> bytes(segment.bytes);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in || in.gcount() != static_cast<std::streamsize>(bytes.size())) {
    return Status::Unavailable("short read from salvaged spill file '" +
                               segment.path + "'");
  }
  uint64_t rows = 0;
  size_t cursor = 0;
  while (cursor < bytes.size()) {
    const uint32_t size = RowLayout::RowSize(bytes.data() + cursor);
    if (size < 16 || cursor + size > bytes.size()) {
      return Status::Internal("corrupt salvaged spill file '" + segment.path +
                              "'");
    }
    IDF_RETURN_IF_ERROR(target.InsertEncoded(bytes.data() + cursor, size));
    cursor += size;
    ++rows;
  }
  if (rows != segment.rows) {
    return Status::Internal("salvaged spill file row count mismatch");
  }
  return Status::OK();
}

}  // namespace

IndexedRdd::~IndexedRdd() {
  mem::MemoryGovernor::Global().DropSalvage(rdd_id_);
}

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

Result<std::shared_ptr<IndexedRdd>> IndexedRdd::Restore(
    Session& session, SchemaPtr schema, size_t key_column,
    uint32_t num_partitions, uint32_t batch_capacity, PartitionLoader loader,
    QueryMetrics& metrics) {
  if (key_column >= schema->num_fields()) {
    return Status::InvalidArgument("index column out of range");
  }
  IDF_CHECK(loader != nullptr);
  TableHandle no_base;
  no_base.schema = schema;
  auto rdd = std::shared_ptr<IndexedRdd>(new IndexedRdd(
      session, no_base, key_column, num_partitions, batch_capacity));
  rdd->loader_ = std::move(loader);

  Cluster& cluster = session.cluster();
  std::atomic<uint64_t> total_rows{0};
  StageSpec stage;
  stage.name = "restore index";
  for (uint32_t p = 0; p < num_partitions; ++p) {
    stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd->rdd_id_, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<IndexedPartition> part,
                               rdd->loader_(p));
          if (part->schema() != *schema) {
            return Status::InvalidArgument(
                "loaded partition schema mismatch");
          }
          total_rows += part->num_rows();
          ctx.metrics().rows_written += part->num_rows();
          ctx.cluster().blocks().Put(BlockId{rdd->rdd_id_, p, 0},
                                     ctx.executor(), std::move(part));
          return Status::OK();
        },
        {}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  {
    std::lock_guard<std::mutex> lock(rdd->mutex_);
    rdd->versions_[0] = VersionInfo{0, TableHandle{}, total_rows.load()};
  }
  // Lineage: the loader is the replayable source for lost partitions.
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
    const std::function<Status(TaskContext&, uint32_t, RoutedBufferStream&)>&
        consume) {
  Cluster& cluster = session_->cluster();
  if (*source.schema != *schema_) {
    return Status::InvalidArgument(
        "appended rows must match the indexed schema: " + schema_->ToString() +
        " vs " + source.schema->ToString());
  }
  RowLayout layout(schema_);
  const uint64_t shuffle_id =
      cluster.shuffle().NewShuffle(source.num_partitions, num_partitions_);
  // Sampled once per shuffle so the map tasks, reduce tasks, and stage
  // scheduling below always agree on the transport.
  const bool pipelined = ShufflePipelineEnabled();

  // Map: route rows to their indexed partitions by key-code hash (§III-C
  // "its rows are shuffled based on the hash partitioning scheme"). Under
  // the streaming transport each per-target buffer is pushed into its
  // channel as it seals, so consumers start inserting mid-encode.
  StageSpec map_stage;
  map_stage.name = stage_name + " (shuffle)";
  for (uint32_t p = 0; p < source.num_partitions; ++p) {
    map_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(source.rdd_id, p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          // Scope: key_col stays valid across the encode loop even if the
          // budget enforcer runs while routed buffers allocate.
          mem::AccessScope scope;
          Result<ChunkPtr> chunk = FetchChunk(ctx, source, p);
          IDF_RETURN_IF_ERROR(chunk.status());
          const ColumnarChunk& input = **chunk;
          const ColumnVector& key_col = input.column(key_column_);
          ctx.metrics().rows_read += input.num_rows();

          ShuffleWriter writer(cluster.shuffle(), shuffle_id, p,
                               num_partitions_, ctx.executor(), pipelined,
                               input.num_rows());
          std::vector<uint8_t> scratch;  // reused across rows
          Status routed = Status::OK();
          for (size_t i = 0; i < input.num_rows() && routed.ok(); ++i) {
            // Null keys go to partition 0 (stored, never indexed).
            const uint32_t target =
                key_col.IsNull(i) ? 0 : PartitionOf(key_col.KeyCodeAt(i));
            input.EncodeRowTo(layout, i, scratch);
            routed = writer.Append(target, scratch.data(),
                                   static_cast<uint32_t>(scratch.size()));
          }
          // Finish unconditionally: it publishes remainders and (streaming)
          // marks this map task done so ordered consumers can advance.
          const Status finished = writer.Finish();
          ctx.metrics().shuffle_bytes_written += writer.bytes_written();
          return routed.ok() ? finished : routed;
        },
        {{source.rdd_id, p}}});
  }

  // Reduce: each partition drains its ordered routed-buffer stream.
  StageSpec reduce_stage;
  reduce_stage.name = stage_name + " (insert)";
  for (uint32_t t = 0; t < num_partitions_; ++t) {
    reduce_stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd_id_, t),
        {},
        0,
        [&, t](TaskContext& ctx) -> Status {
          std::unique_ptr<RoutedBufferStream> in =
              OpenReduceStream(ctx, shuffle_id, t, pipelined);
          return consume(ctx, t, *in);
        },
        {{rdd_id_, t}}});
  }

  Result<std::vector<StageMetrics>> stage_metrics =
      cluster.RunShuffleStages(shuffle_id, map_stage, reduce_stage, pipelined);
  cluster.shuffle().Release(shuffle_id);
  IDF_RETURN_IF_ERROR(stage_metrics.status());
  for (const StageMetrics& sm : *stage_metrics) metrics.MergeStage(sm);
  return Status::OK();
}

Status IndexedRdd::BuildBase(QueryMetrics& metrics) {
  std::atomic<uint64_t> total_rows{0};
  IDF_RETURN_IF_ERROR(ShuffleToPartitions(
      base_, "createIndex", metrics,
      [&](TaskContext& ctx, uint32_t partition,
          RoutedBufferStream& in) -> Status {
        auto part = std::make_shared<IndexedPartition>(schema_, key_column_,
                                                       batch_capacity_);
        // Version-0 batches are salvageable: if they spill, recovery can
        // reload the spill files instead of re-routing the base table.
        part->SetSpillTag(rdd_id_, partition);
        // Insert as buffers arrive; the gate keeps the batch layout
        // identical to a single up-front routed-bytes hint.
        GatedRowInserter inserter(*part);
        IDF_RETURN_IF_ERROR(InsertRoutedStream(in, inserter));
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
          RoutedBufferStream& in) -> Status {
        // Fetch the parent partition, snapshot it (O(1), shared state), and
        // insert the routed rows into the snapshot (§III-E) as their
        // buffers stream in.
        IDF_ASSIGN_OR_RETURN(
            std::shared_ptr<const IndexedPartition> parent,
            GetPartition(partition, parent_version, ctx));
        std::shared_ptr<IndexedPartition> next = parent->Snapshot();
        ++ctx.metrics().ctrie_snapshots;
        GatedRowInserter inserter(*next);
        IDF_RETURN_IF_ERROR(InsertRoutedStream(in, inserter));
        // `next` starts with zero COW opens, so this is exactly the number
        // of sealed-tail divergences caused by this append (Fig. 9).
        ctx.metrics().batch_copies += next->cow_batch_opens();
        appended += inserter.rows_inserted();
        ctx.metrics().rows_written += inserter.rows_inserted();
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

Status IndexedRdd::InsertRoutedRows(const TableHandle& table,
                                    uint32_t partition,
                                    IndexedPartition& target,
                                    TaskContext& ctx,
                                    uint64_t skip_rows) const {
  RowLayout layout(schema_);
  std::vector<uint8_t> scratch;
  for (uint32_t p = 0; p < table.num_partitions; ++p) {
    // Per-chunk scope: pins at most one source chunk at a time, so a tight
    // budget never needs the whole table resident to rebuild one partition.
    mem::AccessScope chunk_scope;
    IDF_ASSIGN_OR_RETURN(ChunkPtr chunk, FetchChunk(ctx, table, p));
    const ColumnVector& key_col = chunk->column(key_column_);
    for (size_t i = 0; i < chunk->num_rows(); ++i) {
      const uint32_t t =
          key_col.IsNull(i) ? 0 : PartitionOf(key_col.KeyCodeAt(i));
      if (t != partition) continue;
      if (skip_rows > 0) {
        --skip_rows;
        continue;
      }
      chunk->EncodeRowTo(layout, i, scratch);
      IDF_RETURN_IF_ERROR(target.InsertEncoded(
          scratch.data(), static_cast<uint32_t>(scratch.size())));
    }
  }
  return Status::OK();
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

  std::shared_ptr<IndexedPartition> part;
  if (loader_ != nullptr) {
    // Out-of-core RDD: the spill file is the replayable source.
    IDF_ASSIGN_OR_RETURN(part, loader_(partition));
  } else {
    part = std::make_shared<IndexedPartition>(schema_, key_column_,
                                              batch_capacity_);
    part->SetSpillTag(rdd_id_, partition);
    // Before re-routing the base table, check the governor's salvage
    // catalog: batches of the lost partition that were spilled to local
    // disk survive the block loss, and replaying their files is a
    // sequential read instead of a full base-table scan. Only a contiguous
    // prefix is usable — routing order is deterministic, so after reloading
    // the first M routed rows from spill we resume the re-route at row M.
    uint64_t salvaged_rows = 0;
    uint64_t salvaged_bytes = 0;
    const std::vector<mem::SalvageSegment> segments =
        mem::MemoryGovernor::Global().SalvagePrefix(rdd_id_, partition);
    for (const mem::SalvageSegment& segment : segments) {
      salvaged_bytes += segment.bytes;
    }
    part->ReserveHint(salvaged_bytes);
    for (const mem::SalvageSegment& segment : segments) {
      IDF_RETURN_IF_ERROR(ReplaySalvageSegment(segment, *part));
      salvaged_rows += segment.rows;
    }
    if (!segments.empty()) {
      IDF_LOG_INFO("salvaged %llu rows of rdd %llu partition %u from %zu "
                   "spill files",
                   static_cast<unsigned long long>(salvaged_rows),
                   static_cast<unsigned long long>(rdd_id_), partition,
                   segments.size());
    }
    IDF_RETURN_IF_ERROR(
        InsertRoutedRows(base_, partition, *part, ctx, salvaged_rows));
    // The append replay below writes into this same store. Salvage maps a
    // catalog prefix 1:1 onto base routing order, so batches holding append
    // rows (or a base/append mix in the tail) must never register: seal the
    // base-only tail and stop tagging before the first append row lands.
    part->ClearSpillTag();
  }
  for (const TableHandle& append : appends) {
    IDF_RETURN_IF_ERROR(InsertRoutedRows(append, partition, *part, ctx));
  }
  part->SealStorage();  // rebuilt: evictable from here on
  return BlockPtr(part);
}

// ---- IndexedDataset ---------------------------------------------------------

Result<TableHandle> IndexedDataset::ScanAsColumnar(
    Session& session, QueryMetrics& metrics) const {
  Cluster& cluster = session.cluster();
  TableSink sink(session, rdd_->schema(), rdd_->num_partitions());
  StageSpec stage;
  stage.name = "indexed fallback scan";
  for (uint32_t p = 0; p < rdd_->num_partitions(); ++p) {
    stage.tasks.push_back(TaskSpec{
        cluster.HomeExecutorFor(rdd_->rdd_id(), p),
        {},
        0,
        [&, p](TaskContext& ctx) -> Status {
          IDF_ASSIGN_OR_RETURN(std::shared_ptr<const IndexedPartition> part,
                               rdd_->GetPartition(p, version_, ctx));
          // Row-to-columnar conversion: the real cost of running regular
          // operators over the row-wise indexed representation (Fig. 8).
          // The scan scope pins each batch once for the whole conversion.
          mem::AccessScope scan_scope;
          ChunkBuilder builder(rdd_->schema());
          const RowLayout& layout = part->layout();
          part->ForEachRow([&](const uint8_t* row) {
            builder.AddEncodedRow(layout, row);
          });
          ctx.metrics().rows_read += part->num_rows();
          sink.Emit(ctx, p, builder.Finish());
          return Status::OK();
        },
        {{rdd_->rdd_id(), p}}});
  }
  IDF_ASSIGN_OR_RETURN(StageMetrics sm, cluster.RunStage(stage));
  metrics.MergeStage(sm);
  return sink.Finish();
}

}  // namespace idf
