// IndexedRdd: the distributed, multi-versioned Indexed Batch RDD (§III-C/D/E).
//
// - Hash-partitioned on the indexed key: row with key code c lives in
//   partition HashPartition(c, P) — index creation and appends shuffle rows
//   to their partitions; lookups and joins route probes the same way.
// - Versioned: every append mints a new version; blocks are keyed
//   (rdd, partition, version) so the scheduler can never read stale replicas
//   (§III-D). Divergent appends from one parent get *distinct* versions,
//   recorded in a version tree (§III-E / Listing 2).
// - Fault tolerant by lineage: a lost partition is rebuilt by re-routing the
//   base table's rows and replaying every append along the version chain.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "core/indexed_partition.h"
#include "sql/session.h"

namespace idf {

struct IndexOptions {
  /// Indexed partitions; 0 = the session default.
  uint32_t num_partitions = 0;
  /// Row batch size (§IV-B Fig. 5: 4 MB is the sweet spot).
  uint32_t batch_capacity = RowBatch::kDefaultCapacity;
};

class IndexedRdd : public std::enable_shared_from_this<IndexedRdd> {
 public:
  /// Creates the RDD and builds version 0 by hash-shuffling `base` on the
  /// key column. Registers lineage with the cluster.
  static Result<std::shared_ptr<IndexedRdd>> Create(Session& session,
                                                    const TableHandle& base,
                                                    size_t key_column,
                                                    const IndexOptions& options,
                                                    QueryMetrics& metrics);

  uint64_t rdd_id() const { return rdd_id_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t key_column() const { return key_column_; }
  uint32_t num_partitions() const { return num_partitions_; }
  Session& session() const { return *session_; }

  uint32_t PartitionOf(uint64_t key_code) const {
    return HashPartition(key_code, num_partitions_);
  }

  /// Appends the rows of `rows` to `parent_version`, producing a new version
  /// (returned). Both the parent and the new version remain queryable.
  Result<uint64_t> Append(uint64_t parent_version, const TableHandle& rows,
                          QueryMetrics& metrics);

  /// Fetches (or lineage-recomputes) one indexed partition at a version.
  Result<std::shared_ptr<const IndexedPartition>> GetPartition(
      uint32_t partition, uint64_t version, TaskContext& ctx) const;

  /// Runs stage `stage_name` with one task per partition, each on its
  /// partition's home executor and declaring the partition as its input:
  /// body(ctx, p, partition) gets partition p at `version`. Stage metrics
  /// merge into `metrics`.
  Status ForEachPartition(
      const std::string& stage_name, uint64_t version, QueryMetrics& metrics,
      const std::function<Status(TaskContext&, uint32_t,
                                 const IndexedPartition&)>& body) const;

  /// Rows in a version (sum over partitions, tracked at build/append time).
  uint64_t RowsAtVersion(uint64_t version) const;

  /// All live versions (for tests and tooling).
  std::vector<uint64_t> Versions() const;

 private:
  IndexedRdd(Session& session, TableHandle base, size_t key_column,
             uint32_t num_partitions, uint32_t batch_capacity);

  struct VersionInfo {
    uint64_t parent = 0;        // meaningless for version 0
    TableHandle append_source;  // invalid for version 0
    uint64_t num_rows = 0;      // cumulative rows at this version
  };

  /// The partition a row with key code `code` is stored in; null keys go
  /// to partition 0 (stored, never indexed).
  uint32_t TargetOf(std::optional<uint64_t> code) const {
    return code ? PartitionOf(*code) : 0;
  }

  /// Builds version 0 with a real shuffle (map: route rows; reduce: insert).
  Status BuildBase(QueryMetrics& metrics);

  /// Shuffles `source` rows to their indexed partitions: a map stage routes
  /// them, then a reduce stage runs `consume` per partition over the
  /// buffers routed to it, in map-task order.
  Status ShuffleToPartitions(
      const TableHandle& source, const std::string& stage_name,
      QueryMetrics& metrics,
      const std::function<Status(TaskContext&, uint32_t partition,
                                 const ShuffleInputs& inputs)>& consume);

  /// Lineage recomputation: rebuild partition `p` at `version` by routing the
  /// base rows and replaying appends along the version chain (§III-D: "if
  /// there were any appends on that particular partition, these have to be
  /// replayed as well").
  Result<BlockPtr> Recompute(uint32_t partition, uint64_t version,
                             TaskContext& ctx) const;

  /// Encodes every row of `table` that routes to `partition`, in routing
  /// order, into one buffer: the reduce input the shuffle would deliver
  /// (driver of the recompute path; scans the full table like Spark's
  /// re-shuffle would).
  Result<ShuffleInputs> RouteRows(const TableHandle& table,
                                  uint32_t partition, TaskContext& ctx) const;

  Session* session_;
  RddLeasePtr lease_;           // this RDD's own blocks, every version
  uint64_t rdd_id_;
  // Lineage replays base_ and each version's append_source, so their
  // handles (and leases) live as long as this RDD.
  TableHandle base_;
  SchemaPtr schema_;
  size_t key_column_;
  uint32_t num_partitions_;
  uint32_t batch_capacity_;

  mutable std::mutex mutex_;
  std::map<uint64_t, VersionInfo> versions_;
  uint64_t next_version_ = 1;
};

/// Adapts an (IndexedRdd, version) pair to the SQL layer's Dataset so scans,
/// joins and filters of indexed dataframes flow through the planner. The
/// index-aware strategies recognize this type; everything else falls back to
/// Scan (the regular "Spark Row RDD" path of Fig. 2), which pushes row
/// blocks naming only the columns its pipeline reads: the partial
/// aggregate folds them as rows, other consumers decode them to columns.
class IndexedDataset final : public Dataset {
 public:
  IndexedDataset(std::shared_ptr<IndexedRdd> rdd, uint64_t version)
      : rdd_(std::move(rdd)), version_(version) {}

  const SchemaPtr& schema() const override { return rdd_->schema(); }
  uint32_t num_partitions() const override { return rdd_->num_partitions(); }
  int indexed_column() const override {
    return static_cast<int>(rdd_->key_column());
  }
  std::string name() const override {
    return "indexed(rdd=" + std::to_string(rdd_->rdd_id()) +
           ", v=" + std::to_string(version_) + ")";
  }

  Result<Pipeline> Scan(Session& session, QueryMetrics& metrics,
                        const ColumnReads& reads) const override;

  const std::shared_ptr<IndexedRdd>& rdd() const { return rdd_; }
  uint64_t version() const { return version_; }

 private:
  std::shared_ptr<IndexedRdd> rdd_;
  uint64_t version_;
};

}  // namespace idf
